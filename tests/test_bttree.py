import random

import pytest

from cyclelift import bttree
from cyclelift.bttree import (
    VertexLattice,
    central_lattice,
    distance,
    standard_lattices,
    tree_ball,
)
from cyclelift.errors import DegenerateVectorError, PrecisionExhaustedError
from cyclelift.padic import LocalContext, VectorC, herm, qform
from oracles import distance_bfs

CTX = LocalContext(p=5, delta_sq=-2, precision=26)
CTX3 = LocalContext(p=3, delta_sq=-10, precision=26)
LAM0, LAM0P = standard_lattices(CTX)


def vec(ctx, a0, a1, denom=0):
    return ctx.vector_from_ints(a0, a1, denom)


class TestStandardLattices:
    def test_types(self):
        assert LAM0.vtype == 0
        assert LAM0P.vtype == 2

    def test_adjacent(self):
        assert distance(LAM0, LAM0P) == 1

    def test_dual_relations(self):
        assert LAM0.dual() == LAM0
        assert LAM0P.dual() == LAM0P.scale_p_power(1)
        assert LAM0.scale_p_power(1).dual() == LAM0.scale_p_power(-1)

    def test_dual_is_involution(self):
        for lat in (LAM0, LAM0P, LAM0.scale_p_power(2)):
            assert lat.dual().dual() == lat


class TestCanonicalForm:
    def test_same_lattice_different_generators(self):
        a = VertexLattice.from_vectors(vec(CTX, (1, 0), (0, 0)), vec(CTX, (0, 0), (1, 0)))
        b = VertexLattice.from_vectors(vec(CTX, (3, 1), (2, 0)), vec(CTX, (1, 2), (1, 1)))
        # second pair has unit determinant 3+d)(1+d)... check directly:
        # det = (3+d)(1+d) - (2)(1+2d) = (3 + 4d + d^2) - 2 - 4d = 1 + d^2 = -1
        assert a == b
        assert hash(a) == hash(b)

    def test_degenerate_rejected(self):
        # Proportional columns: truncated arithmetic cannot distinguish
        # genuine dependence from precision starvation, so this is a
        # precision error by design.
        with pytest.raises(PrecisionExhaustedError):
            VertexLattice.from_vectors(vec(CTX, (1, 0), (1, 0)), vec(CTX, (2, 0), (2, 0)))
        # Both generators inside span(v1): detected as degenerate.
        with pytest.raises(DegenerateVectorError):
            VertexLattice.from_vectors(vec(CTX, (0, 0), (1, 0)), vec(CTX, (0, 0), (0, 1)))

    def test_non_vertex_lattice_classified(self):
        skew = VertexLattice.from_vectors(vec(CTX, (5, 0), (0, 0)), vec(CTX, (0, 0), (1, 0)))
        assert skew.vtype is None
        with pytest.raises(ValueError):
            skew.require_vertex()


class TestNeighbors:
    def test_count_and_types(self):
        nbs = LAM0.neighbors()
        assert len(nbs) == CTX.p + 1
        assert all(nb.vtype == 2 for nb in nbs)
        assert len({nb.key for nb in nbs}) == CTX.p + 1
        assert any(nb == LAM0P for nb in nbs)

    def test_type2_neighbors(self):
        nbs = LAM0P.neighbors()
        assert len(nbs) == CTX.p + 1
        assert all(nb.vtype == 0 for nb in nbs)
        assert any(nb == LAM0 for nb in nbs)

    def test_neighbor_relation_symmetric(self):
        for nb in LAM0.neighbors():
            assert any(back == LAM0 for back in nb.neighbors())

    def test_hyperbolic_basis_properties(self):
        for ctx in (CTX, CTX3):
            lam0, _ = standard_lattices(ctx)
            ball = tree_ball(lam0, 2)
            for lat, _ in ball:
                u0, u1 = lat.hyperbolic_basis()
                assert qform(u0).is_isotropic
                assert qform(u1).is_isotropic
                # pairing p^exp * val must equal delta (type 0) or
                # delta / p (type 2)
                val, exp = herm(u0, u1)
                target_exp = 0 if lat.vtype == 0 else -1
                shift = target_exp - exp
                assert shift >= 0
                assert val == ctx.delta().mul_int(ctx.p**shift)
                # both vectors lie in the lattice and span it
                assert lat.r_invariant(u0) == 0
                assert lat.r_invariant(u1) == 0
                assert VertexLattice.from_vectors(u0, u1) == lat


class TestRInvariant:
    def test_spec_examples(self):
        b = vec(CTX, (0, 1), (1, 0))
        assert LAM0.r_invariant(b) == 0
        b5 = vec(CTX, (0, 5), (5, 0))
        assert LAM0.r_invariant(b5) == 1
        assert LAM0P.r_invariant(b) == 0

    def test_negative_r(self):
        b = vec(CTX, (0, 1), (1, 0), denom=2)  # p^-2 (delta, 1)
        assert LAM0.r_invariant(b) == -2
        assert not LAM0.contains(b)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateVectorError):
            LAM0.r_invariant(vec(CTX, (0, 0), (0, 0)))

    def test_vanished_numerator_does_not_guess(self):
        # L = span{p^-2 v0, p^2 v1}, so r(x0, x1) = min(v(x0), v(x1) - 4) + 2.
        # Known to 3 digits, x1 = 0 fits both 3^3 (r = 1) and 3^4 (r = 2).
        ctx = LocalContext(p=3, delta_sq=-10, precision=20)
        ball = tree_ball(standard_lattices(ctx)[0], 4)
        lat = next(lat for lat, _ in ball if lat.key == (2, 0, 4, (0, 0)))
        one = ctx.elem(1, 0, 20)
        assert lat.r_invariant(ctx.vector(one, ctx.elem(27, 0, 20))) == 1
        assert lat.r_invariant(ctx.vector(one, ctx.elem(81, 0, 20))) == 2
        with pytest.raises(PrecisionExhaustedError) as info:
            lat.r_invariant(ctx.vector(one, ctx.elem(0, 0, 3)))
        assert info.value.needed == 4
        # With 4 digits, v(x1) >= 4 already decides r = 2.
        assert lat.r_invariant(ctx.vector(one, ctx.elem(0, 0, 4))) == 2

    def test_normalizing_a_vanished_coordinate_raises_like_vectorc(self):
        # (0 mod 3^2, 27 mod 3^20): moving 3^3 into the denominator would
        # leave the zero coordinate known to -1 digits; 4 are needed.
        ctx = LocalContext(p=3, delta_sq=-10, precision=20)
        with pytest.raises(PrecisionExhaustedError) as tuple_path:
            bttree._vector(ctx, 0, 0, 0, 2, 27, 0, 20)
        with pytest.raises(PrecisionExhaustedError) as object_path:
            VectorC(ctx, ctx.elem(0, 0, 2), ctx.elem(27, 0, 20))
        assert str(tuple_path.value) == str(object_path.value) == "no residual precision left"
        assert tuple_path.value.needed == object_path.value.needed == 4


class TestCentralLattice:
    def test_spec_examples(self):
        b = vec(CTX, (0, 1), (1, 0))
        assert central_lattice(b) == LAM0
        assert central_lattice(vec(CTX, (0, 5), (5, 0))) == LAM0
        with pytest.raises(DegenerateVectorError):
            central_lattice(vec(CTX, (1, 0), (0, 0)))

    def test_type_matches_norm_parity(self):
        rng = random.Random(17)
        for ctx in (CTX, CTX3):
            for _ in range(40):
                a0 = (rng.randrange(ctx.p**4), rng.randrange(ctx.p**4))
                a1 = (rng.randrange(ctx.p**4), rng.randrange(ctx.p**4))
                if all(x % ctx.p == 0 for x in a0 + a1):
                    continue
                b = ctx.vector_from_ints(a0, a1)
                q = qform(b)
                if q.is_isotropic:
                    continue
                lat = central_lattice(b)
                assert lat.vtype == (0 if q.valuation % 2 == 0 else 2)
                # dual certification agrees with the parity shortcut
                assert lat.dual().key == (
                    lat.key if lat.vtype == 0 else lat.scale_p_power(1).key
                )

    def test_uniqueness_within_radius(self):
        # For b with ord q = 0 there is exactly one type-0 lattice with
        # r = 0 within radius 4 (the central-lattice uniqueness).
        rng = random.Random(42)
        found_cases = 0
        while found_cases < 5:
            a0 = (rng.randrange(625), rng.randrange(625))
            a1 = (rng.randrange(625), rng.randrange(625))
            if all(x % 5 == 0 for x in a0 + a1):
                continue
            b = CTX.vector_from_ints(a0, a1)
            q = qform(b)
            if q.is_isotropic or q.valuation % 2 != 0:
                continue
            b = b.scale_p_power(-q.valuation // 2)
            center = central_lattice(b)
            hits = [
                lat
                for lat, _ in tree_ball(center, 4)
                if lat.vtype == 0 and lat.r_invariant(b) == 0
            ]
            assert len(hits) == 1 and hits[0] == center
            found_cases += 1


class TestDistanceAndBall:
    def test_spec_examples(self):
        assert distance(LAM0, LAM0) == 0
        assert distance(LAM0, LAM0P) == 1
        far = VertexLattice.from_vectors(
            vec(CTX, (1, 0), (0, 0), denom=1), vec(CTX, (0, 0), (5, 0))
        )
        assert distance(LAM0, far) == 2

    def test_parity(self):
        for lat, d in tree_ball(LAM0, 3):
            assert (d % 2 == 0) == (lat.vtype == 0)

    def test_tree_regularity(self):
        for ctx in (CTX3, CTX):
            lam0, _ = standard_lattices(ctx)
            ball = tree_ball(lam0, 4)
            counts = {}
            for lat, d in ball:
                counts[d] = counts.get(d, 0) + 1
            p = ctx.p
            assert counts[0] == 1
            for k in range(1, 5):
                assert counts[k] == (p + 1) * p ** (k - 1), (ctx.p, k)
            keys = [lat.key for lat, _ in ball]
            assert len(keys) == len(set(keys))

    def test_ball_distances_match_bfs_distance(self):
        rng = random.Random(3)
        ball = tree_ball(LAM0, 3)
        for lat, d in rng.sample(ball, 10):
            assert distance(LAM0, lat) == d

    def test_invariant_factor_distance_against_bfs_reference(self):
        rng = random.Random(9)
        for ctx in (CTX3, CTX):
            lam0, _ = standard_lattices(ctx)
            ball = tree_ball(lam0, 3)
            npairs = 20 if ctx.p == 3 else 6
            for _ in range(npairs):
                a = rng.choice(ball)[0]
                b = rng.choice(ball)[0]
                assert distance(a, b) == distance_bfs(a, b, radius_cap=8)
