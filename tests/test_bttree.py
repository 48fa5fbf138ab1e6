import itertools
import random
import tracemalloc

import pytest

from cyclelift import bttree, sweeps
from cyclelift.bttree import (
    VertexLattice,
    ball_size,
    ball_vertex,
    central_lattice,
    distance,
    sphere_numerators,
    sphere_r_invariants,
    standard_lattices,
    tree_ball,
)
from cyclelift.errors import DegenerateVectorError
from cyclelift.padic import LocalContext, herm, qform
import oracles

CTX = LocalContext(p=5, delta_sq=-2)
CTX3 = LocalContext(p=3, delta_sq=-10)
LAM0, LAM0P = standard_lattices(CTX)


def vec(ctx, a0, a1, denom=0):
    return ctx.vector_from_ints(a0, a1, denom)


# One inert Delta per prime, with the truncated oracle's smallest working
# precision and a roomy one.
PRIME_GRID = [
    (pd, precision) for pd in ((3, -1), (5, -2), (7, -1), (11, -1)) for precision in (8, 40)
]


def central_lattices(ctx, depth=9):
    """Central lattices of v0 + (r + p^k delta) v1 and its mirror, at tree
    distance k < depth from Lambda0, for a random r of 40 digits."""
    p = ctx.p
    rng = random.Random(p)
    for k in range(depth):
        r = rng.randrange(p**40)
        yield central_lattice(vec(ctx, (1, 0), (r, p**k)))
        yield central_lattice(vec(ctx, (r, p**k), (1, 0)))


def rebuilt_through_dual(lat):
    """The same vertex lattice built again from its dual, so that it
    carries no inherited hyperbolic basis."""
    dual = lat.dual()
    return dual if lat.vtype == 0 else dual.scale_p_power(-1)


def assert_hyperbolic(lat):
    """(u0, u1) is isotropic, pairs to delta (type 0) or delta / p
    (type 2), and spans the lattice."""
    ctx = lat.ctx
    u0, u1 = lat.hyperbolic_basis()
    assert qform(u0) is None
    assert qform(u1) is None
    val, exp = herm(u0, u1)
    shift = (0 if lat.vtype == 0 else -1) - exp
    assert shift >= 0
    assert val == ctx.delta().mul_int(ctx.p**shift)
    assert lat.r_invariant(u0) == 0
    assert lat.r_invariant(u1) == 0
    assert VertexLattice.from_vectors(u0, u1).key == lat.key


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
        # Proportional columns: the exact determinant is zero.  The
        # truncated oracle cannot tell genuine dependence from precision
        # starvation, so it raises a precision error instead.
        with pytest.raises(DegenerateVectorError):
            VertexLattice.from_vectors(vec(CTX, (1, 0), (1, 0)), vec(CTX, (2, 0), (2, 0)))
        tctx = oracles.TruncatedContext(5, -2, 26)
        with pytest.raises(oracles.TruncationExhausted):
            oracles.ObjectLattice.from_vectors(
                tctx.vector_from_ints((1, 0), (1, 0)), tctx.vector_from_ints((2, 0), (2, 0))
            )
        # Both generators inside span(v1): degenerate on both sides.
        with pytest.raises(DegenerateVectorError):
            VertexLattice.from_vectors(vec(CTX, (0, 0), (1, 0)), vec(CTX, (0, 0), (0, 1)))
        with pytest.raises(DegenerateVectorError):
            oracles.ObjectLattice.from_vectors(
                tctx.vector_from_ints((0, 0), (1, 0)), tctx.vector_from_ints((0, 0), (0, 1))
            )

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
        # Lambda0 balls and the balls around central lattices at depth 0,
        # 3 and 6 inherit their exact bases; central lattices and the
        # lattices rebuilt through their duals use their canonical ones.
        for ctx in (CTX, CTX3):
            lam0, _ = standard_lattices(ctx)
            for lat, _ in tree_ball(lam0, 2):
                assert_hyperbolic(lat)
        for p, delta in ((3, -1), (5, -2), (7, -1), (11, -1), (13, -2)):
            ctx = LocalContext(p=p, delta_sq=delta)
            for center in itertools.islice(central_lattices(ctx), 0, None, 6):
                for lat, _ in tree_ball(center, 3):
                    assert_hyperbolic(lat)
        for (p, delta), _ in PRIME_GRID[::2]:
            ctx = LocalContext(p=p, delta_sq=delta)
            for lat in central_lattices(ctx):
                assert_hyperbolic(lat)
                assert_hyperbolic(rebuilt_through_dual(lat))

    def test_canonical_basis_refines_the_hensel_reference(self):
        # The Hensel build, on the truncated ring, finds the same basis in
        # value to the digits it keeps; at p = 3, precision 8 it even
        # returns a u1 that is zero at its precision, where the core's is
        # exact.  Lattices are rebuilt from (key, type) so that neither
        # side inherits a basis.
        deep_ctx = oracles.TruncatedContext(3, -10, 8)
        deep_key = (2, 0, 4, (0, 0))
        cases = [(LocalContext(3, -10), deep_ctx, (deep_key, 0))]
        for (p, delta), precision in PRIME_GRID:
            ctx = LocalContext(p=p, delta_sq=delta)
            tctx = oracles.TruncatedContext(p, delta, precision)
            lam0, _ = standard_lattices(ctx)
            lats = [lat for lat, _ in tree_ball(lam0, 2)]
            lats += central_lattices(ctx, 2 if precision == 8 else 9)
            cases += [(ctx, tctx, (lat.key, lat.vtype)) for lat in lats]
        for ctx, tctx, (key, vtype) in cases:
            core = VertexLattice(ctx, *key).hyperbolic_basis()
            ref = oracles.hensel_hyperbolic_basis(oracles.ObjectLattice(tctx, *key, vtype))
            for u, r in zip(core, ref):
                assert oracles.agrees(u, r), (ctx.p, key)
        _, ref_u1 = oracles.hensel_hyperbolic_basis(oracles.ObjectLattice(deep_ctx, *deep_key, 0))
        assert ref_u1.is_zero()
        _, core_u1 = VertexLattice(LocalContext(3, -10), *deep_key).hyperbolic_basis()
        assert (core_u1.a0.x, core_u1.a1.x, core_u1.denom_exp) == (0, 1, -2)

    def test_hyperbolic_basis_keeps_every_digit(self):
        # The moves put p^4 into u0's column at this vertex.  The core's
        # inherited basis is exact, and the oracle's, walked along the
        # same moves on the truncated ring at 20 digits, agrees with it.
        ctx = LocalContext(p=3, delta_sq=-10)
        ball = tree_ball(standard_lattices(ctx)[0], 4)
        lat = next(lat for lat, _ in ball if lat.key == (2, 0, 4, (80, 0)))
        tctx = oracles.TruncatedContext(3, -10, 20)
        ref_ball = oracles.tree_ball(oracles.standard_lattices(tctx)[0], 4)
        ref = next(lat for lat, _ in ref_ball if lat.key == (2, 0, 4, (80, 0)))
        for u, r in zip(lat.hyperbolic_basis(), ref.hyperbolic_basis()):
            assert u.a0.y == u.a1.y == 0
            assert oracles.agrees(u, r)
        assert_hyperbolic(lat)

    def test_canonical_offset_with_delta_part_is_not_hyperbolic(self):
        # span{v0 + delta v1, p v1}: a + b = 2e + 1, and its dual
        # conjugates the offset, so it is no vertex and has no basis.
        fake = VertexLattice(CTX, 0, 0, 1, (0, 1))
        assert fake.dual().off == (0, CTX.p - 1)
        assert fake.vtype is None
        with pytest.raises(ValueError):
            fake.hyperbolic_basis()


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
        with pytest.raises(DegenerateVectorError):
            sphere_r_invariants(LAM0, vec(CTX, (0, 0), (0, 0)), 1)
        with pytest.raises(DegenerateVectorError):
            LAM0.coordinates(vec(CTX, (0, 0), (0, 0)))

    def test_vanished_numerator_does_not_guess(self):
        # L = span{p^-2 v0, p^2 v1}, so r(x0, x1) = min(v(x0), v(x1) - 4) + 2.
        # Known to 3 digits, x1 = 0 fits both 3^3 (r = 1) and 3^4 (r = 2):
        # the truncated oracle refuses to choose, and the core, which only
        # ever sees exact vectors, decides each lift.
        ctx = LocalContext(p=3, delta_sq=-10)
        ball = tree_ball(standard_lattices(ctx)[0], 4)
        lat = next(lat for lat, _ in ball if lat.key == (2, 0, 4, (0, 0)))
        assert lat.r_invariant(vec(ctx, (1, 0), (27, 0))) == 1
        assert lat.r_invariant(vec(ctx, (1, 0), (81, 0))) == 2
        assert lat.r_invariant(vec(ctx, (1, 0), (0, 0))) == 2
        tctx = oracles.TruncatedContext(3, -10, 20)
        ref = oracles.ObjectLattice(tctx, *lat.key)
        one = tctx.elem(1, 0, 20)
        with pytest.raises(oracles.TruncationExhausted) as info:
            ref.r_invariant(tctx.vector(one, tctx.elem(0, 0, 3)))
        assert info.value.needed == 4
        # With 4 digits, v(x1) >= 4 already decides r = 2, as for every lift.
        assert ref.r_invariant(tctx.vector(one, tctx.elem(0, 0, 4))) == 2


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
                if q is None:
                    continue
                lat = central_lattice(b)
                assert lat.vtype == (0 if q % 2 == 0 else 2)
                # dual certification agrees with the parity shortcut
                assert lat.dual().key == (
                    lat.key if lat.vtype == 0 else lat.scale_p_power(1).key
                )

    @pytest.mark.parametrize("p, delta", [(3, -1), (5, -2), (7, -1), (11, -1), (13, -2)])
    def test_derived_precision_decides_every_exact_vector(self, p, delta):
        # The exact central_lattice gives the key the truncated oracle
        # gives at oracles.central_precision of the integer coordinates,
        # where the oracle never raises.  The vectors: the family
        # (p^k + p^k d, 1 + (1 + p^m) d), whose pivots sit near p^k and
        # whose norm has valuation k + m, its mirror, and random
        # coordinates of random length and sign times random p-powers,
        # over random denominators.
        rng = random.Random(p)
        cases = [((p**k, p**k), (1, 1 + p**m)) for k in range(40) for m in range(40)]
        cases += [(a1, a0) for a0, a1 in cases[::4]]
        while len(cases) < 2400:
            coords = [rng.randrange(-p ** rng.randrange(1, 12), p**12) * p ** rng.randrange(8)
                      for _ in range(4)]
            cases.append((tuple(coords[:2]), tuple(coords[2:])))
        ctx = LocalContext(p=p, delta_sq=delta)
        decided = 0
        for a0, a1 in cases:
            denom = rng.randrange(-3, 4)
            b = ctx.vector_from_ints(a0, a1, denom)
            if a1[0] * a0[1] == a0[0] * a1[1]:
                # isotropic: no central lattice
                with pytest.raises(DegenerateVectorError):
                    central_lattice(b)
                continue
            tctx = oracles.TruncatedContext(p, delta, oracles.central_precision(p, *a0, *a1))
            ref = oracles.central_lattice(tctx.vector_from_ints(a0, a1, denom))
            assert central_lattice(b).key == ref.key
            decided += 1
        assert decided >= 2000

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
            if q is None or q % 2 != 0:
                continue
            b = b.scale_p_power(-q // 2)
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
                assert distance(a, b) == oracles.distance_bfs(a, b, radius_cap=8)

    def test_long_walk_at_low_precision(self):
        # Twenty steps from Lambda0 put pivots far past the 8 digits of the
        # truncated ring's smallest precision; dual, type and distance read
        # the integer key.
        for p, delta in ((3, -1), (5, -2)):
            ctx = LocalContext(p=p, delta_sq=delta)
            rng = random.Random(p)
            lam0, _ = standard_lattices(ctx)
            prev, v = None, lam0
            for step in range(21):
                assert distance(lam0, v) == step
                assert v.vtype == (0 if step % 2 == 0 else 2)
                assert v.dual().dual() == v
                nbs = v.neighbors()
                assert all(distance(v, nb) == 1 for nb in nbs)
                prev, v = v, rng.choice([nb for nb in nbs if nb != prev])
            assert max(v.piv0, v.piv1) > oracles.MIN_PRECISION

    def test_ball_skips_the_parent_by_index(self):
        # The same keys, in order, as a walk that builds every neighbour
        # and drops the parent by key.
        for p, delta in ((3, -1), (5, -2), (7, -1), (11, -1), (13, -2)):
            ctx = LocalContext(p=p, delta_sq=delta)
            radius = {3: 5, 5: 3}.get(p, 2)
            centers = list(standard_lattices(ctx)) + list(
                itertools.islice(central_lattices(ctx), 0, None, 5)
            )
            for center in centers:
                keys = [(lat.key, d) for lat, d in tree_ball(center, radius)]
                ref = [(lat.key, d) for lat, d in oracles.tree_ball(center, radius)]
                assert keys == ref, (p, center.key)


class TestBallVertex:
    @pytest.mark.parametrize("p, delta", [(3, -1), (5, -2), (7, -1), (11, -1), (13, -2)])
    def test_every_index_is_the_ball_entry(self, p, delta, monkeypatch):
        # Lambda0, Lambda0', central lattices of both types (canonical
        # bases) and a ball vertex (an inherited basis) as centres: each
        # index gives the ball's vertex, with its depth and the basis it
        # inherits along the path, and canonicalises one basis (one
        # `_child` call) past the centre, none at it.
        ctx = LocalContext(p=p, delta_sq=delta)
        radius = {3: 4, 5: 3}.get(p, 2)
        rng = random.Random(p)
        centrals = list(itertools.islice(central_lattices(ctx), 0, None, 4))
        while {c.vtype for c in centrals} != {0, 2}:
            centrals.append(central_lattice(random_vector(ctx, rng)))
        inherited = tree_ball(centrals[-1], 2)[-1][0]
        built = []
        child = bttree._child
        for center in [*standard_lattices(ctx), *centrals, inherited]:
            for i, (lat, d) in enumerate(tree_ball(center, radius)):
                built.clear()
                with monkeypatch.context() as m:
                    m.setattr(bttree, "_child", lambda *args: built.append(i) or child(*args))
                    got, depth = ball_vertex(center, i)
                assert len(built) == (1 if i else 0), (p, center.key, i)
                assert (got.key, depth) == (lat.key, d), (p, center.key, i)
                assert [repr(u) for u in got.hyperbolic_basis()] == [
                    repr(u) for u in lat.hyperbolic_basis()
                ], (p, center.key, i)


class TestWalkOrder:
    # Radius 4 at p = 3 and 5, 3 at p = 7, 11 and 13.
    @pytest.mark.parametrize("p, delta", [(3, -1), (5, -2), (7, -1), (11, -1), (13, -2)])
    def test_parent_index_and_depth_from_the_ball_index(self, p, delta):
        # The rule the tree sweeps read neighbour depths by: the first
        # vertex of sphere d >= 1 finds its parent at neighbour index 1,
        # every other vertex past the centre at index 0, and every other
        # neighbour is one step farther out.  Checked against `distance`
        # around Lambda0, Lambda0' and random central lattices, with
        # ball_vertex built alone at each sphere's first and last index.
        ctx = LocalContext(p=p, delta_sq=delta)
        radius = {3: 4, 5: 4}.get(p, 3)
        rng = random.Random(p)
        centers = [*standard_lattices(ctx),
                   *(central_lattice(random_vector(ctx, rng)) for _ in range(2))]
        for center in centers:
            ball = tree_ball(center, radius)
            for i, (lat, d) in enumerate(ball):
                up = None if d == 0 else 1 if i == ball_size(p, d - 1) else 0
                got = [distance(nb, center) for nb in lat.neighbors()]
                assert got == [d - 1 if k == up else d + 1 for k in range(p + 1)], (i, d)
            for d in range(1, radius + 1):
                for i in (ball_size(p, d - 1), ball_size(p, d) - 1):
                    lat, depth = ball_vertex(center, i)
                    assert (lat.key, depth) == (ball[i][0].key, d), (center.key, i)


def random_vector(ctx, rng, digits=6):
    """An anisotropic vector with coordinates mod p^digits, the second
    skewed by a random p-power, and a denominator exponent in [-3, 2]."""
    p = ctx.p
    while True:
        a0 = (rng.randrange(p**digits), rng.randrange(p**digits))
        skew = p ** rng.randrange(4)
        a1 = (rng.randrange(p**digits) * skew, rng.randrange(p**digits) * skew)
        if all(x % p == 0 for x in a0 + a1):
            continue
        b = ctx.vector_from_ints(a0, a1, rng.randrange(-3, 3))
        if qform(b) is not None:
            return b


def lift(ctx, b, rng):
    """A random exact vector of ctx that agrees with the truncated b in
    every digit b knows."""
    def coord(a):
        m = ctx.p**a.prec
        return (a.x + m * rng.randrange(-m, m), a.y + m * rng.randrange(-m, m))
    return ctx.vector_from_ints(coord(b.a0), coord(b.a1), b.denom_exp)


def coarse_vector(tctx, rng, precision):
    """A truncated vector with coordinates known to 1..precision digits,
    or None where the truncated ring cannot normalize it or it vanishes
    at its precision."""
    p = tctx.p
    digits = [rng.randint(1, precision) for _ in range(2)]
    xs = [rng.randrange(p**precision) * p ** rng.randrange(3) for _ in range(4)]
    try:
        b = tctx.vector(
            tctx.elem(xs[0], xs[1], digits[0]),
            tctx.elem(xs[2], xs[3], digits[1]),
            rng.randrange(-2, 3),
        )
    except oracles.TruncationExhausted:
        return None
    return None if b.is_zero() else b


def descent(center, b, radius):
    """sphere_r_invariants flattened to (r, d), one per vertex, in
    tree_ball order."""
    return [(r, d) for d, rs in enumerate(sphere_r_invariants(center, b, radius)) for r in rs]


def unit_alpha_path(lat, b):
    """How the descent takes r at the unit-alpha children of `lat`:
    "block" where v(N0) != v(N1), so that all p - 1 share one r, and
    "raised" where v(N0) = v(N1) and some unit alpha has
    v(N0 - alpha N1) > v(N0), so that child's r is not its siblings'
    (None for v(N0) = v(N1) with no such alpha).  The coefficients that
    `coordinates` gives are N0 and N1 over p^min(v(N0), v(N1))."""
    _, c0, c1 = lat.coordinates(b)
    if c0.valuation() != c1.valuation():
        return "block"
    p = lat.ctx.p
    if any(c0.sub(c1.mul_int(alpha)).residue() == (0, 0) for alpha in range(1, p)):
        return "raised"
    return None


class TestBallRInvariants:
    def test_one_list_per_sphere(self):
        for p, delta, radius in ((3, -1, 5), (5, -2, 4), (7, -1, 3), (11, -1, 3)):
            ctx = LocalContext(p=p, delta_sq=delta)
            rng = random.Random(p)
            for _ in range(4):
                b = random_vector(ctx, rng)
                center = central_lattice(random_vector(ctx, rng))
                lengths = [len(rs) for rs in sphere_r_invariants(center, b, radius)]
                assert lengths == [1] + [ball_size(p, d) - ball_size(p, d - 1)
                                         for d in range(1, radius + 1)]

    def test_numerators_are_the_coordinates(self):
        # At every vertex, sphere_numerators' N0 and N1 over p^min(v) are
        # the coefficients that `coordinates` gives at that tree_ball
        # vertex (N0 by its valuation alone in a unit-alpha block), beside
        # sphere_r_invariants' r; the last sphere's come only where it
        # holds an r >= 0, else that sphere's list is empty.
        last_kinds = set()
        for p, delta, radius in ((3, -1, 4), (5, -2, 3), (11, -1, 2)):
            ctx = LocalContext(p=p, delta_sq=delta)
            rng = random.Random(300 + p)
            for k in range(8):
                b = random_vector(ctx, rng)
                center = central_lattice(b if k % 2 else random_vector(ctx, rng))
                ball = tree_ball(center, radius)
                spheres = list(sphere_numerators(center, b, radius))
                assert [rs for rs, _ in spheres] == list(sphere_r_invariants(center, b, radius))
                rs, nums = spheres[-1]
                last_kinds.add(bool(nums))
                assert bool(nums) == (max(rs) >= 0)
                flat = [(r, numbers) for rs, nums in spheres for r, numbers in zip(rs, nums)]
                for (lat, _), (r, (n0, n1, _)) in zip(ball, flat):
                    want_r, c0, c1 = lat.coordinates(b)
                    m = min(n0[2], n1[2])
                    assert want_r == r
                    assert (c1.x, c1.y) == (n1[0] // p**m, n1[1] // p**m)
                    if n0[0] is None:
                        assert c0.valuation() == n0[2] - m and n0[2] < n1[2]
                    else:
                        assert (c0.x, c0.y) == (n0[0] // p**m, n0[1] // p**m)
        assert last_kinds == {False, True}

    def test_both_unit_alpha_paths_on_inner_and_last_spheres(self):
        # Each path feeds children on the last sphere, which the descent
        # builds no frontier for, and on an inner one, whose frontier it
        # carries on to the next sphere.
        for p, delta in ((3, -1), (5, -2), (11, -1)):
            ctx = LocalContext(p=p, delta_sq=delta)
            rng = random.Random(200 + p)
            radius = 3
            seen = set()
            for _ in range(100):
                b = random_vector(ctx, rng)
                center = central_lattice(random_vector(ctx, rng))
                ball = tree_ball(center, radius)
                paths = {(path, d + 1 == radius)
                         for lat, d in ball[:ball_size(p, radius - 1)]
                         if (path := unit_alpha_path(lat, b)) is not None}
                if paths - seen:
                    assert descent(center, b, radius) == [
                        (lat.r_invariant(b), d) for lat, d in ball], (p, center.key)
                    seen |= paths
                if len(seen) == 4:
                    break
            assert seen == {(path, last) for path in ("block", "raised")
                            for last in (False, True)}, p

    def test_matches_membership_in_ball_order(self):
        # Central lattices of both types (canonical bases), a ball vertex
        # (an inherited basis), and Lambda0, Lambda0'; vectors with skewed
        # coordinates, negative denominators and the centre's own vector
        # rescaled.
        for p, delta in ((3, -1), (5, -2), (7, -1), (11, -1), (13, -2)):
            ctx = LocalContext(p=p, delta_sq=delta)
            rng = random.Random(p)
            radius = {3: 5, 5: 3}.get(p, 2)
            wanted = [0, 0, 2, 2]
            while wanted:
                w = random_vector(ctx, rng)
                center = central_lattice(w)
                if center.vtype not in wanted:
                    continue
                wanted.remove(center.vtype)
                inherited = tree_ball(center, 1)[-1][0]
                for lat in (center, inherited) + standard_lattices(ctx):
                    for b in (random_vector(ctx, rng), w.scale_p_power(rng.randrange(-3, 3))):
                        want = [(v.r_invariant(b), d) for v, d in tree_ball(lat, radius)]
                        assert descent(lat, b, radius) == want, (p, lat.key)

    def test_never_guesses(self):
        # Coordinates known to 1..precision digits: wherever the truncated
        # oracle's r-invariant returns on every vertex of the ball, the
        # core's descent gives those r on every exact lift of the vector,
        # and so does the core's own r_invariant.
        for p, delta in ((3, -1), (5, -2), (7, -1)):
            ctx = LocalContext(p=p, delta_sq=delta)
            rng = random.Random(100 + p)
            radius = 5 if p == 3 else 3
            returned = raised = 0
            for precision in range(8, 13):
                tctx = oracles.TruncatedContext(p, delta, precision)
                for _ in range(6):
                    center = VertexLattice(ctx, *central_lattice(random_vector(ctx, rng, 4)).key)
                    ball = tree_ball(center, radius)
                    b = coarse_vector(tctx, rng, precision)
                    if b is None:
                        continue
                    try:
                        want = [(oracles.ObjectLattice(tctx, *lat.key).r_invariant(b), d)
                                for lat, d in ball]
                    except oracles.TruncationExhausted:
                        raised += 1
                        want = None
                    for _ in range(3):
                        b_exact = lift(ctx, b, rng)
                        rs = descent(center, b_exact, radius)
                        assert rs == [(lat.r_invariant(b_exact), d) for lat, d in ball]
                        if want is not None:
                            assert rs == want
                    returned += want is not None
            assert returned >= 20 and raised >= 1, (p, returned, raised)

    def test_undecidable_membership_raises(self):
        # r(b) at this vertex is 1 or 2 for a second coordinate known to
        # 3 digits (see TestRInvariant): the truncated oracle refuses to
        # choose, and the core's descent and r_invariant decide each
        # exact lift alike.
        ctx = LocalContext(p=3, delta_sq=-10)
        lat = next(
            lat for lat, _ in tree_ball(standard_lattices(ctx)[0], 4)
            if lat.key == (2, 0, 4, (0, 0))
        )
        tctx = oracles.TruncatedContext(3, -10, 20)
        with pytest.raises(oracles.TruncationExhausted):
            oracles.ObjectLattice(tctx, *lat.key).r_invariant(
                tctx.vector(tctx.elem(1, 0, 20), tctx.elem(0, 0, 3))
            )
        for x1, r in ((27, 1), (81, 2), (0, 2)):
            b = vec(ctx, (1, 0), (x1, 0))
            assert descent(lat, b, 0) == [(r, 0)] == [(lat.r_invariant(b), 0)]
            assert descent(lat, b, 2) == [
                (v.r_invariant(b), d) for v, d in tree_ball(lat, 2)
            ]

    def test_nested_runs_match_the_ball(self):
        # At these depths flat runs nest: a run of p^2 or more vertices
        # comes from a run's children.  Every r still matches membership
        # at its tree_ball vertex, and every numerator the coordinates
        # there, with centres on b's central lattice and off it (a vertex
        # two steps out, with an inherited basis, and another vector's).
        longest = {}
        for p, delta, radius in ((3, -1, 6), (5, -2, 4), (7, -1, 3)):
            ctx = LocalContext(p=p, delta_sq=delta)
            rng = random.Random(400 + p)
            for _ in range(3):
                b = random_vector(ctx, rng)
                own = central_lattice(b)
                for center in (own, tree_ball(own, 2)[-1][0],
                               central_lattice(random_vector(ctx, rng))):
                    ball = tree_ball(center, radius)
                    assert descent(center, b, radius) == [
                        (lat.r_invariant(b), d) for lat, d in ball], (p, center.key)
                    flat = [(r, numbers) for rs, nums in sphere_numerators(center, b, radius)
                            for r, numbers in zip(rs, nums)]
                    for (lat, _), (r, (n0, n1, _)) in zip(ball[:len(flat)], flat):
                        _, c0, c1 = lat.coordinates(b)
                        m = min(n0[2], n1[2])
                        assert (c1.x, c1.y) == (n1[0] // p**m, n1[1] // p**m)
                        if n0[0] is None:
                            assert c0.valuation() == n0[2] - m < n1[2] - m
                        else:
                            assert (c0.x, c0.y) == (n0[0] // p**m, n0[1] // p**m)
            # The frontier entries are (N0, N1, parent position, count).
            longest[p] = max(entry[3] for _, frontier in bttree._descend(own, b, radius, True)
                             for entry in frontier)
        assert all(longest[p] >= p**2 for p in longest), longest

    def test_the_descent_steps_through_runs(self, monkeypatch):
        # On the three vectors of the CI pin `verify r-formula --p 3
        # --delta -10 --count 3 --radius 10` (354,291 vertices), nearly
        # every vertex lies in a flat run: the descent takes 219 frontier
        # entries, where one per vertex took 118,095.  sphere_numerators
        # makes each sphere once, the last too.
        entries = []
        sphere = bttree._sphere

        def counted(p, shift, frontier, build):
            entries.append(len(frontier))
            return sphere(p, shift, frontier, build)

        monkeypatch.setattr(bttree, "_sphere", counted)
        report = sweeps.sweep_r_formula(3, -10, 3, 10, random.Random(12345))
        assert report.ok and report.checked == 3 * ball_size(3, 10)
        assert sum(entries) < 1000, sum(entries)
        b = random_vector(CTX3, random.Random(3))
        for radius in (1, 4):
            # p^radius b has an r >= 0 on the last sphere, so its numerators come.
            entries.clear()
            spheres = list(sphere_numerators(central_lattice(b), b.scale_p_power(radius), radius))
            assert len(entries) == radius and len(spheres[-1][1]) == len(spheres[-1][0])

    def test_the_descent_holds_no_ball(self):
        # The descent streams its spheres: over a radius-4 ball at p = 13
        # (33,321 vertices) it keeps the numerators of the spheres before
        # the last and one sphere's list of r, about 0.35 MiB.  The ball as
        # a list peaks near 8.6 MiB, and numerators kept for the last
        # sphere too near 6.6 MiB.
        ctx = LocalContext(p=13, delta_sq=-2)
        b = random_vector(ctx, random.Random(13))
        center = central_lattice(b)
        tracemalloc.start()
        try:
            count = sum(len(rs) for rs in sphere_r_invariants(center, b, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == ball_size(13, 4) == 33_321
        assert peak < 2 * 2**20, peak


def assert_reproduces(lat, b, r, c0, c1):
    """p^r (c0 u0 + c1 u1), in the basis hyperbolic_basis() hands out,
    equals b exactly."""
    p = lat.ctx.p
    u0, u1 = lat.hyperbolic_basis()
    top = max(u0.denom_exp, u1.denom_exp)
    s0, s1 = p ** (top - u0.denom_exp), p ** (top - u1.denom_exp)
    shift = r - top + b.denom_exp  # b = p^-e (b0, b1) against p^(r - top) x
    for x0, x1, bi in ((u0.a0, u1.a0, b.a0), (u0.a1, u1.a1, b.a1)):
        x = c0.mul(x0.mul_int(s0)).add(c1.mul(x1.mul_int(s1)))
        if shift >= 0:
            x = x.mul_int(p**shift)
        else:
            bi = bi.mul_int(p**-shift)
        assert x == bi, (p, lat.key)


class TestCoordinates:
    def test_r_and_basis_reproduce_the_vector(self):
        # Balls around central lattices (canonical bases at the centre,
        # inherited ones elsewhere) at p = 3..13: r is the canonical-form
        # r-invariant, the coefficient pair is primitive, and it rebuilds
        # b in the exact basis.
        for p, delta in ((3, -1), (5, -2), (7, -1), (11, -1), (13, -2)):
            ctx = LocalContext(p=p, delta_sq=delta)
            rng = random.Random(200 + p)
            radius = {3: 4, 5: 3}.get(p, 2)
            for _ in range(3):
                center = central_lattice(random_vector(ctx, rng))
                for lat, _ in tree_ball(center, radius):
                    b = random_vector(ctx, rng)
                    r, c0, c1 = lat.coordinates(b)
                    assert r == lat.r_invariant(b), (p, lat.key)
                    assert c0.residue() != (0, 0) or c1.residue() != (0, 0)
                    assert_reproduces(lat, b, r, c0, c1)

    def test_coefficient_without_a_digit_raises(self):
        # At this vertex N0 = 3^4 b0 and N1 = b1 (see TestRInvariant).
        # With b0 = 1 and b1 = 0 known to 4 digits, m = 4 decides r = 2,
        # but c1 = b1 / 3^4 keeps no digit: the truncated oracle raises,
        # and a fifth digit gives c1 one.  The core decides every lift,
        # and its residues match the oracle's wherever the oracle returns.
        ctx = LocalContext(p=3, delta_sq=-10)
        key = (2, 0, 4, (0, 0))
        lat = VertexLattice(ctx, *key)
        tctx = oracles.TruncatedContext(3, -10, 20)
        ref = oracles.ObjectLattice(tctx, *key)
        one = tctx.elem(1, 0, 20)
        b = tctx.vector(one, tctx.elem(0, 0, 4))
        assert ref.r_invariant(b) == 2
        with pytest.raises(oracles.TruncationExhausted):
            ref.coordinates(b)
        with pytest.raises(oracles.TruncationExhausted):  # m undecidable
            ref.coordinates(tctx.vector(one, tctx.elem(0, 0, 3)))
        r, c0, c1 = ref.coordinates(tctx.vector(one, tctx.elem(0, 0, 5)))
        assert (r, c0.residue(), c1.prec, c1.residue()) == (2, (1, 0), 1, (0, 0))
        for x1, c1_residue in ((0, (0, 0)), (81, (1, 0)), (243, (0, 0)), (-81, (2, 0))):
            r, c0, c1 = lat.coordinates(vec(ctx, (1, 0), (x1, 0)))
            assert (r, c0.residue(), c1.residue()) == (2, (1, 0), c1_residue)

    def test_residues_match_the_truncated_oracle(self):
        # Deep and random exact vectors at p = 3..13 against the oracle's
        # coordinates in the same canonical basis (lattices built from
        # their keys), at a working precision of 30 digits: r and both
        # residues agree wherever the oracle returns, and the core
        # returns everywhere.
        for p, delta in ((3, -1), (5, -2), (7, -1), (11, -1), (13, -2)):
            ctx = LocalContext(p=p, delta_sq=delta)
            tctx = oracles.TruncatedContext(p, delta, 30)
            rng = random.Random(300 + p)
            vecs = [vec(ctx, (p**k, p**k), (1, 1 + p**m)) for k in range(0, 40, 7)
                    for m in range(0, 40, 9)]
            vecs += [vec(ctx, *[(rng.randrange(-10**30, 10**30), rng.randrange(10**30))
                                for _ in range(2)]) for _ in range(20)]
            returned = raised = 0
            for b in vecs:
                center = central_lattice(b)
                for lat, _ in tree_ball(center, 2):
                    lat = VertexLattice(ctx, *lat.key)
                    r, c0, c1 = lat.coordinates(b)
                    try:
                        want = oracles.ObjectLattice(tctx, *lat.key).coordinates(
                            oracles.truncate(tctx, b)
                        )
                    except oracles.TruncationExhausted:
                        raised += 1
                        continue
                    returned += 1
                    assert (r, c0.residue(), c1.residue()) == (
                        want[0], want[1].residue(), want[2].residue()
                    ), (p, b, lat.key)
            assert returned > raised > 0, (p, returned, raised)
