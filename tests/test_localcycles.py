import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from cyclelift import bttree
from cyclelift.bttree import VertexLattice, ball_size, distance, standard_lattices, tree_ball
from cyclelift.errors import (
    CycleLiftError,
    DegenerateVectorError,
    EmptyIntersectionError,
    NotAdjacentError,
)
from cyclelift.localcycles import (
    MINUS,
    PLUS,
    FiberKind,
    OrdinaryEquation,
    OrthEndo,
    SpecialHom,
    cycle_json_chunks,
    cycle_to_json_dict,
    fiber_points,
    multiplicity,
    ordinary_equation,
    orthogonal_cycle,
    orthogonal_multiplicity,
    path_words,
    split_pair,
    superspecial_exponents,
    unitary_cycle,
)
from cyclelift.padic import LocalContext, epsilon, qform

CTX = LocalContext(p=5, delta_sq=-2)
CTX3 = LocalContext(p=3, delta_sq=-10)
LAM0, LAM0P = standard_lattices(CTX)

UNIT_VEC = CTX.vector_from_ints((0, 1), (1, 0))  # (delta, 1), q = -4
P_VEC = CTX.vector_from_ints((0, 5), (5, 0))  # p * (delta, 1), q valuation 2


def random_anisotropic(ctx, rng, parity=None, span=4):
    while True:
        a0 = (rng.randrange(ctx.p**span), rng.randrange(ctx.p**span))
        a1 = (rng.randrange(ctx.p**span), rng.randrange(ctx.p**span))
        if all(x % ctx.p == 0 for x in a0 + a1):
            continue
        skew = rng.randrange(3)
        b = ctx.vector_from_ints(a0, (a1[0] * ctx.p**skew, a1[1] * ctx.p**skew))
        q = qform(b)
        if q is None:
            continue
        if parity is not None and q % 2 != parity:
            continue
        return b


class TestSpecialHom:
    def test_norm_relations(self):
        hm = SpecialHom.from_vector(MINUS, P_VEC)
        assert hm.ord_qpm == 2 and hm.t_value == 1
        hp = SpecialHom.from_vector(PLUS, P_VEC)
        assert hp.ord_qpm == 3  # q^+ = p * q(vec)

    def test_integral_norm_required(self):
        below = UNIT_VEC.scale_p_power(-1)  # ord q = -2
        with pytest.raises(ValueError):
            SpecialHom.from_vector(MINUS, below)
        with pytest.raises(ValueError):
            SpecialHom.from_vector(PLUS, below)

    def test_isotropic_rejected(self):
        with pytest.raises(DegenerateVectorError):
            SpecialHom.from_vector(MINUS, CTX.vector_from_ints((1, 0), (0, 0)))


class TestMultiplicity:
    def test_spec_examples(self):
        hom = SpecialHom.from_vector(MINUS, P_VEC)
        center = hom.central()
        assert center == LAM0
        assert multiplicity(hom, center) == 1
        ball = tree_ball(center, 3)
        for lat, d in ball:
            m = multiplicity(hom, lat)
            if d <= 1:
                assert m == 1
            else:
                assert m == 0
            if d == 2:
                assert lat.r_invariant(hom.vec) == 0  # inside, but mult 0
            if d == 3:
                assert lat.r_invariant(hom.vec) == 0

    def test_support_bound(self):
        rng = random.Random(8)
        for ctx in (CTX3, CTX):
            done = 0
            while done < 6:
                vec = random_anisotropic(ctx, rng)
                ordq = qform(vec)
                if not 0 <= ordq <= 4:
                    continue
                done += 1
                hom = SpecialHom.from_vector(MINUS, vec)
                center = hom.central()
                for lat, d in tree_ball(center, hom.ord_qpm + 2):
                    if d > hom.ord_qpm:
                        assert multiplicity(hom, lat) == 0


class TestUnitaryCycle:
    def test_unit_norm_is_single_horizontal(self):
        hom = SpecialHom.from_vector(MINUS, UNIT_VEC)
        cyc = unitary_cycle(hom)
        assert cyc.vertical == {}
        assert cyc.horizontal == 1
        assert cyc.center == LAM0

    def test_radius_one_ball(self):
        hom = SpecialHom.from_vector(MINUS, P_VEC)
        cyc = unitary_cycle(hom)
        assert cyc.vertical_multiplicity(LAM0) == 1
        nbs = LAM0.neighbors()
        assert all(cyc.vertical_multiplicity(nb) == 1 for nb in nbs)
        assert len(cyc.vertical) == 1 + len(nbs)
        assert cyc.horizontal_count(LAM0) == 1

    def test_plus_hom_odd_norm(self):
        hom = SpecialHom.from_vector(PLUS, UNIT_VEC)  # ord q^+ = 1, t = 1
        assert hom.ord_qpm == 1
        cyc = unitary_cycle(hom)
        center = hom.central()
        assert center.vtype == 0  # vec has even ord q
        assert cyc.vertical_multiplicity(center) == 1
        assert all(
            cyc.vertical_multiplicity(nb) == 0 for nb in center.neighbors()
        )
        assert cyc.horizontal_count(center) == 1


class TestCycleProfile:
    # ord q = 8: the unitary cycle's support is the radius-7 ball, 117,187
    # vertices at p = 5.
    VEC = CTX.vector_from_ints((0, 625), (625, 0))

    def test_building_enumerates_nothing(self, monkeypatch):
        calls = []
        original = VertexLattice.neighbors

        def counted(lat):
            calls.append(lat)
            return original(lat)

        monkeypatch.setattr(VertexLattice, "neighbors", counted)
        hom = SpecialHom.from_vector(MINUS, self.VEC)
        cyc = unitary_cycle(hom)
        ortho = orthogonal_cycle(OrthEndo.from_eigenvector(8, self.VEC))
        assert calls == []
        assert len(cyc.profile) == len(ortho.profile) == 8

    def test_point_queries_match_multiplicity(self):
        hom = SpecialHom.from_vector(MINUS, self.VEC)
        cyc = unitary_cycle(hom)
        center = hom.central()
        assert cyc.vertical_multiplicity(center) == multiplicity(hom, center) == 4
        nb = center.neighbors()[1]
        assert cyc.vertical_multiplicity(nb) == multiplicity(hom, nb) == 4


class TestOrthogonalCycle:
    def test_alpha_zero(self):
        j = OrthEndo.from_eigenvector(0, UNIT_VEC)
        cyc = orthogonal_cycle(j)
        assert cyc.vertical == {}
        assert cyc.horizontal == 2

    def test_profile(self):
        j = OrthEndo.from_eigenvector(2, UNIT_VEC)
        cyc = orthogonal_cycle(j)
        center = j.central()
        for lat, d in tree_ball(center, 3):
            assert cyc.vertical_multiplicity(lat) == max(2 - d, 0)
        assert orthogonal_multiplicity(j, center) == 2

    def test_nu_p_from_parity(self):
        assert OrthEndo.from_eigenvector(1, UNIT_VEC).nu_p == CTX.p
        odd_vec = CTX.vector_from_ints((1, 0), (0, 5))  # ord q = 1
        assert qform(odd_vec) == 1
        j = OrthEndo.from_eigenvector(1, odd_vec)
        assert j.nu_p == 1
        assert qform(j.eigvec) == -1


class TestSplitPair:
    def test_norm_pairs(self):
        odd_vec = CTX.vector_from_ints((1, 0), (0, 5))
        for alpha in range(1, 5):
            for base in (UNIT_VEC, odd_vec):
                j = OrthEndo.from_eigenvector(alpha, base)
                hp, hm = split_pair(j)
                assert hp.sign == PLUS and hm.sign == MINUS
                assert {hp.ord_qpm, hm.ord_qpm} == {alpha, alpha - 1}

    def test_alpha_zero_shares_sign(self):
        j = OrthEndo.from_eigenvector(0, CTX.vector_from_ints((1, 0), (0, 5)))
        assert j.nu_p == 1
        h1, h2 = split_pair(j)
        assert h1.sign == h2.sign == PLUS
        assert h1.ord_qpm == h2.ord_qpm == 0
        # vectors are the eigenvector and its conjugate
        e = epsilon(j.eigvec)
        assert h2.vec.a0 == e.a0 and h2.vec.a1 == e.a1

        jp = OrthEndo.from_eigenvector(0, UNIT_VEC)
        assert jp.nu_p == CTX.p
        g1, g2 = split_pair(jp)
        assert g1.sign == g2.sign == MINUS
        assert g1.ord_qpm == g2.ord_qpm == 0

    def test_comparison_identity(self):
        rng = random.Random(77)
        for ctx in (CTX3, CTX):
            for alpha in range(0, 4):
                for parity in (0, 1):
                    vec = random_anisotropic(ctx, rng, parity=parity)
                    j = OrthEndo.from_eigenvector(alpha, vec)
                    hp, hm = split_pair(j)
                    center = j.central()
                    assert hp.central() == center and hm.central() == center
                    for lat, d in tree_ball(center, alpha + 1):
                        total = multiplicity(hp, lat) + multiplicity(hm, lat)
                        assert total == max(alpha - d, 0), (ctx.p, alpha, d)

    def test_comparison_at_cycle_level(self):
        # Whole-object form: the vertical parts of the two unitary
        # cycles sum to the orthogonal cycle's, and the horizontal
        # counts add to 2 at the shared central lattice.
        rng = random.Random(101)
        for ctx in (CTX3, CTX):
            for alpha in (1, 2, 3):
                vec = random_anisotropic(ctx, rng, parity=alpha % 2)
                j = OrthEndo.from_eigenvector(alpha, vec)
                hp, hm = split_pair(j)
                ortho = orthogonal_cycle(j)
                merged = dict(unitary_cycle(hp).vertical)
                for lat, m in unitary_cycle(hm).vertical.items():
                    merged[lat] = merged.get(lat, 0) + m
                assert merged == ortho.vertical
                center = j.central()
                total_h = (
                    unitary_cycle(hp).horizontal_count(center)
                    + unitary_cycle(hm).horizontal_count(center)
                )
                assert total_h == ortho.horizontal_count(center) == 2

    def test_cycle_builder_matches_multiplicity_op(self):
        # Dual-route consistency: the ball/depth path of unitary_cycle
        # against the membership + distance path of multiplicity.
        rng = random.Random(103)
        for ctx in (CTX3, CTX):
            for _ in range(4):
                vec = random_anisotropic(ctx, rng)
                ordq = qform(vec)
                if not 0 <= ordq <= 3:
                    continue
                hom = SpecialHom.from_vector(MINUS, vec)
                cyc = unitary_cycle(hom)
                for lat, d in tree_ball(hom.central(), hom.ord_qpm + 1):
                    assert cyc.vertical_multiplicity(lat) == multiplicity(hom, lat)


class TestFiberPoints:
    def test_minus_classification(self):
        hom = SpecialHom.from_vector(MINUS, UNIT_VEC)
        out = fiber_points(hom, LAM0)
        assert out.kind == FiberKind.SINGLE_POINT
        assert out.superspecial is False  # ord q^- = 0
        hom_far = SpecialHom.from_vector(MINUS, P_VEC)
        # b in p Lambda: full line at the central lattice
        assert fiber_points(hom_far, LAM0).kind == FiberKind.FULL_LINE
        # outside: empty
        deep = LAM0
        for _ in range(4):
            deep = deep.neighbors()[-1]
        assert fiber_points(hom_far, deep).kind == FiberKind.EMPTY

    def test_minus_primitive_on_type2_is_empty(self):
        hom = SpecialHom.from_vector(MINUS, UNIT_VEC)
        lat2 = [nb for nb in LAM0.neighbors() if nb.r_invariant(UNIT_VEC) == 0]
        assert lat2, "some type-2 neighbour contains the vector primitively"
        for lat in lat2:
            assert fiber_points(hom, lat).kind == FiberKind.EMPTY

    def test_plus_classification(self):
        hom = SpecialHom.from_vector(PLUS, UNIT_VEC)
        assert fiber_points(hom, LAM0).kind == FiberKind.FULL_LINE
        lat2 = [nb for nb in LAM0.neighbors() if nb.r_invariant(UNIT_VEC) == 0]
        for lat in lat2:
            out = fiber_points(hom, lat)
            assert out.kind == FiberKind.SINGLE_POINT
            assert out.superspecial is True  # ord q^+ = 1 > 0


class TestOrdinaryEquation:
    def test_spec_example_unit_vector(self):
        vec = CTX.vector_from_ints((1, 0), (1, 1))  # (1, 1 + delta)
        q = qform(vec)
        assert q == 0
        hom = SpecialHom.from_vector(MINUS, vec)
        # Use the standard hyperbolic basis of Lambda0 (v0, v1) so the
        # coefficients are literally the coordinates.
        eq = ordinary_equation(hom, LAM0)
        assert eq.p_exp == 0
        assert (eq.c0, eq.c1) == (CTX.elem(1), CTX.elem(1, 1))
        homp = SpecialHom.from_vector(PLUS, vec)
        eqp = ordinary_equation(homp, LAM0)
        assert eqp.p_exp == 1
        assert (eqp.c0, eqp.c1) == (CTX.elem(1), CTX.elem(1, -1))

    def test_p_vec_example(self):
        hom = SpecialHom.from_vector(MINUS, P_VEC)
        eq = ordinary_equation(hom, LAM0)
        assert eq.p_exp == 1
        assert not eq.residual_is_unit()  # central lattice carries the horizontal

    def test_empty_intersection(self):
        hom = SpecialHom.from_vector(MINUS, P_VEC)
        deep = LAM0
        for _ in range(4):
            deep = deep.neighbors()[-1]
        with pytest.raises(EmptyIntersectionError):
            ordinary_equation(hom, deep)

    def test_consistency_with_multiplicity(self):
        rng = random.Random(13)
        for ctx in (CTX3, CTX):
            for _ in range(8):
                vec = random_anisotropic(ctx, rng)
                ordq = qform(vec)
                sign = MINUS if ordq >= 0 else PLUS
                if ordq >= 0 and rng.random() < 0.5:
                    sign = PLUS
                hom = SpecialHom.from_vector(sign, vec)
                center = hom.central()
                for lat, d in tree_ball(center, min(hom.ord_qpm + 1, 4)):
                    if lat.r_invariant(vec) < 0:
                        continue
                    eq = ordinary_equation(hom, lat)
                    assert eq.p_exp == multiplicity(hom, lat)
                    assert eq.residual_is_unit() == (lat != center)

    def test_low_precision_keeps_a_unit_coefficient(self):
        # The second coefficient is 1 + 2 delta mod 3, and the truncated
        # oracle's coordinates give the same residues at precision 8 and
        # 40 (dropping a vanished coordinate's division by p^r used to
        # return 0 for both).
        ctx = LocalContext(p=3, delta_sq=-10)
        key = (3, 0, 5, (87, 0))
        hom = SpecialHom.from_vector(MINUS, ctx.vector_from_ints((299, 999), (606, 189)))
        eq = ordinary_equation(hom, VertexLattice(ctx, *key))
        assert eq.c1.residue() == (1, 2)
        for precision in (8, 40):
            tctx = oracles.TruncatedContext(3, -10, precision)
            r, c0, c1 = oracles.ObjectLattice(tctx, *key).coordinates(
                oracles.truncate(tctx, hom.vec)
            )
            # A minus sign on a type-2 line conjugates the coefficients.
            assert (r, c0.conj().residue(), c1.conj().residue()) == (
                eq.p_exp, eq.c0.residue(), eq.c1.residue()
            )

    def test_low_precision_never_guesses(self):
        # Vectors read by the truncated oracle at precision 8..12: wherever
        # its coordinates return, r and the coefficient residues are
        # those of the exact core, on the radius-3 ball of the centre,
        # every vertex rebuilt from its key so that both sides use the
        # canonical basis; and the core's ordinary equation has that r
        # as its p-exponent, up to the sign's shift.
        for p, delta in ((3, -10), (5, -2), (7, -1)):
            ctx = LocalContext(p=p, delta_sq=delta)
            rng = random.Random(p)
            returned = 0
            for precision in range(8, 13):
                tctx = oracles.TruncatedContext(p, delta, precision)
                drawn = 0
                while drawn < 4:
                    a0 = (rng.randrange(p**12), rng.randrange(p**12))
                    skew = p ** rng.randrange(4)
                    a1 = (rng.randrange(p**12) * skew, rng.randrange(p**12) * skew)
                    sign = rng.choice((MINUS, PLUS))
                    try:
                        hom = SpecialHom.from_vector(sign, ctx.vector_from_ints(a0, a1))
                    except (CycleLiftError, ValueError):
                        continue  # isotropic or non-integral
                    drawn += 1
                    b = oracles.truncate(tctx, hom.vec)
                    for lat, _ in tree_ball(hom.central(), 3):
                        lat = VertexLattice(ctx, *lat.key)
                        r, c0, c1 = lat.coordinates(hom.vec)
                        if r < 0:
                            continue
                        eq = ordinary_equation(hom, lat)
                        assert eq.p_exp == r + (hom.sign == PLUS and lat.vtype == 0)
                        try:
                            want = oracles.ObjectLattice(tctx, *lat.key).coordinates(b)
                        except oracles.TruncationExhausted:
                            continue
                        returned += 1
                        assert min(want[1].prec, want[2].prec) >= 1
                        assert (r, c0.residue(), c1.residue()) == (
                            want[0], want[1].residue(), want[2].residue()
                        ), (p, precision, a0, a1, sign, lat.key)
            assert returned >= 300, (p, returned)


class TestSuperspecialExponents:
    def test_formula(self):
        hom = SpecialHom.from_vector(MINUS, P_VEC)
        # adjacent pair: Lambda0 (r = 1) and Lambda0' (r = 1)
        r0 = LAM0.r_invariant(P_VEC)
        r2 = LAM0P.r_invariant(P_VEC)
        assert (r0, r2) == (1, 1)
        assert superspecial_exponents(hom, LAM0, LAM0P) == (1, 1)
        homp = SpecialHom.from_vector(PLUS, UNIT_VEC)
        r0 = LAM0.r_invariant(UNIT_VEC)
        r2 = LAM0P.r_invariant(UNIT_VEC)
        assert (r0, r2) == (0, 0)
        assert superspecial_exponents(homp, LAM0, LAM0P) == (0, 1)

    def test_absent_cycle_gives_zero(self):
        hom = SpecialHom.from_vector(MINUS, UNIT_VEC)
        deep0 = LAM0
        for _ in range(4):
            deep0 = deep0.neighbors()[-1]
        deep2 = deep0.neighbors()[0]
        pair = (deep0, deep2) if deep0.vtype == 0 else (deep2, deep0)
        assert superspecial_exponents(hom, *pair) == (0, 0)

    def test_not_adjacent_rejected(self):
        far2 = [nb for nb in LAM0P.neighbors() if nb != LAM0][0].neighbors()[0]
        assert far2.vtype == 2
        with pytest.raises(NotAdjacentError):
            superspecial_exponents(
                SpecialHom.from_vector(MINUS, UNIT_VEC), LAM0, far2
            )
        with pytest.raises(NotAdjacentError):
            superspecial_exponents(
                SpecialHom.from_vector(MINUS, UNIT_VEC), LAM0P, LAM0
            )

    def test_pair_beyond_distance_cap_not_adjacent(self):
        # A pair 41 steps apart, far beyond any search radius: adjacency
        # is decided by the exact distance alone.
        ctx = LocalContext(p=3, delta_sq=-10)
        lam0, _ = standard_lattices(ctx)
        far = lam0
        for _ in range(41):
            far = far.neighbors()[-1]
        assert far.vtype == 2
        hom = SpecialHom.from_vector(MINUS, ctx.vector_from_ints((0, 1), (1, 0)))
        with pytest.raises(NotAdjacentError):
            superspecial_exponents(hom, lam0, far)


class TestHorizontalComparison:
    def test_matrix_realization_and_polynomial_match(self):
        # Reconstruct the endomorphism matrix from the eigenvector
        # coordinates in the hyperbolic basis of the central lattice:
        #   [j] = delta/(a0 a1' - a0' a1) * [[S, -2 n(a0)], [2 n(a1), -S]]
        # with S = a0 a1' + a0' a1.  It must fix the eigenvector with
        # eigenvalue delta and have rational entries (both mod p^K, where
        # the unit inverse lives), and its horizontal quadratic must match
        # the product of the two linear factors of the split pair up to a
        # unit.
        from cyclelift.sweeps import horizontal_polynomials_match

        K = 30

        def congruent(u, v):
            m = u.ctx.p**K
            return (u.x - v.x) % m == 0 and (u.y - v.y) % m == 0

        rng = random.Random(55)
        for ctx in (CTX3, CTX):
            for alpha in (0, 1, 2, 3):
                for parity in (0, 1):
                    vec = random_anisotropic(ctx, rng, parity=parity)
                    j = OrthEndo.from_eigenvector(alpha, vec)
                    center = j.central()
                    r, a0, a1 = center.coordinates(j.eigvec)
                    assert r == 0  # primitive in its central lattice
                    z = a0.mul(a1.conj())
                    d_elem = z.sub(z.conj())
                    s_elem = z.add(z.conj())
                    factor = ctx.delta().mul(d_elem.unit_inverse(K))
                    m00 = factor.mul(s_elem)
                    m01 = factor.mul(a0.mul(a0.conj())).mul_int(-2)
                    m10 = factor.mul(a1.mul(a1.conj())).mul_int(2)
                    m11 = factor.mul(s_elem).neg()
                    # rational entries
                    for entry in (m00, m01, m10, m11):
                        assert entry.y % ctx.p**K == 0
                    # eigenvector equation [j] (a0, a1) = delta (a0, a1)
                    assert congruent(m00.mul(a0).add(m01.mul(a1)), ctx.delta().mul(a0))
                    assert congruent(m10.mul(a0).add(m11.mul(a1)), ctx.delta().mul(a1))
                    if alpha >= 1:
                        hp, hm = split_pair(j)
                        assert horizontal_polynomials_match(j, hp, hm)

    @pytest.mark.parametrize("ctx", [CTX3, CTX], ids=lambda ctx: f"p{ctx.p}")
    def test_match_is_proportionality_over_the_residue_field(self, monkeypatch, ctx):
        # The split pair's two linear factors are stubbed with chosen
        # coefficients against a real endomorphism.  The verdict must be
        # whether the product's residue row is a unit of F_{p^2} times the
        # eigenvector's, found by trying every unit; a zero row on either
        # side never matches.
        from cyclelift import localcycles, sweeps

        p, dsq = ctx.p, ctx.delta_sq
        zero = (0, 0)

        def mul(u, v):
            return ((u[0] * v[0] + dsq * u[1] * v[1]) % p, (u[0] * v[1] + u[1] * v[0]) % p)

        def add(u, v):
            return ((u[0] + v[0]) % p, (u[1] + v[1]) % p)

        units = [(x, y) for x in range(p) for y in range(p) if x or y]

        def proportional(us, vs):
            if vs == [zero] * 3:
                return False
            return any(us == [mul(lam, v) for v in vs] for lam in units)

        def factors(row):
            # (c0, c1, e0, e1) with (c0 T + c1)(e0 T + e1) = u0 T^2 + u1 T + u2:
            # (T - r)(u0 T + u1 + u0 r) for a root r.  Every row built below
            # is a multiple of a row over F_p, whose discriminant is a
            # square in F_{p^2}, so a root exists.
            u0, u1, u2 = row
            if u0 == zero:
                return u1, u2, zero, (1, 0)
            r = next(r for r in [zero, *units]
                     if add(add(mul(u0, mul(r, r)), mul(u1, r)), u2) == zero)
            return (1, 0), mul((p - 1, 0), r), u0, add(u1, mul(u0, r))

        def verdict(j, hp, hm, row):
            c0, c1, e0, e1 = (ctx.elem(*c) for c in factors(row))
            eqs = {id(hp): OrdinaryEquation(0, c0, c1, 0),
                   id(hm): OrdinaryEquation(0, e0, e1, 0)}
            monkeypatch.setattr(localcycles, "ordinary_equation", lambda hom, lat: eqs[id(hom)])
            return sweeps.horizontal_polynomials_match(j, hp, hm)

        rng = random.Random(41)
        seen = set()
        for alpha in (1, 2, 3, 4):
            j = OrthEndo.from_eigenvector(alpha, random_anisotropic(ctx, rng, parity=alpha % 2))
            hp, hm = split_pair(j)
            _, a0, a1 = j.central().coordinates(j.eigvec)
            vs = [e.residue() for e in (a0.mul(a0.conj()),
                                        a0.mul(a1.conj()).add(a0.conj().mul(a1)),
                                        a1.mul(a1.conj()))]
            cases = [("proportional", [mul(lam, v) for v in vs]) for lam in units]
            cases.append(("zero row", [zero] * 3))
            for k in range(3):
                for eps in range(1, p):
                    row = [add(v, (eps, 0)) if i == k else v for i, v in enumerate(vs)]
                    cases.append(("one coefficient off", row))
            for _ in range(20):
                row = [(rng.randrange(1, p), 0) if v != zero else zero for v in vs]
                if not proportional(row, vs):
                    cases.append(("same zero pattern", row))
            for kind, row in cases:
                want = proportional(row, vs)
                assert verdict(j, hp, hm, row) == want, (alpha, kind, row)
                seen.add((kind, want))
            # A zero row on the eigenvector's side: its coordinates scaled by p.
            monkeypatch.setattr(VertexLattice, "coordinates",
                                lambda lat, b: (0, a0.mul_int(p), a1.mul_int(p)))
            assert not verdict(j, hp, hm, vs), alpha
            monkeypatch.undo()
        assert seen == {("proportional", True), ("zero row", False),
                        ("one coefficient off", False), ("same zero pattern", False)}


class TestSerialization:
    def test_path_word_json(self):
        hom = SpecialHom.from_vector(MINUS, P_VEC)
        data = cycle_to_json_dict(unitary_cycle(hom))
        assert data["horizontal"] == [{"vertex": "", "count": 1}]
        assert {v["vertex"] for v in data["vertical"]} == {"", "0", "1", "2", "3", "4", "5"}
        assert all(v["mult"] == 1 for v in data["vertical"])
        assert data["vertices"][""] == {"denom_exp": 0, "pivots": [0, 0], "off": [0, 0]}
        assert set(data["vertices"]) == {"", "0", "1", "2", "3", "4", "5"}


# Two inert Delta per prime, and the largest label depth (distance from
# Lambda0) that keeps the breadth-first reference cheap.
LABEL_CASES = {3: ((-10, -22), 7), 5: ((-2, -22), 5), 7: ((-2, -22), 4), 11: ((-14, -26), 4)}


def vector_with_ord(ctx, rng, k):
    """A primitive vector (x0, x1 + y1 d) with x0 a unit and ord q = k, so
    its central lattice lies at distance k from Lambda0."""
    p, mod = ctx.p, ctx.p ** (k + 2)
    x0 = rng.randrange(1, mod)
    while x0 % p == 0:
        x0 = rng.randrange(1, mod)
    unit = rng.randrange(1, mod)
    while unit % p == 0:
        unit = rng.randrange(1, mod)
    # q = 2 Delta (x1 y0 - x0 y1) with y0 = 0.
    return ctx.vector_from_ints((x0, 0), (rng.randrange(mod), -(p**k) * unit % mod))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(LABEL_CASES)), st.sampled_from((MINUS, PLUS, "ortho")),
       st.integers(0, 2**32))
def test_path_words_match_bfs_reference(p, kind, seed):
    """Geodesic-walk labels against a breadth-first search from Lambda0,
    on unitary cycles of both signs and orthogonal cycles: a centre at
    depth k and vertical lines out to radius at most R from it, with
    k + R within LABEL_CASES' depth.  The support to label comes from
    the cycle's own ball enumeration, and each label's depth must be
    its tree distance to the centre."""
    rng = random.Random(seed)
    deltas, depth = LABEL_CASES[p]
    ctx = LocalContext(p=p, delta_sq=rng.choice(deltas))
    k, radius = rng.choice([(k, r) for k in range(depth + 1) for r in range(depth + 1 - k)])
    vec = vector_with_ord(ctx, rng, k)
    if kind == "ortho":
        cycle = orthogonal_cycle(OrthEndo.from_eigenvector(radius + 1, vec))
    else:
        # Vertical lines reach out to ord q^+- - 1, where ord q^+- is
        # k + 2 s for p^s * vec, plus one for the plus sign.
        plus = kind == PLUS
        n = radius + 1 - (radius + 1 - k - plus) % 2
        cycle = unitary_cycle(SpecialHom.from_vector(kind, vec.scale_p_power((n - k - plus) // 2)))
    lam0 = standard_lattices(ctx)[0]
    assert distance(lam0, cycle.center) == k
    keys = {cycle.center.key} | {lat.key for lat in cycle.vertical}
    labels = {lat: (word, d) for word, d, lat in path_words(cycle.center, cycle.profile)}
    words = {lat.key: word for lat, (word, _) in labels.items()}
    assert words == oracles.path_words_bfs(lam0, keys, radius_cap=depth)
    assert all(d == distance(lat, cycle.center) for lat, (_, d) in labels.items())



@pytest.mark.parametrize("p, delta", [(3, -10), (11, -14), (13, -2)])
@pytest.mark.parametrize("k", [0, 3])
def test_path_words_walk_once_in_word_order(p, delta, k, monkeypatch):
    """path_words yields its words in strictly increasing order, so the
    writer needs no sort, and builds no lattice twice: a vertex's
    children leave its parent out, unbuilt.  On orthogonal cycles of
    radius 2 centred on Lambda0 (k = 0) and at distance 3 from it, whose
    words hold indices 10 and up for p >= 11."""
    ctx = LocalContext(p=p, delta_sq=delta)
    cycle = orthogonal_cycle(OrthEndo.from_eigenvector(3, vector_with_ord(ctx, random.Random(p), k)))
    assert distance(standard_lattices(ctx)[0], cycle.center) == k
    built, child = [], bttree._child

    def recording_child(*args):
        lat = child(*args)
        built.append(lat.key)
        return lat

    monkeypatch.setattr(bttree, "_child", recording_child)
    walk = list(path_words(cycle.center, cycle.profile))
    words = [word for word, _, _ in walk]
    assert all(a < b for a, b in zip(words, words[1:]))
    assert len(set(built)) == len(built) >= len(walk) - (k == 0)
    assert {lat.key for _, _, lat in walk} == {lat.key for lat in cycle.vertical}
    if p >= 11:
        assert any(".10" in word or word.startswith("10") for word in words)


# The largest support, in vertices, of a cycle drawn for the writer test.
WRITER_SUPPORT_CAP = 200


def random_writer_cycle(rng):
    """A random unitary (either sign) or orthogonal cycle at p in
    LABEL_CASES with at most WRITER_SUPPORT_CAP support vertices, and
    what it covers: (p, kind, whether the vector has a /p^e
    denominator, whether the profile is empty)."""
    while True:
        p = rng.choice(sorted(LABEL_CASES))
        ctx = LocalContext(p=p, delta_sq=rng.choice(LABEL_CASES[p][0]))
        if rng.random() < 0.5:
            bound = p ** rng.randrange(1, 9)
            coords = [rng.randrange(-bound, bound + 1) for _ in range(4)]
        else:  # a centre at distance k from Lambda0
            base = vector_with_ord(ctx, rng, rng.randrange(7))
            coords = [base.a0.x, base.a0.y, base.a1.x, base.a1.y]
        scale, denom = p ** rng.randrange(3), rng.choice((0, 0, 1, 2))
        x0, y0, x1, y1 = (c * scale for c in coords)
        vec = ctx.vector_from_ints((x0, y0), (x1, y1), denom)
        kind = rng.choice((MINUS, PLUS, "ortho"))
        try:
            if kind == "ortho":
                special = OrthEndo.from_eigenvector(rng.randrange(4), vec)
                radius, build = special.alpha - 1, orthogonal_cycle
            else:
                special = SpecialHom.from_vector(kind, vec)
                radius, build = special.ord_qpm - 1, unitary_cycle
        except (DegenerateVectorError, ValueError):
            continue  # isotropic, or a norm that is not integral
        if ball_size(p, radius) <= WRITER_SUPPORT_CAP:
            cycle = build(special)
            return cycle, (p, kind, denom > 0, not cycle.profile)


def test_writer_matches_the_json_encoder():
    """The direct writer's text against json.dumps(sort_keys=True,
    indent=2) of the dict it replaced, on 320 seeded random cycles at
    p = 3, 5, 7, 11 (both signs and orthogonal, with and without /p^e
    denominators, empty profiles among them), the deep-centre cycle and
    an orthogonal cycle of alpha 0."""
    rng = random.Random(19)
    covered = set()
    for _ in range(320):
        cycle, cover = random_writer_cycle(rng)
        covered.add(cover)
        assert "".join(cycle_json_chunks(cycle)) == oracles.cycle_json_text(cycle)
    assert {c[:2] for c in covered} == {(p, k) for p in LABEL_CASES for k in (MINUS, PLUS, "ortho")}
    assert {c[2] for c in covered} == {c[3] for c in covered} == {False, True}
    deep = OrthEndo.from_eigenvector(2, CTX3.vector_from_ints((1, 0), (0, 3**20)))
    empty = OrthEndo.from_eigenvector(0, UNIT_VEC)
    for cycle in (orthogonal_cycle(deep), orthogonal_cycle(empty)):
        assert "".join(cycle_json_chunks(cycle)) == oracles.cycle_json_text(cycle)
    assert distance(standard_lattices(CTX3)[0], orthogonal_cycle(deep).center) == 20
    assert '"vertical": [],' in oracles.cycle_json_text(orthogonal_cycle(empty))
