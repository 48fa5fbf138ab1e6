"""Verification sweeps over the local-cycle and identity calculus, their
random generators, and the registry of `verify` kinds.

Every sweep returns a VerificationReport.  SWEEPS maps each kind to
(runner, required flags, balls, checks): a runner takes the parsed
`verify` arguments and a seeded random.Random; the required flags are
the argument names (also the flag names without their leading "--")
that the kind cannot run without.  The last two give the sweep's work
before it starts.  balls, None for a kind that walks no tree, maps the
arguments to the tree balls the sweep visits, as lazy (radius, times)
pairs.  checks, None for a tree kind, is (unit, cap, count): count maps
the arguments to the checks the report will count, in that unit, and
cap is the most that the kind runs.
"""

from __future__ import annotations

import random
from fractions import Fraction

from cyclelift import bttree, localcycles
from cyclelift.identity import (
    Mismatch,
    VerificationReport,
    verify_main_theorem,
    verify_remark_identity,
)
from cyclelift.numth import hilbert_places, hilbert_symbol
from cyclelift.padic import LocalContext, qform
from cyclelift.quadfield import make_field, rho_divisor_sum_table, rho_table

# The fields that `verify rho` sweeps when no --delta is given.
RHO_DELTAS = (-2, -6, -10, -14, -22, -26)

# The most checks that each kind walking no tree runs.  At its cap, on one
# Xeon core: rho at Delta = -2 takes about 0.2 s (its two tables), hilbert
# about 2 s, remark-identity about 0.1 s at Delta = -74, D_B = 119 (40
# embedding classes, the most for |Delta| <= 100, D_B <= 500; its series
# are class-free, so the class count costs nothing) or Delta = -10,
# D_B = 51, and 2-3 s with the eight primes of D_B = 16360572865 (255
# operator subsets, which the cap does not count), and main-identity at
# most 0.5 s; each grows at least linearly with the count.
RHO_CHECK_CAP = 200_000
HILBERT_CHECK_CAP = 100_000
IDENTITY_CHECK_CAP = 10_000


# -- randomized generators -----------------------------------------------------

# Random vectors draw coordinates mod p^_DRAW_DIGITS and scale the second
# one by up to p^_SKEW_MAX.
_DRAW_DIGITS = 6
_SKEW_MAX = 3

# `local-compare` re-checks this many ball vertices with their own tree
# distance; `chart` draws special homomorphisms with ord q^+- at most
# _CHART_ORD_MAX.
_SPOT_CHECKS = 12
_CHART_ORD_MAX = 4


def random_anisotropic_vector(ctx: LocalContext, rng: random.Random, ord_max: int = 6):
    """A random anisotropic vector with ord q in [-1, ord_max], mixing
    integral vectors, p-power-skewed coordinates, and central
    rescalings so both parities and negative valuation occur."""
    p = ctx.p
    mod = p**_DRAW_DIGITS
    while True:
        a0 = (rng.randrange(mod), rng.randrange(mod))
        a1 = (rng.randrange(mod), rng.randrange(mod))
        if all(x % p == 0 for x in a0 + a1):
            continue
        skew = rng.randrange(0, _SKEW_MAX + 1)
        a1 = (a1[0] * p**skew, a1[1] * p**skew)
        vec = ctx.vector_from_ints(a0, a1)
        q = qform(vec)
        if q is None or q > ord_max:
            continue
        if rng.random() < 0.35:
            t = -(-q // 2)
            vec = vec.scale_p_power(-t)  # ord q now 0 or -1
        return vec


def random_eigenvector(ctx: LocalContext, rng: random.Random, odd_norm: bool):
    """A random anisotropic vector whose norm valuation has the given
    parity (drives the two Frobenius types)."""
    while True:
        vec = random_anisotropic_vector(ctx, rng, ord_max=5)
        if qform(vec) % 2 == (1 if odd_norm else 0):
            return vec


def random_special_hom(ctx: LocalContext, rng: random.Random, ord_max: int):
    """A random special homomorphism of either sign with norm valuation
    at most ord_max."""
    while True:
        vec = random_anisotropic_vector(ctx, rng, ord_max=ord_max)
        ordq = qform(vec)
        sign = localcycles.PLUS if rng.random() < 0.5 else localcycles.MINUS
        ord_qpm = ordq + 1 if sign == localcycles.PLUS else ordq
        if 0 <= ord_qpm <= ord_max:
            return localcycles.SpecialHom.from_vector(sign, vec)


# -- verification sweeps --------------------------------------------------------


def sweep_rho(deltas, n_max: int) -> VerificationReport:
    """rho vs the divisor-sum expression, exact, over all N <= n_max: each
    side is one whole-range table per field.  Mismatches come field by
    field, in the order of deltas, then N ascending."""
    mismatches = []
    for delta in deltas:
        field = make_field(delta)
        lhs, rhs = rho_table(field, n_max), rho_divisor_sum_table(field, n_max)
        mismatches += [Mismatch(m=n, lhs=lhs[n], rhs=rhs[n])
                       for n in range(1, n_max + 1) if lhs[n] != rhs[n]]
    return VerificationReport(
        params={"deltas": list(deltas), "max": n_max},
        checked=len(deltas) * n_max,
        mismatches=mismatches,
    )


def sweep_hilbert(count: int, rng: random.Random) -> VerificationReport:
    """Hilbert reciprocity on random nonzero rationals: the product of
    the symbols over all potentially nontrivial places is +1."""
    mismatches = []
    for i in range(count):
        a = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        b = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        # The symbols read only the square classes: n*d of reduced n/d.
        sa, sb = a.numerator * a.denominator, b.numerator * b.denominator
        product = 1
        for place in hilbert_places(sa, sb):
            product *= hilbert_symbol(sa, sb, place)
        if product != 1:
            mismatches.append(Mismatch(m=i, lhs=f"({a},{b})", rhs=product))
    return VerificationReport(
        params={"count": count}, checked=count, mismatches=mismatches
    )


def sweep_r_formula(
    p: int, delta: int, count: int, radius: int, rng: random.Random
) -> VerificationReport:
    """Coordinate-descent r-invariants against the distance formula on
    full balls around the central lattice, a sphere at a time: a sphere
    whose r all equal the formula's is one count, and only a sphere that
    misses is read vertex by vertex.  Direct membership (`r_invariant`)
    cross-checks the descent at the last vertex of each sphere, a
    geodesic from the centre; those checks are not counted."""
    ctx = LocalContext(p=p, delta_sq=delta)
    mismatches = []
    checked = 0
    for _ in range(count):
        vec = random_anisotropic_vector(ctx, rng)
        ordq = qform(vec)
        center = bttree.central_lattice(vec)
        geodesic, crossed = _geodesic(center, radius), []
        for d, rs in enumerate(bttree.sphere_r_invariants(center, vec, radius)):
            want = localcycles.mult_from_depth(ordq, d)
            if rs.count(want) != len(rs):
                mismatches += [Mismatch(m=checked + k, lhs=r, rhs=want)
                               for k, r in enumerate(rs, 1) if r != want]
            checked += len(rs)
            if (direct := geodesic[d].r_invariant(vec)) != rs[-1]:
                crossed.append(Mismatch(m=checked, lhs=direct, rhs=rs[-1]))
        mismatches += crossed
    return VerificationReport(
        params={"p": p, "delta": delta, "count": count, "radius": radius},
        checked=checked,
        mismatches=mismatches,
    )


def _geodesic(center, radius: int) -> list:
    """The last vertex of each sphere of tree_ball(center, radius), a
    geodesic from the centre, by depth, each built alone by `ball_vertex`."""
    p = center.ctx.p
    return [bttree.ball_vertex(center, bttree.ball_size(p, d) - 1)[0] for d in range(radius + 1)]


def sweep_local_compare(
    p: int,
    delta: int,
    alpha_max: int,
    rng: random.Random,
) -> VerificationReport:
    """The orthogonal/unitary comparison: for each alpha and each
    Frobenius type, the split pair's multiplicities must sum to
    max(alpha - d, 0) on the radius-(alpha+2) ball, the horizontal
    counts must be 1 + 1 = 2 at the shared central lattice, and the
    residue horizontal polynomials must match up to a unit.

    Membership on the ball comes by coordinate descent, a sphere at a
    time, so the ball is never built: the two descents' lists of a sphere
    are read side by side, and only a sphere whose sums miss is read entry
    by entry.  `multiplicity`, with its own `r_invariant` and tree
    distance, re-checks a spot sample of vertices built by index."""
    ctx = LocalContext(p=p, delta_sq=delta)
    mismatches = []
    checked = 0
    for alpha in range(alpha_max + 1):
        for odd_norm in (True, False):
            vec = random_eigenvector(ctx, rng, odd_norm)
            j = localcycles.OrthEndo.from_eigenvector(alpha, vec)
            hp, hm = localcycles.split_pair(j)
            norms = {hp.ord_qpm, hm.ord_qpm}
            expected_norms = {alpha, alpha - 1} if alpha >= 1 else {0}
            if norms != expected_norms:
                mismatches.append(
                    Mismatch(m=alpha, lhs=sorted(norms), rhs=sorted(expected_norms))
                )
            center = j.central()
            radius = alpha + 2
            mult_p = [localcycles.mult_from_depth(hp.ord_qpm, d) for d in range(radius + 1)]
            mult_m = [localcycles.mult_from_depth(hm.ord_qpm, d) for d in range(radius + 1)]
            expected = [max(alpha - d, 0) for d in range(radius + 1)]
            # Direct membership cross-checks both descents on one geodesic
            # per ball, the last vertex of each sphere; those checks are not
            # counted.
            geodesic, crossed_p, crossed_m = _geodesic(center, radius), [], []
            descents = zip(bttree.sphere_r_invariants(center, hp.vec, radius),
                           bttree.sphere_r_invariants(center, hm.vec, radius))
            for d, (rps, rms) in enumerate(descents):
                mp, mm, want = mult_p[d], mult_m[d], expected[d]
                totals = [(mp if rp >= 0 else 0) + (mm if rm >= 0 else 0)
                          for rp, rm in zip(rps, rms)]
                checked += len(totals)
                if totals.count(want) != len(totals):
                    mismatches += [Mismatch(m=d, lhs=t, rhs=want) for t in totals if t != want]
                for hom, r, crossed in ((hp, rps[-1], crossed_p), (hm, rms[-1], crossed_m)):
                    if (direct := geodesic[d].r_invariant(hom.vec)) != r:
                        crossed.append(Mismatch(m=d, lhs=direct, rhs=r))
            mismatches += crossed_p + crossed_m
            # Exercise the multiplicity op, with its own membership test and
            # tree distance, on a spot sample of vertices built by index.
            size = bttree.ball_size(p, radius)
            for i in rng.sample(range(size), min(_SPOT_CHECKS, size)):
                lat, d = bttree.ball_vertex(center, i)
                checked += 1
                total = localcycles.multiplicity(hp, lat) + localcycles.multiplicity(
                    hm, lat
                )
                if total != max(alpha - d, 0):
                    mismatches.append(Mismatch(m=d, lhs=total, rhs="spot"))
            # Horizontal counts: 1 + 1 = 2 at the same central lattice.
            ocyc = localcycles.orthogonal_cycle(j)
            ccount = localcycles.unitary_cycle(hp).horizontal_count(center) + \
                localcycles.unitary_cycle(hm).horizontal_count(center)
            checked += 1
            if ccount != ocyc.horizontal_count(center):
                mismatches.append(Mismatch(m=alpha, lhs=ccount, rhs=2))
            checked += 1
            if not horizontal_polynomials_match(j, hp, hm):
                mismatches.append(
                    Mismatch(m=alpha, lhs="horizontal-poly", rhs="mismatch")
                )
    return VerificationReport(
        params={"p": p, "delta": delta, "alpha_max": alpha_max},
        checked=checked,
        mismatches=mismatches,
    )


def horizontal_polynomials_match(j, hp, hm) -> bool:
    """Residue-field comparison at the shared central lattice: the
    product of the two linear factors cut out by the split pair equals,
    up to a unit scalar, the quadratic n(a0) T^2 + (a0 a1' + a0' a1) T
    + n(a1) built from the eigenvector coordinates."""
    center = j.central()
    eq_p = localcycles.ordinary_equation(hp, center)
    eq_m = localcycles.ordinary_equation(hm, center)
    c0, c1, e0, e1 = eq_p.c0, eq_p.c1, eq_m.c0, eq_m.c1
    # The eigenvector lies primitively in its central lattice (r = 0).
    _, a0, a1 = center.coordinates(j.eigvec)
    # (c0 T + c1)(e0 T + e1) against n(a0) T^2 + (a0 a1' + a0' a1) T + n(a1)
    # over the residue field F_{p^2}: equal up to a unit exactly when both
    # coefficient rows are nonzero and of rank one, every 2x2 minor zero.
    us = (c0.mul(e0), c0.mul(e1).add(c1.mul(e0)), c1.mul(e1))
    vs = (a0.mul(a0.conj()), a0.mul(a1.conj()).add(a0.conj().mul(a1)), a1.mul(a1.conj()))
    return (all(any(x.residue() != (0, 0) for x in row) for row in (us, vs))
            and all(us[k].mul(vs[m]).sub(us[m].mul(vs[k])).residue() == (0, 0)
                    for k, m in ((0, 1), (0, 2), (1, 2))))


def sweep_chart_consistency(
    p: int, delta: int, count: int, radius: int, rng: random.Random
) -> VerificationReport:
    """Local equations against multiplicities over the radius ball: the
    p-exponent of the ordinary equation must equal the vertical
    multiplicity at every vertex containing the vector, the residual
    factor must be a unit exactly away from the central lattice, and
    the superspecial exponents at every tree edge touching the cycle
    support must reproduce the multiplicities of both components (a
    sample of empty edges is checked for the trivial (0, 0) case).

    Everything over the support comes by coordinate descent, and no ball
    is built.  The numerators that the descent carries to a vertex are
    those `coordinates` reads there, so the p-exponent is r (r + 1 for
    the plus sign at a type-0 vertex), and the residual factor is a unit
    where v(N0) != v(N1), or else where p^(2m + 1) divides x1 y0 - x0 y1
    (m the common valuation); they are read only where r >= 0, out to the
    support's deepest sphere.  An edge's pair reads the type-2 end's r in
    its first entry and the type-0 end's in its second, so each vertex has
    an end test against its own multiplicity, taken per distinct r of a
    sphere: when the spheres either side of a support sphere pass too,
    all its edges are counted at once, and only a sphere that misses reads
    its edges one by one off the ball index (`_edges`).  Direct
    membership (`r_invariant`) and `ordinary_equation` cross-check the
    descent's r, p-exponent and residual flag on one geodesic per ball,
    the last vertex of each sphere; those checks are not counted.  The 6
    sampled vertices are built alone, with their neighbours, and their
    edges go through `superspecial_exponents`."""
    ctx = LocalContext(p=p, delta_sq=delta)
    mismatches = []
    checked = 0
    for _ in range(count):
        hom = random_special_hom(ctx, rng, _CHART_ORD_MAX)
        center = hom.central()
        # The edges of 6 vertices drawn from the whole ball are checked too;
        # the draw needs no lattice, so it comes before any is built.
        size = bttree.ball_size(p, radius)
        sample = rng.sample(range(size), min(6, size))
        ctype = center.vtype
        geodesic, at_vertices, on_edges, crossed = _geodesic(center, radius), [], [], []
        # Each sphere's r by depth, kept from d - 2 on for the edges of
        # sphere d - 1, and the deepest support sphere so far.
        spheres, deepest = {}, -1
        for d, (rs, nums) in enumerate(bttree.sphere_numerators(center, hom.vec, radius)):
            spheres[d] = rs
            bump = 1 if hom.sign == localcycles.PLUS and (ctype, 2 - ctype)[d % 2] == 0 else 0
            if (direct := geodesic[d].r_invariant(hom.vec)) != rs[-1]:
                crossed.append(Mismatch(m=d, lhs=direct, rhs=rs[-1]))
            if rs[-1] >= 0:
                eq = localcycles.ordinary_equation(hom, geodesic[d])
                for lhs, rhs in ((eq.p_exp, rs[-1] + bump),
                                 (eq.residual_is_unit(), _residual_is_unit(p, *nums[-1][:2]))):
                    if lhs != rhs:
                        crossed.append(Mismatch(m=d, lhs=lhs, rhs=rhs))
            if d and deepest == d - 1:
                checked += _support_edges(hom, ctype, radius, d - 1, spheres, on_edges)
            spheres.pop(d - 2, None)
            if max(rs) >= 0:
                deepest = d
                checked += _support_vertices(hom, d, bump, rs, nums, at_vertices)
        if deepest == radius:
            checked += _support_edges(hom, ctype, radius, radius, spheres, on_edges)
        mismatches += at_vertices + on_edges
        # The sampled vertices' edges, mostly well outside the support.
        for i in sample:
            lat, d = bttree.ball_vertex(center, i)
            nbs = lat.neighbors()
            for k, _, dn in _edges(p, i, d, radius):
                (lat0, d0), (lat2, d2) = ((lat, d), (nbs[k], dn)) if lat.vtype == 0 else \
                    ((nbs[k], dn), (lat, d))
                pair = localcycles.superspecial_exponents(hom, lat0, lat2)
                m0 = localcycles.multiplicity(hom, lat0, d0)
                mults = (localcycles.multiplicity(hom, lat2, d2), m0)
                checked += 1
                if pair != mults:
                    mismatches.append(Mismatch(m=d, lhs=list(pair), rhs=list(mults)))
        mismatches += crossed
    return VerificationReport(
        params={"p": p, "delta": delta, "count": count, "radius": radius},
        checked=checked,
        mismatches=mismatches,
    )


def _support_vertices(hom, d, bump, rs, nums, misses) -> int:
    """Check the p-exponent r + bump and the residual flag at each support
    vertex of sphere d, from the sphere's r and numerators, each mismatch
    appended to misses; the multiplicity is taken once per distinct r.
    Returns the count of vertices checked."""
    p, checked = hom.vec.ctx.p, 0
    mults = {r: localcycles.multiplicity_from_r(hom, r, d) for r in set(rs) if r >= 0}
    for r, (n0, n1, _) in zip(rs, nums):
        if r >= 0:
            checked += 1
            if r + bump != mults[r]:
                misses.append(Mismatch(m=d, lhs=r + bump, rhs=mults[r]))
            if _residual_is_unit(p, n0, n1) == (d == 0):
                misses.append(Mismatch(m=d, lhs="residual-unit", rhs=d == 0))
    return checked


def _support_edges(hom, ctype, radius, d, spheres, misses) -> int:
    """Check every edge of sphere d's support vertices, `spheres` holding the
    r of each sphere from d - 1 to d + 1 inside the radius, by depth, and
    ctype being the centre's type.  An edge's pair takes its first entry
    from the type-2 end's r and its second from the type-0 end's, and each
    must equal that end's multiplicity: when every r of the three spheres
    passes the test of its end, every edge passes, and the sphere's edges
    are counted at once.  Else each edge is read off the ball index
    (`_edges`), its mismatch appended to misses.  Returns the count of
    edges checked."""
    p, rs = hom.vec.ctx.p, spheres[d]
    if all(localcycles.exponent_pair(hom.sign, r, r)[(ctype, 2 - ctype)[e % 2] == 0] ==
           localcycles.multiplicity_from_r(hom, r, e)
           for e in range(max(d - 1, 0), min(d + 1, radius) + 1) for r in set(spheres[e])):
        # The parent, and the p children (p + 1 at the centre) inside the radius.
        members = len(rs) - sum(rs.count(r) for r in set(rs) if r < 0)
        return ((d > 0) + (p + (d == 0) if d < radius else 0)) * members
    vtype, checked = (ctype, 2 - ctype)[d % 2], 0
    first = bttree.ball_size(p, d - 1) if d else 0
    for k, r in enumerate(rs):
        if r < 0:
            continue
        for _, j, dn in _edges(p, first + k, d, radius):
            rj = spheres[dn][j - (bttree.ball_size(p, dn - 1) if dn else 0)]
            (r0, d0), (r2, d2) = ((r, d), (rj, dn)) if vtype == 0 else ((rj, dn), (r, d))
            pair = localcycles.exponent_pair(hom.sign, r0, r2)
            mults = (localcycles.multiplicity_from_r(hom, r2, d2),
                     localcycles.multiplicity_from_r(hom, r0, d0))
            checked += 1
            if pair != mults:
                misses.append(Mismatch(m=d, lhs=list(pair), rhs=list(mults)))
    return checked


def _residual_is_unit(p: int, n0, n1) -> bool:
    """OrdinaryEquation.residual_is_unit at a vertex where b has the
    numerators n0 and n1 (as `sphere_numerators` gives them): c = N / p^m
    for m = min(v(N0), v(N1)) has one entry = 0 mod p where the valuations
    differ, and else p | c1.x c0.y - c0.x c1.y; conjugation only negates it."""
    (x0, y0, v0), (x1, y1, v1) = n0, n1
    return v0 != v1 or (x1 * y0 - x0 * y1) % p ** (2 * v0 + 1) == 0


def _edges(p: int, i: int, d: int, radius: int):
    """(k, j, dn) for each neighbour of tree_ball's vertex i, at depth d,
    that lies within `radius` of the centre: its index k in `neighbors`
    order, its ball index j and its depth dn.  The vertex at offset o of
    sphere d has its children at ball_size(p, d) + o p + c for c < p (the
    centre's are 1 ... p + 1) and its parent, which comes first in the
    walk, at index 0 for d = 1, else at ball_size(p, d - 2) + o // p."""
    if d == 0:
        nbs = list(range(1, p + 2))
    else:
        o = i - bttree.ball_size(p, d - 1)
        first = bttree.ball_size(p, d) + o * p
        nbs = list(range(first, first + p))
        # The first vertex of a sphere finds its parent at neighbour index
        # 1, any other at index 0 (see `tree_ball`).
        nbs.insert(1 if o == 0 else 0, 0 if d == 1 else bttree.ball_size(p, d - 2) + o // p)
    for k, j in enumerate(nbs):
        dn = d - 1 if j < i else d + 1
        if dn <= radius:
            yield k, j, dn


# -- the registry -----------------------------------------------------------------


_TREE = ("p", "delta")
_IDENTITY = ("delta", "db")

# The runners look the sweeps up by module-level name on every call, so
# that a wrapper installed over a name (a profiler's, say) is the one run.
# local-compare visits the radius-(alpha + 2) ball twice for each alpha;
# the identity verifiers check the coefficients of q^0 ... q^mmax.
_COEFFICIENTS = ("series coefficients", IDENTITY_CHECK_CAP, lambda a: a.mmax + 1)

SWEEPS = {
    "rho": (lambda a, rng: sweep_rho(a.delta or RHO_DELTAS, a.max), (), None,
            ("values of N", RHO_CHECK_CAP, lambda a: len(a.delta or RHO_DELTAS) * a.max)),
    "r-formula": (
        lambda a, rng: sweep_r_formula(a.p, a.delta[0], a.count, a.radius, rng), _TREE,
        lambda a: ((a.radius, a.count),), None),
    "local-compare": (
        lambda a, rng: sweep_local_compare(a.p, a.delta[0], a.alpha_max, rng), _TREE,
        lambda a: ((alpha + 2, 2) for alpha in range(a.alpha_max + 1)), None),
    "chart": (
        lambda a, rng: sweep_chart_consistency(a.p, a.delta[0], a.count, a.radius, rng),
        _TREE, lambda a: ((a.radius, a.count),), None),
    "main-identity": (
        lambda a, rng: verify_main_theorem(make_field(a.delta[0]), a.db, a.mmax), _IDENTITY,
        None, _COEFFICIENTS),
    "remark-identity": (
        lambda a, rng: verify_remark_identity(make_field(a.delta[0]), a.db, a.mmax), _IDENTITY,
        None, _COEFFICIENTS),
    "hilbert": (lambda a, rng: sweep_hilbert(a.count, rng), (), None,
                ("sample pairs", HILBERT_CHECK_CAP, lambda a: a.count)),
}
