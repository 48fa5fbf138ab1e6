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
# about 2 s, remark-identity about 0.9 s at Delta = -74, D_B = 119 (40
# embedding classes, the most for |Delta| <= 100, D_B <= 500) and 0.3 s at
# Delta = -10, D_B = 51, and main-identity at most 0.5 s; each grows at
# least linearly with the count.
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

    The support comes by coordinate descent over the radius ball, as
    ball indices gathered sphere by sphere.  Lattices are built only out
    to one sphere past the support's deepest vertex, each solved once
    (`r_invariant`, whose r and depth give `multiplicity_from_r`), and a
    support edge reads its far end off that ball by index.  The
    6 sampled vertices are built alone, with their neighbours, and
    their edges go through `superspecial_exponents`."""
    ctx = LocalContext(p=p, delta_sq=delta)
    mismatches = []
    checked = 0
    for _ in range(count):
        hom = random_special_hom(ctx, rng, _CHART_ORD_MAX)
        center = hom.central()
        # The support as (ball index, depth), sphere by sphere.
        support, offset = [], 0
        for d, sphere in enumerate(bttree.sphere_r_invariants(center, hom.vec, radius)):
            support += [(offset + k, d) for k, r in enumerate(sphere) if r >= 0]
            offset += len(sphere)
        # The edges of 6 vertices drawn from the whole ball are checked too;
        # the draw needs no lattice, so it comes before any is built.
        size = bttree.ball_size(p, radius)
        sample = rng.sample(range(size), min(6, size))
        # The support is a ball around the centre, and tree_ball's order
        # is breadth first: build lattices out to the sphere past its
        # deepest vertex only.
        ball = bttree.tree_ball(center, min(support[-1][1] + 1, radius) if support else 0)
        rs = [lat.r_invariant(hom.vec) for lat, _ in ball]
        ms = [localcycles.multiplicity_from_r(hom, r, d) for r, (_, d) in zip(rs, ball)]
        for i, d in support:
            checked += 1
            eq = localcycles.ordinary_equation(hom, ball[i][0])
            if eq.p_exp != ms[i]:
                mismatches.append(Mismatch(m=d, lhs=eq.p_exp, rhs=ms[i]))
            if eq.residual_is_unit() == (d == 0):
                mismatches.append(Mismatch(m=d, lhs="residual-unit", rhs=d == 0))
        # Superspecial pairs, each checked where it forms: every edge touching
        # the support, then the sampled vertices', mostly well outside it.
        for i, d in support:
            for _, j, _ in _edges(p, i, d, radius):
                i0, i2 = (i, j) if ball[i][0].vtype == 0 else (j, i)
                pair = localcycles.exponent_pair(hom.sign, rs[i0], rs[i2])
                checked += 1
                if pair != (ms[i2], ms[i0]):
                    mismatches.append(Mismatch(m=d, lhs=list(pair), rhs=[ms[i2], ms[i0]]))
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
    return VerificationReport(
        params={"p": p, "delta": delta, "count": count, "radius": radius},
        checked=checked,
        mismatches=mismatches,
    )


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
