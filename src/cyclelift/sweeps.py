"""Verification sweeps over the local-cycle and identity calculus, their
random generators, and the registry of `verify` kinds.

Every sweep returns a VerificationReport.  SWEEPS maps each kind to
(runner, required flags): a runner takes the parsed `verify` arguments
and a seeded random.Random, and the required flags are the argument
names (also the flag names without their leading "--") that the kind
cannot run without.
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
from cyclelift.padic import LocalContext, qform, required_precision
from cyclelift.quadfield import make_field, optimal_embedding_count, rho, rho_divisor_sum

# The fields that `verify rho` sweeps when no --delta is given.
RHO_DELTAS = (-2, -6, -10, -14, -22, -26)


# -- randomized generators -----------------------------------------------------

# Random vectors draw coordinates mod p^_DRAW_DIGITS and scale the second
# one by up to p^_SKEW_MAX, so lattice pivots can sit _COORD_BUDGET digits
# above what (t, radius) alone would predict.
_DRAW_DIGITS = 6
_SKEW_MAX = 3
_COORD_BUDGET = _DRAW_DIGITS + _SKEW_MAX


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
        if q.is_isotropic or q.valuation > ord_max:
            continue
        if rng.random() < 0.35:
            t = -((-q.valuation) // 2)
            vec = vec.scale_p_power(-t)  # ord q now 0 or -1
        return vec


def random_eigenvector(ctx: LocalContext, rng: random.Random, odd_norm: bool):
    """A random anisotropic vector whose norm valuation has the given
    parity (drives the two Frobenius types)."""
    while True:
        vec = random_anisotropic_vector(ctx, rng, ord_max=5)
        q = qform(vec)
        if q.valuation % 2 == (1 if odd_norm else 0):
            return vec


def random_special_hom(ctx: LocalContext, rng: random.Random, ord_max: int):
    """A random special homomorphism of either sign with norm valuation
    at most ord_max."""
    while True:
        vec = random_anisotropic_vector(ctx, rng, ord_max=ord_max)
        ordq = qform(vec).valuation
        sign = localcycles.PLUS if rng.random() < 0.5 else localcycles.MINUS
        ord_qpm = ordq + 1 if sign == localcycles.PLUS else ordq
        if 0 <= ord_qpm <= ord_max:
            return localcycles.SpecialHom.from_vector(sign, vec)


# -- verification sweeps --------------------------------------------------------


def sweep_rho(deltas, n_max: int) -> VerificationReport:
    """rho vs the divisor-sum expression, exact, over all N <= n_max."""
    mismatches = []
    checked = 0
    for delta in deltas:
        field = make_field(delta)
        for n in range(1, n_max + 1):
            checked += 1
            a = rho(field, n)
            b = rho_divisor_sum(field, n)
            if a != b:
                mismatches.append(Mismatch(m=n, lhs=a, rhs=b))
    return VerificationReport(
        params={"deltas": list(deltas), "max": n_max},
        checked=checked,
        mismatches=mismatches,
    )


def sweep_hilbert(count: int, rng: random.Random) -> VerificationReport:
    """Hilbert reciprocity on random nonzero rationals: the product of
    the symbols over all potentially nontrivial places is +1."""
    mismatches = []
    for i in range(count):
        a = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        b = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
        product = 1
        for place in hilbert_places(a, b):
            product *= hilbert_symbol(a, b, place)
        if product != 1:
            mismatches.append(Mismatch(m=i, lhs=f"({a},{b})", rhs=product))
    return VerificationReport(
        params={"count": count}, checked=count, mismatches=mismatches
    )


def sweep_r_formula(
    p: int, delta: int, count: int, radius: int, rng: random.Random
) -> VerificationReport:
    """Direct-membership r-invariants against the distance formula on
    full balls around the central lattice."""
    ctx = LocalContext(
        p=p, delta_sq=delta, precision=required_precision(_COORD_BUDGET + 4, radius)
    )
    mismatches = []
    checked = 0
    for i in range(count):
        vec = random_anisotropic_vector(ctx, rng)
        ordq = qform(vec).valuation
        t = -((-ordq) // 2)
        center = bttree.central_lattice(vec)
        for lat, d in bttree.tree_ball(center, radius):
            checked += 1
            r = lat.r_invariant(vec)
            if ordq % 2 == 0:
                expected = t - d // 2
            else:
                expected = t - (d + 1) // 2
            if r != expected:
                mismatches.append(
                    Mismatch(m=checked, lhs=r, rhs=expected)
                )
    return VerificationReport(
        params={"p": p, "delta": delta, "count": count, "radius": radius},
        checked=checked,
        mismatches=mismatches,
    )


def sweep_local_compare(
    p: int,
    delta: int,
    alpha_max: int,
    rng: random.Random,
    spot_checks: int = 12,
) -> VerificationReport:
    """The orthogonal/unitary comparison: for each alpha and each
    Frobenius type, the split pair's multiplicities must sum to
    max(alpha - d, 0) on the radius-(alpha+2) ball, the horizontal
    counts must be 1 + 1 = 2 at the shared central lattice, and the
    residue horizontal polynomials must match up to a unit."""
    mismatches = []
    checked = 0
    for alpha in range(alpha_max + 1):
        for odd_norm in (True, False):
            ctx = LocalContext(
                p=p,
                delta_sq=delta,
                precision=required_precision(_COORD_BUDGET + alpha, alpha + 2),
            )
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
            ball = bttree.tree_ball(center, alpha + 2)
            for lat, d in ball:
                checked += 1
                total = localcycles.multiplicity(hp, lat, d) + localcycles.multiplicity(
                    hm, lat, d
                )
                expected = max(alpha - d, 0)
                if total != expected:
                    mismatches.append(Mismatch(m=d, lhs=total, rhs=expected))
            # Exercise the multiplicity op with its own tree distance on
            # a spot sample.
            for lat, d in rng.sample(ball, min(spot_checks, len(ball))):
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

    def poly_from_linear(eq0, eq1):
        # (c0 T + c1)(e0 T + e1) coefficients mod p, as integers.
        c0, c1 = eq0.c0, eq0.c1
        e0, e1 = eq1.c0, eq1.c1
        lead = c0.mul(e0)
        mid = c0.mul(e1).add(c1.mul(e0))
        low = c1.mul(e1)
        return lead, mid, low

    lead, mid, low = poly_from_linear(eq_p, eq_m)
    basis = center.hyperbolic_basis()
    a0, a1 = localcycles.solve_coordinates(center, basis, j.eigvec)
    qlead = a0.mul(a0.conj())
    qmid = a0.mul(a1.conj()).add(a0.conj().mul(a1))
    qlow = a1.mul(a1.conj())
    # Compare up to a unit scalar over the residue field F_{p^2}: find a
    # nonzero coefficient pair and cross-multiply the rest.
    us = (lead, mid, low)
    vs = (qlead, qmid, qlow)
    for u, v in zip(us, vs):
        if (u.residue() == (0, 0)) != (v.residue() == (0, 0)):
            return False
    pivot = next(
        (k for k in range(3) if us[k].residue() != (0, 0)),
        None,
    )
    if pivot is None:
        return False  # both reductions vanish; precision trouble upstream
    for k in range(3):
        lhs = us[k].mul(vs[pivot])
        rhs = vs[k].mul(us[pivot])
        if lhs.sub(rhs).residue() != (0, 0):
            return False
    return True


def sweep_chart_consistency(
    p: int, delta: int, count: int, radius: int, rng: random.Random, ord_max: int = 4
) -> VerificationReport:
    """Local equations against multiplicities over the radius ball: the
    p-exponent of the ordinary equation must equal the vertical
    multiplicity at every vertex containing the vector, the residual
    factor must be a unit exactly away from the central lattice, and
    the superspecial exponents at every tree edge touching the cycle
    support must reproduce the multiplicities of both components (a
    sample of empty edges is checked for the trivial (0, 0) case)."""
    ctx = LocalContext(
        p=p, delta_sq=delta, precision=required_precision(_COORD_BUDGET + 4, radius)
    )
    mismatches = []
    checked = 0
    for _ in range(count):
        hom = random_special_hom(ctx, rng, ord_max)
        center = hom.central()
        ball = bttree.tree_ball(center, radius)
        depth = {lat.key: d for lat, d in ball}
        supported = []
        for lat, d in ball:
            r = lat.r_invariant(hom.vec)
            if r < 0:
                continue
            supported.append((lat, d))
            checked += 1
            eq = localcycles.ordinary_equation(hom, lat)
            m = localcycles.multiplicity(hom, lat, d)
            if eq.p_exp != m:
                mismatches.append(Mismatch(m=d, lhs=eq.p_exp, rhs=m))
            is_center = lat.key == center.key
            if eq.residual_is_unit() == is_center:
                mismatches.append(Mismatch(m=d, lhs="residual-unit", rhs=is_center))
        # Superspecial pairs: every edge with an endpoint in the
        # support, plus a sample of edges well outside it.
        edge_nodes = supported + rng.sample(ball, min(6, len(ball)))
        for lat, d in edge_nodes:
            for nb in lat.neighbors():
                if depth.get(nb.key) is None:
                    continue
                lat0, lat2 = (lat, nb) if lat.vtype == 0 else (nb, lat)
                e0, e1 = localcycles.superspecial_exponents(hom, lat0, lat2)
                m0 = localcycles.multiplicity(hom, lat0, depth[lat0.key])
                m2 = localcycles.multiplicity(hom, lat2, depth[lat2.key])
                checked += 1
                if (e0, e1) != (m2, m0):
                    mismatches.append(Mismatch(m=d, lhs=[e0, e1], rhs=[m2, m0]))
    return VerificationReport(
        params={"p": p, "delta": delta, "count": count, "radius": radius},
        checked=checked,
        mismatches=mismatches,
    )


# -- the registry -----------------------------------------------------------------


def _remark_identity(args, rng) -> VerificationReport:
    field = make_field(args.delta[0])
    classes = optimal_embedding_count(field, args.db)
    return verify_remark_identity(field, args.db, args.mmax, classes)


_TREE = ("p", "delta")
_IDENTITY = ("delta", "db")

# The runners look the sweeps up by module-level name on every call, so
# that a wrapper installed over a name (a profiler's, say) is the one run.
SWEEPS = {
    "rho": (lambda a, rng: sweep_rho(a.delta or RHO_DELTAS, a.max), ()),
    "r-formula": (
        lambda a, rng: sweep_r_formula(a.p, a.delta[0], a.count, a.radius, rng), _TREE),
    "local-compare": (
        lambda a, rng: sweep_local_compare(a.p, a.delta[0], a.alpha_max, rng), _TREE),
    "chart": (
        lambda a, rng: sweep_chart_consistency(a.p, a.delta[0], a.count, a.radius, rng),
        _TREE),
    "main-identity": (
        lambda a, rng: verify_main_theorem(make_field(a.delta[0]), a.db, a.mmax), _IDENTITY),
    "remark-identity": (_remark_identity, _IDENTITY),
    "hilbert": (lambda a, rng: sweep_hilbert(a.count, rng), ()),
}
