"""Batch command-line interface: verification sweeps, cycle
decompositions, and Shimura lifts, with deterministic JSON/CSV output.

Exit codes: 0 success, 1 mismatches found, 2 hypothesis violation or
bad input, 3 precision exhausted, 4 series truncation insufficient.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import re
import sys
from fractions import Fraction

from cyclelift import bttree, localcycles, qseries
from cyclelift.errors import (
    DegenerateVectorError,
    HypothesisError,
    PrecisionExhaustedError,
    TruncationInsufficientError,
)
from cyclelift.identity import (
    Mismatch,
    VerificationReport,
    parse_symbolic_entries,
    verify_main_theorem,
    verify_remark_identity,
)
from cyclelift.numth import hilbert_places, hilbert_symbol
from cyclelift.padic import LocalContext, qform, required_precision
from cyclelift.quadfield import make_field, optimal_embedding_count, rho, rho_divisor_sum

DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_HYPOTHESIS = 2
EXIT_PRECISION = 3
EXIT_TRUNCATION = 4


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
    p = j.eigvec.ctx.p

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


# -- vector parsing -------------------------------------------------------------

_COORD_RE = re.compile(
    r"^\s*(-?\d+)\s*(?:([+-])\s*(\d+)\s*\*?\s*d)?\s*$|^\s*(-?\d+)\s*\*?\s*d\s*$"
)


def parse_coordinate(text: str) -> tuple[int, int]:
    m = _COORD_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse coordinate {text!r} (expected 'x+y*d')")
    if m.group(4) is not None:
        return (0, int(m.group(4)))
    x = int(m.group(1))
    y = 0
    if m.group(2):
        y = int(m.group(3))
        if m.group(2) == "-":
            y = -y
    return (x, y)


def parse_vector(ctx: LocalContext, text: str):
    """Parse 'x0+y0*d,x1+y1*d' with an optional '/p^e' denominator."""
    denom = 0
    if "/" in text:
        text, suffix = text.split("/", 1)
        m = re.match(r"^\s*p\s*\^?\s*(\d+)\s*$", suffix)
        if not m:
            raise ValueError(f"cannot parse denominator {suffix!r} (expected 'p^e')")
        denom = int(m.group(1))
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError("vector needs exactly two coordinates")
    a0 = parse_coordinate(parts[0])
    a1 = parse_coordinate(parts[1])
    return ctx.vector_from_ints(a0, a1, denom)


# -- output helpers --------------------------------------------------------------


def emit(data: dict, out_path: str | None, fmt: str = "json") -> None:
    if fmt == "json":
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    else:
        rows = ["m,lhs,rhs"]
        for mm in data.get("mismatches", []):
            rows.append(f"{mm['m']},{json.dumps(mm['lhs'])},{json.dumps(mm['rhs'])}")
        text = "\n".join(rows) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_exit(report: VerificationReport, args) -> int:
    if report.checked == 0:
        raise ValueError("the sweep checked nothing, so it cannot pass")
    emit(report.to_json_dict(), args.out, args.format)
    return EXIT_OK if report.ok else EXIT_MISMATCH


# -- subcommand drivers -----------------------------------------------------------


def _require(args, *names) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            flag = {"delta_single": "--delta", "db": "--db", "p": "--p"}[name]
            raise ValueError(f"verify {args.kind} requires {flag}")


# Smallest accepted value of each sweep-size flag: a sweep below it
# would check nothing (or only the centre of a ball) and pass vacuously.
_SWEEP_MINIMA = (("max", "--max", 1), ("count", "--count", 1),
                 ("radius", "--radius", 1), ("alpha_max", "--alpha-max", 0),
                 ("mmax", "--mmax", 0))


def _require_at_least(flag: str, value: int, least: int) -> None:
    if value < least:
        raise ValueError(f"{flag} must be at least {least}, got {value}")


def cmd_verify(args) -> int:
    for name, flag, least in _SWEEP_MINIMA:
        _require_at_least(flag, getattr(args, name), least)
    rng = random.Random(args.seed)
    kind = args.kind
    if kind == "rho":
        deltas = args.delta or [-2, -6, -10, -14, -22, -26]
        report = sweep_rho(deltas, args.max)
    elif kind == "hilbert":
        report = sweep_hilbert(args.count, rng)
    elif kind == "r-formula":
        _require(args, "p", "delta_single")
        report = sweep_r_formula(args.p, args.delta_single, args.count, args.radius, rng)
    elif kind == "local-compare":
        _require(args, "p", "delta_single")
        report = sweep_local_compare(args.p, args.delta_single, args.alpha_max, rng)
    elif kind == "chart":
        _require(args, "p", "delta_single")
        report = sweep_chart_consistency(
            args.p, args.delta_single, args.count, args.radius, rng
        )
    elif kind == "main-identity":
        _require(args, "delta_single", "db")
        field = make_field(args.delta_single)
        report = verify_main_theorem(field, args.db, args.mmax)
    else:  # remark-identity
        _require(args, "delta_single", "db")
        field = make_field(args.delta_single)
        classes = optimal_embedding_count(field, args.db)
        report = verify_remark_identity(field, args.db, args.mmax, classes)
    return _report_exit(report, args)


def cmd_cycle(args) -> int:
    radius = args.radius if args.radius is not None else max(args.alpha or 0, 8)
    precision = args.precision or int(
        os.environ.get("CYCLELIFT_PRECISION", 0)
    ) or required_precision(radius, radius)
    ctx = LocalContext(p=args.p, delta_sq=args.delta_single, precision=precision)
    vec = parse_vector(ctx, args.b)
    if args.ortho:
        if args.alpha is None:
            raise ValueError("--ortho requires --alpha")
        j = localcycles.OrthEndo.from_eigenvector(args.alpha, vec)
        cycle = localcycles.orthogonal_cycle(j)
    else:
        hom = localcycles.SpecialHom.from_vector(args.sign, vec)
        cycle = localcycles.unitary_cycle(hom)
    data = localcycles.cycle_to_json_dict(cycle)
    emit(data, args.out, "json")
    return EXIT_OK


def cmd_lift(args) -> int:
    if args.mmax is not None:
        _require_at_least("--mmax", args.mmax, 0)
    if args.infile == "-":
        data = json.load(sys.stdin)
    else:
        try:
            with open(args.infile, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ValueError(
                f"cannot read {args.infile}: {exc.strerror or exc}"
            ) from exc
    # Build only what the lift reads.  A t below 1 reads the whole series:
    # ShimuraParams rejects it next, after the file's own errors.
    series = qseries.series_from_json_dict(
        data,
        symbolic_parser=parse_symbolic_entries,
        square_class=args.t if args.t >= 1 else None,
    )
    if args.chi_kronecker is not None:
        params = qseries.ShimuraParams(
            kappa=args.kappa,
            level_N=args.level,
            t=args.t,
            chi_kind="kronecker",
            chi_disc=args.chi_kronecker,
        )
    else:
        params = qseries.ShimuraParams(kappa=args.kappa, level_N=args.level, t=args.t)
    lifted = qseries.shimura_lift(series, params, mmax=args.mmax)
    constant_policy = "absent"
    if 0 in lifted.coeffs:
        if isinstance(lifted.coeffs[0], qseries.ConstantTermMarker):
            # Non-contractual path: drop the marker but flag the policy.
            constant_policy = "unavailable_omitted"
            lifted = qseries.FormalSeries(
                {n: c for n, c in lifted.coeffs.items() if n != 0},
                lifted.max_exponent,
            )
        else:
            constant_policy = "closed_form"
    out = qseries.series_to_json_dict(lifted)
    out["constant_term_policy"] = constant_policy
    out["params"] = {
        "kappa": args.kappa,
        "level": args.level,
        "t": args.t,
        "chi": args.chi_kronecker if args.chi_kronecker is not None else "principal",
    }
    emit(out, args.out, "json")
    return EXIT_OK


# -- argument parsing --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclelift",
        description="Exact special-cycle calculus, Shimura lifts, and identity verifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run a verification sweep")
    pv.add_argument(
        "kind",
        choices=[
            "rho",
            "r-formula",
            "local-compare",
            "chart",
            "main-identity",
            "remark-identity",
            "hilbert",
        ],
    )
    pv.add_argument("--delta", type=int, action="append", default=None,
                    help="field discriminant parameter (repeatable for rho)")
    pv.add_argument("--db", type=int, default=None, help="quaternion discriminant")
    pv.add_argument("--p", type=int, default=None, help="residue prime")
    pv.add_argument("--max", type=int, default=5000, help="sweep bound for rho")
    pv.add_argument("--mmax", type=int, default=300, help="q-expansion bound")
    pv.add_argument("--count", type=int, default=25, help="random sample count")
    pv.add_argument("--radius", type=int, default=6, help="tree ball radius")
    pv.add_argument("--alpha-max", type=int, default=4, dest="alpha_max")
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.add_argument("--format", choices=["json", "csv"], default="json")
    pv.add_argument("--out", default=None, help="output path (default stdout)")
    pv.set_defaults(func=cmd_verify)

    pc = sub.add_parser("cycle", help="decompose a local special cycle")
    pc.add_argument("--p", type=int, required=True)
    pc.add_argument("--delta", type=int, required=True)
    pc.add_argument("--sign", choices=["plus", "minus"], default="minus")
    pc.add_argument("--b", required=True, help="vector 'x0+y0*d,x1+y1*d[/p^e]'")
    pc.add_argument("--ortho", action="store_true", help="orthogonal cycle")
    pc.add_argument("--alpha", type=int, default=None, help="orthogonal valuation")
    pc.add_argument("--radius", type=int, default=None)
    pc.add_argument("--precision", type=int, default=None)
    pc.add_argument("--out", default=None)
    pc.set_defaults(func=cmd_cycle)

    pl = sub.add_parser("lift", help="apply the formal Shimura lift to a series file")
    pl.add_argument("--kappa", type=int, default=3)
    pl.add_argument("--level", type=int, required=True)
    pl.add_argument("--t", type=int, required=True)
    pl.add_argument("--chi-kronecker", type=int, default=None, dest="chi_kronecker")
    pl.add_argument("--mmax", type=int, default=None)
    pl.add_argument("--in", dest="infile", required=True, help="input series ('-' = stdin)")
    pl.add_argument("--out", default=None)
    pl.set_defaults(func=cmd_lift)

    return parser


def _normalize_args(args) -> None:
    # verify/cycle share --delta with different cardinality; keep both views.
    deltas = getattr(args, "delta", None)
    if isinstance(deltas, list):
        args.delta_single = deltas[0] if deltas else None
    else:
        args.delta_single = deltas


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _normalize_args(args)
    try:
        return args.func(args)
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (DegenerateVectorError, ValueError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except PrecisionExhaustedError as exc:
        needed = f" (needed >= {exc.needed})" if exc.needed else ""
        print(f"precision exhausted: {exc}{needed}", file=sys.stderr)
        return EXIT_PRECISION
    except TruncationInsufficientError as exc:
        print(f"truncation insufficient: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION


if __name__ == "__main__":
    sys.exit(main())
