"""Batch command-line interface: verification sweeps, cycle
decompositions, and Shimura lifts, with deterministic JSON/CSV output.

Exit codes: 0 success, 1 mismatches found, 2 hypothesis violation or
bad input, 3 precision exhausted, 4 series truncation insufficient.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from cyclelift import localcycles, qseries, sweeps
from cyclelift.errors import (
    DegenerateVectorError,
    HypothesisError,
    PrecisionExhaustedError,
    TruncationInsufficientError,
)
from cyclelift.identity import VerificationReport, parse_symbolic_entries
from cyclelift.padic import LocalContext, required_precision

# perfbench/tracing.py wraps these sweeps by their cli.* names; wrapping
# replaces every binding of a function, so the registry's runners (which
# look them up in cyclelift.sweeps) run the wrapped ones.
from cyclelift.sweeps import (  # noqa: F401
    random_anisotropic_vector,
    sweep_chart_consistency,
    sweep_local_compare,
    sweep_r_formula,
    sweep_rho,
)

DEFAULT_SEED = 12345

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_HYPOTHESIS = 2
EXIT_PRECISION = 3
EXIT_TRUNCATION = 4


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
    runner, required = sweeps.SWEEPS[args.kind]
    for name in required:
        if getattr(args, name) is None:
            raise ValueError(f"verify {args.kind} requires --{name}")
    return _report_exit(runner(args, random.Random(args.seed)), args)


def cmd_cycle(args) -> int:
    radius = args.radius if args.radius is not None else max(args.alpha or 0, 8)
    precision = args.precision or required_precision(radius, radius)
    ctx = LocalContext(p=args.p, delta_sq=args.delta, precision=precision)
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
    params = qseries.ShimuraParams(
        kappa=args.kappa,
        level_N=args.level,
        t=args.t,
        chi_kind=qseries.PRINCIPAL if args.chi_kronecker is None else "kronecker",
        chi_disc=args.chi_kronecker,
    )
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
    pv.add_argument("kind", choices=sweeps.SWEEPS)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
