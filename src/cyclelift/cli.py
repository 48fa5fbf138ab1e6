"""Batch command-line interface: verification sweeps, cycle
decompositions, and Shimura lifts, with deterministic JSON/CSV output.

Exit codes: 0 success, 1 mismatches found, 2 hypothesis violation or
bad input, 4 series truncation insufficient.  3 is reserved: it meant
"precision exhausted", which no input reaches now that every p-adic
vector is exact.  `cycle` exits only 0 or 2.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from cyclelift import bttree, localcycles, qseries, sweeps
from cyclelift.errors import (
    DegenerateVectorError,
    HypothesisError,
    TruncationInsufficientError,
)
from cyclelift.identity import VerificationReport, parse_symbolic_entries
from cyclelift.padic import LocalContext

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

# Largest m_top, the count of lifted coefficients b(1..m_top), that `lift`
# accepts: its work grows with m_top, and at this cap a series dense in
# symbolic coefficients lifts in about 1.6 s on one Xeon core.
LIFT_M_CAP = 10_000

# Largest cycle support, in vertices, that `cycle` builds: the ord-8 ball
# at p = 5 (117,187 vertices, 24 MB of JSON) takes about 1 s and 114 MB
# peak RSS on one Xeon core, and both grow linearly with the count.
CYCLE_VERTEX_CAP = 200_000

# Largest count of ball vertices that a tree sweep of `verify` visits, as
# its registry entry in sweeps.SWEEPS counts them.  On one Xeon core,
# local-compare at p = 11, --alpha-max 3 (425,144 vertices) takes about
# 1.4 s and 100 MB peak RSS, and chart at p = 13, --count 2 --radius 5
# (866,350) about 1.7 s and 180 MB; each further alpha or radius
# multiplies the count by about p.  The kinds that walk no tree carry
# their own caps in sweeps.SWEEPS.
VERIFY_VERTEX_CAP = 1_000_000

# Radii above this are counted as this radius: even at p = 3 its ball
# holds far more vertices than either cap.
_RADIUS_CLIP = 64

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_HYPOTHESIS = 2
EXIT_TRUNCATION = 4  # 3 is reserved (see the module docstring)


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


def parse_vector(text: str) -> tuple[tuple[int, int], tuple[int, int], int]:
    """Parse 'x0+y0*d,x1+y1*d' with an optional '/p^e' denominator into
    the exact ((x0, y0), (x1, y1), e)."""
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
    return parse_coordinate(parts[0]), parse_coordinate(parts[1]), denom


# -- output helpers --------------------------------------------------------------


def emit(chunks, out_path: str | None) -> None:
    """Write an iterable of text to out_path, or to stdout when there is
    none.  A file that cannot be written is bad input (exit 2)."""
    if not out_path:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc.strerror or exc}") from exc


def _json_text(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _csv_text(data: dict) -> str:
    rows = ["m,lhs,rhs"]
    for mm in data.get("mismatches", []):
        rows.append(f"{mm['m']},{json.dumps(mm['lhs'])},{json.dumps(mm['rhs'])}")
    return "\n".join(rows) + "\n"


def _report_exit(report: VerificationReport, args) -> int:
    if report.checked == 0:
        raise ValueError("the sweep checked nothing, so it cannot pass")
    render = _json_text if args.format == "json" else _csv_text
    emit([render(report.to_json_dict())], args.out)
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
    runner, required, balls, checks = sweeps.SWEEPS[args.kind]
    for name in required:
        if getattr(args, name) is None:
            raise ValueError(f"verify {args.kind} requires --{name}")
    if balls is not None:
        # A bad p or Delta is refused first, as the sweep would refuse it.
        _refuse_balls(LocalContext(args.p, args.delta[0]), balls(args), VERIFY_VERTEX_CAP,
                      f"verify {args.kind} would visit {{}} ball vertices")
    else:
        unit, cap, count = checks
        _refuse(count(args), cap, f"verify {args.kind} would check {{}} {unit}")
    return _report_exit(runner(args, random.Random(args.seed)), args)


def _refuse(total: int, cap: int, claim: str, more: bool = False) -> None:
    """Refuse work before it starts when its total is above cap.  The
    message opens with claim.format(total), read as "more than" total
    when more work would be added to it."""
    if total > cap:
        raise ValueError(claim.format(("more than " if more else "") + str(total))
                         + f", above the cap of {cap}")


def _refuse_balls(ctx: LocalContext, balls, cap: int, claim: str) -> None:
    """`_refuse` for work over tree balls at ctx.p, given as (radius,
    times) pairs, counted in vertices as far as it takes to pass cap; the
    count is "more than" it when pairs are left or a radius was clipped."""
    balls = iter(balls)
    total = 0
    for radius, times in balls:
        total += times * bttree.ball_size(ctx.p, min(radius, _RADIUS_CLIP))
        if total > cap:
            _refuse(total, cap, claim, radius > _RADIUS_CLIP or next(balls, None) is not None)


def cmd_cycle(args) -> int:
    if args.ortho != (args.alpha is not None):
        raise ValueError("--ortho requires --alpha" if args.ortho else "--alpha requires --ortho")
    a0, a1, denom = parse_vector(args.b)
    ctx = LocalContext(args.p, args.delta)
    vec = ctx.vector_from_ints(a0, a1, denom)
    if args.ortho:
        special = localcycles.OrthEndo.from_eigenvector(args.alpha, vec)
        radius, build = special.alpha - 1, localcycles.orthogonal_cycle
    else:
        special = localcycles.SpecialHom.from_vector(args.sign, vec)
        radius, build = special.ord_qpm - 1, localcycles.unitary_cycle
    _refuse_balls(ctx, ((radius, 1),), CYCLE_VERTEX_CAP,
                  f"the cycle's support, the ball of radius {radius} around its centre, "
                  "holds {} vertices")
    emit(localcycles.cycle_json_chunks(build(special)), args.out)
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
        kappa=args.kappa, level_N=args.level, t=args.t, chi_disc=args.chi_kronecker
    )
    m_top = qseries.lift_count(series, args.t, args.mmax)
    if m_top > LIFT_M_CAP:
        raise ValueError(
            f"the lift would compute {m_top} coefficients, above the cap of "
            f"{LIFT_M_CAP}; pass --mmax {LIFT_M_CAP} or less"
        )
    lifted = qseries.shimura_lift(series, params, mmax=args.mmax)
    out = qseries.series_to_json_dict(lifted)
    # shimura_lift leaves out a constant term that it cannot evaluate.
    if not series.coefficient(0):
        out["constant_term_policy"] = "absent"
    elif 0 in lifted.coeffs:
        out["constant_term_policy"] = "closed_form"
    else:
        out["constant_term_policy"] = "unavailable_omitted"
    out["params"] = {
        "kappa": args.kappa,
        "level": args.level,
        "t": args.t,
        "chi": args.chi_kronecker if args.chi_kronecker is not None else "principal",
    }
    emit([_json_text(out)], args.out)
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


_PARSER = build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value that starts with "-" for a flag, so `--b X` is
    # passed on as `--b=X`: a vector may start with a minus sign.
    for i in range(len(argv) - 2, -1, -1):
        if argv[i] == "--b":
            argv[i:i + 2] = ["--b=" + argv[i + 1]]
    args = _PARSER.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except (DegenerateVectorError, ValueError, json.JSONDecodeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except TruncationInsufficientError as exc:
        print(f"truncation insufficient: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION


if __name__ == "__main__":
    sys.exit(main())
