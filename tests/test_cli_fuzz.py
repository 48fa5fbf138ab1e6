"""A derandomized fuzz of `cyclelift.cli.main` over `verify`, `cycle` and
`lift`: malformed and signed vectors and denominators, p that is not
prime, even or not inert, values just above each cap and well below it,
and series files with wrong types, huge exponents, `1/0` and symbol
names out of canonical form.  Most lift files are whole but for one
coefficient text at an exponent the lift reads, so that the odd texts
reach the coefficient reader.

Every example must end in a documented exit code (0, 1, 2 or 4) with no
exception escaping `main`; an exit 2 writes exactly one line to stderr,
and an argument that argparse rejects exits through SystemExit(2).
Values below a cap are kept well below it, so every example is cheap:
the caps, not a timeout, bound the work.
"""

import contextlib
import io
import json
import os
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cyclelift import cli, qseries, sweeps
from cyclelift.bttree import ball_size
from cyclelift.cli import CYCLE_VERTEX_CAP, LIFT_M_CAP, VERIFY_VERTEX_CAP
from cyclelift.numth import _MAX_FACTOR_INPUT
from cyclelift.quadfield import MAX_ABS_DELTA
from cyclelift.sweeps import HILBERT_CHECK_CAP, IDENTITY_CHECK_CAP, RHO_CHECK_CAP

EXIT_CODES = {cli.EXIT_OK, cli.EXIT_MISMATCH, cli.EXIT_HYPOTHESIS, cli.EXIT_TRUNCATION}

FUZZ = settings(max_examples=100, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

# Integer flag texts that are not plain decimal integers: argparse refuses
# some, and Python's int() reads others (Unicode digits, underscores).
NOT_INTS = st.sampled_from(["x", "1.5", "", "0x10", "٣", "0_1", " 2 ", "-", "1e3"])


def rarely(usual, odd, one_in=8):
    """odd once in one_in draws, else usual."""
    return st.integers(1, one_in).flatmap(lambda k: odd if k == one_in else usual)


def ints(low, high, *special):
    """Integer flag texts: mostly a small range of valid values, else a
    few chosen ones (out of range, or near or above a cap), and rarely
    text that is not a plain integer."""
    values = rarely(st.integers(low, high), st.sampled_from(special))
    return rarely(values.map(str), NOT_INTS, 32)


# p: mostly an odd prime, inert for some Delta and not for others, else a
# small integer, the largest prime under the factoring cap or a value above
# it.  Delta: small negative values, else others and values above the
# field cap.
PRIMES = rarely(st.sampled_from(["3", "5", "7", "11", "13"]),
                ints(-3, 14, 2**61 - 1, 999_999_999_989, _MAX_FACTOR_INPUT + 1, 10**30), 3)
DELTAS = ints(-60, -1, 0, 1, 5, 8, -74, -999_994, MAX_ABS_DELTA + 1, -MAX_ABS_DELTA - 2,
              -(2**62))
SEEDS = ints(-5, 5, 2**70, -(2**70))


def flags(draw, table, usual=()):
    """Each (flag, values) of the table, drawn into argv or left out: a
    flag in usual is left out once in 16 draws, any other in two."""
    argv = []
    for flag, values in table:
        if draw(rarely(st.just(True), st.just(False), 16) if flag in usual else st.booleans()):
            argv += [flag, draw(values)]
    return argv


def run(argv):
    """main(argv) with its output captured; the four checks of the gate."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code == 2, (argv, exc.code)
            return
    assert code in EXIT_CODES, (argv, code)
    if code == cli.EXIT_HYPOTHESIS:
        lines = err.getvalue().splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].endswith("\n"), (argv, err.getvalue())


# -- verify ---------------------------------------------------------------------

# Tree kinds: balls small enough to walk at once, or sizes that the vertex
# cap refuses whatever the prime, from the smallest radius it refuses at
# p = 3 up.
TREE_FLAGS = [
    ("--p", PRIMES),
    ("--delta", DELTAS),
    ("--count", ints(1, 3, -2, 0, VERIFY_VERTEX_CAP + 1, 10**40)),
    ("--radius", ints(1, 3, -2, 0, next(r for r in range(64)
                                         if ball_size(3, r) > VERIFY_VERTEX_CAP), 64, 10**9)),
    ("--alpha-max", ints(0, 2, -2, -1, 63, 10**9)),
]
# The kinds that walk no tree: check counts well below their caps, or just
# above them.
CHECK_FLAGS = [
    ("--delta", DELTAS),
    ("--delta", DELTAS),
    ("--db", ints(1, 130, -35, 0, 1155, 999_999_999_989, _MAX_FACTOR_INPUT + 1, 2**61 - 1)),
    ("--max", ints(1, 60, -2, 0, RHO_CHECK_CAP // 100, RHO_CHECK_CAP + 1, 10**30)),
    ("--mmax", ints(0, 40, -2, IDENTITY_CHECK_CAP // 100, IDENTITY_CHECK_CAP, 10**30)),
    ("--count", ints(1, 50, -2, 0, HILBERT_CHECK_CAP // 100, HILBERT_CHECK_CAP + 1, 10**30)),
]
COMMON_FLAGS = [
    ("--seed", SEEDS),
    ("--format", rarely(st.sampled_from(["json", "csv"]), st.just("xml"))),
]
# A path that cannot be written, whatever the permissions.
UNWRITABLE = os.path.join(os.devnull, "out.json")


@st.composite
def verify_argv(draw):
    kind = draw(rarely(st.sampled_from(list(sweeps.SWEEPS)), st.just("bogus")))
    table = TREE_FLAGS if kind in ("r-formula", "local-compare", "chart") else CHECK_FLAGS
    # Sizes are usually given: the default chart walks 585,925 vertices at p = 5.
    usual = ("--p", "--delta", "--db", "--count", "--radius", "--alpha-max")
    argv = ["verify", kind, *flags(draw, table + COMMON_FLAGS, usual)]
    if draw(rarely(st.just(False), st.just(True), 16)):
        argv += ["--out", UNWRITABLE]
    return argv


@FUZZ
@given(verify_argv())
def test_verify_exits_with_a_documented_code(argv):
    run(argv)


# -- cycle ------------------------------------------------------------------------

# Coordinates are small, so a cycle's support stays small, or carry a
# 40th power, so its radius is far above the vertex cap.
PARTS = st.one_of(st.integers(-30, 30), st.sampled_from([3**40, -(5**40), 7**40, 10**50]))


@st.composite
def coordinate(draw):
    x, y = draw(PARTS), draw(PARTS)
    form = draw(rarely(st.sampled_from(["{x}{sign}{ay}d", "{x}{sign}{ay}*d", "{y}d", "{x}",
                                        " {x} {sign} {ay} d "]),
                       st.sampled_from(["{x}++{ay}d", "{x}{sign}{ay}e", "d", "{x}.0"]), 16))
    return form.format(x=x, y=y, sign="-" if y < 0 else "+", ay=abs(y))


DENOMINATORS = rarely(
    st.one_of(st.just(""), st.integers(0, 4).map("/p^{}".format)),
    st.sampled_from(["/p^1000000", "/p3", "/p ^ 2", "/p^-1", "/p^", "/q^2", "/2", "/p^1/p^2"]),
    16)


@st.composite
def vectors(draw):
    coords = draw(rarely(st.lists(coordinate(), min_size=2, max_size=2),
                         st.lists(coordinate(), max_size=3), 16))
    return ",".join(coords) + draw(DENOMINATORS)


CYCLE_FLAGS = [
    ("--p", PRIMES),
    ("--delta", DELTAS),
    ("--sign", rarely(st.sampled_from(["plus", "minus"]), st.just("both"))),
    ("--b", rarely(vectors(), st.text("0123456789+-*d,/p^ ", max_size=12), 16)),
]
# Orthogonal supports, the radius-(alpha - 1) balls: small, or above the
# cycle cap from the smallest alpha it refuses at p = 3 up.
ALPHAS = ints(0, 4, -2, next(a for a in range(1, 64) if ball_size(3, a - 1) > CYCLE_VERTEX_CAP),
              65, 10**9)


@st.composite
def cycle_argv(draw):
    # --alpha goes with --ortho, except once in eight.
    ortho = draw(st.booleans())
    argv = ["cycle", *flags(draw, CYCLE_FLAGS, ("--p", "--delta", "--b")), *["--ortho"] * ortho]
    if draw(rarely(st.just(ortho), st.just(not ortho))):
        argv += ["--alpha", draw(ALPHAS)]
    return argv


@FUZZ
@given(cycle_argv())
def test_cycle_exits_with_a_documented_code(argv):
    run(argv)


# -- lift --------------------------------------------------------------------------

# Each part of an entry is odd once in 20 draws, so that many files are
# whole and reach the lift.
SYMBOLS = st.sampled_from(["K", "Zo(3)", "Zo(10)", "Zplus(2,3)", "Zo(+3)", "Zo(٣)",
                           "Zo(1_0)", "Zplus( 2 , 3 )", "Zo(0)", "Zo(-1)", "Q(1)", "", 5, None])
WEIGHTS = rarely(st.sampled_from(["1/2", "-1/1", "0/1"]),
                 st.sampled_from(["1/0", "x", "2.5", 0.5, 1, True, None]), 20)
PLAIN_TEXTS = st.tuples(st.integers(-9, 9), st.integers(1, 9)).map("{0[0]}/{0[1]}".format)
ODD_TEXTS = ["1/0", "0/0", "x", "", "/", "3/-4", "1e5", "1.5", " 2 ", "1_0",
             "٣", "0x10", "1e-3", "-7", "1e10000000", "1e-10000000"]
TEXTS = rarely(PLAIN_TEXTS, st.sampled_from(ODD_TEXTS), 20)
COEFFS = rarely(
    rarely(TEXTS, st.lists(st.fixed_dictionaries({"sym": SYMBOLS, "w": WEIGHTS}), max_size=3)),
    st.sampled_from([3, 1.5, None, True, {}, {"sym": "K", "w": "1/1"}]), 20)
EXPONENTS = rarely(st.integers(0, 60),
                   st.sampled_from([-1, 10**30, -(10**30), 2.0, 1.5, "8", True, None]), 20)
ENTRIES = rarely(
    st.fixed_dictionaries({"n": EXPONENTS, "c": COEFFS}),
    st.sampled_from([{"n": 2}, {"c": "1/1"}, [], "n", 4, None]), 20)
SERIES = rarely(
    st.fixed_dictionaries({
        "max_exponent": rarely(st.integers(0, 200),
                               st.sampled_from([-3, 2 * LIFT_M_CAP**2, 10**30, 8.0, "40",
                                                None, False])),
        "coeffs": rarely(st.lists(ENTRIES, max_size=4), st.sampled_from([{}, "coeffs", 3, None])),
    }).map(json.dumps),
    st.sampled_from(["", "{", "[1, 2]", "null", "1e400", '"text"', '{"coeffs": []}',
                     '{"max_exponent": 10}', '{"max_exponent": 1e400, "coeffs": []}']),
)
# kappa: small, else odd up to 10^6 + 1, where the lift's digit cap
# refuses all but the smallest lifts before their sums.
KAPPAS = rarely(ints(3, 9, -1, 0, 1, 2, 101), st.integers(1, 500_000).map(lambda k: str(2 * k + 1)), 4)
LIFT_FLAGS = [
    ("--kappa", KAPPAS),
    ("--level", ints(1, 40, -2, 0, 10**12, 2**61 - 1)),
    ("--t", ints(1, 12, -2, 0, 999_999_999_989, 20_000_000_006, _MAX_FACTOR_INPUT + 1)),
    ("--chi-kronecker", ints(-12, 12, 10**30)),
    ("--mmax", ints(0, 20, -2, LIFT_M_CAP // 100, LIFT_M_CAP + 1, 10**30)),
]


@st.composite
def lift_argv(draw):
    # "SERIES" stands for the file the drawn series is written to, and
    # "MISSING" for one that does not exist.
    argv = ["lift", *flags(draw, LIFT_FLAGS, ("--level", "--t"))]
    return argv + ["--in", draw(rarely(st.just("SERIES"), st.just("MISSING")))]


def whole_but(text, n, bound):
    """A series file through q^bound, whole but for its one coefficient
    text at q^n (with a constant term when n > 0)."""
    coeffs = [{"n": n, "c": text}, *[{"n": 0, "c": "1/2"}] * (n > 0)]
    return json.dumps({"max_exponent": bound, "coeffs": coeffs})


@st.composite
def skeleton(draw, t):
    """A file whose one text, odd half the time, sits at an exponent t k^2
    that a lift with parameter t reads."""
    n = t * draw(st.integers(0, 4)) ** 2
    text = draw(rarely(st.sampled_from(ODD_TEXTS), PLAIN_TEXTS, 2))
    return whole_but(text, n, draw(st.integers(n, n + 2 * t)))


@st.composite
def lift_case(draw):
    """A lift's argv and the text of its series file: once in four a file
    from SERIES, else a skeleton for the --t that argv gives (1 when it
    gives none that is positive), so that most examples reach the
    coefficient reader."""
    argv = draw(lift_argv())
    try:
        t = max(int(argv[argv.index("--t") + 1]), 1)
    except ValueError:
        t = 1
    return draw(rarely(skeleton(t), SERIES, 4)), argv


@pytest.fixture(scope="module")
def series_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "series.json"


# Besides the drawn examples, one lift that passes, one that asks for
# more coefficients than the file holds (exit 4), one that the digit cap
# refuses (kappa 10^6 + 1, exit 2), and each odd text at q^8 of a lift
# with t = 2, which reads it: which odd texts the draws reach depends on
# the Hypothesis version.
WHOLE = '{"max_exponent": 8, "coeffs": [{"n": 0, "c": "1/2"}, {"n": 2, "c": "1/1"}]}'
T2 = ["lift", "--level", "35", "--t", "2", "--in", "SERIES"]


def every_odd_text(test):
    for text in ODD_TEXTS:
        test = example(case=(whole_but(text, 8, 8), T2))(test)
    return test


@FUZZ
@given(case=lift_case())
@example(case=(WHOLE, T2))
@example(case=(WHOLE, T2[:-2] + ["--mmax", "3", "--in", "SERIES"]))
@example(case=(WHOLE, T2[:-2] + ["--kappa", str(10**6 + 1), "--in", "SERIES"]))
@every_odd_text
def test_lift_exits_with_a_documented_code(series_path, case):
    text, argv = case
    series_path.write_text(text, encoding="utf-8")
    files = {"SERIES": str(series_path), "MISSING": str(series_path.parent / "missing.json")}
    run([files.get(arg, arg) for arg in argv])


def test_the_lift_fuzz_reaches_the_coefficient_reader(series_path, monkeypatch):
    # The derandomized lift examples again, with the coefficient reader
    # keeping the texts it is handed: every odd text reaches it, and so do
    # most examples.
    seen, reached = [], []
    read, real_run = qseries.parse_rational, run
    monkeypatch.setattr(qseries, "parse_rational", lambda text: seen.append(text) or read(text))

    def counted(argv):
        before = len(seen)
        real_run(argv)
        reached.append(len(seen) > before)

    monkeypatch.setattr(sys.modules[__name__], "run", counted)
    test_lift_exits_with_a_documented_code(series_path=series_path)
    assert set(ODD_TEXTS) <= set(seen), set(ODD_TEXTS) - set(seen)
    assert sum(reached) > len(reached) / 2, (sum(reached), len(reached))
