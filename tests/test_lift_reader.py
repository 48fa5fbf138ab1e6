"""`cyclelift lift` against the reference series reader in oracles.py.

`lift` builds only the coefficients the Shimura lift reads, but it must
still check every entry of its input and fail exactly as a whole-file
reader does.  Each case runs `lift` twice, once with the reader in
cyclelift.qseries and once with oracles.series_from_json_dict patched in,
and compares exit code, stdout and stderr.

Needs neither pytest nor hypothesis, so that the table also runs on other
interpreters (the accepted coefficient syntax and Fraction's messages
differ between Python versions):

    PYTHONPATH=src python tests/test_lift_reader.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import oracles
from cyclelift import cli, qseries

SYM = [{"sym": "Zo(3)", "w": "1/2"}, {"sym": "K", "w": "-1/1"}]


def series(*entries, bound=50):
    return {"max_exponent": bound, "coeffs": [{"n": n, "c": c} for n, c in entries]}


# (name, input file data or raw text, lift flags, expected exit code).
# At the default --t 2, exponents 0, 2, 8, 18, 32 and 50 are read by the
# lift and every other exponent is dropped.
CASES = [
    ("valid", series((0, "3/2"), (2, "1/1"), (5, "7/3"), (8, "-2/5")), [], 0),
    ("valid t=3", series((3, "1/1"), (12, "5/7"), (4, "1/9")), ["--t", "3"], 0),
    ("kronecker chi", series((2, "1/1"), (8, "2/3")), ["--chi-kronecker", "-8"], 0),
    ("kappa 5", series((0, "1/1"), (2, "1/1"), (18, "4/1")), ["--kappa", "5"], 0),
    ("mmax", series((2, "1/1"), (8, "1/3"), (18, "1/2")), ["--mmax", "2"], 0),
    ("1/0 kept", series((2, "1/0")), [], 2),
    ("1/0 dropped", series((2, "1/1"), (3, "1/0")), [], 2),
    ("0/0 dropped", series((3, "0/0")), [], 2),
    ("x kept", series((8, "x")), [], 2),
    ("x dropped", series((7, "x")), [], 2),
    ("empty text dropped", series((7, "")), [], 2),
    ("slash only dropped", series((7, "/")), [], 2),
    ("negative denominator dropped", series((7, "3/-4")), [], 2),
    ("first malformed entry wins", series((9, "y"), (8, "1/0"), (-1, "z")), [], 2),
    ("bad dropped text before missing c",
     {"max_exponent": 50, "coeffs": [{"n": 3, "c": "x"}, {"n": 5}]}, [], 2),
    ("missing c before bad dropped text",
     {"max_exponent": 50, "coeffs": [{"n": 5}, {"n": 3, "c": "x"}]}, [], 2),
    ("bad dropped text before bad kept text", series((3, "x"), (8, "y")), [], 2),
    ("bad dropped text before float exponent", series((3, "x"), (2.5, "1/1")), [], 2),
    ("symbolic kept", series((0, SYM), (2, SYM), (3, SYM)), [], 0),
    ("bad symbol dropped", series((3, [{"sym": "Q(1)", "w": "1/1"}])), [], 2),
    ("non-string symbol", series((2, [{"sym": 5, "w": "1/1"}])), [], 2),
    ("Zo index not positive", series((2, [{"sym": "Zo(-3)", "w": "1/1"}])), [], 2),
    ("Zplus index not positive", series((2, [{"sym": "Zplus(0,1)", "w": "1/1"}])), [], 2),
    ("bad symbol weight kept", series((2, [{"sym": "K", "w": "1/0"}])), [], 2),
    ("symbolic not a list", series((3, 5)), [], 2),
    ("missing c", {"max_exponent": 50, "coeffs": [{"n": 2, "c": "1/1"}, {"n": 3}]}, [], 2),
    ("missing n", {"max_exponent": 50, "coeffs": [{"c": "1/1"}]}, [], 2),
    ("missing max_exponent", {"coeffs": []}, [], 2),
    ("missing coeffs", {"max_exponent": 5}, [], 2),
    ("entry not an object", {"max_exponent": 5, "coeffs": [[2, "1/1"]]}, [], 2),
    ("top level a list", [], [], 2),
    ("not json", "{not json", [], 2),
    ("negative exponent", series((2, "1/1"), (-3, "1/1")), [], 2),
    ("negative exponent, zero value", series((-2, "0/1")), [], 2),
    ("above the bound", series((51, "1/1")), [], 2),
    ("above the bound, dropped class", series((53, "0/7")), [], 2),
    ("first out-of-range exponent wins", series((60, "1/1"), (-4, "1/1"), (60, "1/2")), [], 2),
    ("malformed entry before range", series((60, "1/1"), (7, "1/0")), [], 2),
    ("negative max_exponent", series((2, "1/0"), bound=-1), [], 2),
    ("negative max_exponent, valid entries", series((2, "1/1"), (-1, "1/1"), bound=-1), [], 2),
    ("duplicates kept, last wins", series((8, "1/2"), (2, "1/1"), (8, "3/1")), [], 0),
    ("duplicates dropped", series((3, "1/2"), (3, "1/0")), [], 2),
    ("duplicate zeroes last", series((8, "1/2"), (8, "0/5")), [], 0),
    ("exponent float", series((2.7, "1/1")), [], 2),
    ("exponent integral float", series((2.0, "1/1")), [], 2),
    ("exponent true", series((True, "1/1")), [], 2),
    ("exponent string", series(("8", "1/1")), [], 2),
    ("exponent null", series((None, "1/1")), [], 2),
    ("max_exponent float", series((2, "1/1"), bound=20.9), [], 2),
    ("max_exponent true", series((0, "1/1"), bound=True), [], 2),
    ("max_exponent string", series((2, "1/1"), bound="50"), [], 2),
    ("t 0, valid file", series((2, "1/1")), ["--t", "0"], 2),
    ("t 0, malformed file", series((3, "1/0")), ["--t", "0"], 2),
    ("t -2, malformed file", series((3, "x")), ["--t", "-2"], 2),
    ("t 4, malformed file", series((3, "x")), ["--t", "4"], 2),
    ("kappa 4, malformed file", series((3, "x")), ["--kappa", "4"], 2),
    ("level 0, malformed file", series((3, "x")), ["--level", "0"], 2),
    ("digit limit dropped", series((3, "1" * 5000 + "/3")), [], 2),
    ("long digits kept", series((2, "7" * 700 + "/" + "3" * 650)), [], 0),
    ("long denominator dropped", series((3, "1/" + "0" * 700 + "1")), [], 0),
    ("zero denominator with leading zeros", series((3, "5/000")), [], 2),
]
# Texts that Fraction reads differently across Python versions, or that
# miss the plain "num/den" form, each at a read and at a dropped exponent.
for text in ("1.5", "1e2", " 3/4 ", "+3/4", "007/021", "-0/5", "1_000/3",
             "١/2", "3", "-7", "1/٣", " 1 / 2 ", "3/4\n", "1/2\n3/4", "１/2"):
    CASES.append((f"{text!r} kept", series((2, "1/1"), (8, text)), [], None))
    CASES.append((f"{text!r} dropped", series((2, "1/1"), (7, text)), [], None))


def reference_reader(data, symbolic_parser=None, square_class=None):
    return oracles.series_from_json_dict(data, symbolic_parser)


def run_lift(data, flags, reader=None):
    """Exit code, stdout and stderr of `lift` on `data` (a JSON value,
    or text written as is), with `reader` standing in for the library's
    series reader when given."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(data if isinstance(data, str) else json.dumps(data))
        argv = ["lift", "--level", "35", "--t", "2", *flags, "--in", path]
        out, err = io.StringIO(), io.StringIO()
        saved = qseries.series_from_json_dict
        if reader is not None:
            qseries.series_from_json_dict = reader
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        finally:
            qseries.series_from_json_dict = saved
    return code, out.getvalue(), err.getvalue()


def test_lift_matches_reference_reader():
    for name, data, flags, code in CASES:
        got = run_lift(data, flags)
        assert got == run_lift(data, flags, reference_reader), name
        assert code is None or got[0] == code, (name, got)


def test_negative_mmax_rejected_before_reading():
    missing = os.path.join(tempfile.gettempdir(), "cyclelift-no-such-file.json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["lift", "--level", "35", "--t", "2", "--mmax", "-1",
                         "--in", missing])
    assert (code, out.getvalue(), err.getvalue()) == (
        2, "", "invalid input: --mmax must be at least 0, got -1\n"
    )


# SHA-256 of `lift --kappa 3 --level 35 --t 2` on pinned_series(); the
# whole-file reader in oracles.py gives the same output.
PINNED_SHA256 = "4333dc0c38c3909bf6e70c0cce5d31866659ebc0675510ed7f7734ad0e387064"


def pinned_series() -> dict:
    """Exponents 0 to 20,000, six in seven of them present."""
    return series(
        *((n, f"{n * 7919 % 1999 - 999}/{n % 97 + 1}") for n in range(20001) if n % 7 != 3),
        bound=20000,
    )


def test_pinned_large_lift():
    code, out, err = run_lift(pinned_series(), ["--kappa", "3"])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
    print(f"{len(CASES)} reader cases on Python {sys.version.split()[0]}")
