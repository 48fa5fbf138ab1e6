import csv
import hashlib
import io
import json
import time

import pytest

import oracles
from cyclelift import identity, sweeps
from cyclelift.bttree import ball_size
from cyclelift.cli import (
    CYCLE_VERTEX_CAP,
    EXIT_HYPOTHESIS,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_TRUNCATION,
    LIFT_M_CAP,
    VERIFY_VERTEX_CAP,
    main,
    parse_coordinate,
    parse_vector,
)
from cyclelift.identity import Mismatch
from cyclelift.numth import _MAX_FACTOR_INPUT, kronecker
from cyclelift.quadfield import MAX_ABS_DELTA, make_field, rho, rho_divisor_sum
from cyclelift.sweeps import HILBERT_CHECK_CAP, IDENTITY_CHECK_CAP, RHO_CHECK_CAP, RHO_DELTAS


# An orthogonal cycle whose centre lies at tree distance 20 from Lambda0.
DEEP_CENTRE = (
    "--p", "3", "--delta", "-10", "--ortho", "--alpha", "2", "--b", "1+0d,0+3486784401d",
)

# An orthogonal cycle whose centre's canonical form needs more than the
# 40 digits of the old fixed default precision.
DEEP_PIVOTS = (
    "--p", "3", "--delta", "-10", "--ortho", "--alpha", "1",
    "--b", "14348907+14348907d,1+14348908d",
)

# The README `verify` commands and the SHA-256 of their stdout.
README_VERIFY = [
    ("rho --delta -2 --max 5000",
     "611efb499678bda70768a03eb2799f5658c9cf1d9007d801b942ef1c6dd071f6"),
    ("hilbert --count 200 --seed 7",
     "314dab5afdff641a3e4cdb0fb9c2f096751f09681e08baf1f6573faf97b924b4"),
    ("r-formula --p 5 --delta -2 --count 12 --radius 6",
     "b262b5797c9b23c375ab694f3be3e465f8419f707649e3c94c06f913bdda95da"),
    ("local-compare --p 3 --delta -10 --alpha-max 4",
     "b050a5120dc209e0614fa8dc6592d6c39d69d88f81b2178f1d5e2070edab2124"),
    ("chart --p 3 --delta -10 --count 10 --radius 6",
     "dfd2ad81f2ae38de2813e7f33ef440aa8f23de648dbd8991ac100485f4adb753"),
    ("main-identity --delta -2 --db 35 --mmax 300",
     "90312e0257067393095b8f70a6e207caaa6cfc6fef02fb8554d667aa07565b7e"),
    ("remark-identity --delta -10 --db 51 --mmax 200",
     "ace7b0479aec21cb2a8e526a0b4fdfd561906cf187ca7f497642c4776382886c"),
]

# `verify rho` over its six default fields, pinned at the bytes it gave
# when each N called the per-N rho and rho_divisor_sum.
RHO_DEFAULT_FIELDS = ("rho --max 5000",
                      "2e536e857a70b48641400c064810d25cd9f0c1e30553e04f37e3146e865e5cf2")

# The README `cycle` commands and the SHA-256 of their output.
README_CYCLE = [
    (("--p", "5", "--delta", "-2", "--sign", "minus", "--b", "0+5d,5+0d"),
     "5990fe685edd7c6e9d0fe5bfb5a41709e77aed7acaf7e47d62c8a770800705a6"),
    (("--p", "5", "--delta", "-2", "--ortho", "--alpha", "2", "--b", "0+1d,1+0d"),
     "2858bcb4b51f3125c8c12de2e0924925ae3476af87ae0a0aaeab420bc8c47f6a"),
]

# Larger tree sweeps, pinned at the bytes they gave when every ball vertex
# was built and tested with its own r_invariant.
TREE_VERIFY = [
    ("local-compare --p 11 --delta -1 --alpha-max 3",
     "71b618a273694705294f88cc433dc7199beffe40ca318a1368a806f6f19beb25"),
    ("local-compare --p 7 --delta -2 --alpha-max 3 --seed 5",
     "b275bdb08aab70e5823f9f4722942d0988d3266663c5f1df533f947c080953c2"),
    ("chart --p 5 --delta -2 --count 6 --radius 6 --seed 3",
     "b7f14c3f6ca90a4a16bbed1a92fc9bd995d43cc95ad9406c0159bad17d526972"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsing:
    def test_coordinates(self):
        assert parse_coordinate("0+1d") == (0, 1)
        assert parse_coordinate("3-2d") == (3, -2)
        assert parse_coordinate("-7") == (-7, 0)
        assert parse_coordinate("1+2*d") == (1, 2)
        assert parse_coordinate("5d") == (0, 5)
        with pytest.raises(ValueError):
            parse_coordinate("d+1")

    def test_vector_with_denominator(self):
        assert parse_vector("0+1d,1+0d/p^2") == ((0, 1), (1, 0), 2)
        assert parse_vector("3-2d,7") == ((3, -2), (7, 0), 0)
        with pytest.raises(ValueError):
            parse_vector("1,2,3")
        with pytest.raises(ValueError):
            parse_vector("1,2/q^2")


class TestVerifyCommand:
    def test_rho_sweep_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "rho", "--delta", "-2", "--max", "300")
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["mismatches"] == []
        assert data["checked"] == 300

    def test_main_identity_ok(self, capsys):
        code, out, _ = run(
            capsys, "verify", "main-identity", "--delta", "-2", "--db", "35",
            "--mmax", "80",
        )
        assert code == EXIT_OK
        assert json.loads(out)["mismatches"] == []

    def test_main_identity_split_prime_exits_2(self, capsys):
        code, _, err = run(
            capsys, "verify", "main-identity", "--delta", "-2", "--db", "33"
        )
        assert code == EXIT_HYPOTHESIS
        assert "hypothesis" in err

    def test_hilbert_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "hilbert", "--count", "40")
        assert code == EXIT_OK

    def test_remark_identity(self, capsys):
        code, out, _ = run(
            capsys, "verify", "remark-identity", "--delta", "-2", "--db", "35",
            "--mmax", "60",
        )
        assert code == EXIT_OK

    def test_csv_format(self, capsys):
        code, out, _ = run(
            capsys, "verify", "rho", "--delta", "-2", "--max", "50",
            "--format", "csv",
        )
        assert code == EXIT_OK
        assert out.splitlines()[0] == "m,lhs,rhs"

    def test_csv_rows_keep_three_fields(self, capsys, monkeypatch):
        # chi_k(3) flipped on the unitary side: each mismatch side is a
        # divisor, whose JSON entries hold commas and quotes of their own.
        real_chi_k = identity.chi_k
        monkeypatch.setattr(identity, "chi_k",
                            lambda field, a: -real_chi_k(field, a) if a == 3 else real_chi_k(field, a))
        argv = ("verify", "main-identity", "--delta", "-2", "--db", "35", "--mmax", "30")
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == EXIT_MISMATCH
        want = json.loads(run(capsys, *argv)[1])["mismatches"]
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["m", "lhs", "rhs"]
        assert all(len(row) == 3 for row in rows)
        got = [{"m": int(m), "lhs": json.loads(lhs), "rhs": json.loads(rhs)}
               for m, lhs, rhs in rows]
        assert got == want and [entry["m"] for entry in got] == [6, 12, 18, 24, 30]

    def test_csv_rows_of_rationals_keep_their_bytes(self, capsys, monkeypatch):
        # One side of the rho identity one too high at every N = 3 mod 7.
        table = sweeps.rho_table
        monkeypatch.setattr(sweeps, "rho_table",
                            lambda field, n_max: [v + (n % 7 == 3)
                                                  for n, v in enumerate(table(field, n_max))])
        code, out, _ = run(capsys, "verify", "rho", "--delta", "-2", "--max", "10",
                           "--format", "csv")
        assert code == EXIT_MISMATCH
        assert out.splitlines()[:2] == ["m,lhs,rhs", '3,"3/1","2/1"']

    def test_missing_flag_exits_2(self, capsys):
        code, _, err = run(capsys, "verify", "main-identity", "--db", "35")
        assert code == EXIT_HYPOTHESIS
        assert "--delta" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("rho", "--max", "-3"), "--max"),
            (("hilbert", "--count", "-1"), "--count"),
            (("r-formula", "--p", "5", "--delta", "-2", "--count", "0"), "--count"),
            (("r-formula", "--p", "5", "--delta", "-2", "--radius", "-1"), "--radius"),
            (("local-compare", "--p", "3", "--delta", "-10", "--alpha-max", "-1"),
             "--alpha-max"),
            (("main-identity", "--delta", "-2", "--db", "35", "--mmax", "-5"), "--mmax"),
        ],
    )
    def test_vacuous_sweep_exits_2(self, capsys, argv, flag):
        code, out, err = run(capsys, "verify", *argv)
        assert code == EXIT_HYPOTHESIS
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("--p", "3", "--delta", "-10", "--alpha-max", "4", "--seed", "22"),
            ("--p", "5", "--delta", "-2", "--alpha-max", "3", "--seed", "21"),
        ],
    )
    def test_local_compare_precision_covers_skewed_draws(self, capsys, argv):
        # These seeds draw vectors whose second coordinate carries the
        # largest p-power skew.
        code, out, err = run(capsys, "verify", "local-compare", *argv)
        assert code == EXIT_OK, err
        assert json.loads(out)["mismatches"] == []

    def test_empty_report_never_passes(self, capsys):
        from argparse import Namespace

        from cyclelift.cli import _report_exit
        from cyclelift.identity import VerificationReport

        empty = VerificationReport(params={}, checked=0, mismatches=[])
        with pytest.raises(ValueError):
            _report_exit(empty, Namespace(out=None, format="json"))
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize(
        "argv, digest", README_VERIFY, ids=[argv.split()[0] for argv, _ in README_VERIFY]
    )
    def test_pinned_stdout(self, capsys, argv, digest):
        code, out, _ = run(capsys, "verify", *argv.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_pinned_rho_default_fields(self, capsys):
        argv, digest = RHO_DEFAULT_FIELDS
        code, out, _ = run(capsys, "verify", *argv.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_rho_mismatches_come_by_field_then_n(self, capsys, monkeypatch):
        # One side of two fields made wrong at every N = 3 mod 7: the report
        # lists the mismatches field by field in --delta order, then N
        # ascending, with the m, lhs and rhs of the per-N functions.
        def corrupt(table, delta):
            def faulty(field, n_max):
                values = table(field, n_max)
                return [v + (field.delta == delta and n % 7 == 3)
                        for n, v in enumerate(values)]
            return faulty

        monkeypatch.setattr(sweeps, "rho_table", corrupt(sweeps.rho_table, -22))
        monkeypatch.setattr(sweeps, "rho_divisor_sum_table",
                            corrupt(sweeps.rho_divisor_sum_table, -6))
        code, out, _ = run(capsys, "verify", "rho", "--delta", "-22", "--delta", "-2",
                           "--delta", "-6", "--max", "60")
        expected = []
        for delta in (-22, -2, -6):
            f = make_field(delta)
            for n in range(1, 61):
                lhs = rho(f, n) + (delta == -22 and n % 7 == 3)
                rhs = rho_divisor_sum(f, n) + (delta == -6 and n % 7 == 3)
                if lhs != rhs:
                    expected.append(Mismatch(m=n, lhs=lhs, rhs=rhs).to_json_dict())
        data = json.loads(out)
        assert code == EXIT_MISMATCH
        assert data["checked"] == 180
        assert len(expected) == 18 and data["mismatches"] == expected

    @pytest.mark.parametrize("argv, digest", TREE_VERIFY,
                             ids=["local-compare-11", "local-compare-7", "chart-5"])
    def test_pinned_tree_sweep_stdout(self, capsys, argv, digest):
        code, out, _ = run(capsys, "verify", *argv.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_tree_sweeps_smoke(self, capsys):
        code, out, _ = run(
            capsys, "verify", "r-formula", "--p", "3", "--delta", "-10",
            "--count", "2", "--radius", "3",
        )
        assert code == EXIT_OK and json.loads(out)["mismatches"] == []
        code, out, _ = run(
            capsys, "verify", "local-compare", "--p", "3", "--delta", "-10",
            "--alpha-max", "1",
        )
        assert code == EXIT_OK and json.loads(out)["mismatches"] == []
        code, out, _ = run(
            capsys, "verify", "chart", "--p", "3", "--delta", "-10",
            "--count", "2", "--radius", "3",
        )
        assert code == EXIT_OK and json.loads(out)["mismatches"] == []

    # Each tree sweep runs under VERIFY_VERTEX_CAP and is refused at once
    # above it, naming the count.  local-compare visits twice the
    # radius-(alpha + 2) ball for each alpha: 425,144 vertices at p = 11,
    # alpha <= 3, and 4,676,890 at alpha <= 4.  r-formula and chart visit
    # --count balls of radius --radius: one radius-7 ball at p = 13 holds
    # 73,206,603 vertices; a radius above 64 is counted as 64.
    @pytest.mark.parametrize("argv, runs, refused", [
        (("local-compare", "--p", "11", "--delta", "-1"), ("--alpha-max", "3"), [
            (("--alpha-max", "4"), "4676890"),
            (("--alpha-max", str(10**18)), "more than 4676890"),
        ]),
        *[((kind, "--p", "13", "--delta", "-2"), runs, [
            (("--count", "1", "--radius", "7"), "73206603"),
            (("--count", str(10**18), "--radius", "1"), str(15 * 10**18)),
            (("--count", "1", "--radius", str(10**18)),
             f"more than {1 + 14 * (13**64 - 1) // 12}"),
        ]) for kind, runs in (("r-formula", ("--count", "2", "--radius", "5")),
                              ("chart", ("--count", "1", "--radius", "4")))],
    ], ids=["local-compare", "r-formula", "chart"])
    def test_local_compare_is_bounded_before_it_starts(self, capsys, argv, runs, refused):
        code, out, err = run(capsys, "verify", *argv, *runs)
        assert code == EXIT_OK, err
        assert json.loads(out)["mismatches"] == []
        for flags, count in refused:
            start = time.perf_counter()
            code, out, err = run(capsys, "verify", *argv, *flags)
            assert time.perf_counter() - start < 1.0
            assert (code, out) == (EXIT_HYPOTHESIS, "")
            assert f"verify {argv[0]} would visit {count} ball vertices" in err
            assert str(VERIFY_VERTEX_CAP) in err
            assert len(err.strip().splitlines()) == 1

    # The kinds that walk no tree are refused above their caps, counted in
    # the checks their reports would count: values of N over every field,
    # sample pairs, and the coefficients of q^0 ... q^mmax.
    @pytest.mark.parametrize("argv, count, cap", [
        (("rho", "--delta", "-2", "--max", str(10**8)), f"{10**8} values of N",
         RHO_CHECK_CAP),
        (("rho", "--max", str(RHO_CHECK_CAP // 6 + 1)),
         f"{6 * (RHO_CHECK_CAP // 6 + 1)} values of N", RHO_CHECK_CAP),
        (("hilbert", "--count", str(10**8)), f"{10**8} sample pairs", HILBERT_CHECK_CAP),
        (("hilbert", "--count", str(HILBERT_CHECK_CAP + 1)),
         f"{HILBERT_CHECK_CAP + 1} sample pairs", HILBERT_CHECK_CAP),
        (("main-identity", "--delta", "-2", "--db", "35", "--mmax", str(10**8)),
         f"{10**8 + 1} series coefficients", IDENTITY_CHECK_CAP),
        (("remark-identity", "--delta", "-2", "--db", "35", "--mmax", str(10**8)),
         f"{10**8 + 1} series coefficients", IDENTITY_CHECK_CAP),
        (("remark-identity", "--delta", "-10", "--db", "51",
          "--mmax", str(IDENTITY_CHECK_CAP)),
         f"{IDENTITY_CHECK_CAP + 1} series coefficients", IDENTITY_CHECK_CAP),
    ], ids=["rho", "rho-fields", "hilbert", "hilbert-cap", "main-identity",
            "remark-identity", "remark-identity-cap"])
    def test_checks_are_bounded_before_they_start(self, capsys, argv, count, cap):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_HYPOTHESIS, "")
        assert f"verify {argv[0]} would check {count}, above the cap of {cap}" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("p", ["1", "4"])
    @pytest.mark.parametrize("sweep", [
        ("r-formula", "--radius", str(10**18)),
        ("chart", "--radius", str(10**18)),
        ("local-compare", "--alpha-max", str(10**18)),
    ], ids=lambda sweep: sweep[0])
    def test_bad_prime_is_refused_before_the_bound(self, capsys, p, sweep):
        # The ball formula divides by p - 1: a p that is not an odd prime
        # must be refused as such before any vertex is counted.
        code, out, err = run(capsys, "verify", sweep[0], "--p", p, "--delta", "-2",
                             *sweep[1:])
        assert (code, out) == (EXIT_HYPOTHESIS, "")
        assert f"p must be an odd prime, got {p}" in err
        assert "vertices" not in err and len(err.strip().splitlines()) == 1

    def test_calls_share_no_parsed_state(self, capsys):
        # One parser serves every call in a process: a --delta given to one
        # call must not reach the next, which sweeps the default fields.
        assert run(capsys, "verify", "rho", "--delta", "-2", "--max", "5")[0] == EXIT_OK
        code, out, _ = run(capsys, "verify", "rho", "--max", "5")
        assert code == EXIT_OK
        assert json.loads(out)["params"]["deltas"] == list(RHO_DELTAS)

    # Inert pairs (p, Delta) beyond the p in {3, 5} of the other tests.
    @pytest.mark.parametrize("p, delta", [(7, -2), (11, -14), (13, -2)])
    @pytest.mark.parametrize(
        "sweep",
        [
            ("r-formula", "--count", "2", "--radius", "3"),
            ("chart", "--count", "2", "--radius", "3"),
            ("local-compare", "--alpha-max", "2"),
        ],
        ids=lambda sweep: sweep[0],
    )
    def test_tree_sweeps_at_larger_primes(self, capsys, p, delta, sweep):
        code, out, err = run(
            capsys, "verify", sweep[0], "--p", str(p), "--delta", str(delta), *sweep[1:]
        )
        assert code == EXIT_OK, err
        data = json.loads(out)
        assert data["checked"] > 0 and data["mismatches"] == []

    # Primes beyond 13, each with the first of Delta = -1, -2, ..., -59 that
    # is a nonresidue mod p, at the default seed.  r-formula and chart take
    # two balls of the largest radius whose ball holds at most 20,000
    # vertices; local-compare the largest alpha-max under 40,000 visited
    # vertices (twice the radius-(alpha + 2) ball per alpha).  At p = 23 the
    # chart draws a deep vector, whose support chart reads off the descent.
    @pytest.mark.parametrize("p", [17, 19, 23, 29, 31, 37, 41, 43])
    @pytest.mark.parametrize("kind", ["r-formula", "chart", "local-compare"])
    def test_tree_sweeps_beyond_13(self, capsys, p, kind):
        delta = next(d for d in range(-1, -60, -1) if kronecker(d, p) == -1)
        if kind == "local-compare":
            alpha_max = max(a for a in range(8) if sum(
                2 * ball_size(p, alpha + 2) for alpha in range(a + 1)) < 40_000)
            flags = ("--alpha-max", str(alpha_max))
        else:
            radius = max(r for r in range(8) if ball_size(p, r) <= 20_000)
            flags = ("--count", "2", "--radius", str(radius))
        code, out, err = run(capsys, "verify", kind, "--p", str(p), "--delta", str(delta),
                             *flags)
        assert code == EXIT_OK, err
        data = json.loads(out)
        assert data["checked"] > 0 and data["mismatches"] == []


class TestCycleCommand:
    def test_unit_norm_minus(self, capsys):
        code, out, _ = run(
            capsys, "cycle", "--p", "5", "--delta", "-2", "--sign", "minus",
            "--b", "0+1d,1+0d",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["vertical"] == []
        assert data["horizontal"] == [{"count": 1, "vertex": ""}]

    def test_radius_one_ball(self, capsys):
        code, out, _ = run(
            capsys, "cycle", "--p", "5", "--delta", "-2", "--sign", "minus",
            "--b", "0+5d,5+0d",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data["vertical"]) == 7
        assert all(v["mult"] == 1 for v in data["vertical"])

    def test_orthogonal_profile(self, capsys):
        code, out, _ = run(
            capsys, "cycle", "--p", "5", "--delta", "-2", "--ortho",
            "--alpha", "2", "--b", "0+1d,1+0d",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["horizontal"] == [{"count": 2, "vertex": ""}]
        mults = sorted(v["mult"] for v in data["vertical"])
        assert mults == [1] * 6 + [2]

    @pytest.mark.parametrize(
        "argv, vertical, digest",
        [
            # The README commands.
            (("--p", "5", "--delta", "-2", "--sign", "minus", "--b", "0+5d,5+0d"), 7,
             "5990fe685edd7c6e9d0fe5bfb5a41709e77aed7acaf7e47d62c8a770800705a6"),
            (("--p", "5", "--delta", "-2", "--ortho", "--alpha", "2", "--b", "0+1d,1+0d"), 7,
             "2858bcb4b51f3125c8c12de2e0924925ae3476af87ae0a0aaeab420bc8c47f6a"),
            # Centre at depth 5 and labels out to depth 9 from Lambda0.
            (("--p", "3", "--delta", "-10", "--sign", "minus", "--b", "1+0d,0+243d"), 161,
             "6969bfa660d2ae439c5a3dd50ac43d7054d6e4a81bb8337e0aac47f333371b96"),
            # Centre at depth 20.
            (DEEP_CENTRE, 5,
             "81816ec47e355c55d41de0f87c4faf05cca2d2a40b233c3e3922cefdf3d7fddc"),
            # The bytes that a precision of 60 gave when it was an option.
            (DEEP_PIVOTS, 1,
             "c1225eb59e390aa6a3a3964236ce69e7309839ed859e4c8b9247d54a0b795b30"),
        ],
    )
    def test_pinned_stdout(self, capsys, argv, vertical, digest):
        code, out, _ = run(capsys, "cycle", *argv)
        assert code == EXIT_OK
        assert len(json.loads(out)["vertical"]) == vertical
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, digest", README_CYCLE)
    def test_out_writes_the_pinned_bytes(self, tmp_path, capsys, argv, digest):
        dst = tmp_path / "cycle.json"
        code, out, err = run(capsys, "cycle", *argv, "--out", str(dst))
        assert (code, out, err) == (EXIT_OK, "", "")
        assert hashlib.sha256(dst.read_bytes()).hexdigest() == digest

    def test_isotropic_exits_2(self, capsys):
        code, _, err = run(
            capsys, "cycle", "--p", "5", "--delta", "-2", "--sign", "minus",
            "--b", "1+0d,0+0d",
        )
        assert code == EXIT_HYPOTHESIS

    def test_determinism(self, capsys):
        args = (
            "cycle", "--p", "3", "--delta", "-10", "--sign", "minus",
            "--b", "0+3d,3+0d",
        )
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize("p, delta", [(3, -10), (5, -2), (7, -2)])
    def test_deep_pivots_need_no_precision_flag(self, capsys, p, delta):
        # The vectors (p^k + p^k d, 1 + (1 + p^m) d) have ord q = k + m
        # and pivots near p^k: every one decomposes, and its centre's
        # pivot data is the truncated oracle's key at precision 600.
        for k in range(0, 25, 4):
            for m in range(0, 25, 6):
                x0, y0, x1, y1 = p**k, p**k, 1, 1 + p**m
                code, out, err = run(
                    capsys, "cycle", "--p", str(p), "--delta", str(delta), "--ortho",
                    "--alpha", "1", "--b", f"{x0}+{y0}d,{x1}+{y1}d",
                )
                assert (code, err) == (EXIT_OK, "")
                ctx = oracles.TruncatedContext(p, delta, 600)
                centre = oracles.central_lattice(ctx.vector_from_ints((x0, y0), (x1, y1)))
                assert list(json.loads(out)["vertices"].values()) == [centre.describe()]

    @pytest.mark.parametrize("precision", ["0", "60"])
    def test_precision_flag_is_rejected(self, capsys, precision):
        # Every vector is exact: there is no working precision to set.
        with pytest.raises(SystemExit) as exc:
            main(["cycle", "--p", "5", "--delta", "-2", "--sign", "minus",
                  "--b", "0+5d,5+0d", "--precision", precision])
        assert exc.value.code == EXIT_HYPOTHESIS
        out, err = capsys.readouterr()
        assert out == "" and "--precision" in err

    @pytest.mark.parametrize("p", ["-1", "0", "1", "4"])
    def test_bad_prime_exits_2(self, capsys, p):
        # A p that is not an odd prime must reach the context's check.
        code, out, err = run(
            capsys, "cycle", "--p", p, "--delta", "-2", "--sign", "minus",
            "--b", "0+5d,5+0d",
        )
        assert (code, out) == (EXIT_HYPOTHESIS, "")
        assert f"p must be an odd prime, got {p}" in err

    def test_vector_with_a_leading_minus(self, capsys):
        # `--b X` and `--b=X` read the same vector, also when it starts
        # with a minus sign, which argparse would take for a flag.
        argv = ("cycle", "--p", "3", "--delta", "-10", "--sign", "minus")
        code, out, err = run(capsys, *argv, "--b", "-1+0d,0+3d")
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "7b88ae1143be461710436473019bc6e2fb9e874109e6623fd493f3a53450105b"
        )
        assert run(capsys, *argv, "--b=-1+0d,0+3d") == (code, out, err)

    def test_alpha_requires_ortho(self, capsys):
        code, out, err = run(
            capsys, "cycle", "--p", "5", "--delta", "-2", "--sign", "minus",
            "--alpha", "3", "--b", "0+5d,5+0d",
        )
        assert (code, out) == (EXIT_HYPOTHESIS, "")
        assert "--alpha requires --ortho" in err

    @pytest.mark.parametrize("argv, count", [
        # ord q = 20, a support of radius 19.
        (("--sign", "minus", "--b", "59049+59049d,1+59050d"), "2324522933"),
        # A radius-11 ball at p = 3: 354,293 vertices.
        (("--ortho", "--alpha", "12", "--b", "1+0d,0+1d"), "354293"),
        (("--ortho", "--alpha", str(10**18), "--b", "1+0d,0+1d"),
         f"more than {1 + 2 * (3**64 - 1)}"),
    ], ids=["ord-20", "radius-11", "alpha-1e18"])
    def test_support_above_the_cap_exits_2_at_once(self, capsys, argv, count):
        start = time.perf_counter()
        code, out, err = run(capsys, "cycle", "--p", "3", "--delta", "-10", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_HYPOTHESIS, "")
        assert f"holds {count} vertices" in err and str(CYCLE_VERTEX_CAP) in err


# One small job of each subcommand; lift reads a series file it is given.
OUT_JOBS = {
    "cycle": lambda series: ["cycle", *README_CYCLE[0][0]],
    "verify": lambda series: ["verify", "rho", "--delta", "-2", "--max", "50"],
    "lift": lambda series: ["lift", "--level", "35", "--t", "2", "--in", series],
}


@pytest.mark.parametrize("command", OUT_JOBS)
@pytest.mark.parametrize("where", ["missing-dir", "directory"])
def test_unwritable_out_exits_2(tmp_path, capsys, command, where):
    series = tmp_path / "in.json"
    series.write_text(json.dumps({"max_exponent": 40, "coeffs": [{"n": 2, "c": "1/1"}]}))
    dst = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    code, out, err = run(capsys, *OUT_JOBS[command](str(series)), "--out", str(dst))
    assert (code, out) == (EXIT_HYPOTHESIS, "")
    assert err.count("\n") == 1 and f"cannot write {dst}: " in err


# A Mersenne prime, 2**61 - 1, above the cap on trial division.
M61 = str(2**61 - 1)

# One command per subcommand and per integer flag that trial division or
# the class-number count would take minutes on; each value is refused
# before the work starts.  The lift's closed-form constant term builds
# the field of Delta = -t, so a nonzero a(0) needs it.
LARGE_INTEGER_JOBS = {
    "r-formula-p": (("verify", "r-formula", "--p", M61, "--delta", "-2", "--count", "1",
                     "--radius", "1"), M61, _MAX_FACTOR_INPUT),
    "cycle-p": (("cycle", "--p", M61, "--delta", "-2", "--sign", "minus",
                 "--b", "1+0d,0+1d"), M61, _MAX_FACTOR_INPUT),
    "rho-delta": (("verify", "rho", "--delta", "-4611686018427387906", "--max", "1"),
                  "4611686018427387906", MAX_ABS_DELTA),
    "main-identity-delta": (("verify", "main-identity", "--delta", "-4611686018427387906",
                             "--db", "35", "--mmax", "1"), "4611686018427387906", MAX_ABS_DELTA),
    "main-identity-db": (("verify", "main-identity", "--delta", "-2", "--db", M61,
                          "--mmax", "1"), M61, _MAX_FACTOR_INPUT),
    "lift-t": (("lift", "--level", "35", "--t", "20000000006"), "20000000006", MAX_ABS_DELTA),
}


@pytest.mark.parametrize("job", LARGE_INTEGER_JOBS)
def test_large_integers_are_refused_at_once(tmp_path, capsys, job):
    argv, value, bound = LARGE_INTEGER_JOBS[job]
    if argv[0] == "lift":
        series = tmp_path / "in.json"
        series.write_text(json.dumps({"max_exponent": 40,
                                      "coeffs": [{"n": 0, "c": "3/1"}, {"n": 2, "c": "1/1"}]}))
        argv += ("--in", str(series))
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (EXIT_HYPOTHESIS, "")
    assert err.count("\n") == 1 and value in err and f"cap of {bound}" in err


class TestLiftCommand:
    def test_lift_delta_series(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"max_exponent": 200, "coeffs": [{"n": 2, "c": "1/1"}]}))
        code, out, _ = run(
            capsys, "lift", "--level", "35", "--t", "2", "--in", str(src)
        )
        assert code == EXIT_OK
        data = json.loads(out)
        coeffs = {e["n"]: e["c"] for e in data["coeffs"]}
        assert coeffs[2] == "1/1"
        assert coeffs[6] == "1/1"
        assert 10 not in coeffs  # chi_t(5) = 0
        assert data["constant_term_policy"] == "absent"

    @pytest.mark.parametrize("flags, policy", [
        # The paper's parameters (kappa 3, principal chi, t = |Delta|,
        # N = D_B): the constant term is -a(0) times the closed-form L-value.
        ((), "closed_form"),
        (("--kappa", "5"), "unavailable_omitted"),
    ])
    def test_constant_term_policy(self, tmp_path, capsys, flags, policy):
        from cyclelift.quadfield import lvalue_closed_form, make_field

        src = tmp_path / "in.json"
        src.write_text(json.dumps({"max_exponent": 200,
                                   "coeffs": [{"n": 0, "c": "3/1"}, {"n": 2, "c": "1/1"}]}))
        code, out, _ = run(capsys, "lift", *flags, "--level", "35", "--t", "2",
                           "--in", str(src))
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["constant_term_policy"] == policy
        constant = {e["n"]: e["c"] for e in data["coeffs"]}.get(0)
        if policy == "closed_form":
            value = -3 * lvalue_closed_form(make_field(-2), 35)
            assert constant == f"{value.numerator}/{value.denominator}"
        else:
            assert constant is None

    def test_lift_empty_series(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"max_exponent": 50, "coeffs": []}))
        code, out, _ = run(capsys, "lift", "--level", "35", "--t", "2", "--in", str(src))
        assert code == EXIT_OK
        assert json.loads(out)["coeffs"] == []

    def test_truncation_exit_4(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"max_exponent": 10, "coeffs": [{"n": 2, "c": "1/1"}]}))
        code, _, err = run(
            capsys, "lift", "--level", "35", "--t", "2", "--mmax", "50",
            "--in", str(src),
        )
        assert code == EXIT_TRUNCATION

    def test_work_bounded_before_the_lift(self, tmp_path, capsys):
        # Input through q^(10^12) at t = 2 would lift isqrt(10^12 // 2) =
        # 707106 coefficients: refused before the lift, naming the count
        # and --mmax, as is an --mmax above the cap; a smaller --mmax lifts.
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"max_exponent": 10**12, "coeffs": [{"n": 2, "c": "1/1"}]}))
        lift = ("lift", "--level", "35", "--t", "2", "--in", str(src))
        code, out, err = run(capsys, *lift)
        assert (code, out) == (EXIT_HYPOTHESIS, "")
        assert "707106" in err and "--mmax" in err
        code, out, err = run(capsys, *lift, "--mmax", str(LIFT_M_CAP + 1))
        assert (code, out) == (EXIT_HYPOTHESIS, "")
        assert str(LIFT_M_CAP + 1) in err and "--mmax" in err
        code, out, _ = run(capsys, *lift, "--mmax", "300")
        assert code == EXIT_OK
        assert json.loads(out)["max_exponent"] == 600

    def test_malformed_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text("{not json")
        code, _, _ = run(capsys, "lift", "--level", "35", "--t", "2", "--in", str(src))
        assert code == EXIT_HYPOTHESIS
        src.write_text(json.dumps({"coeffs": []}))
        code, _, _ = run(capsys, "lift", "--level", "35", "--t", "2", "--in", str(src))
        assert code == EXIT_HYPOTHESIS

    def test_zero_denominator_exit_2(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        src.write_text(json.dumps({"max_exponent": 10, "coeffs": [{"n": 2, "c": "1/0"}]}))
        code, _, err = run(capsys, "lift", "--level", "35", "--t", "2", "--in", str(src))
        assert code == EXIT_HYPOTHESIS
        assert len(err.strip().splitlines()) == 1

    def test_unreadable_input_exit_2(self, tmp_path, capsys):
        for path in (tmp_path / "missing.json", tmp_path):
            code, _, err = run(
                capsys, "lift", "--level", "35", "--t", "2", "--in", str(path)
            )
            assert code == EXIT_HYPOTHESIS
            assert len(err.strip().splitlines()) == 1 and str(path) in err

    def test_roundtrip_through_files(self, tmp_path, capsys):
        src = tmp_path / "in.json"
        dst = tmp_path / "out.json"
        series = {"max_exponent": 128, "coeffs": [{"n": 2, "c": "3/4"}, {"n": 8, "c": "-1/1"}]}
        src.write_text(json.dumps(series))
        code, _, _ = run(
            capsys, "lift", "--level", "35", "--t", "2", "--in", str(src),
            "--out", str(dst),
        )
        assert code == EXIT_OK
        first = dst.read_text()
        run(
            capsys, "lift", "--level", "35", "--t", "2", "--in", str(src),
            "--out", str(dst),
        )
        assert dst.read_text() == first  # byte-identical reruns

    def test_write_then_read_identity(self, tmp_path):
        from fractions import Fraction

        from cyclelift.qseries import (
            FormalSeries,
            series_from_json_dict,
            series_to_json_dict,
        )

        s = FormalSeries({0: Fraction(5, 3), 7: Fraction(-2, 9)}, 40)
        assert series_from_json_dict(series_to_json_dict(s)) == s
