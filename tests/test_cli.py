import hashlib
import json

import pytest

from cyclelift.cli import (
    EXIT_HYPOTHESIS,
    EXIT_OK,
    EXIT_PRECISION,
    EXIT_TRUNCATION,
    main,
    parse_coordinate,
    parse_vector,
)
from cyclelift.padic import LocalContext


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
        ctx = LocalContext(p=5, delta_sq=-2, precision=12)
        v = parse_vector(ctx, "0+1d,1+0d/p^2")
        assert v.denom_exp == 2
        with pytest.raises(ValueError):
            parse_vector(ctx, "1,2,3")
        with pytest.raises(ValueError):
            parse_vector(ctx, "1,2/q^2")


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
        # largest p-power skew; the working precision must budget for it.
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
        ],
    )
    def test_pinned_stdout(self, capsys, argv, vertical, digest):
        code, out, _ = run(capsys, "cycle", *argv)
        assert code == EXIT_OK
        assert len(json.loads(out)["vertical"]) == vertical
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_too_small_precision_exits_3(self, capsys):
        # Precision 9 is too small for the radius-1 ball computation:
        # the canonical-form guard must trip and exit 3.
        code, _, err = run(
            capsys, "cycle", "--p", "5", "--delta", "-2", "--sign", "minus",
            "--b", "0+25d,25+0d", "--precision", "9",
        )
        assert code == EXIT_PRECISION
        assert "precision" in err


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
