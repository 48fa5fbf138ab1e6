"""The identity verifiers beyond the three grid pairs: both verifiers on
fields with class number up to 10, and both taken down their mismatch
path by a deliberately wrong side, so a passing run is known to be able
to fail.  The remark verifier, which counts in units of 1/(2h), is held
to the true-units reference in oracles.py, passing and failing."""

import tracemalloc

import pytest

import cyclelift.identity as identity
import oracles
from cyclelift.qseries import FormalSeries
from cyclelift.quadfield import make_field, optimal_embedding_count
from cyclelift.sweeps import IDENTITY_CHECK_CAP

F2 = make_field(-2)

# (Delta, D_B, class number h): every h that occurs for |Delta| <= 100,
# D_B <= 500.
GRID = (
    (-2, 35, 1),
    (-6, 221, 2),
    (-14, 187, 4),
    (-26, 209, 6),
    (-62, 85, 8),
    (-74, 119, 10),
)


@pytest.mark.parametrize("delta, d_b, h", GRID)
def test_identities_hold_up_to_class_number_10(delta, d_b, h):
    field = make_field(delta)
    assert field.class_number == h
    main = identity.verify_main_theorem(field, d_b, 150)
    assert main.ok, main.to_json_dict()["mismatches"][:2]
    remark = identity.verify_remark_identity(field, d_b, 150)
    assert remark.ok, remark.to_json_dict()["mismatches"][:2]
    assert remark.params["classes"] == optimal_embedding_count(field, d_b)
    assert main.checked == remark.checked == 151


def _mismatch_json(report):
    data = report.to_json_dict()["mismatches"]
    for entry in data:
        assert set(entry) == {"m", "lhs", "rhs"}
    return data


def test_main_theorem_reports_a_wrong_unitary_side(monkeypatch):
    # Flip chi_k(3) on the unitary side only; 3 splits in Q(sqrt(-2)),
    # so every coefficient m = 2 m' with 3 | m' now disagrees.
    real_chi_k = identity.chi_k

    def flipped(field, a):
        value = real_chi_k(field, a)
        return -value if a == 3 else value

    assert real_chi_k(F2, 3) == 1
    monkeypatch.setattr(identity, "chi_k", flipped)
    report = identity.verify_main_theorem(F2, 35, 30)
    assert not report.ok
    assert [mm.m for mm in report.mismatches] == [6, 12, 18, 24, 30]
    first = _mismatch_json(report)[0]
    assert first["lhs"] == [
        {"sym": "Zo(2)", "w": "1/1"},
        {"sym": "Zo(18)", "w": "1/1"},
    ]
    assert first["rhs"] == [
        {"sym": "Zo(2)", "w": "-1/1"},
        {"sym": "Zo(18)", "w": "1/1"},
    ]


def cancel_twice_naive(exponent, hit):
    """An op_phi_set whose phi_I for I = hit also subtracts 2 * naive at
    q^exponent.  At an exponent prime to D_B no phi_I reaches, so the
    right side loses its whole coefficient there."""
    real_phi_set = identity.op_phi_set

    def faulty(primes, series):
        out = real_phi_set(primes, series)
        if list(primes) == hit:
            cancel = FormalSeries(
                {exponent: series.coefficient(exponent) * -2}, series.max_exponent
            )
            out = out.add(cancel)
        return out

    return faulty


def test_remark_identity_reports_a_missing_coefficient(monkeypatch):
    # Cancel the 2 * naive term at q^3 (3 is prime to D_B = 35): the
    # left side has 2/(2h) sum_i Zplus(3, i) there, with h = 1.
    classes = optimal_embedding_count(F2, 35)
    monkeypatch.setattr(identity, "op_phi_set", cancel_twice_naive(3, [5]))
    report = identity.verify_remark_identity(F2, 35, 30)
    assert not report.ok
    assert [mm.m for mm in report.mismatches] == [3]
    (entry,) = _mismatch_json(report)
    assert entry["m"] == 3
    assert entry["lhs"] == [
        {"sym": f"Zplus(3,{i})", "w": "1/1"} for i in range(1, classes + 1)
    ]
    assert entry["rhs"] == []


def test_remark_mismatch_is_scaled_back_at_class_number_2(monkeypatch):
    # At h = 2 the left side's 2/(2h) sum_i Zplus(5, i) reads 1/2 per
    # class: a mismatch reported in units of 1/(2h) would read 1/1 or 2/1.
    field = make_field(-10)
    assert field.class_number == 2
    classes = optimal_embedding_count(field, 51)
    assert classes == 8
    monkeypatch.setattr(identity, "op_phi_set", cancel_twice_naive(5, [17]))
    report = identity.verify_remark_identity(field, 51, 30)
    (entry,) = _mismatch_json(report)
    assert entry == {
        "m": 5,
        "lhs": [{"sym": f"Zplus(5,{i})", "w": "1/2"} for i in range(1, 9)],
        "rhs": [],
    }


@pytest.mark.parametrize("delta, d_b, h", GRID)
def test_remark_identity_matches_the_true_units_reference(delta, d_b, h):
    field = make_field(delta)
    classes = optimal_embedding_count(field, d_b)
    got = identity.verify_remark_identity(field, d_b, 150)
    want = oracles.verify_remark_identity(field, d_b, 150, classes)
    assert got.to_json_dict() == want.to_json_dict()


@pytest.mark.parametrize("delta, d_b, exponent, hit", [(-2, 35, 3, [5]), (-10, 51, 5, [17])])
def test_faulty_remark_identity_matches_the_reference(monkeypatch, delta, d_b, exponent, hit):
    field = make_field(delta)
    classes = optimal_embedding_count(field, d_b)
    faulty = cancel_twice_naive(exponent, hit)
    monkeypatch.setattr(identity, "op_phi_set", faulty)
    monkeypatch.setattr(oracles, "op_phi_set", faulty)
    got = identity.verify_remark_identity(field, d_b, 30).to_json_dict()
    want = oracles.verify_remark_identity(field, d_b, 30, classes).to_json_dict()
    assert got["mismatches"]
    assert got == want


def test_identities_hold_with_four_primes_in_d_b(monkeypatch):
    # D_B = 1155 = 3 * 5 * 7 * 11: 15 operator subsets, 32 classes at h = 2.
    field = make_field(-58)
    assert field.class_number == 2
    classes = optimal_embedding_count(field, 1155)
    assert classes == 32
    main = identity.verify_main_theorem(field, 1155, 60)
    assert main.ok, main.to_json_dict()["mismatches"][:2]
    got = identity.verify_remark_identity(field, 1155, 60)
    assert got.ok, got.to_json_dict()["mismatches"][:2]
    want = oracles.verify_remark_identity(field, 1155, 60, classes)
    assert got.to_json_dict() == want.to_json_dict()

    faulty = cancel_twice_naive(2, [3, 5, 7, 11])
    monkeypatch.setattr(identity, "op_phi_set", faulty)
    monkeypatch.setattr(oracles, "op_phi_set", faulty)
    got = identity.verify_remark_identity(field, 1155, 60).to_json_dict()
    want = oracles.verify_remark_identity(field, 1155, 60, classes).to_json_dict()
    assert [entry["m"] for entry in got["mismatches"]] == [2]
    assert got == want


def negate_phi_at(exponent, hit):
    """An op_phi_set whose phi_I for I = hit negates its own coefficient
    at q^exponent: a fault in a term that the operator contributes."""
    real_phi_set = identity.op_phi_set

    def faulty(primes, series):
        out = real_phi_set(primes, series)
        if list(primes) == hit:
            flip = FormalSeries({exponent: out.coefficient(exponent) * -2}, out.max_exponent)
            out = out.add(flip)
        return out

    return faulty


def test_fault_in_an_operator_term_matches_the_reference(monkeypatch):
    # D_B = 1155 = 3 * 5 * 7 * 11: phi_{3,5} of the naive series is
    # nonzero at q^15 in every class, so negating it there must show at
    # q^15 alone.
    field = make_field(-58)
    classes = optimal_embedding_count(field, 1155)
    faulty = negate_phi_at(15, [3, 5])
    monkeypatch.setattr(identity, "op_phi_set", faulty)
    monkeypatch.setattr(oracles, "op_phi_set", faulty)
    got = identity.verify_remark_identity(field, 1155, 30).to_json_dict()
    want = oracles.verify_remark_identity(field, 1155, 30, classes).to_json_dict()
    assert [entry["m"] for entry in got["mismatches"]] == [15]
    assert got == want


def test_remark_identity_at_the_cap_holds_no_class_series():
    # Delta = -74, D_B = 119 has 40 embedding classes, the most for
    # |Delta| <= 100, D_B <= 500.  Built in one class-free symbol per
    # exponent, the three series peak near 13 MiB; one symbol per class
    # peaked near 104 MiB.
    field = make_field(-74)
    tracemalloc.start()
    try:
        report = identity.verify_remark_identity(field, 119, IDENTITY_CHECK_CAP - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.params["classes"] == 40
    assert peak < 20 * 2**20, peak
