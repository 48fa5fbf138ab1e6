from fractions import Fraction

import pytest

from cyclelift.errors import HypothesisError, TruncationInsufficientError
from cyclelift.identity import (
    SymbolicDivisor,
    build_phi_o,
    build_phi_u,
    fiber_count,
    parse_symbolic_entries,
    verify_main_theorem,
    verify_remark_identity,
)
from cyclelift.quadfield import (
    lvalue_closed_form,
    make_field,
    rho_divisor_sum,
)

F2 = make_field(-2)
F10 = make_field(-10)


class TestSymbolicDivisor:
    def test_algebra(self):
        x = SymbolicDivisor.Zo(3) + SymbolicDivisor.K(Fraction(1, 2))
        y = SymbolicDivisor.Zo(3, -1)
        assert x + y == SymbolicDivisor.K(Fraction(1, 2))
        assert not x * 0
        assert (x * 2).terms[("K",)] == 1

    def test_zero_pruning_and_equality(self):
        a = SymbolicDivisor({("Zo", 5): Fraction(0), ("K",): Fraction(1)})
        assert a == SymbolicDivisor.K()
        assert not SymbolicDivisor.zero()

    def test_json_roundtrip(self):
        x = (
            SymbolicDivisor.Zo(12, Fraction(-3, 7))
            + SymbolicDivisor.K(2)
            + SymbolicDivisor.Zplus(4, 2, Fraction(1, 3))
        )
        assert parse_symbolic_entries(x.to_json_entries()) == x

    def test_index_validation(self):
        with pytest.raises(ValueError):
            SymbolicDivisor.Zo(0)
        with pytest.raises(ValueError):
            SymbolicDivisor.Zplus(1, 0)


class TestBuildSeries:
    def test_phi_o_structure(self):
        s = build_phi_o(F2, 35, 20)
        assert s.coefficient(0) == SymbolicDivisor.K(-1)
        assert s.coefficient(7) == SymbolicDivisor.Zo(7)
        with pytest.raises(TruncationInsufficientError):
            s.coefficient(21)

    def test_phi_u_relation_i(self):
        s = build_phi_u(F2, 35, 60)
        for m in range(1, 61):
            if m % 2 != 0:
                assert s.coefficient(m) == 0, m

    def test_phi_u_examples(self):
        s = build_phi_u(F2, 35, 20)
        assert s.coefficient(2) == SymbolicDivisor.Zo(2)
        expected = SymbolicDivisor.Zo(72) + SymbolicDivisor.Zo(8)
        assert s.coefficient(12) == expected
        assert s.coefficient(0) == SymbolicDivisor.K(lvalue_closed_form(F2, 35))

    def test_hypotheses_enforced(self):
        with pytest.raises(HypothesisError):
            build_phi_o(F2, 33, 10)
        with pytest.raises(HypothesisError):
            build_phi_u(F2, 15, 10)  # 3 and 5 both split/ramified checks


class TestMainTheorem:
    def test_parameter_grid(self):
        # 65 = 5 * 13: both factors inert for delta = -2.
        from cyclelift.quadfield import chi_k

        assert chi_k(F2, 5) == -1 and chi_k(F2, 13) == -1
        for field, db in ((F2, 35), (F10, 51), (F2, 65)):
            report = verify_main_theorem(field, db, 120)
            assert report.ok, (field.delta, db, report.mismatches[:3])
            assert report.checked == 121

    def test_rejects_split_prime(self):
        with pytest.raises(HypothesisError):
            verify_main_theorem(F2, 33, 50)

    def test_report_json_shape(self):
        report = verify_main_theorem(F2, 35, 30)
        data = report.to_json_dict()
        assert set(data) == {"params", "checked", "mismatches"}
        assert data["mismatches"] == []

    def test_two_sided_independence(self):
        # The verification is a genuine identity between disjoint code
        # paths: the unitary builder never lifts, and the lift never
        # consults the field splitting character directly.
        import cyclelift.identity as identity_mod
        import cyclelift.qseries as qseries_mod

        assert "shimura_lift" not in identity_mod.build_phi_u.__code__.co_names
        assert "chi_k" not in qseries_mod.shimura_lift.__code__.co_names
        assert "chi_t" not in identity_mod.build_phi_u.__code__.co_names


class TestFiberCount:
    def test_spec_examples(self):
        assert fiber_count(F2, m=2, c=1, nu_p=1, nu_away=1) == 2
        assert fiber_count(F2, m=2, c=1, nu_p=5, nu_away=1) == 0
        assert fiber_count(F2, m=12, c=1, nu_p=1, nu_away=1) == 4

    def test_against_divisor_sum_oracle(self):
        cases = 0
        for m in range(1, 40):
            for c in (1, 2, 3):
                for nu_p in (1, 5):
                    den = c * 2 * nu_p
                    expected = (
                        0 if m % den else F2.unit_order * rho_divisor_sum(F2, m // den)
                    )
                    assert fiber_count(F2, m, c, nu_p, 1) == expected
                    cases += 1
        assert cases >= 50

    def test_validation(self):
        with pytest.raises(ValueError):
            fiber_count(F2, m=0, c=1, nu_p=1, nu_away=1)
        with pytest.raises(ValueError):
            fiber_count(F2, m=4, c=1, nu_p=1, nu_away=4)  # not squarefree

    def test_nu_p_moves_one_p_factor(self):
        # Switching nu_p from 1 to p either zeroes the count or divides
        # the rho argument by exactly one factor of p.
        from cyclelift.quadfield import rho

        for m in range(1, 300):
            base = fiber_count(F2, m, 1, 1, 1)
            moved = fiber_count(F2, m, 5, 1, 1)  # c absorbs the factor
            switched = fiber_count(F2, m, 1, 5, 1)
            assert switched == moved
            if switched and m % 2 == 0:
                assert switched == F2.unit_order * rho(F2, m // 10)


class TestRemarkIdentity:
    def test_parameter_grid(self):
        for field, db in ((F2, 35), (F10, 51), (F2, 65)):
            report = verify_remark_identity(field, db, 80)
            assert report.ok, (field.delta, db, report.mismatches[:3])

    def test_coprime_coefficient_shape(self):
        # At m coprime to D_B both sides equal (1/2h) sum_i 2 Zplus(m, i).
        field, db = F2, 35
        report = verify_remark_identity(field, db, 40)
        assert report.ok

    def test_degenerate_truncation(self):
        report = verify_remark_identity(F2, 35, 0)
        assert report.ok  # constant identity C' = 0 alone
