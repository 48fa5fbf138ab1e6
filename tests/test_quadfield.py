from fractions import Fraction

import pytest

from cyclelift.errors import HypothesisError, SearchBoundExhaustedError
from cyclelift.numth import factorize, hilbert_symbol, is_prime
from cyclelift.quadfield import (
    MAX_ABS_DELTA,
    auxiliary_prime_profile_ok,
    auxiliary_split_prime,
    chi_k,
    lvalue_closed_form,
    make_field,
    optimal_embedding_count,
    rho,
    rho_divisor_sum,
    rho_divisor_sum_table,
    rho_table,
    _reduced_forms,
)
from cyclelift.sweeps import RHO_DELTAS
from oracles import (
    class_number_by_ideals,
    hilbert_bruteforce,
    lvalue_series_rational,
    squares_mod,
)

FIELDS = {d: make_field(d) for d in (-2, -6, -10, -14, -22, -26)}


class TestMakeField:
    def test_reduced_form_lists(self):
        assert _reduced_forms(-8) == [(1, 0, 2)]
        assert _reduced_forms(-24) == [(1, 0, 6), (2, 0, 3)]
        assert _reduced_forms(-40) == [(1, 0, 10), (2, 0, 5)]

    def test_class_numbers(self):
        assert FIELDS[-2].class_number == 1
        assert FIELDS[-6].class_number == 2
        assert FIELDS[-10].class_number == 2

    def test_unit_order_and_disc(self):
        f = FIELDS[-2]
        assert f.unit_order == 2
        assert f.disc == -8

    def test_rejections(self):
        with pytest.raises(HypothesisError):
            make_field(-3)  # odd
        with pytest.raises(HypothesisError):
            make_field(2)  # positive
        with pytest.raises(HypothesisError):
            make_field(-8)  # not squarefree

    def test_delta_above_the_cap_is_bad_input(self):
        # Refused as bad input, not a hypothesis, so that a caller that
        # drops a field on HypothesisError cannot drop this one silently.
        with pytest.raises(ValueError, match=f"above the cap of {MAX_ABS_DELTA}"):
            make_field(-MAX_ABS_DELTA - 2)
        assert make_field(-999994).class_number > 0  # squarefree, just under the cap

    def test_class_number_against_ideal_enumeration(self):
        for d, f in FIELDS.items():
            assert f.class_number == class_number_by_ideals(d), d


class TestChiK:
    def test_spec_examples(self):
        f = FIELDS[-2]
        assert (-2) % 3 in squares_mod(3)
        assert chi_k(f, 3) == 1
        assert (-2) % 5 not in squares_mod(5)
        assert chi_k(f, 5) == -1
        assert chi_k(f, 2) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            chi_k(FIELDS[-2], 0)

    def test_completely_multiplicative(self):
        f = FIELDS[-10]
        for m in range(1, 40):
            for n in range(1, 40):
                assert chi_k(f, m * n) == chi_k(f, m) * chi_k(f, n)


class TestRho:
    def test_spec_examples(self):
        f = FIELDS[-2]
        assert rho(f, 1) == 1
        assert rho(f, 6) == 2  # 2 ramified, 3 split with e=1
        assert rho(f, 5) == 0  # 5 inert, odd exponent

    def test_divisor_sum_examples(self):
        f = FIELDS[-2]
        assert rho_divisor_sum(f, 1) == 1
        assert rho_divisor_sum(f, 6) == 2  # 1 + 0 + 1 + 0
        assert rho_divisor_sum(f, 9) == 3  # chi(1)+chi(3)+chi(9)

    def test_identity_small_sweep(self):
        for f in FIELDS.values():
            for n in range(1, 400):
                assert rho(f, n) == rho_divisor_sum(f, n), (f.delta, n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rho(FIELDS[-2], 0)
        with pytest.raises(ValueError):
            rho_divisor_sum(FIELDS[-2], -3)


# The fields of `verify rho` by default, and two with more ramified primes:
# -1002 = -2 * 3 * 167 and -30030 = -2 * 3 * 5 * 7 * 11 * 13.
TABLE_DELTAS = (*RHO_DELTAS, -1002, -30030)


class TestRhoTables:
    @pytest.mark.parametrize("delta", TABLE_DELTAS)
    def test_tables_match_the_per_n_functions(self, delta):
        f = make_field(delta)
        lhs, rhs = rho_table(f, 3000), rho_divisor_sum_table(f, 3000)
        assert lhs == rhs and len(lhs) == 3001
        for n in range(1, 3001):
            assert (lhs[n], rhs[n]) == (rho(f, n), rho_divisor_sum(f, n)), n

    def test_one_entry(self):
        assert rho_table(FIELDS[-2], 1)[1:] == [1]
        assert rho_divisor_sum_table(FIELDS[-2], 1)[1:] == [1]

    @pytest.mark.parametrize("table", [rho_table, rho_divisor_sum_table])
    @pytest.mark.parametrize("n_max", [0, -3])
    def test_rejects_nonpositive(self, table, n_max):
        with pytest.raises(ValueError):
            table(FIELDS[-2], n_max)


class TestEmbeddingCount:
    def test_examples(self):
        assert optimal_embedding_count(FIELDS[-2], 35) == 4
        # factors 3, 17 inert for delta = -10
        f10 = FIELDS[-10]
        assert chi_k(f10, 3) == -1 and chi_k(f10, 17) == -1
        assert optimal_embedding_count(f10, 51) == 8

    def test_split_factor_rejected(self):
        assert chi_k(FIELDS[-2], 3) == 1
        with pytest.raises(HypothesisError):
            optimal_embedding_count(FIELDS[-2], 33)

    def test_other_rejections(self):
        with pytest.raises(HypothesisError):
            optimal_embedding_count(FIELDS[-2], 5 * 5 * 7)  # not squarefree
        with pytest.raises(HypothesisError):
            optimal_embedding_count(FIELDS[-2], 5)  # odd factor count
        with pytest.raises(HypothesisError):
            optimal_embedding_count(FIELDS[-2], 1)  # empty factor list


class TestLValue:
    def test_closed_form_values(self):
        assert lvalue_closed_form(FIELDS[-2], 35) == Fraction(-2)
        # h=2, unit order 2, (1 - chi_k(3)) (1 - chi_k(17)) = 2 * 2 = 4:
        expected = Fraction(-2, 2) * 2 * 2
        assert expected == Fraction(-4)
        assert lvalue_closed_form(FIELDS[-10], 51) == expected

    def test_series_rational_values(self):
        assert lvalue_series_rational(FIELDS[-2], 35) == Fraction(-2)
        assert lvalue_series_rational(FIELDS[-10], 51) == Fraction(-4)

    def test_rejects_bad_discriminant(self):
        with pytest.raises(HypothesisError):
            lvalue_closed_form(FIELDS[-2], 1)


class TestAuxiliaryPrime:
    def test_spec_example(self):
        q = auxiliary_split_prime(FIELDS[-2], 5)
        assert q == 3
        assert chi_k(FIELDS[-2], 3) == 1

    def test_p7_profile_verified_by_bruteforce(self):
        f = FIELDS[-2]
        q = auxiliary_split_prime(f, 7)
        assert is_prime(q) and chi_k(f, q) == 1
        a = -7 * q
        places = {2, 7, q} | set(factorize(2).primes)
        assert hilbert_bruteforce(a, f.delta, "infinity") == -1
        for ell in sorted(places):
            expected = -1 if ell == 7 else 1
            assert hilbert_bruteforce(a, f.delta, ell) == expected
            assert hilbert_symbol(a, f.delta, ell) == expected

    def test_rejects_split_or_even_p(self):
        with pytest.raises(HypothesisError):
            auxiliary_split_prime(FIELDS[-2], 3)  # split
        with pytest.raises(HypothesisError):
            auxiliary_split_prime(FIELDS[-2], 2)

    def test_bound_exhaustion_reported(self):
        with pytest.raises(SearchBoundExhaustedError):
            auxiliary_split_prime(FIELDS[-2], 5, bound=2)

    def test_profile_checker(self):
        assert auxiliary_prime_profile_ok(FIELDS[-2], 5, 3)
        # q = 13 is inert for delta = -2, and (-65, -2)_13 = -1, so the
        # profile acquires an extra bad place and must fail.
        assert chi_k(FIELDS[-2], 13) == -1
        assert hilbert_symbol(-65, -2, 13) == -1
        assert not auxiliary_prime_profile_ok(FIELDS[-2], 5, 13)
