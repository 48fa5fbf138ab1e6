import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclelift import qseries
from cyclelift.errors import HypothesisError, TruncationInsufficientError
from cyclelift.identity import SymbolicDivisor
from cyclelift.numth import kronecker
from cyclelift.qseries import (
    FormalSeries,
    ShimuraParams,
    chi_t,
    op_B,
    op_phi,
    op_phi_set,
    op_U,
    rational_str,
    series_difference_support,
    series_from_json_dict,
    series_to_json_dict,
    shimura_lift,
)
from cyclelift.quadfield import make_field
from oracles import (
    gauss_sum,
    lvalue_numeric,
    lvalue_numeric_scaled,
    lvalue_series_rational,
)

PARAMS = ShimuraParams(kappa=3, level_N=35, t=2)


def rand_series(rng, bound=50, density=0.5):
    coeffs = {
        n: Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        for n in range(bound + 1)
        if rng.random() < density
    }
    return FormalSeries(coeffs, bound)


class TestFormalSeries:
    def test_truncation_checked(self):
        s = FormalSeries({2: 1}, 10)
        assert s.coefficient(10) == 0
        with pytest.raises(TruncationInsufficientError):
            s.coefficient(11)

    def test_add_takes_min_bound(self):
        a = FormalSeries({1: Fraction(1, 2)}, 10)
        b = FormalSeries({1: Fraction(1, 2), 3: 1}, 5)
        c = a.add(b)
        assert c.max_exponent == 5
        assert c.coefficient(1) == 1
        assert c.coefficient(3) == 1

    def test_zero_pruning(self):
        s = FormalSeries({1: Fraction(0), 2: 3}, 10)
        assert s.support() == [2]


class TestChiT:
    def test_spec_examples(self):
        assert chi_t(PARAMS, 3) == 1  # (-1|3)(2|3) = (-1)(-1)
        assert chi_t(PARAMS, 5) == 0  # 5 | 4N
        assert chi_t(PARAMS, 1) == 1

    def test_vanishes_on_even_and_level(self):
        for n in (2, 4, 6, 10, 14, 35, 70):
            assert chi_t(PARAMS, n) == 0

    def test_character_identity_with_chi_k(self):
        # The hinge of the main theorem: chi_t = chi_k away from D_B.
        from math import gcd

        from cyclelift.quadfield import chi_k

        field = make_field(-2)
        for n in range(1, 10**4 + 1):
            if gcd(n, 35) == 1:
                assert chi_t(PARAMS, n) == chi_k(field, n), n
            else:
                assert chi_t(PARAMS, n) == 0, n

    def test_kronecker_character_kind(self):
        params = ShimuraParams(kappa=3, level_N=5, t=3, chi_disc=-4)
        for n in range(1, 50):
            expected = kronecker(-4, n) * kronecker(-1, n) * kronecker(3, n)
            assert chi_t(params, n) == expected

    def test_parameter_validation(self):
        with pytest.raises(HypothesisError):
            ShimuraParams(kappa=4, level_N=35, t=2)
        with pytest.raises(HypothesisError):
            ShimuraParams(kappa=3, level_N=35, t=4)  # not squarefree
        with pytest.raises(HypothesisError):
            ShimuraParams(kappa=3, level_N=0, t=2)
        with pytest.raises(HypothesisError):
            ShimuraParams(kappa=3, level_N=35, t=2, chi_disc=0)


class TestShimuraLift:
    def test_delta_series(self):
        # F = q^t: b(m) = chi_t(m) since only n = m contributes.
        f = FormalSeries({2: 1}, 800)
        lifted = shimura_lift(f, PARAMS)
        assert lifted.coefficient(2) == 1  # b(1)
        assert lifted.coefficient(6) == chi_t(PARAMS, 3) == 1  # b(3)
        for m in range(1, lifted.max_exponent // 2):
            assert lifted.coefficient(2 * m) == chi_t(PARAMS, m), m

    def test_zero_series(self):
        assert shimura_lift(FormalSeries.zero(100), PARAMS).coeffs == {}

    def test_support_on_multiples_of_t(self):
        rng = random.Random(2)
        f = rand_series(rng, bound=2 * 15 * 15)
        lifted = shimura_lift(f, PARAMS)
        for n in lifted.support():
            assert n % 2 == 0

    def test_linearity(self):
        rng = random.Random(5)
        bound = 2 * 12 * 12
        f = rand_series(rng, bound)
        g = rand_series(rng, bound)
        lhs = shimura_lift(f.scale(3).add(g.scale(-2)), PARAMS)
        rhs = shimura_lift(f, PARAMS).scale(3).add(shimura_lift(g, PARAMS).scale(-2))
        assert series_difference_support(lhs, rhs) == []

    def test_higher_weight_power(self):
        params = ShimuraParams(kappa=5, level_N=35, t=2)
        f = FormalSeries({2: 1, 8: 1}, 800)  # a(t), a(4t)
        lifted = shimura_lift(f, params)
        # b(2) = chi_t(1) a(8) + chi_t(2) 2 a(2) = 1 (even n killed)
        assert lifted.coefficient(4) == 1
        # b(3) = chi_t(3) * 3^1 * a(2) (n=3 term; n=1 needs a(18)=0)
        assert lifted.coefficient(6) == chi_t(params, 3) * 3

    def test_digit_bound_holds_and_refuses(self):
        # Every numerator and denominator that a lift writes has at most the
        # digits that _lift_digits allows, over rational and symbolic
        # coefficients, weights from kappa 3 to 41, and the closed-form
        # constant term; a bound above the limit refuses before any sum.
        rng = random.Random(41)
        for kappa in (3, 5, 7, 11, 41):
            params = ShimuraParams(kappa=kappa, level_N=35, t=2)
            for _ in range(6):
                f = rand_series(rng, bound=2 * rng.randint(1, 30) ** 2, density=0.7)
                f.coeffs[0] = Fraction(rng.randint(1, 10**40), rng.randint(1, 10**30))
                if rng.random() < 0.5:
                    f = FormalSeries({n: SymbolicDivisor({("K",): c, ("Zo", 1): c * c})
                                      for n, c in f.coeffs.items()}, f.max_exponent)
                m_top = qseries.lift_count(f, 2)
                read = [f.coefficient(2 * k * k) for k in range(1, m_top + 1)]
                lifted = shimura_lift(f, params)
                constant = lifted.coeffs.get(0)
                bound = qseries._lift_digits(read, (kappa - 3) // 2, m_top, constant)
                for c in lifted.coeffs.values():
                    for w in qseries._weights(c):
                        assert len(str(abs(w.numerator))) <= bound
                        assert len(str(w.denominator)) <= bound
        # Up to m = 4 some m has 3 divisors, so a denominator of 1501 digits
        # could be cubed; up to m = 3 only squared.
        big = FormalSeries({2: Fraction(1, 10**1500 + 1)}, 32)
        with pytest.raises(ValueError, match="^a lifted coefficient could have 4501 digits, "
                                             "above the cap of 4300$"):
            shimura_lift(big, PARAMS, mmax=4)
        assert shimura_lift(big, PARAMS, mmax=3).coefficient(2) == big.coefficient(2)

    def test_truncation_contract(self):
        f = FormalSeries({2: 1}, 100)
        lifted = shimura_lift(f, PARAMS)
        assert lifted.max_exponent == 2 * 7  # isqrt(100/2) = 7
        with pytest.raises(TruncationInsufficientError):
            shimura_lift(f, PARAMS, mmax=8)

    def test_constant_closed_form(self):
        f = FormalSeries({0: Fraction(3)}, 800)
        lifted = shimura_lift(f, PARAMS)
        field = make_field(-2)
        from cyclelift.quadfield import lvalue_closed_form

        assert lifted.coefficient(0) == -3 * lvalue_closed_form(field, 35)

    def test_constant_marker_outside_closed_form(self):
        params = ShimuraParams(kappa=3, level_N=6, t=2)  # 2 | 6 not valid D_B
        f = FormalSeries({0: Fraction(1)}, 800)
        lifted = shimura_lift(f, params)
        # The constant term has no closed form here: it is omitted.
        assert 0 not in lifted.coeffs and lifted.coefficient(0) == 0


class TestOperators:
    def test_u_and_b_reindex(self):
        f = FormalSeries({2: 1}, 10)
        assert op_U(2, f).coeffs == {1: 1}
        assert op_B(3, f).coeffs == {6: 1}
        assert op_B(3, f).max_exponent == 3 * 11 - 1

    def test_phi_formula(self):
        rng = random.Random(1)
        f = rand_series(rng, 60, density=0.9)
        ph = op_phi(2, f)
        assert ph.coefficient(2) == f.coefficient(1) - f.coefficient(2)
        assert ph.coefficient(3) == 0
        assert ph.coefficient(10) == f.coefficient(5) - f.coefficient(10)
        assert ph.coefficient(0) == 0

    def test_phi_commutes_coprime(self):
        rng = random.Random(6)
        f = rand_series(rng, 50, density=0.8)
        a = op_phi(3, op_phi(5, f))
        b = op_phi(5, op_phi(3, f))
        assert series_difference_support(a, b) == []
        c = op_phi_set([3, 5], f)
        assert series_difference_support(a, c) == []

    def test_phi_set_rejects_duplicates(self):
        with pytest.raises(ValueError):
            op_phi_set([3, 3], FormalSeries.zero(10))
        with pytest.raises(ValueError):
            op_phi_set([4], FormalSeries.zero(10))


class TestGaussAndLValue:
    def test_orthogonality_at_zero(self):
        # chi_t is nonprincipal, so the Gauss sum at 0 vanishes.
        assert abs(gauss_sum(PARAMS, 0)) < 1e-9

    def test_absolute_convergence_s2(self):
        a = lvalue_numeric(PARAMS, 2, 4000)
        b = lvalue_numeric(PARAMS, 2, 8000)
        assert abs(a - b) < 5e-3

    def test_cesaro_converges_to_series_value(self):
        # The Cesaro machinery converges to the directly derived value
        # of the series (see lvalue_series_rational) at the same 1e-4
        # tolerance the acceptance cross-check demands, reached here
        # independently of lvalue_closed_form.
        field = make_field(-2)
        target = float(lvalue_series_rational(field, 35))
        val = lvalue_numeric_scaled(PARAMS, 2 * 10**5)
        assert abs(val.imag) < 1e-9
        assert abs(val.real - target) / abs(target) < 1e-4


class TestSeriesJson:
    def test_roundtrip_rational(self):
        rng = random.Random(9)
        s = rand_series(rng, 30)
        data = series_to_json_dict(s)
        back = series_from_json_dict(data)
        assert back == s

    def test_rational_rendering(self):
        assert rational_str(Fraction(-6, 4)) == "-3/2"
        assert rational_str(3) == "3/1"

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            series_from_json_dict({"coeffs": []})
        with pytest.raises(ValueError):
            series_from_json_dict({"max_exponent": 5, "coeffs": [{"n": 1, "c": "x"}]})


# Coefficient texts: plain "num/den" and other forms Fraction accepts.
COEFF_TEXT = st.one_of(
    st.builds("{}/{}".format, st.integers(-60, 60), st.integers(1, 40)),
    st.sampled_from(["0/7", "-0/5", "007/021", "+3/4", " 3/4 ", "1.5", "1e2", "5", "-7"]),
)
LIFT_PARAMS = st.sampled_from([
    ShimuraParams(3, 35, 2),
    ShimuraParams(3, 51, 10),
    ShimuraParams(5, 7, 1),
    ShimuraParams(5, 11, 3),
    ShimuraParams(7, 13, 5),
    ShimuraParams(3, 5, 6, -8),
])


@st.composite
def lift_inputs(draw):
    params = draw(LIFT_PARAMS)
    t = params.t
    bound = draw(st.integers(0, 600))
    # Half the exponents from the square class that the lift reads.
    exponent = st.one_of(
        st.integers(0, bound), st.integers(0, isqrt(bound // t)).map(lambda k: t * k * k)
    )
    entries = draw(st.lists(st.tuples(exponent, COEFF_TEXT), max_size=80))
    return params, {"max_exponent": bound, "coeffs": [{"n": n, "c": c} for n, c in entries]}


class TestSquareClassRead:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(lift_inputs())
    def test_lift_equals_lift_of_full_read(self, case):
        params, data = case
        full = series_from_json_dict(data)
        part = series_from_json_dict(data, square_class=params.t)
        assert shimura_lift(part, params) == shimura_lift(full, params)
        t = params.t
        assert part.max_exponent == full.max_exponent
        assert part.coeffs == {
            n: c for n, c in full.coeffs.items() if n % t == 0 and isqrt(n // t) ** 2 == n // t
        }


class TestDifferenceSupport:
    def test_symbolic_coefficient_missing_on_one_side(self):
        from cyclelift.identity import SymbolicDivisor

        a = FormalSeries({1: SymbolicDivisor.Zo(1)}, 3)
        b = FormalSeries({1: SymbolicDivisor.Zo(1), 2: SymbolicDivisor.Zo(2)}, 3)
        assert series_difference_support(b, a) == [2]
        assert series_difference_support(a, b) == [2]
        assert series_difference_support(a, a) == []

    def test_rational_coefficients(self):
        a = FormalSeries({1: Fraction(1, 2), 4: 3}, 5)
        b = FormalSeries({1: Fraction(1, 2), 2: 1}, 4)
        assert series_difference_support(a, b) == [2, 4]
