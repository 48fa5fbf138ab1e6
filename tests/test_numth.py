import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cyclelift.numth import (
    INFINITY,
    _MAX_FACTOR_INPUT,
    Factorization,
    divisors,
    factorize,
    hilbert_places,
    hilbert_symbol,
    is_prime,
    is_squarefree,
    kronecker,
    max_divisor_count,
)
from oracles import hilbert_bruteforce, squares_mod


class TestFactorize:
    def test_one_gives_empty_product(self):
        assert factorize(1) == Factorization(())

    def test_twelve(self):
        assert factorize(12).factors == ((2, 2), (3, 1))

    def test_thirty_five(self):
        assert factorize(35).factors == ((5, 1), (7, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-12)

    def test_trial_division_is_bounded(self):
        # factorize and is_prime share one bound: at it both run (the
        # largest prime below 10**12 in about 0.05 s), past it both refuse.
        assert factorize(_MAX_FACTOR_INPUT).factors == ((2, 12), (5, 12))
        assert is_prime(999999999989)
        for f in (factorize, is_prime):
            with pytest.raises(ValueError, match=f"{_MAX_FACTOR_INPUT + 1} is above the cap"):
                f(_MAX_FACTOR_INPUT + 1)

    def test_is_prime_agrees_with_factorize(self):
        # is_prime stops at the first divisor and builds no factorization;
        # it says what the factorization would, below 2 included.
        for n in range(-3, 20_000):
            assert is_prime(n) == (n >= 2 and factorize(n).factors == ((n, 1),)), n
        huge = 2305843009213693951  # a 61-bit prime
        with pytest.raises(ValueError, match=f"^{huge} is above the cap of {_MAX_FACTOR_INPUT} "
                                             "on trial division$"):
            is_prime(huge)

    def test_max_divisor_count_is_the_running_maximum(self):
        most = 1
        for n in range(-2, 12_000):
            if n >= 1:
                most = max(most, len(divisors(n)))
            assert max_divisor_count(n) == most, n
        # 7560 and 10080 hold the records below the lift's m cap and past it.
        assert (max_divisor_count(10_000), max_divisor_count(10_080)) == (64, 72)

    @given(st.integers(min_value=1, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_reconstruction_and_ordering(self, n):
        fac = factorize(n)
        assert fac.value == n
        primes = fac.primes
        assert list(primes) == sorted(primes)
        assert all(is_prime(p) for p in primes)
        assert all(e >= 1 for _, e in fac)

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(1) == [1]

    def test_squarefree(self):
        assert is_squarefree(35)
        assert not is_squarefree(12)
        assert is_squarefree(-2)


class TestKronecker:
    def test_spec_examples_by_square_enumeration(self):
        # (-8, 3): -8 is a residue mod 3; (-8, 5): a nonresidue.
        assert (-8) % 3 in squares_mod(3)
        assert kronecker(-8, 3) == 1
        assert (-8) % 5 not in squares_mod(5)
        assert kronecker(-8, 5) == -1
        assert kronecker(-8, 2) == 0

    def test_legendre_agreement_exhaustive(self):
        # All odd primes p < 500 and |a| < 100, against square tables.
        for p in range(3, 500, 2):
            if not is_prime(p):
                continue
            sq = squares_mod(p)
            for a in range(-99, 100):
                if a % p == 0:
                    assert kronecker(a, p) == 0
                else:
                    expected = 1 if a % p in sq else -1
                    assert kronecker(a, p) == expected, (a, p)

    @given(
        st.integers(min_value=-200, max_value=200),
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=-60, max_value=60),
    )
    @settings(max_examples=300, deadline=None)
    def test_multiplicative_in_denominator(self, a, m, n):
        if a == -1 and m * n == 0:
            # (-1|0) = 1 by convention while (-1|n) = -1 for some n, so
            # the law has exactly this exception: the zero absorbs it.
            assert kronecker(a, m * n) == 1
            return
        assert kronecker(a, m * n) == kronecker(a, m) * kronecker(a, n)

    def test_edge_conventions(self):
        assert kronecker(1, 1) == 1
        assert kronecker(0, 1) == 1
        assert kronecker(0, 0) == 0
        assert kronecker(1, 0) == 1
        assert kronecker(-5, -1) == -1
        assert kronecker(7, 2) == 1  # 7 = -1 mod 8
        assert kronecker(3, 2) == -1
        assert kronecker(4, 2) == 0


class TestHilbert:
    def test_left_square_is_trivial(self):
        for place in (INFINITY, 2, 3, 5, 7):
            assert hilbert_symbol(1, -17, place) == 1
            assert hilbert_symbol(Fraction(4, 9), 15, place) == 1

    def test_minus_one_at_infinity(self):
        assert hilbert_symbol(-1, -1, INFINITY) == -1
        assert hilbert_symbol(-1, 1, INFINITY) == 1

    def test_spec_example_against_bruteforce(self):
        assert hilbert_symbol(-15, -2, 5) == -1
        assert hilbert_bruteforce(-15, -2, 5) == -1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 3, 5)
        with pytest.raises(ValueError):
            hilbert_symbol(3, 0, INFINITY)

    def test_symmetry_and_bruteforce_grid(self):
        rng = random.Random(99)
        for _ in range(60):
            a = Fraction(rng.randint(-40, 40) or 3, rng.randint(1, 15))
            b = Fraction(rng.randint(-40, 40) or 5, rng.randint(1, 15))
            for place in hilbert_places(a, b):
                got = hilbert_symbol(a, b, place)
                assert got == hilbert_symbol(b, a, place)
                assert got == hilbert_bruteforce(a, b, place), (a, b, place)
                assert got == hilbert_symbol(a.numerator * a.denominator, b, place)

    def test_reciprocity_random(self):
        rng = random.Random(4)
        for _ in range(150):
            a = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
            b = Fraction(rng.randint(-99, 99) or 1, rng.randint(1, 99))
            product = 1
            for place in hilbert_places(a, b):
                product *= hilbert_symbol(a, b, place)
            assert product == 1, (a, b)

    def test_places_cover_everything(self):
        # At any place outside hilbert_places the symbol is +1: both
        # arguments are units at an odd prime.
        places = hilbert_places(Fraction(-15), Fraction(-2))
        assert INFINITY in places and 2 in places and 3 in places and 5 in places
        assert hilbert_symbol(-15, -2, 11) == 1
