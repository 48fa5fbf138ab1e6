"""Algebra of SymbolicDivisor.  `+`, `*` and `-` build their weight maps
without going through the normalising constructor, so each law is
checked on random divisors, and each result against the constructor's
own normal form: an int for an integral weight, else a Fraction."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cyclelift.identity import SymbolicDivisor, parse_symbolic_entries

SUITE = settings(max_examples=60, deadline=None, derandomize=True)

symbols = st.one_of(
    st.just(("K",)),
    st.tuples(st.just("Zo"), st.integers(1, 12)),
    st.tuples(st.just("Zp"), st.integers(1, 12), st.integers(1, 3)),
)
int_weights = st.integers(-4, 4)
weights = st.one_of(int_weights, st.fractions(min_value=-4, max_value=4, max_denominator=6))
scalars = st.one_of(st.integers(-3, 3), weights)
divisors = st.dictionaries(symbols, weights, max_size=5).map(SymbolicDivisor)
int_divisors = st.dictionaries(symbols, int_weights, max_size=5).map(SymbolicDivisor)


def assert_normal(x):
    """Every weight is nonzero and has the one representation the
    constructor leaves: an int, or a Fraction that is not integral."""
    for w in x.terms.values():
        assert w != 0
        assert type(w) is int or (type(w) is Fraction and w.denominator != 1)
    assert x == SymbolicDivisor(x.terms)


@SUITE
@given(divisors, divisors, divisors)
def test_additive_laws(x, y, z):
    assert not (x + (-1) * x)
    assert not (x + -x)
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    keys = set(x.terms) | set(y.terms)
    summed = {s: x.terms.get(s, 0) + y.terms.get(s, 0) for s in keys}
    assert x + y == SymbolicDivisor(summed)
    assert 0 + x == x + 0 == x
    assert sum([x, y, z]) == x + y + z
    for result in (-x, x + y, (x + y) + z):
        assert_normal(result)


@SUITE
@given(divisors, divisors, scalars, scalars)
def test_scaling_distributes(x, y, s, r):
    assert (x + y) * s == x * s + y * s
    assert x * (s + r) == x * s + x * r
    assert s * x == x * s
    assert_normal(x * s)
    if s == 0:
        assert not x * s


@SUITE
@given(int_divisors, int_divisors, st.integers(-3, 3))
def test_int_weights_stay_ints(x, y, s):
    for result in (x, -x, x + y, x * s, s * (x + y) + -y):
        assert all(type(w) is int for w in result.terms.values())


@SUITE
@given(int_divisors, st.integers(2, 6))
def test_fraction_arithmetic_lands_back_on_ints(x, d):
    part = x * Fraction(1, d)
    assert_normal(part)
    for result in (part * d, sum([part] * d), part + part * (d - 1)):
        assert result == x
        assert all(type(w) is int for w in result.terms.values())


@SUITE
@given(st.dictionaries(symbols, st.sampled_from([0, Fraction(0), 1, Fraction(-2, 3), Fraction(4, 2)])))
def test_zero_weights_pruned(terms):
    x = SymbolicDivisor(terms)
    assert set(x.terms) == {s for s, w in terms.items() if w}
    assert bool(x) == any(terms.values())
    assert_normal(x)


@SUITE
@given(divisors, divisors, divisors)
def test_equal_values_hash_equal_and_json_roundtrip(x, y, z):
    assert hash((x + y) + z) == hash(x + (y + z))
    rebuilt = SymbolicDivisor(dict(reversed(list(x.terms.items()))))
    assert rebuilt == x and hash(rebuilt) == hash(x)
    back = parse_symbolic_entries(x.to_json_entries())
    assert back == x and hash(back) == hash(x)
    assert_normal(back)
