"""Algebra of SymbolicDivisor.  `+`, `*` and `-` build their weight maps
without going through the normalising constructor, so each law is
checked on random divisors, and each result against the constructor's
own normal form."""

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
weights = st.fractions(min_value=-4, max_value=4, max_denominator=6)
scalars = st.one_of(st.integers(-3, 3), weights)
divisors = st.dictionaries(symbols, weights, max_size=5).map(SymbolicDivisor)


def assert_normal(x):
    """Every weight is a nonzero Fraction, as the constructor leaves it."""
    for w in x.terms.values():
        assert type(w) is Fraction and w != 0
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
@given(st.dictionaries(symbols, st.sampled_from([0, Fraction(0), 1, Fraction(-2, 3)])))
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
