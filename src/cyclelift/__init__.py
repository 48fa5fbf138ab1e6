"""Exact special-cycle calculus on the Bruhat-Tits tree of a p-adic
hermitian plane, a formal Shimura lift on q-expansions, and symbolic
verifiers for the identity relating the orthogonal and unitary
special-cycle generating series.

Everything is exact: p-adic vectors are elements of Z[delta] over
p-power denominators, so no valuation is ever truncated; rationals are
fractions.Fraction, and divisor classes are formal symbols.  No floats
enter any contract-bearing computation.
"""

from cyclelift.errors import (
    DegenerateVectorError,
    EmptyIntersectionError,
    HypothesisError,
    NotAdjacentError,
    SearchBoundExhaustedError,
    TruncationInsufficientError,
)

__all__ = [
    "DegenerateVectorError",
    "EmptyIntersectionError",
    "HypothesisError",
    "NotAdjacentError",
    "SearchBoundExhaustedError",
    "TruncationInsufficientError",
]

__version__ = "0.1.0"
