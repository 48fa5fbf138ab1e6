"""Exact special-cycle calculus on the Bruhat-Tits tree of a p-adic
hermitian plane, a formal Shimura lift on q-expansions, and symbolic
verifiers for the identity relating the orthogonal and unitary
special-cycle generating series.

Everything is exact: truncated p-adic integers with explicit precision
tracking, rationals via fractions.Fraction, and formal symbols for
divisor classes.  No floats enter any contract-bearing computation.
"""

from cyclelift.errors import (
    DegenerateVectorError,
    EmptyIntersectionError,
    HypothesisError,
    NotAdjacentError,
    PrecisionExhaustedError,
    SearchBoundExhaustedError,
    TruncationInsufficientError,
)

__all__ = [
    "DegenerateVectorError",
    "EmptyIntersectionError",
    "HypothesisError",
    "NotAdjacentError",
    "PrecisionExhaustedError",
    "SearchBoundExhaustedError",
    "TruncationInsufficientError",
]

__version__ = "0.1.0"
