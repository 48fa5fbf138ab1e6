"""Exception hierarchy shared by the whole package.

Every checked failure mode has its own class so that callers (and the
CLI exit-code mapping) can distinguish them without string matching.
"""


class CycleLiftError(Exception):
    """Base class for all package-specific errors."""


class DegenerateVectorError(CycleLiftError):
    """An operation requiring an anisotropic vector got an isotropic one."""


class SearchBoundExhaustedError(CycleLiftError):
    """An integer search (e.g. for an auxiliary prime) hit its bound."""


class EmptyIntersectionError(CycleLiftError):
    """A local equation was requested on a chart the cycle misses."""


class NotAdjacentError(CycleLiftError):
    """A superspecial chart was requested for non-neighbouring lattices."""


class TruncationInsufficientError(CycleLiftError):
    """A q-series coefficient beyond the stored truncation was needed."""


class HypothesisError(CycleLiftError):
    """Input violates the standing hypotheses (parity, inertness, ...)."""
