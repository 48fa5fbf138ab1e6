"""Exact truncated arithmetic in the inert quadratic extension o_{k,p}
and in the hermitian plane C.

Elements are residues modulo p^prec with per-element precision
tracking ("zealous" arithmetic): any valuation question that cannot be
decided below the carried precision raises PrecisionExhaustedError
rather than guessing.  delta = sqrt(Delta) is the element (0, 1); no
square root is ever extracted.

The hermitian plane C has the fixed epsilon-invariant basis {v0, v1}
with h(v0, v1) = -h(v1, v0) = delta and h(v0, v0) = h(v1, v1) = 0, so

    h(u, w) = delta * (u0 * conj(w1) - u1 * conj(w0)),

linear in u and conjugate-linear in w.
"""

from __future__ import annotations

from dataclasses import dataclass

from cyclelift.errors import DegenerateVectorError, PrecisionExhaustedError
from cyclelift.numth import is_prime, kronecker

DEFAULT_MIN_PRECISION = 8


def required_precision(t_max: int, radius: int) -> int:
    """Working precision for a computation whose norms have valuation
    up to ~2*t_max and which explores the tree out to `radius`."""
    return max(2 * (max(t_max, 0) + max(radius, 0)) + 8, DEFAULT_MIN_PRECISION)


class _Powers(dict):
    """p**k by exponent k, each computed on first use: the one power
    table of a context, shared by the element arithmetic below and the
    integer tree core."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        super().__init__()
        self.p = p

    def __missing__(self, k: int) -> int:
        value = self[k] = self.p**k
        return value


@dataclass(frozen=True)
class LocalContext:
    """Odd inert prime p, the nonresidue Delta, and working precision."""

    p: int
    delta_sq: int
    precision: int

    def __post_init__(self):
        if self.p == 2 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if kronecker(self.delta_sq, self.p) != -1:
            raise ValueError(
                f"Delta = {self.delta_sq} is not a nonresidue mod {self.p}"
                " (p must be inert)"
            )
        if self.precision < DEFAULT_MIN_PRECISION:
            raise ValueError(f"precision must be >= 8, got {self.precision}")
        object.__setattr__(self, "pows", _Powers(self.p))

    # -- element constructors -------------------------------------------------

    def elem(self, x: int, y: int = 0, prec: int | None = None) -> QuadLocalElem:
        prec = self.precision if prec is None else prec
        m = self.pows[prec]
        return QuadLocalElem(self, x % m, y % m, prec)

    def delta(self) -> QuadLocalElem:
        return self.elem(0, 1)

    def one(self) -> QuadLocalElem:
        return self.elem(1, 0)

    def zero(self) -> QuadLocalElem:
        return self.elem(0, 0)

    def vector(self, a0: QuadLocalElem, a1: QuadLocalElem, denom_exp: int = 0) -> VectorC:
        return VectorC(self, a0, a1, denom_exp)

    def vector_from_ints(
        self, a0: tuple[int, int], a1: tuple[int, int], denom_exp: int = 0
    ) -> VectorC:
        return VectorC(self, self.elem(*a0), self.elem(*a1), denom_exp)


class QuadLocalElem:
    """x + y*delta in o_{k,p}, known modulo p^prec; x and y are stored
    reduced mod p^prec, so zero at precision means x == y == 0."""

    __slots__ = ("ctx", "x", "y", "prec")

    def __init__(self, ctx: LocalContext, x: int, y: int, prec: int):
        self.ctx = ctx
        self.x = x
        self.y = y
        self.prec = prec

    def __repr__(self):
        return f"({self.x} + {self.y}*d mod {self.ctx.p}^{self.prec})"

    def __eq__(self, other):
        if not isinstance(other, QuadLocalElem):
            return NotImplemented
        prec = min(self.prec, other.prec)
        m = self.ctx.pows[prec]
        return (self.x - other.x) % m == 0 and (self.y - other.y) % m == 0

    def __hash__(self):
        raise TypeError("QuadLocalElem is not hashable (truncated value)")

    # -- ring operations ------------------------------------------------------

    def _wrap(self, x: int, y: int, prec: int) -> QuadLocalElem:
        m = self.ctx.pows[prec]
        return QuadLocalElem(self.ctx, x % m, y % m, prec)

    def add(self, other: QuadLocalElem) -> QuadLocalElem:
        prec = min(self.prec, other.prec)
        return self._wrap(self.x + other.x, self.y + other.y, prec)

    def sub(self, other: QuadLocalElem) -> QuadLocalElem:
        prec = min(self.prec, other.prec)
        return self._wrap(self.x - other.x, self.y - other.y, prec)

    def neg(self) -> QuadLocalElem:
        return self._wrap(-self.x, -self.y, self.prec)

    def mul(self, other: QuadLocalElem) -> QuadLocalElem:
        prec = min(self.prec, other.prec)
        d = self.ctx.delta_sq
        x = self.x * other.x + d * self.y * other.y
        y = self.x * other.y + self.y * other.x
        return self._wrap(x, y, prec)

    def mul_int(self, n: int) -> QuadLocalElem:
        return self._wrap(self.x * n, self.y * n, self.prec)

    def conj(self) -> QuadLocalElem:
        return self._wrap(self.x, -self.y, self.prec)

    # -- valuation and division ----------------------------------------------

    def is_zero(self) -> bool:
        """True iff the element vanishes at its carried precision."""
        m = self.ctx.pows[self.prec]
        return self.x % m == 0 and self.y % m == 0

    def valuation(self) -> int:
        """Exact p-adic valuation; raises PrecisionExhaustedError when
        the element is indistinguishable from 0 at carried precision."""
        if self.is_zero():
            raise PrecisionExhaustedError(
                f"valuation undecidable at precision {self.prec}", needed=self.prec + 1
            )
        p = self.ctx.p
        v = 0
        x, y = self.x, self.y
        while x % p == 0 and y % p == 0:
            x //= p
            y //= p
            v += 1
        return v

    def valuation_or_none(self) -> int | None:
        """Valuation, or None when zero at carried precision."""
        return None if self.is_zero() else self.valuation()

    def norm_int(self) -> int:
        """The norm x^2 - Delta*y^2, a residue mod p^prec."""
        m = self.ctx.pows[self.prec]
        return (self.x * self.x - self.ctx.delta_sq * self.y * self.y) % m

    def unit_inverse(self) -> QuadLocalElem:
        """Inverse of a unit (valuation 0): conj(e) / norm(e)."""
        n = self.norm_int()
        if n % self.ctx.p == 0:
            raise ValueError("unit_inverse of a non-unit")
        m = self.ctx.pows[self.prec]
        ninv = pow(n, -1, m)
        return self._wrap(self.x * ninv, -self.y * ninv, self.prec)

    def divide_p_power(self, k: int) -> QuadLocalElem:
        """Exact division by p^k; requires valuation >= k and costs k
        digits of precision."""
        if k == 0:
            return self
        pk = self.ctx.pows[k]
        if self.prec <= k:
            raise PrecisionExhaustedError(
                f"cannot divide by p^{k} at precision {self.prec}", needed=k + 1
            )
        if self.x % pk or self.y % pk:
            raise ValueError(f"element has valuation below {k}")
        return self._wrap(self.x // pk, self.y // pk, self.prec - k)

    def reduce_to(self, prec: int) -> QuadLocalElem:
        if prec < 1:
            raise PrecisionExhaustedError(
                "no residual precision left", needed=self.prec + (1 - prec)
            )
        if prec >= self.prec:
            return self
        return self._wrap(self.x, self.y, prec)

    def residue(self) -> tuple[int, int]:
        """Image in the residue field, as a pair mod p."""
        return (self.x % self.ctx.p, self.y % self.ctx.p)


class VectorC:
    """p^(-denom_exp) * (a0 * v0 + a1 * v1) in the hermitian plane.

    Normalized so that min(val(a0), val(a1)) = 0 unless the vector is
    zero at precision; p-power scaling therefore only moves denom_exp
    and is lossless.
    """

    __slots__ = ("ctx", "a0", "a1", "denom_exp")

    def __init__(self, ctx: LocalContext, a0: QuadLocalElem, a1: QuadLocalElem, denom_exp: int = 0):
        v0 = a0.valuation_or_none()
        v1 = a1.valuation_or_none()
        if v0 is None and v1 is None:
            shift = 0
        else:
            shift = min(v for v in (v0, v1) if v is not None)
        if shift:
            # A coordinate that vanishes at its carried precision must
            # still be certifiably divisible by p^shift.
            a0 = a0.divide_p_power(shift) if v0 is not None else a0.reduce_to(a0.prec - shift)
            a1 = a1.divide_p_power(shift) if v1 is not None else a1.reduce_to(a1.prec - shift)
            denom_exp -= shift
        self.ctx = ctx
        self.a0 = a0
        self.a1 = a1
        self.denom_exp = denom_exp

    def __repr__(self):
        return f"p^-{self.denom_exp}*[{self.a0}, {self.a1}]"

    def is_zero(self) -> bool:
        return self.a0.is_zero() and self.a1.is_zero()

    def scale_p_power(self, k: int) -> VectorC:
        """The vector p^k * self (exact: only the denominator moves)."""
        return VectorC(self.ctx, self.a0, self.a1, self.denom_exp - k)

    def scale_unit(self, u: QuadLocalElem) -> VectorC:
        return VectorC(self.ctx, self.a0.mul(u), self.a1.mul(u), self.denom_exp)


@dataclass(frozen=True)
class QFormValue:
    """ord_p q(b) together with the residue class of the unit part;
    valuation None means isotropic within working precision."""

    valuation: int | None
    unit_residue: int | None

    @property
    def is_isotropic(self) -> bool:
        return self.valuation is None


def herm(u: VectorC, w: VectorC) -> tuple[QuadLocalElem, int]:
    """Hermitian form h(u, w) = p^exp * value in the fixed basis;
    value = delta * (u0 * conj(w1) - u1 * conj(w0)), exp the combined
    denominator exponent."""
    if u.ctx is not w.ctx and u.ctx != w.ctx:
        raise ValueError("vectors from different contexts")
    inner = u.a0.mul(w.a1.conj()).sub(u.a1.mul(w.a0.conj()))
    value = u.ctx.delta().mul(inner)
    return value, -(u.denom_exp + w.denom_exp)


def qform(b: VectorC) -> QFormValue:
    """The quadratic form q(b) = h(b, b), a rational p-adic number.

    The delta-component of the result vanishes identically (exactly,
    not just within precision).  Reports valuation None for vectors
    isotropic at working precision.
    """
    value, exp = herm(b, b)
    if value.y % b.ctx.pows[value.prec] != 0:
        raise AssertionError("q(b) acquired a delta-component; hermitian bug")
    if value.is_zero():
        return QFormValue(valuation=None, unit_residue=None)
    v = value.valuation()
    unit = (value.x // b.ctx.pows[v]) % b.ctx.p
    return QFormValue(valuation=v + exp, unit_residue=unit)


def ord_qform(b: VectorC) -> int:
    """Valuation of q(b); raises DegenerateVectorError on isotropic b."""
    q = qform(b)
    if q.is_isotropic:
        raise DegenerateVectorError("isotropic vector where anisotropic required")
    return q.valuation


def epsilon(b: VectorC) -> VectorC:
    """The Galois-semilinear involution: coordinatewise conjugation in
    the epsilon-invariant basis.  Satisfies q(epsilon(b)) = -q(b)."""
    return VectorC(b.ctx, b.a0.conj(), b.a1.conj(), b.denom_exp)
