"""Exact arithmetic in Z[delta], inside the ring of integers o_{k,p} of
the inert quadratic extension, and in the hermitian plane C.

An element is x + y*delta with rational integers x and y, and
delta = sqrt(Delta) is the element (0, 1); no square root is ever
extracted and no digit is ever truncated, so every valuation is the
exact valuation of an element of Z[delta] (None for zero).  Every
vector the program meets is exact: the CLI parses integers, the random
generators draw them, and the calculus only scales by powers of p and
conjugates.

The hermitian plane C has the fixed epsilon-invariant basis {v0, v1}
with h(v0, v1) = -h(v1, v0) = delta and h(v0, v0) = h(v1, v1) = 0, so

    h(u, w) = delta * (u0 * conj(w1) - u1 * conj(w0)),

linear in u and conjugate-linear in w.  So for b = p^-e (a0 v0 + a1 v1)
with ai = xi + yi*delta, q(b) = h(b, b) = 2 Delta (x1 y0 - x0 y1) p^(-2e),
and as p is odd and Delta a unit, `qform` reads ord q(b) off one integer.
"""

from __future__ import annotations

from dataclasses import dataclass

from cyclelift.errors import DegenerateVectorError
from cyclelift.numth import is_prime, kronecker


def pval(p: int, x: int, y: int) -> int | None:
    """The p-adic valuation of x + y*delta; None for zero."""
    if not (x or y):
        return None
    v = 0
    while not (x % p or y % p):
        x //= p
        y //= p
        v += 1
    return v


@dataclass(frozen=True)
class LocalContext:
    """Odd inert prime p and the nonresidue Delta."""

    p: int
    delta_sq: int

    def __post_init__(self):
        if self.p == 2 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if kronecker(self.delta_sq, self.p) != -1:
            raise ValueError(
                f"Delta = {self.delta_sq} is not a nonresidue mod {self.p}"
                " (p must be inert)"
            )

    def elem(self, x: int, y: int = 0) -> QuadLocalElem:
        return QuadLocalElem(self, x, y)

    def delta(self) -> QuadLocalElem:
        return QuadLocalElem(self, 0, 1)

    def vector_from_ints(
        self, a0: tuple[int, int], a1: tuple[int, int], denom_exp: int = 0
    ) -> VectorC:
        return VectorC(self, self.elem(*a0), self.elem(*a1), denom_exp)


class QuadLocalElem:
    """x + y*delta in Z[delta], exactly."""

    __slots__ = ("ctx", "x", "y")

    def __init__(self, ctx: LocalContext, x: int, y: int = 0):
        self.ctx = ctx
        self.x = x
        self.y = y

    def __repr__(self):
        return f"({self.x} + {self.y}*d)"

    def __eq__(self, other):
        if not isinstance(other, QuadLocalElem):
            return NotImplemented
        return self.x == other.x and self.y == other.y

    # -- ring operations ------------------------------------------------------

    def add(self, other: QuadLocalElem) -> QuadLocalElem:
        return QuadLocalElem(self.ctx, self.x + other.x, self.y + other.y)

    def sub(self, other: QuadLocalElem) -> QuadLocalElem:
        return QuadLocalElem(self.ctx, self.x - other.x, self.y - other.y)

    def neg(self) -> QuadLocalElem:
        return QuadLocalElem(self.ctx, -self.x, -self.y)

    def mul(self, other: QuadLocalElem) -> QuadLocalElem:
        x = self.x * other.x + self.ctx.delta_sq * self.y * other.y
        y = self.x * other.y + self.y * other.x
        return QuadLocalElem(self.ctx, x, y)

    def mul_int(self, n: int) -> QuadLocalElem:
        return QuadLocalElem(self.ctx, self.x * n, self.y * n)

    def conj(self) -> QuadLocalElem:
        return QuadLocalElem(self.ctx, self.x, -self.y)

    # -- valuation and division ----------------------------------------------

    def valuation(self) -> int | None:
        """The p-adic valuation; None for zero."""
        return pval(self.ctx.p, self.x, self.y)

    def unit_inverse(self, k: int) -> QuadLocalElem:
        """The inverse of a unit (valuation 0) modulo p^k, reduced:
        conj(e) / norm(e)."""
        n = self.x * self.x - self.ctx.delta_sq * self.y * self.y
        if n % self.ctx.p == 0:
            raise ValueError("unit_inverse of a non-unit")
        m = self.ctx.p**k
        ninv = pow(n, -1, m)
        return QuadLocalElem(self.ctx, self.x * ninv % m, -self.y * ninv % m)

    def divide_p_power(self, k: int) -> QuadLocalElem:
        """Exact division by p^k; requires valuation >= k."""
        pk = self.ctx.p**k
        if self.x % pk or self.y % pk:
            raise ValueError(f"element has valuation below {k}")
        return QuadLocalElem(self.ctx, self.x // pk, self.y // pk)

    def residue(self) -> tuple[int, int]:
        """Image in the residue field, as a pair mod p."""
        return (self.x % self.ctx.p, self.y % self.ctx.p)


class VectorC:
    """p^(-denom_exp) * (a0 * v0 + a1 * v1) in the hermitian plane.

    Normalized so that min(val(a0), val(a1)) = 0 unless the vector is
    zero; p-power scaling therefore only moves denom_exp.
    """

    __slots__ = ("ctx", "a0", "a1", "denom_exp")

    def __init__(self, ctx: LocalContext, a0: QuadLocalElem, a1: QuadLocalElem, denom_exp: int = 0):
        shift = min((v for v in (a0.valuation(), a1.valuation()) if v is not None), default=0)
        if shift:
            a0, a1 = a0.divide_p_power(shift), a1.divide_p_power(shift)
            denom_exp -= shift
        self.ctx = ctx
        self.a0 = a0
        self.a1 = a1
        self.denom_exp = denom_exp

    def __repr__(self):
        return f"p^-{self.denom_exp}*[{self.a0}, {self.a1}]"

    def scale_p_power(self, k: int) -> VectorC:
        """The vector p^k * self (exact: only the denominator moves)."""
        return VectorC(self.ctx, self.a0, self.a1, self.denom_exp - k)


def herm(u: VectorC, w: VectorC) -> tuple[QuadLocalElem, int]:
    """Hermitian form h(u, w) = p^exp * value in the fixed basis;
    value = delta * (u0 * conj(w1) - u1 * conj(w0)), exp the combined
    denominator exponent."""
    if u.ctx is not w.ctx and u.ctx != w.ctx:
        raise ValueError("vectors from different contexts")
    inner = u.a0.mul(w.a1.conj()).sub(u.a1.mul(w.a0.conj()))
    return u.ctx.delta().mul(inner), -(u.denom_exp + w.denom_exp)


def qform(b: VectorC) -> int | None:
    """ord_p q(b), from q(b) = 2 Delta (x1 y0 - x0 y1) p^(-2e) (see the
    module docstring); None for isotropic b."""
    a0, a1 = b.a0, b.a1
    v = pval(b.ctx.p, a1.x * a0.y - a0.x * a1.y, 0)
    return None if v is None else v - 2 * b.denom_exp


def ord_qform(b: VectorC) -> int:
    """Valuation of q(b); raises DegenerateVectorError on isotropic b."""
    q = qform(b)
    if q is None:
        raise DegenerateVectorError("isotropic vector where anisotropic required")
    return q


def epsilon(b: VectorC) -> VectorC:
    """The Galois-semilinear involution: coordinatewise conjugation in
    the epsilon-invariant basis.  Satisfies q(epsilon(b)) = -q(b)."""
    return VectorC(b.ctx, b.a0.conj(), b.a1.conj(), b.denom_exp)
