"""Independent oracles used by the test suite: brute-force conic
solvability for Hilbert symbols, ideal-class enumeration for class
numbers, residue-square tables, a truncated p-adic ring and the
object-path Bruhat-Tits tree core on it, breadth-first searches for
tree distance and path-word labels, the `cycle` output rendered by the
json encoder, the whole-file series reader, the L-value at s = 1 by
Gauss sums (numerically) and by the 2^(number of prime factors)
rational, the r-formula, local-compare and chart sweeps that build
every ball vertex and test its membership directly, and the remark-identity
verifier with every weight a Fraction in true units.

These deliberately avoid the code paths they check.
"""

import cmath
import json
from fractions import Fraction
from math import gcd, isqrt

from dataclasses import dataclass

from cyclelift import bttree, localcycles, sweeps
from cyclelift.errors import CycleLiftError, DegenerateVectorError, HypothesisError
from cyclelift.identity import Mismatch, SymbolicDivisor, VerificationReport
from cyclelift.numth import is_prime, kronecker
from cyclelift.qseries import (
    FormalSeries,
    ShimuraParams,
    chi_t,
    op_phi_set,
    series_difference_support,
)
from cyclelift.padic import LocalContext, qform
from cyclelift.quadfield import (
    QuadField,
    check_discriminant_hypotheses,
    lvalue_closed_form,
    optimal_embedding_count,
)


def squares_mod(n: int) -> set:
    return {x * x % n for x in range(n)}


def _clear_square_denominator(x) -> int:
    f = Fraction(x)
    return f.numerator * f.denominator


def _strip_square_powers(n: int, p: int) -> int:
    while n % (p * p) == 0:
        n //= p * p
    return n


def solvable_conic_mod(a: int, b: int, modulus: int) -> bool:
    """Whether a x^2 + b y^2 = z^2 has a solution mod `modulus` with at
    least one unit coordinate.  Homogeneity lets us pin a unit
    coordinate to 1, so three O(modulus) scans with set lookups cover
    every primitive solution."""
    sq = squares_mod(modulus)
    a_squares = {a * x * x % modulus for x in range(modulus)}
    for y in range(modulus):
        by2 = b * y * y
        if (a + by2) % modulus in sq:  # x = 1
            return True
        if (a * y * y + b) % modulus in sq:  # y = 1
            return True
        if (1 - by2) % modulus in a_squares:  # z = 1
            return True
    return False


def hilbert_bruteforce(a, b, place) -> int:
    """Hilbert symbol by brute-force solvability: mod l^3 for odd l,
    mod 2^6 at 2, sign inspection at infinity.  Arguments may be
    rationals; they are cleared to integers by square factors."""
    ai = _clear_square_denominator(a)
    bi = _clear_square_denominator(b)
    if place == "infinity":
        return -1 if (ai < 0 and bi < 0) else 1
    p = place
    ai = _strip_square_powers(ai, p)
    bi = _strip_square_powers(bi, p)
    modulus = 64 if p == 2 else p**3
    return 1 if solvable_conic_mod(ai % modulus, bi % modulus, modulus) else -1


# -- ideal arithmetic in Z[sqrt(delta)] ------------------------------------


def _module_hnf(columns: list) -> tuple[int, int, int]:
    """Column HNF of a full-rank Z-module spanned by (x, y) columns in
    the basis (1, sqrt(delta)): returns (g, h, k) for the basis
    {(g, 0), (h, k)} with k > 0 and 0 <= h < g."""
    cols = [list(c) for c in columns]
    while True:
        nonzero = [c for c in cols if c[1] != 0]
        if len(nonzero) <= 1:
            break
        pivot = min(nonzero, key=lambda c: abs(c[1]))
        for c in nonzero:
            if c is pivot:
                continue
            q = c[1] // pivot[1]
            c[0] -= q * pivot[0]
            c[1] -= q * pivot[1]
    carrier = next((c for c in cols if c[1] != 0), None)
    if carrier is None:
        raise ValueError("module is not full rank")
    if carrier[1] < 0:
        carrier = [-carrier[0], -carrier[1]]
    g = 0
    for c in cols:
        if c[1] == 0:
            g = gcd(g, abs(c[0]))
    if g == 0:
        raise ValueError("module is not full rank")
    return g, carrier[0] % g, carrier[1]


class Ideal:
    """Integral ideal of Z[sqrt(delta)] as a Z-module g Z + (h + k sqrt(delta)) Z."""

    def __init__(self, delta: int, g: int, h: int, k: int):
        self.delta = delta
        self.g, self.h, self.k = g, h, k

    @classmethod
    def from_ab(cls, delta: int, a: int, b: int) -> "Ideal":
        # a Z + (b + sqrt(delta)) Z; requires a | b^2 - delta.
        assert (b * b - delta) % a == 0
        return cls(delta, a, b % a, 1)

    def conjugate(self) -> "Ideal":
        return Ideal(self.delta, self.g, (-self.h) % self.g, self.k)

    def norm(self) -> int:
        return self.g * self.k

    def generators(self):
        return [(self.g, 0), (self.h, self.k)]

    def multiply(self, other: "Ideal") -> "Ideal":
        d = self.delta
        cols = []
        for x1, y1 in self.generators():
            for x2, y2 in other.generators():
                # (x1 + y1 w)(x2 + y2 w) with w^2 = delta
                cols.append((x1 * x2 + d * y1 * y2, x1 * y2 + y1 * x2))
        g, h, k = _module_hnf(cols)
        return Ideal(d, g, h, k)

    def contains(self, x: int, y: int) -> bool:
        if y % self.k:
            return False
        b = y // self.k
        return (x - b * self.h) % self.g == 0

    def is_principal(self) -> bool:
        n = self.norm()
        adelta = -self.delta
        y = 0
        while adelta * y * y <= n:
            rem = n - adelta * y * y
            x = isqrt(rem)
            if x * x == rem:
                for sy in ((y,) if y == 0 else (y, -y)):
                    if self.contains(x, sy) or self.contains(-x, sy):
                        return True
            y += 1
        return False


def ideals_equivalent(i1: Ideal, i2: Ideal) -> bool:
    return i1.multiply(i2.conjugate()).is_principal()


def class_number_by_ideals(delta: int) -> int:
    """Class number by enumerating primitive ideals a Z + (b + sqrt(delta)) Z
    with a below the Minkowski bound and grouping them under proper
    equivalence (I ~ J iff I conj(J) is principal)."""
    disc = 4 * delta
    bound = int(2 * isqrt(-disc) / 3.14159) + 2
    reps: list[Ideal] = []
    for a in range(1, bound + 1):
        for b in range(a):
            if (b * b - delta) % a != 0:
                continue
            ideal = Ideal.from_ab(delta, a, b)
            if not any(ideals_equivalent(ideal, rep) for rep in reps):
                reps.append(ideal)
    return len(reps)


# -- the truncated ring ---------------------------------------------------------
#
# x + y*delta in o_{k,p} known modulo p^prec, with per-element precision
# tracking ("zealous" arithmetic): sums and products carry the smaller
# precision, exact division by p^k costs k digits, and a valuation that the
# carried precision cannot decide raises TruncationExhausted rather than
# guessing.  This is the arithmetic cyclelift.padic used before it became
# exact; the object-path tree core below runs on it, so it shares no
# arithmetic with cyclelift.bttree, which must agree with it wherever it
# returns.


class TruncationExhausted(CycleLiftError):
    """A valuation decision of the truncated ring hit its modulus p^N;
    `needed` is a precision that would decide it, when known."""

    def __init__(self, message: str = "", needed: int | None = None):
        super().__init__(message or "precision exhausted")
        self.needed = needed


MIN_PRECISION = 8

# Digits the truncated HNF keeps past its second pivot (see
# ObjectLattice.from_vectors and central_precision).
HNF_GUARD = 4


@dataclass(frozen=True)
class TruncatedContext:
    """Odd inert prime p, the nonresidue Delta, and working precision."""

    p: int
    delta_sq: int
    precision: int

    def __post_init__(self):
        if self.p == 2 or not is_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if kronecker(self.delta_sq, self.p) != -1:
            raise ValueError(f"Delta = {self.delta_sq} is not a nonresidue mod {self.p}")
        if self.precision < MIN_PRECISION:
            raise ValueError(f"precision must be >= {MIN_PRECISION}, got {self.precision}")

    def elem(self, x: int, y: int = 0, prec: int | None = None) -> "TruncatedElem":
        prec = self.precision if prec is None else prec
        m = self.p**prec
        return TruncatedElem(self, x % m, y % m, prec)

    def delta(self) -> "TruncatedElem":
        return self.elem(0, 1)

    def one(self) -> "TruncatedElem":
        return self.elem(1, 0)

    def zero(self) -> "TruncatedElem":
        return self.elem(0, 0)

    def vector(self, a0, a1, denom_exp: int = 0) -> "TruncatedVector":
        return TruncatedVector(self, a0, a1, denom_exp)

    def vector_from_ints(self, a0, a1, denom_exp: int = 0) -> "TruncatedVector":
        return TruncatedVector(self, self.elem(*a0), self.elem(*a1), denom_exp)


class TruncatedElem:
    """x + y*delta known modulo p^prec; x and y are stored reduced mod
    p^prec, so zero at precision means x == y == 0."""

    __slots__ = ("ctx", "x", "y", "prec")

    def __init__(self, ctx: TruncatedContext, x: int, y: int, prec: int):
        self.ctx = ctx
        self.x = x
        self.y = y
        self.prec = prec

    def __repr__(self):
        return f"({self.x} + {self.y}*d mod {self.ctx.p}^{self.prec})"

    def __eq__(self, other):
        if not isinstance(other, TruncatedElem):
            return NotImplemented
        m = self.ctx.p ** min(self.prec, other.prec)
        return (self.x - other.x) % m == 0 and (self.y - other.y) % m == 0

    __hash__ = None

    def _wrap(self, x: int, y: int, prec: int) -> "TruncatedElem":
        m = self.ctx.p**prec
        return TruncatedElem(self.ctx, x % m, y % m, prec)

    def add(self, other):
        return self._wrap(self.x + other.x, self.y + other.y, min(self.prec, other.prec))

    def sub(self, other):
        return self._wrap(self.x - other.x, self.y - other.y, min(self.prec, other.prec))

    def neg(self):
        return self._wrap(-self.x, -self.y, self.prec)

    def mul(self, other):
        d = self.ctx.delta_sq
        x = self.x * other.x + d * self.y * other.y
        y = self.x * other.y + self.y * other.x
        return self._wrap(x, y, min(self.prec, other.prec))

    def mul_int(self, n: int):
        return self._wrap(self.x * n, self.y * n, self.prec)

    def conj(self):
        return self._wrap(self.x, -self.y, self.prec)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def valuation(self) -> int:
        """Exact valuation; raises TruncationExhausted when the element
        is indistinguishable from 0 at its precision."""
        if self.is_zero():
            raise TruncationExhausted(
                f"valuation undecidable at precision {self.prec}", needed=self.prec + 1
            )
        p = self.ctx.p
        v, x, y = 0, self.x, self.y
        while x % p == 0 and y % p == 0:
            x //= p
            y //= p
            v += 1
        return v

    def valuation_or_none(self) -> int | None:
        return None if self.is_zero() else self.valuation()

    def unit_inverse(self):
        n = (self.x * self.x - self.ctx.delta_sq * self.y * self.y) % self.ctx.p**self.prec
        if n % self.ctx.p == 0:
            raise ValueError("unit_inverse of a non-unit")
        ninv = pow(n, -1, self.ctx.p**self.prec)
        return self._wrap(self.x * ninv, -self.y * ninv, self.prec)

    def divide_p_power(self, k: int):
        """Exact division by p^k; costs k digits of precision."""
        if k == 0:
            return self
        pk = self.ctx.p**k
        if self.prec <= k:
            raise TruncationExhausted(
                f"cannot divide by p^{k} at precision {self.prec}", needed=k + 1
            )
        if self.x % pk or self.y % pk:
            raise ValueError(f"element has valuation below {k}")
        return self._wrap(self.x // pk, self.y // pk, self.prec - k)

    def reduce_to(self, prec: int):
        if prec < 1:
            raise TruncationExhausted(
                "no residual precision left", needed=self.prec + (1 - prec)
            )
        return self if prec >= self.prec else self._wrap(self.x, self.y, prec)

    def residue(self) -> tuple[int, int]:
        return (self.x % self.ctx.p, self.y % self.ctx.p)


class TruncatedVector:
    """p^(-denom_exp) * (a0 * v0 + a1 * v1), normalized so that
    min(val(a0), val(a1)) = 0 unless zero at precision."""

    __slots__ = ("ctx", "a0", "a1", "denom_exp")

    def __init__(self, ctx, a0, a1, denom_exp: int = 0):
        v0, v1 = a0.valuation_or_none(), a1.valuation_or_none()
        shift = min((v for v in (v0, v1) if v is not None), default=0)
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

    def scale_p_power(self, k: int) -> "TruncatedVector":
        return TruncatedVector(self.ctx, self.a0, self.a1, self.denom_exp - k)


def truncated_herm(u: TruncatedVector, w: TruncatedVector):
    """h(u, w) = p^exp * value, value = delta (u0 conj(w1) - u1 conj(w0))."""
    inner = u.a0.mul(w.a1.conj()).sub(u.a1.mul(w.a0.conj()))
    return u.ctx.delta().mul(inner), -(u.denom_exp + w.denom_exp)


def truncated_qform(b: TruncatedVector) -> int | None:
    """ord_p q(b), or None when q(b) vanishes at working precision."""
    value, exp = truncated_herm(b, b)
    return None if value.is_zero() else value.valuation() + exp


def truncated_epsilon(b: TruncatedVector) -> TruncatedVector:
    return TruncatedVector(b.ctx, b.a0.conj(), b.a1.conj(), b.denom_exp)


def truncate(ctx: TruncatedContext, b) -> TruncatedVector:
    """An exact cyclelift.padic vector read at ctx's working precision."""
    return ctx.vector_from_ints((b.a0.x, b.a0.y), (b.a1.x, b.a1.y), b.denom_exp)


def agrees(exact, vec: TruncatedVector) -> bool:
    """Whether an exact cyclelift.padic vector equals a truncated one in
    every digit the truncated one knows."""
    p = vec.ctx.p
    top = max(exact.denom_exp, vec.denom_exp)
    s, t = p ** (top - exact.denom_exp), p ** (top - vec.denom_exp)
    for a, b in ((exact.a0, vec.a0), (exact.a1, vec.a1)):
        m = p ** (b.prec + top - vec.denom_exp)
        if (a.x * s - b.x * t) % m or (a.y * s - b.y * t) % m:
            return False
    return True


def central_precision(p: int, *coords: int) -> int:
    """A working precision at which `central_lattice` decides every
    valuation for p^-e ((x0 + y0 d) v0 + (x1 + y1 d) v1) with integer
    coords (x0, y0, x1, y1): 3L + HNF_GUARD - 1, and at least
    MIN_PRECISION, for L base-p digits in the largest |coordinate|.  The
    key it gives does not depend on the precision."""
    # Proof.  A nonzero a_i = x_i + y_i d has v(a_i) <= L - 1, and
    # D = x1 y0 - x0 y1 has p^v(D) <= |D| < 2 p^(2L), so v(D) <= 2L.  At
    # precision P, the vector divides out s = min v(a_i) <= L - 1, leaving
    # Q = P - s digits; q(b) is 2 Delta D / p^(2s) over a p-power, so
    # truncated_qform decides v(q) = v(D) - 2s < Q (D = 0 is isotropic), and
    # the rescaling in central_lattice moves only the denominator.
    # from_vectors(b0, epsilon(b0)) pivots on a0 (a0 = 0 gives D = 0) at
    # a = v(a0) - s; the second pivot z = 2 D d / (p^(2s) a0) has valuation
    # B = v(D) - 2s - a and keeps Q - 2a digits, and w keeps Q - a.  The guard
    # Q - 2a >= B + HNF_GUARD, i.e. P >= v(D) + v(a0) - 2s + HNF_GUARD, holds
    # at P = 3L + HNF_GUARD - 1; it decides v(z) and leaves w its B digits:
    # every digit of the key.
    n, digits = max(map(abs, coords)), 0
    while n:
        n //= p
        digits += 1
    return max(3 * digits + HNF_GUARD - 1, MIN_PRECISION)


# -- the object-path tree core ------------------------------------------------
#
# The Bruhat-Tits tree operations on TruncatedElem / TruncatedVector objects,
# as cyclelift.bttree computed them before its integer core: the reference
# the property suite compares the exact core against (keys, neighbour
# order, r-invariants, coordinates) wherever it returns.  Its from_vectors is
# an element-wise HNF at working precision, the core's an HNF modulo the
# determinant; the neighbour, r-invariant, coordinate and Hensel basis paths
# are independent of the core as well.


class HyperbolicBasisError(CycleLiftError):
    """The object core found no hyperbolic basis of a lattice: its
    canonical offset has a delta part, or the Hensel search found no
    isotropic direction.  Impossible for a genuine vertex lattice, so
    raising signals a canonical-form bug."""


class ObjectLattice:
    """An o_{k,p}-lattice in C in canonical form.

    Instances are immutable after construction; equality and hashing
    use the canonical tuple.  `vtype` is 0 or 2 for vertex lattices and
    None for other lattices (certified against the dual on first use).
    """

    __slots__ = ("ctx", "denom_exp", "piv0", "piv1", "off", "_vtype", "_hyperbolic")

    def __init__(self, ctx, denom_exp, piv0, piv1, off, _vtype=-1, _hyperbolic=None):
        self.ctx = ctx
        self.denom_exp = denom_exp
        self.piv0 = piv0
        self.piv1 = piv1
        self.off = off  # pair of ints, reduced mod p^piv1
        self._vtype = _vtype  # -1 = not yet certified
        self._hyperbolic = _hyperbolic

    # -- construction ----------------------------------------------------------

    @classmethod
    def from_vectors(cls, u: TruncatedVector, v: TruncatedVector, _vtype=-1, _hyperbolic=None) -> "ObjectLattice":
        """Canonicalize the lattice spanned by two vectors (HNF with
        p-power pivots plus denominator normalization)."""
        ctx = u.ctx
        p = ctx.p
        e = max(u.denom_exp, v.denom_exp)
        m00 = u.a0.mul_int(p ** (e - u.denom_exp))
        m10 = u.a1.mul_int(p ** (e - u.denom_exp))
        m01 = v.a0.mul_int(p ** (e - v.denom_exp))
        m11 = v.a1.mul_int(p ** (e - v.denom_exp))

        t0 = m00.valuation_or_none()
        t1 = m01.valuation_or_none()
        if t0 is None and t1 is None:
            # Both generators lie in span(v1): rank-1 within precision.
            raise DegenerateVectorError("degenerate lattice (rank < 2 at precision)")
        if t1 is not None and (t0 is None or t1 < t0):
            m00, m01 = m01, m00
            m10, m11 = m11, m10
            a = t1
        else:
            a = t0

        unit0 = m00.divide_p_power(a)
        inv0 = unit0.unit_inverse()
        lam = m01.mul(inv0).divide_p_power(a)
        z = m11.sub(lam.mul(m10))
        b = z.valuation()  # PrecisionExhausted if undecidable
        w = m10.mul(inv0)  # column 0 scaled so its first entry is p^a

        if min(w.prec, z.prec) < b + HNF_GUARD:
            raise TruncationExhausted(
                "pivot valuations too close to working precision",
                needed=a + b + HNF_GUARD,
            )

        # Extract content so that min(a, b, val(w)) = 0.
        wv = w.valuation_or_none()
        t = min(a, b) if wv is None else min(a, b, wv)
        if t:
            a -= t
            b -= t
            e -= t
            w = w.divide_p_power(t)
        pb = p**b
        off = (w.x % pb, w.y % pb)
        return cls(ctx, e, a, b, off, _vtype=_vtype, _hyperbolic=_hyperbolic)

    @property
    def key(self) -> tuple:
        return (self.denom_exp, self.piv0, self.piv1, self.off)

    def describe(self) -> dict:
        """Canonical-form data in JSON-friendly shape."""
        return {
            "denom_exp": self.denom_exp,
            "pivots": [self.piv0, self.piv1],
            "off": list(self.off),
        }

    def __eq__(self, other):
        if not isinstance(other, ObjectLattice):
            return NotImplemented
        return self.key == other.key and self.ctx == other.ctx

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        e, a, b, (wx, wy) = self.denom_exp, self.piv0, self.piv1, self.off
        return f"Lattice(p^-{e} * span[(p^{a}, {wx}+{wy}d), (0, p^{b})])"

    # -- basic data --------------------------------------------------------

    def basis(self) -> tuple[TruncatedVector, TruncatedVector]:
        """The canonical-form generators as ambient vectors."""
        ctx = self.ctx
        p = ctx.p
        g1 = ctx.vector_from_ints((p**self.piv0, 0), self.off, self.denom_exp)
        g2 = ctx.vector_from_ints((0, 0), (p**self.piv1, 0), self.denom_exp)
        return g1, g2

    def det_valuation(self) -> int:
        """Valuation of the basis determinant (a lattice invariant)."""
        return self.piv0 + self.piv1 - 2 * self.denom_exp

    def scale_p_power(self, k: int) -> "ObjectLattice":
        """The lattice p^k * self."""
        return ObjectLattice(
            self.ctx, self.denom_exp - k, self.piv0, self.piv1, self.off
        )

    # -- duality and type --------------------------------------------------

    def dual(self) -> "ObjectLattice":
        """The dual lattice under h, in canonical form; an involution."""
        g1, g2 = self.basis()
        # Integral part M has columns (p^a, w), (0, p^b); denominator e.
        ctx = self.ctx
        p = ctx.p
        m = [
            [ctx.elem(p**self.piv0), ctx.elem(0)],
            [ctx.elem(*self.off), ctx.elem(p**self.piv1)],
        ]
        delta = ctx.delta()
        # A = G * conj(M) with G = [[0, delta], [-delta, 0]]; T = A^t.
        a00 = delta.mul(m[1][0].conj())
        a01 = delta.mul(m[1][1].conj())
        a10 = delta.mul(m[0][0].conj()).neg()
        a11 = delta.mul(m[0][1].conj()).neg()
        t00, t01, t10, t11 = a00, a10, a01, a11
        det = t00.mul(t11).sub(t01.mul(t10))
        dv = det.valuation()
        dunit_inv = det.divide_p_power(dv).unit_inverse()
        # Columns of adj(T) * dunit_inv, with denominator exponent dv - e.
        c0 = TruncatedVector(ctx, t11.mul(dunit_inv), t10.neg().mul(dunit_inv), dv - self.denom_exp)
        c1 = TruncatedVector(ctx, t01.neg().mul(dunit_inv), t00.mul(dunit_inv), dv - self.denom_exp)
        return ObjectLattice.from_vectors(c0, c1)

    @property
    def vtype(self) -> int | None:
        """0 if self-dual, 2 if the dual is p * self, else None."""
        if self._vtype == -1:
            dual_key = self.dual().key
            if dual_key == self.key:
                self._vtype = 0
            elif dual_key == self.scale_p_power(1).key:
                self._vtype = 2
            else:
                self._vtype = None
        return self._vtype

    def require_vertex(self) -> int:
        vt = self.vtype
        if vt is None:
            raise ValueError(f"{self!r} is not a vertex lattice")
        return vt

    # -- membership --------------------------------------------------------

    def r_invariant(self, b: TruncatedVector) -> int:
        """max r such that p^(-r) b lies in the lattice (may be negative).

        Solved against the canonical triangular basis; exact integer
        valuation comparisons throughout.
        """
        if b.is_zero():
            raise DegenerateVectorError("r-invariant of the zero vector")
        ctx = self.ctx
        p = ctx.p
        c0, c1 = b.a0, b.a1
        w = ctx.elem(*self.off)
        # Coordinates y1 = c0 / p^a, y2 = (c1 p^a - w c0) / p^(a+b).
        n2 = c1.mul_int(p**self.piv0).sub(w.mul(c0))
        v1 = c0.valuation_or_none()
        v2 = n2.valuation_or_none()
        y1 = None if v1 is None else v1 - self.piv0
        y2 = None if v2 is None else v2 - self.piv0 - self.piv1
        if y1 is None and y2 is None:
            raise TruncationExhausted("membership undecidable at precision")
        if y2 is None:
            # n2 vanishes at its precision: y2 is only bounded below.
            low = n2.prec - self.piv0 - self.piv1
            if low < y1:
                raise TruncationExhausted(
                    "membership undecidable at precision", needed=n2.prec + y1 - low
                )
            r = y1
        else:
            r = y2 if y1 is None else min(y1, y2)
        return r + self.denom_exp - b.denom_exp

    def contains(self, b: TruncatedVector) -> bool:
        return self.r_invariant(b) >= 0

    def coordinates(self, b: TruncatedVector):
        """(r, c0, c1) with b = p^r (c0 g1 + c1 g2) in the canonical
        generators g1 = p^-e (p^a v0 + w v1), g2 = p^(b-e) v1, and
        min(v(c0), v(c1)) = 0: with N0 = p^b b0 and N1 = p^a b1 - w b0,
        m = min(v(N0), v(N1)), ci = Ni / p^m and r = e - e_b - a - b + m.
        Raises TruncationExhausted where precision cannot decide m or
        leaves a coefficient no digit."""
        ctx = self.ctx
        p = ctx.p
        n0 = b.a0.mul_int(p**self.piv1)
        n1 = b.a1.mul_int(p**self.piv0).sub(ctx.elem(*self.off).mul(b.a0))
        # A numerator that vanishes at precision q has valuation >= q.
        (v0, q0), (v1, q1) = (
            (n.prec if n.is_zero() else n.valuation(), n.prec) for n in (n0, n1)
        )
        m = min(v0, v1)
        if not (v0 < q0 and v0 <= v1 or v1 < q1 and v1 <= v0):
            raise TruncationExhausted("membership undecidable at precision")
        r = self.denom_exp - b.denom_exp - self.piv0 - self.piv1 + m
        return r, n0.divide_p_power(m), n1.divide_p_power(m)

    # -- hyperbolic basis and neighbours ------------------------------------

    def hyperbolic_basis(self) -> tuple[TruncatedVector, TruncatedVector]:
        """An o-basis (u0, u1) of isotropic vectors with h(u0, u1) equal
        to delta (type 0) or delta/p (type 2): the inherited basis, else
        the canonical one (hensel_hyperbolic_basis builds one from
        scratch instead)."""
        if self._hyperbolic is None:
            self.require_vertex()
            if self.off[1]:
                raise HyperbolicBasisError(f"{self!r}: canonical offset has a delta part")
            self._hyperbolic = self.basis()
        return self._hyperbolic

    def neighbors(self) -> list["ObjectLattice"]:
        """The p+1 adjacent vertex lattices, of the opposite type.

        Ordering is deterministic: the 'infinity' neighbour first, then
        the residue representatives alpha = 0, ..., p-1.
        """
        vt = self.require_vertex()
        u0, u1 = self.hyperbolic_basis()
        ctx = self.ctx
        p = ctx.p
        out = []
        opposite = 2 - vt
        if vt == 0:
            # span{p^-1 u0, u1} and span{u0, p^-1 (alpha u0 + u1)}.
            out.append(
                ObjectLattice.from_vectors(
                    u0.scale_p_power(-1), u1, _vtype=opposite,
                    _hyperbolic=(u0.scale_p_power(-1), u1),
                )
            )
            for alpha in range(p):
                w1 = _vector_combination(ctx, alpha, u0, u1).scale_p_power(-1)
                out.append(
                    ObjectLattice.from_vectors(
                        u0, w1, _vtype=opposite, _hyperbolic=(u0, w1)
                    )
                )
        else:
            # span{u0, p u1} and span{p u0, alpha u0 + u1}.
            out.append(
                ObjectLattice.from_vectors(
                    u0, u1.scale_p_power(1), _vtype=opposite,
                    _hyperbolic=(u0, u1.scale_p_power(1)),
                )
            )
            for alpha in range(p):
                w1 = _vector_combination(ctx, alpha, u0, u1)
                pu0 = u0.scale_p_power(1)
                out.append(
                    ObjectLattice.from_vectors(
                        pu0, w1, _vtype=opposite, _hyperbolic=(pu0, w1)
                    )
                )
        return out


def _vector_combination(ctx: TruncatedContext, alpha: int, u0: TruncatedVector, u1: TruncatedVector) -> TruncatedVector:
    """alpha * u0 + u1 at a common denominator."""
    e = max(u0.denom_exp, u1.denom_exp)
    p = ctx.p
    s0 = p ** (e - u0.denom_exp)
    s1 = p ** (e - u1.denom_exp)
    a0 = u0.a0.mul_int(alpha * s0).add(u1.a0.mul_int(s1))
    a1 = u0.a1.mul_int(alpha * s0).add(u1.a1.mul_int(s1))
    return TruncatedVector(ctx, a0, a1, e)


def _gram(scale_exp: int, g1: TruncatedVector, g2: TruncatedVector):
    """Entries of p^scale_exp * Gram(g1, g2) as ring elements; raises if
    the scaled Gram is not integral (the lattice is not a vertex
    lattice of the expected type)."""
    entries = []
    for u in (g1, g2):
        row = []
        for w in (g1, g2):
            val, exp = truncated_herm(u, w)
            shift = exp + scale_exp
            if shift >= 0:
                row.append(val.mul_int(u.ctx.p**shift))
            else:
                row.append(val.divide_p_power(-shift))
        entries.append(row)
    return entries


def hensel_hyperbolic_basis(lat: ObjectLattice) -> tuple[TruncatedVector, TruncatedVector]:
    """A hyperbolic basis found by search rather than read off the
    canonical form: a residue-isotropic direction over the canonical
    basis, Hensel-lifted to an isotropic u0, then u1 isotropic with the
    normalized pairing.  The reference the canonical basis is tested
    against."""
    vt = lat.require_vertex()
    ctx = lat.ctx
    p = ctx.p
    scale_exp = 1 if vt == 2 else 0  # work with p*h on type 2 lattices
    g1, g2 = lat.basis()
    gram = _gram(scale_exp, g1, g2)

    def qtilde(a: TruncatedElem, b: TruncatedElem) -> TruncatedElem:
        # q~(a g1 + b g2) = n(a) G00 + Tr(a conj(b) G01) + n(b) G11
        cross = a.mul(b.conj()).mul(gram[0][1])
        return (
            a.mul(a.conj()).mul(gram[0][0])
            .add(cross).add(cross.conj())
            .add(b.mul(b.conj()).mul(gram[1][1]))
        )

    def htilde(a, b, c, d) -> TruncatedElem:
        # h~(a g1 + b g2, c g1 + d g2)
        return (
            a.mul(c.conj()).mul(gram[0][0])
            .add(a.mul(d.conj()).mul(gram[0][1]))
            .add(b.mul(c.conj()).mul(gram[1][0]))
            .add(b.mul(d.conj()).mul(gram[1][1]))
        )

    one = ctx.one()
    zero = ctx.zero()
    # Residue projective line: [1 : x] for x in F_{p^2}, then [0 : 1].
    candidate = None
    for xx in range(p):
        for xy in range(p):
            x = ctx.elem(xx, xy)
            q = qtilde(one, x)
            if q.is_zero() or q.valuation() >= 1:
                candidate = (one, x)
                break
        if candidate:
            break
    if candidate is None:
        q = qtilde(zero, one)
        if q.is_zero() or q.valuation() >= 1:
            candidate = (zero, one)
    if candidate is None:
        raise HyperbolicBasisError(
            "no isotropic direction on the residue line; not a vertex lattice?"
        )

    a, b = candidate
    # Complementary generator keeping (u0, w) a basis: need the other
    # coordinate to be a unit.
    bv = b.valuation_or_none()
    if bv == 0:
        wc = (one, zero)
    else:
        wc = (zero, one)
    z = htilde(a, b, *wc)
    if z.valuation_or_none() != 0:
        raise HyperbolicBasisError("pairing with complement is not a unit")

    # Hensel: replace u0 <- u0 + c*w with Tr(conj(c) z) = -q~(u0);
    # the defect then picks up n(c) q~(w), so the valuation doubles.
    inv2 = pow(2, -1, p**ctx.precision)
    while True:
        q = qtilde(a, b)
        if q.is_zero():
            break
        zinv = z.unit_inverse()
        c = q.mul_int(inv2).mul(zinv).neg().conj()
        a = a.add(c.mul(wc[0]))
        b = b.add(c.mul(wc[1]))
        z = htilde(a, b, *wc)

    # Second isotropic generator: u1' = w + c u0 with c = -q~(w)/(2 z),
    # then scale by conj(delta * z^-1) to normalize the pairing.
    qw = qtilde(*wc)
    zinv = z.unit_inverse()
    c = qw.mul_int(inv2).mul(zinv).neg()
    d0 = wc[0].add(c.mul(a))
    d1 = wc[1].add(c.mul(b))
    lam = ctx.delta().mul(zinv).conj()
    d0 = d0.mul(lam)
    d1 = d1.mul(lam)

    u0 = _coords_to_ambient(a, b, g1, g2)
    u1 = _coords_to_ambient(d0, d1, g1, g2)
    return u0, u1


def _coords_to_ambient(a: TruncatedElem, b: TruncatedElem, g1: TruncatedVector, g2: TruncatedVector) -> TruncatedVector:
    ctx = g1.ctx
    p = ctx.p
    e = max(g1.denom_exp, g2.denom_exp)
    s1 = p ** (e - g1.denom_exp)
    s2 = p ** (e - g2.denom_exp)
    c0 = a.mul(g1.a0.mul_int(s1)).add(b.mul(g2.a0.mul_int(s2)))
    c1 = a.mul(g1.a1.mul_int(s1)).add(b.mul(g2.a1.mul_int(s2)))
    return TruncatedVector(ctx, c0, c1, e)


# -- standard lattices and tree operations ----------------------------------


def standard_lattices(ctx: TruncatedContext) -> tuple[ObjectLattice, ObjectLattice]:
    """The base vertex: Lambda0 = span{v0, v1} (type 0) and its
    neighbour Lambda0' = span{p^-1 v0, v1} (type 2)."""
    v0 = ctx.vector_from_ints((1, 0), (0, 0))
    v1 = ctx.vector_from_ints((0, 0), (1, 0))
    lam0 = ObjectLattice.from_vectors(v0, v1, _vtype=0, _hyperbolic=(v0, v1))
    w0 = v0.scale_p_power(-1)
    lam0p = ObjectLattice.from_vectors(w0, v1, _vtype=2, _hyperbolic=(w0, v1))
    return lam0, lam0p


def central_lattice(b: TruncatedVector) -> ObjectLattice:
    """The unique vertex lattice containing the rescaled b primitively:
    span{b0, epsilon(b0)} where b0 = p^-t b has ord q in {0, -1}.

    Type 0 when ord q(b) is even, type 2 when odd; raises
    DegenerateVectorError for isotropic b.
    """
    q = truncated_qform(b)
    if q is None:
        raise DegenerateVectorError("central lattice of an isotropic vector")
    t = -((-q) // 2)  # ceil(ord/2)
    b0 = b.scale_p_power(-t)
    return ObjectLattice.from_vectors(b0, truncated_epsilon(b0), _vtype=q % 2 * 2)


class SearchRadiusExceeded(Exception):
    """A breadth-first search below ran past its radius cap."""


def distance_bfs(lat, other, radius_cap: int = 40) -> int:
    """Reference breadth-first-search distance with canonical-form
    deduplication (exponential in the distance).  Works on any lattice
    class with `require_vertex`, `key` and `neighbors`."""
    lat.require_vertex()
    other.require_vertex()
    target = other.key
    if lat.key == target:
        return 0
    frontier = [lat]
    seen = {lat.key}
    for depth in range(1, radius_cap + 1):
        nxt = []
        for node in frontier:
            for nb in node.neighbors():
                k = nb.key
                if k in seen:
                    continue
                if k == target:
                    return depth
                seen.add(k)
                nxt.append(nb)
        frontier = nxt
    raise SearchRadiusExceeded(f"no path within radius {radius_cap}")


def path_words_bfs(root, keys: set, radius_cap: int) -> dict:
    """Reference path-word labels: a breadth-first search out from `root`
    (Lambda0) over the whole ball of radius `radius_cap`, until every key
    is labelled.  The root gets the empty word; a child reached as
    neighbour i of a word w gets w + '.' + str(i)."""
    words = {root.key: ""}
    missing = set(keys) - set(words)
    frontier = [(root, None, "")]
    depth = 0
    while missing and depth < radius_cap:
        depth += 1
        nxt = []
        for node, parent_key, word in frontier:
            for i, nb in enumerate(node.neighbors()):
                k = nb.key
                if k == parent_key:
                    continue
                child_word = f"{word}.{i}" if word else str(i)
                if k not in words:
                    words[k] = child_word
                    missing.discard(k)
                nxt.append((nb, node.key, child_word))
        frontier = nxt
    if missing:
        raise SearchRadiusExceeded(
            f"{len(missing)} vertices beyond labelling radius {radius_cap}"
        )
    return {k: words[k] for k in keys}


def cycle_json_text(cycle) -> str:
    """Reference `cycle` output: the cycle as a dict of path-word
    labels and the vertices' canonical-form data, rendered by
    json.dumps(sort_keys=True, indent=2), the encoder that the direct
    writer `localcycles.cycle_json_chunks` replaces."""
    labels = {lat: (word, d)
              for word, d, lat in localcycles.path_words(cycle.center, cycle.profile)}
    profile = cycle.profile
    vertical = sorted(
        ({"vertex": w, "mult": profile[d]} for w, d in labels.values() if d < len(profile)),
        key=lambda v: v["vertex"],
    )
    data = {
        "horizontal": [{"vertex": labels[cycle.center][0], "count": cycle.horizontal}],
        "vertical": vertical,
        "vertices": {
            w: {"denom_exp": lat.denom_exp, "pivots": [lat.piv0, lat.piv1], "off": list(lat.off)}
            for lat, (w, _) in labels.items()
        },
    }
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def tree_ball(center: ObjectLattice, radius: int) -> list[tuple[ObjectLattice, int]]:
    """All vertex lattices within tree distance `radius` of `center`,
    with their distances.  Uses the tree structure: children of a
    vertex are its neighbours minus its BFS parent, so deduplication
    is only against the parent key."""
    center.require_vertex()
    out = [(center, 0)]
    frontier = [(center, None)]
    for depth in range(1, radius + 1):
        nxt = []
        for node, parent_key in frontier:
            for nb in node.neighbors():
                k = nb.key
                if k == parent_key:
                    continue
                out.append((nb, depth))
                nxt.append((nb, node.key))
        frontier = nxt
    return out


# -- the reference series reader --------------------------------------------


def _fraction(text: str) -> Fraction:
    """Fraction(text), but refused first when its decimal exponent e, the
    text after the last e or E, gives a 10**|e| of more than 4300 digits."""
    head, _, tail = text.replace("E", "e").rpartition("e")
    try:
        exponent = int(tail)
    except ValueError:
        exponent = 0
    if head and abs(exponent) >= 4300:
        raise ValueError(f"the exponent of {text!r} makes a power of 10 of more than 4300 digits")
    return Fraction(text)


def series_from_json_dict(data: dict, symbolic_parser=None) -> FormalSeries:
    """The whole series, every coefficient through Fraction(str) with its
    exponent bounded: the reader that cyclelift.qseries.series_from_json_dict
    must agree with on every input, with or without its square_class."""

    def exponent(value, what):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{what} {value!r} is not an integer")
        return value

    try:
        bound = exponent(data["max_exponent"], "max_exponent")
        coeffs = {}
        for entry in data["coeffs"]:
            n = exponent(entry["n"], "exponent")
            c = entry["c"]
            if isinstance(c, str):
                coeffs[n] = _fraction(c)
            elif symbolic_parser is not None:
                coeffs[n] = symbolic_parser(c)
            else:
                raise ValueError(f"symbolic coefficient at {n} not supported here")
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed series data: {exc}") from exc
    return FormalSeries(coeffs, bound)


# -- Gauss sums and the L-value at s = 1 --------------------------------------


def gauss_sum(params: ShimuraParams, a: int) -> complex:
    """check chi_t(a) = sum_{h mod 4Nt} chi_t(h) exp(2 pi i a h / 4Nt)."""
    mod = 4 * params.level_N * params.t
    total = 0j
    for h in range(1, mod):
        ch = chi_t(params, h)
        if ch:
            total += ch * cmath.exp(2j * cmath.pi * a * h / mod)
    return total


def lvalue_numeric(params: ShimuraParams, s: int, terms: int) -> complex:
    """Cesaro-averaged partial sums of sum_m m^-s check chi_t(m).

    Conditionally convergent at s = 1; the Cesaro mean of the partial
    sums converges to the analytic value.  Numeric cross-check only --
    the contract-bearing value is the exact rational closed form.
    """
    if terms < 1:
        raise ValueError("terms must be >= 1")
    mod = 4 * params.level_N * params.t
    table = [gauss_sum(params, r) for r in range(mod)]
    partial = 0j
    cesaro = 0j
    for m in range(1, terms + 1):
        partial += table[m % mod] / m**s
        cesaro += partial
    return cesaro / terms


def lvalue_numeric_scaled(params: ShimuraParams, terms: int) -> complex:
    """(i / 2 pi) L(1, check chi_t), numerically."""
    return 1j / (2 * cmath.pi) * lvalue_numeric(params, 1, terms)


def lvalue_series_rational(field: QuadField, d_b: int) -> Fraction:
    """(i/2pi) L(1, check chi_t) by the independent 2^(number of prime
    factors) evaluation: every l | d_b is inert, so each Euler factor
    1 - chi_k(l) of lvalue_closed_form is 2, and the value is
    -h(k) * 2^(number of prime factors) / |o_k^x|.  The two agree
    whenever check_discriminant_hypotheses accepts d_b; this is also
    the value the Cesaro-averaged partial sums converge to."""
    primes = check_discriminant_hypotheses(field, d_b)
    return Fraction(-field.class_number * 2 ** len(primes), field.unit_order)


# -- the ball-walking sweeps --------------------------------------------------
# sweeps.sweep_r_formula, sweeps.sweep_local_compare and
# sweeps.sweep_chart_consistency as they were before coordinate descent:
# the same draws, checks and report, with every
# vertex of the ball built (by the key-deduplicating tree_ball above, so no
# child is found by index) and its membership taken from its own
# r_invariant.  SPOT_CHECKS and CHART_ORD_MAX are the sweeps' sample sizes.

SPOT_CHECKS = 12
CHART_ORD_MAX = 4


def r_formula_by_ball(p: int, delta: int, count: int, radius: int, rng) -> VerificationReport:
    ctx = LocalContext(p=p, delta_sq=delta)
    mismatches = []
    checked = 0
    for _ in range(count):
        vec = sweeps.random_anisotropic_vector(ctx, rng)
        ordq = qform(vec)
        for lat, d in tree_ball(bttree.central_lattice(vec), radius):
            checked += 1
            r = lat.r_invariant(vec)
            expected = localcycles.mult_from_depth(ordq, d)
            if r != expected:
                mismatches.append(Mismatch(m=checked, lhs=r, rhs=expected))
    return VerificationReport(
        params={"p": p, "delta": delta, "count": count, "radius": radius},
        checked=checked,
        mismatches=mismatches,
    )


def local_compare_by_ball(p: int, delta: int, alpha_max: int, rng) -> VerificationReport:
    ctx = LocalContext(p=p, delta_sq=delta)
    mismatches = []
    checked = 0
    for alpha in range(alpha_max + 1):
        for odd_norm in (True, False):
            vec = sweeps.random_eigenvector(ctx, rng, odd_norm)
            j = localcycles.OrthEndo.from_eigenvector(alpha, vec)
            hp, hm = localcycles.split_pair(j)
            norms = {hp.ord_qpm, hm.ord_qpm}
            expected_norms = {alpha, alpha - 1} if alpha >= 1 else {0}
            if norms != expected_norms:
                mismatches.append(
                    Mismatch(m=alpha, lhs=sorted(norms), rhs=sorted(expected_norms))
                )
            center = j.central()
            ball = tree_ball(center, alpha + 2)
            for lat, d in ball:
                checked += 1
                total = localcycles.multiplicity(hp, lat, d) + localcycles.multiplicity(
                    hm, lat, d
                )
                expected = max(alpha - d, 0)
                if total != expected:
                    mismatches.append(Mismatch(m=d, lhs=total, rhs=expected))
            for lat, d in rng.sample(ball, min(SPOT_CHECKS, len(ball))):
                checked += 1
                total = localcycles.multiplicity(hp, lat) + localcycles.multiplicity(hm, lat)
                if total != max(alpha - d, 0):
                    mismatches.append(Mismatch(m=d, lhs=total, rhs="spot"))
            ocyc = localcycles.orthogonal_cycle(j)
            ccount = localcycles.unitary_cycle(hp).horizontal_count(center) + \
                localcycles.unitary_cycle(hm).horizontal_count(center)
            checked += 1
            if ccount != ocyc.horizontal_count(center):
                mismatches.append(Mismatch(m=alpha, lhs=ccount, rhs=2))
            checked += 1
            if not sweeps.horizontal_polynomials_match(j, hp, hm):
                mismatches.append(Mismatch(m=alpha, lhs="horizontal-poly", rhs="mismatch"))
    return VerificationReport(
        params={"p": p, "delta": delta, "alpha_max": alpha_max},
        checked=checked,
        mismatches=mismatches,
    )


def chart_by_ball(p: int, delta: int, count: int, radius: int, rng) -> VerificationReport:
    ctx = LocalContext(p=p, delta_sq=delta)
    mismatches = []
    checked = 0
    for _ in range(count):
        hom = sweeps.random_special_hom(ctx, rng, CHART_ORD_MAX)
        center = hom.central()
        ball = tree_ball(center, radius)
        depth = {lat.key: d for lat, d in ball}
        supported = []
        for lat, d in ball:
            if lat.r_invariant(hom.vec) < 0:
                continue
            supported.append((lat, d))
            checked += 1
            eq = localcycles.ordinary_equation(hom, lat)
            m = localcycles.multiplicity(hom, lat, d)
            if eq.p_exp != m:
                mismatches.append(Mismatch(m=d, lhs=eq.p_exp, rhs=m))
            is_center = lat.key == center.key
            if eq.residual_is_unit() == is_center:
                mismatches.append(Mismatch(m=d, lhs="residual-unit", rhs=is_center))
        for lat, d in supported + rng.sample(ball, min(6, len(ball))):
            for nb in lat.neighbors():
                if depth.get(nb.key) is None:
                    continue
                lat0, lat2 = (lat, nb) if lat.vtype == 0 else (nb, lat)
                e0, e1 = localcycles.superspecial_exponents(hom, lat0, lat2)
                m0 = localcycles.multiplicity(hom, lat0, depth[lat0.key])
                m2 = localcycles.multiplicity(hom, lat2, depth[lat2.key])
                checked += 1
                if (e0, e1) != (m2, m0):
                    mismatches.append(Mismatch(m=d, lhs=[e0, e1], rhs=[m2, m0]))
    return VerificationReport(
        params={"p": p, "delta": delta, "count": count, "radius": radius},
        checked=checked,
        mismatches=mismatches,
    )


# -- the remark identity in true units ------------------------------------------


def _as_divisor(c) -> SymbolicDivisor:
    return c if isinstance(c, SymbolicDivisor) else SymbolicDivisor.zero()


def verify_remark_identity(
    field: QuadField, d_b: int, m_max: int, num_embedding_classes: int
) -> VerificationReport:
    """cyclelift.identity.verify_remark_identity as it was before it
    counted in units of 1/(2h) and summed the classes before the
    operators act: one naive series per embedding class, each taken
    through 2 + sum_I phi_I, every naive coefficient carrying the
    Fraction weight 1/(2h), and both sides built in true units."""
    expected_classes = optimal_embedding_count(field, d_b)
    if num_embedding_classes != expected_classes:
        raise HypothesisError(
            f"num_embedding_classes must be {expected_classes}, got {num_embedding_classes}"
        )
    primes = check_discriminant_hypotheses(field, d_b)
    h = field.class_number
    half_h_inv = Fraction(1, 2 * h)
    lrat = lvalue_closed_form(field, d_b)
    # The Remark's constant: C = (1/2) * lrat / #classes, as a K-multiple.
    c_naive = SymbolicDivisor.K(lrat / (2 * expected_classes))
    c_prime = SymbolicDivisor.K(lrat) + c_naive * (-2 * expected_classes)

    # Left side: the definition of Phi^u in the free symbols.
    lhs_coeffs: dict[int, SymbolicDivisor] = {0: SymbolicDivisor.K(lrat)}
    for m in range(1, m_max + 1):
        acc = SymbolicDivisor.zero()
        mstar = m // gcd(m, d_b)
        for i in range(1, num_embedding_classes + 1):
            acc += SymbolicDivisor.Zplus(m, i) + SymbolicDivisor.Zplus(mstar, i)
        lhs_coeffs[m] = acc * half_h_inv
    lhs = FormalSeries(lhs_coeffs, m_max)

    # Right side: operator expansion of the naive series.
    subsets = []
    for mask in range(1, 2 ** len(primes)):
        subsets.append([p for k, p in enumerate(primes) if mask >> k & 1])
    rhs = FormalSeries({0: c_prime}, m_max)
    for i in range(1, num_embedding_classes + 1):
        naive_coeffs: dict[int, SymbolicDivisor] = {0: c_naive}
        for n in range(1, m_max + 1):
            naive_coeffs[n] = SymbolicDivisor.Zplus(n, i, half_h_inv)
        naive = FormalSeries(naive_coeffs, m_max)
        rhs = rhs.add(naive.scale(2))
        for subset in subsets:
            rhs = rhs.add(op_phi_set(subset, naive))

    mismatches = [
        Mismatch(m, _as_divisor(lhs.coefficient(m)), _as_divisor(rhs.coefficient(m)))
        for m in series_difference_support(lhs, rhs)
    ]
    if c_prime:
        mismatches.insert(0, Mismatch(m=-1, lhs=c_prime, rhs=SymbolicDivisor.zero()))
    return VerificationReport(
        params={
            "delta": field.delta,
            "d_b": d_b,
            "m_max": m_max,
            "classes": num_embedding_classes,
        },
        checked=m_max + 1,
        mismatches=mismatches,
    )
