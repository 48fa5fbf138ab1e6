"""Elementary exact number theory: factorization, Kronecker/Jacobi
symbols, and Hilbert symbols over the rationals.  A Hilbert symbol
reads each rational argument n/d, in lowest terms, as the integer n*d
of its square class; an int is its own.

Everything here is desk-scale by contract: trial division, deliberate
and not a placeholder, takes inputs up to _MAX_FACTOR_INPUT.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

INFINITY = "infinity"

Place = Union[int, str]

# Largest input of `factorize`, and so of `is_prime`.  Trial division
# costs about sqrt(n): on one Xeon core a prime near 10**12 takes 0.05 s,
# near 10**13 0.16 s and near 10**14 0.4 s (a 61-bit prime, minutes).
_MAX_FACTOR_INPUT = 10**12


@dataclass(frozen=True)
class Factorization:
    """Ordered prime factorization: ((p1, e1), (p2, e2), ...) with p1 < p2 < ..."""

    factors: tuple[tuple[int, int], ...]

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.factors)

    def __len__(self) -> int:
        return len(self.factors)

    @property
    def value(self) -> int:
        n = 1
        for p, e in self.factors:
            n *= p**e
        return n

    @property
    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def is_squarefree(self) -> bool:
        return all(e == 1 for _, e in self.factors)


def factorize(n: int) -> Factorization:
    """Factor a positive integer by trial division.

    Raises ValueError for n < 1 or n > _MAX_FACTOR_INPUT.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    _require_under_cap(n)
    factors = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return Factorization(tuple(factors))


def is_prime(n: int) -> bool:
    """Primality by trial division, which stops at the first divisor; n
    is at most _MAX_FACTOR_INPUT, as for `factorize`."""
    _require_under_cap(n)
    if n < 3:
        return n == 2
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _require_under_cap(n: int) -> None:
    if n > _MAX_FACTOR_INPUT:
        raise ValueError(f"{n} is above the cap of {_MAX_FACTOR_INPUT} on trial division")


def is_squarefree(n: int) -> bool:
    """True iff |n| is squarefree (n must be nonzero)."""
    if n == 0:
        raise ValueError("0 is not squarefree")
    return factorize(abs(n)).is_squarefree()


def divisors(n: int) -> list[int]:
    """All positive divisors of n >= 1, sorted increasingly."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def max_divisor_count(limit: int) -> int:
    """The most divisors of any m in 1 ... limit (1 below that).  Putting
    m's prime exponents, largest first, on 2, 3, 5, ... keeps its count of
    divisors and does not raise m, so the most is reached at an m whose
    exponents fall along the primes in order, and only those are walked."""
    best = 1
    # (m, the next prime, its largest exponent, the divisors of m)
    stack = [(1, 2, limit.bit_length(), 1)]
    while stack:
        m, p, cap, count = stack.pop()
        best = max(best, count)
        q = p + 1
        while not is_prime(q):
            q += 1
        for e in range(1, cap + 1):
            m *= p
            if m > limit:
                break
            stack.append((m, q, e, count * (e + 1)))
    return best


def kronecker(a: int, n: int) -> int:
    """The Kronecker symbol (a|n), total on all integer pairs.

    Conventions: (a|2) is 0 for even a and (-1)^((a^2-1)/8) otherwise;
    (a|-1) = sign(a) with (0|-1) = 1; (a|1) = 1; (a|0) = 1 iff a = +-1.
    Agrees with the Jacobi symbol for odd positive n and with the
    Legendre symbol for odd prime n.
    """
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    while n % 2 == 0:
        n //= 2
        if a % 2 == 0:
            return 0
        if a % 8 in (3, 5):
            result = -result
    # Jacobi on odd positive n via reciprocity.
    a %= n
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _split(n: int, p: int) -> tuple[int, int]:
    """Write the nonzero integer n = p^v * u with p not dividing u; returns (v, u)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v, n


def hilbert_symbol(a: int | Fraction, b: int | Fraction, place: Place) -> int:
    """Hilbert symbol (a, b)_v over Q at a finite prime or at infinity.

    Returns +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over
    the completion at `place`.  Raises ValueError on zero arguments or
    an invalid place.
    """
    a, b = a.numerator * a.denominator, b.numerator * b.denominator
    if a == 0 or b == 0:
        raise ValueError("hilbert_symbol requires nonzero arguments")
    if place == INFINITY:
        return -1 if (a < 0 and b < 0) else 1
    if not isinstance(place, int) or place < 2 or not is_prime(place):
        raise ValueError(f"invalid place {place!r}")
    p = place
    alpha, u = _split(a, p)
    beta, v = _split(b, p)
    if p != 2:
        sign = 1
        if (alpha * beta) % 2 == 1 and p % 4 == 3:
            sign = -sign
        if beta % 2 == 1:
            sign *= kronecker(u, p)
        if alpha % 2 == 1:
            sign *= kronecker(v, p)
        return sign
    # p = 2: closed epsilon/omega formula.
    u8 = u % 8
    v8 = v % 8
    eps_u = (u8 - 1) // 2 % 2
    eps_v = (v8 - 1) // 2 % 2
    om_u = (u8 * u8 - 1) // 8 % 2
    om_v = (v8 * v8 - 1) // 8 % 2
    exponent = eps_u * eps_v + alpha * om_v + beta * om_u
    return -1 if exponent % 2 == 1 else 1


def hilbert_places(a: int | Fraction, b: int | Fraction) -> list[Place]:
    """Places where (a, b)_v can be nontrivial: infinity, 2, and the odd
    primes dividing the numerator or denominator of a or b."""
    places: set[int] = {2}
    for x in (a, b):
        places.update(factorize(abs(x.numerator * x.denominator)).primes)
    return [INFINITY] + sorted(places)
