"""Symbolic-divisor algebra and the identity verifiers: the main
theorem Sh(Phi^o) = Phi^u, the bad-fiber coefficient relation behind
it, the fiber-count formula, and the closing operator identity.

The two sides of the main theorem are computed by disjoint code paths:
the lift side goes through the shifted character chi_t of the qseries
module, while the unitary side expands the divisor-restricted chi_k
sum directly.  Their agreement is therefore a genuine identity check,
not a tautology.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from cyclelift.numth import divisors, factorize
from cyclelift.qseries import (
    FormalSeries,
    ShimuraParams,
    op_phi_set,
    parse_rational,
    rational_str,
    series_difference_support,
    shimura_lift,
)
from cyclelift.quadfield import (
    QuadField,
    check_discriminant_hypotheses,
    chi_k,
    lvalue_closed_form,
    optimal_embedding_count,
    rho,
)

# -- symbolic divisors ---------------------------------------------------------


class SymbolicDivisor:
    """A finite rational linear combination of formal divisor symbols.

    Symbols are tuples: ("K",) for the fixed canonical-class divisor,
    ("Zo", n) for orthogonal cycles, ("Zp", m, i) for the unitary cycle
    of index m attached to embedding class i.  Zero-weight entries are
    pruned; equality is map equality.

    Each weight has one representation: an int when it is integral, a
    Fraction (denominator > 1) otherwise.  The constructor brings any
    rational weight to that form; `+` (with the integer 0 as identity),
    `*` by an int or Fraction scalar and `-` keep it without
    re-wrapping, so sums and int multiples of integral weights never
    touch Fraction.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        self.terms = {}
        for sym, w in terms.items():
            if type(w) is not int:
                w = _normal(Fraction(w))
            if w:
                self.terms[sym] = w

    @classmethod
    def _of(cls, terms: dict) -> "SymbolicDivisor":
        """Wrap a map that already holds nonzero weights in normal form."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "SymbolicDivisor":
        return cls._of({})

    @classmethod
    def K(cls, weight=1) -> "SymbolicDivisor":
        return cls({("K",): weight})

    @classmethod
    def Zo(cls, n: int, weight=1) -> "SymbolicDivisor":
        if n <= 0:
            raise ValueError(f"Zo index must be positive, got {n}")
        return cls({("Zo", n): weight})

    @classmethod
    def Zplus(cls, m: int, i: int, weight=1) -> "SymbolicDivisor":
        if m <= 0 or i <= 0:
            raise ValueError(f"Zplus indices must be positive, got ({m}, {i})")
        return cls({("Zp", m, i): weight})

    def __add__(self, other):
        if not isinstance(other, SymbolicDivisor):
            if type(other) is int and other == 0:
                return self
            return NotImplemented
        out = dict(self.terms)
        for sym, w in other.terms.items():
            total = out.pop(sym, 0) + w
            if total:
                out[sym] = total if type(total) is int else _normal(total)
        return SymbolicDivisor._of(out)

    __radd__ = __add__

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return SymbolicDivisor._of({})
        out = {sym: w * scalar for sym, w in self.terms.items()}
        for sym, w in out.items():
            if type(w) is not int:
                out[sym] = _normal(w)
        return SymbolicDivisor._of(out)

    __rmul__ = __mul__

    def __neg__(self):
        return self * -1

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, SymbolicDivisor):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [f"{w}*{_sym_name(sym)}" for sym, w in sorted(self.terms.items())]
        return " + ".join(bits)

    def to_json_entries(self) -> list:
        return [
            {"sym": _sym_name(sym), "w": rational_str(w)}
            for sym, w in sorted(self.terms.items())
        ]


def _normal(w: Fraction):
    """A rational weight in normal form: its numerator when integral."""
    return w.numerator if w.denominator == 1 else w


def _sym_name(sym: tuple) -> str:
    if sym[0] == "K":
        return "K"
    if sym[0] == "Zo":
        return f"Zo({sym[1]})"
    return f"Zplus({sym[1]},{sym[2]})"


# The names that _sym_name writes: indices in decimal, no sign or leading 0.
_SYMBOL = re.compile(r"K|Zo\(([1-9][0-9]*)\)|Zplus\(([1-9][0-9]*),([1-9][0-9]*)\)")


def parse_symbolic_entries(entries) -> SymbolicDivisor:
    """Inverse of SymbolicDivisor.to_json_entries: any other name is refused."""
    total = SymbolicDivisor.zero()
    for entry in entries:
        name = entry["sym"]
        text = entry["w"]
        if not isinstance(text, str):
            raise ValueError(f"weight {text!r} of {name!r} is not a string")
        w = parse_rational(text)
        match = _SYMBOL.fullmatch(name) if isinstance(name, str) else None
        if match is None:
            raise ValueError(f"unknown symbol {name!r}")
        n, m, i = match.groups()
        sym = ("Zo", int(n)) if n else ("Zp", int(m), int(i)) if m else ("K",)
        total += SymbolicDivisor({sym: w})
    return total


# -- generating series ----------------------------------------------------------


def build_phi_o(
    field: QuadField, d_b: int, m_max: int, square_class: int | None = None
) -> FormalSeries:
    """The orthogonal generating series: -K + sum_{n>0} Zo(n) q^n.

    With square_class=t only the exponents 0 and t*k^2 are built: the
    part of the series that the Shimura lift with parameter t reads.
    """
    check_discriminant_hypotheses(field, d_b)
    coeffs: dict[int, SymbolicDivisor] = {0: SymbolicDivisor.K(-1)}
    if square_class is None:
        exponents = range(1, m_max + 1)
    else:
        roots = range(1, isqrt(m_max // square_class) + 1)
        exponents = (square_class * k * k for k in roots)
    for n in exponents:
        coeffs[n] = SymbolicDivisor.Zo(n)
    return FormalSeries(coeffs, m_max)


def build_phi_u(field: QuadField, d_b: int, m_max: int) -> FormalSeries:
    """The unitary generating series, with coefficients expanded in the
    orthogonal symbols through the bad-fiber relation:

      coefficient at m = |Delta| m':
          sum_{alpha | m', (alpha, D_B) = 1} chi_k(alpha) Zo(|Delta| m'^2 / alpha^2)
      coefficient at m not divisible by |Delta|: zero;
      constant term: (i/2pi) L(1, check chi'_k) * K (exact rational).

    Never calls the Shimura lift: this is the independent second side
    of the main-theorem verification.
    """
    check_discriminant_hypotheses(field, d_b)
    adelta = -field.delta
    coeffs: dict[int, SymbolicDivisor] = {
        0: SymbolicDivisor.K(lvalue_closed_form(field, d_b))
    }
    for m in range(1, m_max + 1):
        if m % adelta != 0:
            continue
        mp = m // adelta
        acc = SymbolicDivisor.zero()
        for alpha in divisors(mp):
            if gcd(alpha, d_b) != 1:
                continue
            ch = chi_k(field, alpha)
            if ch == 0:
                continue
            acc += SymbolicDivisor.Zo(adelta * (mp // alpha) ** 2, ch)
        if acc:
            coeffs[m] = acc
    return FormalSeries(coeffs, m_max)


# -- verification reports ---------------------------------------------------------


@dataclass
class Mismatch:
    m: int
    lhs: object
    rhs: object

    def to_json_dict(self) -> dict:
        return {"m": self.m, "lhs": _coeff_json(self.lhs), "rhs": _coeff_json(self.rhs)}


def _as_divisor(c) -> SymbolicDivisor:
    """A series coefficient as a divisor: absent coefficients read as 0."""
    return c if isinstance(c, SymbolicDivisor) else SymbolicDivisor.zero()


def _coeff_json(c):
    if isinstance(c, SymbolicDivisor):
        return c.to_json_entries()
    if isinstance(c, list):
        return [_coeff_json(x) for x in c]
    return c if isinstance(c, str) else rational_str(c)


@dataclass
class VerificationReport:
    params: dict
    checked: int
    mismatches: list

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "params": self.params,
            "checked": self.checked,
            "mismatches": [m.to_json_dict() for m in self.mismatches],
        }


def verify_main_theorem(field: QuadField, d_b: int, m_max: int) -> VerificationReport:
    """Compare Sh(Phi^o) against Phi^u coefficient by coefficient
    (constant terms included) up to q^m_max.

    The lift side is computed with parameters kappa = 3, N = D_B,
    t = |Delta|, principal character; its input series must extend to
    t * (m_max/t)^2, which is where the divisor sums reach.
    """
    check_discriminant_hypotheses(field, d_b)
    t = -field.delta
    m_top = m_max // t
    bound = t * m_top * m_top if m_top else m_max
    phi_o = build_phi_o(field, d_b, bound, square_class=t)
    params = ShimuraParams(kappa=3, level_N=d_b, t=t)
    lifted = shimura_lift(phi_o, params, mmax=m_top)
    phi_u = build_phi_u(field, d_b, m_max)

    mismatches = []
    for m in range(0, m_max + 1):
        lhs = _as_divisor(lifted.coefficient(m) if m <= lifted.max_exponent else 0)
        rhs = _as_divisor(phi_u.coefficient(m))
        if lhs != rhs:
            mismatches.append(Mismatch(m=m, lhs=lhs, rhs=rhs))
    return VerificationReport(
        params={"delta": field.delta, "d_b": d_b, "m_max": m_max},
        checked=m_max + 1,
        mismatches=mismatches,
    )


def fiber_count(
    field: QuadField, m: int, c: int, nu_p: int, nu_away: int
) -> int:
    """Size of a fiber of the eigenvector map: |o_k^x| * rho(m / (c |Delta| nu_p nu^p)),
    and zero when the argument is not a positive integer."""
    if m < 1 or c < 1:
        raise ValueError("m and c must be positive")
    if nu_p < 1 or nu_away < 1:
        raise ValueError("Frobenius types are positive integers")
    if not factorize(nu_away).is_squarefree():
        raise ValueError(f"nu_away must be squarefree, got {nu_away}")
    den = c * (-field.delta) * nu_p * nu_away
    if m % den != 0:
        return 0
    return field.unit_order * rho(field, m // den)


def verify_remark_identity(field: QuadField, d_b: int, m_max: int) -> VerificationReport:
    """The closing operator identity: with free symbols Zplus(n, i) per
    optimal-embedding class and the displayed constant C, check

        Phi^u = C' + sum_i (2 + sum_{nonempty I} phi_I)(Phi^naive_i)

    coefficientwise, and that C' = 0.

    Each class carries the same weight on both sides, and phi_I is
    linear and never reads the class, so the check is exact in one
    class-free symbol Zp(n) per exponent: the left side (no operator),
    the naive series and each phi_I(naive) are built once, in units of
    1/(2h), where every Zp weight is an integer.  A mismatch is written
    per class, as Zplus(n, i) in true units; C' is checked in true units.
    """
    num_classes = optimal_embedding_count(field, d_b)
    primes = check_discriminant_hypotheses(field, d_b)
    two_h = 2 * field.class_number
    lrat = lvalue_closed_form(field, d_b)
    # The Remark's constant: C = (1/2) * lrat / #classes, as a K-multiple.
    c_naive = SymbolicDivisor.K(lrat / (2 * num_classes))
    c_prime = SymbolicDivisor.K(lrat) + c_naive * (-2 * num_classes)
    classes = range(1, num_classes + 1)

    # Left side: the definition of Phi^u, times 2h; Zp(m) + Zp(m*).
    lhs_coeffs: dict[int, SymbolicDivisor] = {0: SymbolicDivisor.K(lrat * two_h)}
    for m in range(1, m_max + 1):
        mstar = m // gcd(m, d_b)
        w = 1 if mstar < m else 2
        lhs_coeffs[m] = SymbolicDivisor._of({("Zp", k): w for k in (m, mstar)})
    lhs = FormalSeries(lhs_coeffs, m_max)

    # Right side: the operator expansion of the naive series, times 2h.
    naive_coeffs = {n: SymbolicDivisor._of({("Zp", n): 1}) for n in range(1, m_max + 1)}
    naive = FormalSeries({0: c_naive * (two_h * num_classes), **naive_coeffs}, m_max)
    rhs = FormalSeries({0: c_prime * two_h}, m_max).add(naive.scale(2))
    for mask in range(1, 2 ** len(primes)):
        subset = [p for k, p in enumerate(primes) if mask >> k & 1]
        rhs = rhs.add(op_phi_set(subset, naive))

    def in_classes(c) -> SymbolicDivisor:
        """Zp(n) of weight w as Zplus(n, i) of weight w/(2h) for each class i."""
        return SymbolicDivisor({
            key: Fraction(w, two_h)
            for sym, w in _as_divisor(c).terms.items()
            for key in ([sym] if sym[0] == "K" else [(*sym, i) for i in classes])
        })

    mismatches = [
        Mismatch(m, in_classes(lhs.coefficient(m)), in_classes(rhs.coefficient(m)))
        for m in series_difference_support(lhs, rhs)
    ]
    if c_prime:
        mismatches.insert(0, Mismatch(m=-1, lhs=c_prime, rhs=SymbolicDivisor.zero()))
    return VerificationReport(
        params={
            "delta": field.delta,
            "d_b": d_b,
            "m_max": m_max,
            "classes": num_classes,
        },
        checked=m_max + 1,
        mismatches=mismatches,
    )
