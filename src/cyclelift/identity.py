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

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from cyclelift.errors import HypothesisError
from cyclelift.numth import divisors, factorize
from cyclelift.qseries import (
    FormalSeries,
    ShimuraParams,
    op_phi_set,
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
    pruned; equality is map equality.  Weights become Fractions once, in
    the constructor; `+` (with the integer 0 as identity), `*` by an int
    or Fraction scalar and `-` build pruned maps without re-wrapping.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        weights = {sym: Fraction(w) for sym, w in terms.items()}
        self.terms = {sym: w for sym, w in weights.items() if w}

    @classmethod
    def _of(cls, terms: dict) -> "SymbolicDivisor":
        """Wrap a map that already holds nonzero Fraction weights."""
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
                out[sym] = total
        return SymbolicDivisor._of(out)

    __radd__ = __add__

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        if not scalar:
            return SymbolicDivisor._of({})
        return SymbolicDivisor._of({sym: w * scalar for sym, w in self.terms.items()})

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


def _sym_name(sym: tuple) -> str:
    if sym[0] == "K":
        return "K"
    if sym[0] == "Zo":
        return f"Zo({sym[1]})"
    return f"Zplus({sym[1]},{sym[2]})"


def parse_symbolic_entries(entries) -> SymbolicDivisor:
    """Inverse of SymbolicDivisor.to_json_entries."""
    total = SymbolicDivisor.zero()
    for entry in entries:
        name = entry["sym"]
        w = Fraction(entry["w"])
        if name == "K":
            total += SymbolicDivisor.K(w)
        elif not isinstance(name, str):
            raise ValueError(f"unknown symbol {name!r}")
        elif name.startswith("Zo(") and name.endswith(")"):
            total += SymbolicDivisor.Zo(int(name[3:-1]), w)
        elif name.startswith("Zplus(") and name.endswith(")"):
            m, i = name[6:-1].split(",")
            total += SymbolicDivisor.Zplus(int(m), int(i), w)
        else:
            raise ValueError(f"unknown symbol {name!r}")
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
    if isinstance(c, (int, Fraction)):
        return rational_str(c)
    return repr(c)


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


def verify_remark_identity(
    field: QuadField, d_b: int, m_max: int, num_embedding_classes: int
) -> VerificationReport:
    """The closing operator identity: with free symbols Zplus(n, i) per
    embedding class and the displayed constant C, check

        Phi^u = C' + sum_i (2 + sum_{nonempty I} phi_I)(Phi^naive_i)

    coefficientwise, and that C' = 0.
    """
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
