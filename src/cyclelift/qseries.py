"""Formal q-expansions over an abstract coefficient module, the formal
Shimura lift, and the reindexing operators U_d / B_d / phi_d.

Coefficients may be exact rationals (fractions.Fraction / int) or any
value that supports `+` (with the integer 0 as identity), `*` by an
int or Fraction scalar, and truth testing for zero (the symbolic
divisors of the identity module).  Series are sparse with an explicit
truncation bound; reading past the bound is a checked error, never a
silent zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, log10

from cyclelift.errors import HypothesisError, TruncationInsufficientError
from cyclelift.numth import divisors, is_prime, is_squarefree, kronecker, max_divisor_count
from cyclelift.quadfield import lvalue_closed_form, make_field

# -- series ------------------------------------------------------------------


class FormalSeries:
    """Sparse q-expansion sum_n a(n) q^n with a hard truncation bound.

    Exponents above max_exponent are unknown: coefficient() raises
    TruncationInsufficientError there.  Absent exponents below the
    bound are zero.
    """

    __slots__ = ("coeffs", "max_exponent")

    def __init__(self, coeffs: dict, max_exponent: int):
        if max_exponent < 0:
            raise ValueError("max_exponent must be >= 0")
        clean = {}
        for n, c in coeffs.items():
            if n < 0:
                raise ValueError(f"negative exponent {n}")
            if n > max_exponent:
                raise ValueError(f"exponent {n} above truncation {max_exponent}")
            if c:
                clean[n] = c
        self.coeffs = clean
        self.max_exponent = max_exponent

    @classmethod
    def zero(cls, max_exponent: int) -> "FormalSeries":
        return cls({}, max_exponent)

    def coefficient(self, n: int):
        if n > self.max_exponent:
            raise TruncationInsufficientError(
                f"coefficient {n} beyond truncation {self.max_exponent}"
            )
        return self.coeffs.get(n, 0)

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def add(self, other: "FormalSeries") -> "FormalSeries":
        bound = min(self.max_exponent, other.max_exponent)
        out = dict((n, c) for n, c in self.coeffs.items() if n <= bound)
        for n, c in other.coeffs.items():
            if n > bound:
                continue
            out[n] = out[n] + c if n in out else c
        return FormalSeries(out, bound)

    def scale(self, scalar) -> "FormalSeries":
        return FormalSeries(
            {n: c * scalar for n, c in self.coeffs.items()}, self.max_exponent
        )

    def __eq__(self, other):
        if not isinstance(other, FormalSeries):
            return NotImplemented
        return self.max_exponent == other.max_exponent and self.coeffs == other.coeffs

    def __repr__(self):
        terms = ", ".join(f"{n}: {c}" for n, c in sorted(self.coeffs.items())[:6])
        return f"FormalSeries({{{terms}, ...}}, O(q^{self.max_exponent + 1}))"


def series_difference_support(a: FormalSeries, b: FormalSeries) -> list[int]:
    """Exponents (up to the common bound) where the two series differ."""
    bound = min(a.max_exponent, b.max_exponent)
    exps = {n for n in a.coeffs if n <= bound} | {n for n in b.coeffs if n <= bound}
    return [n for n in sorted(exps) if a.coefficient(n) != b.coefficient(n)]


# -- Shimura parameters and characters ----------------------------------------

@dataclass(frozen=True)
class ShimuraParams:
    """Lift parameters (kappa, N, t, chi).

    chi is the principal character mod 4N when chi_disc is None, else
    the real character n -> (chi_disc | n) of a nonzero Kronecker-symbol
    discriminant.
    """

    kappa: int
    level_N: int
    t: int
    chi_disc: int | None = None

    def __post_init__(self):
        if self.kappa < 3 or self.kappa % 2 == 0:
            raise HypothesisError(f"kappa must be odd and >= 3, got {self.kappa}")
        if self.level_N < 1:
            raise HypothesisError(f"N must be positive, got {self.level_N}")
        if self.t < 1 or not is_squarefree(self.t):
            raise HypothesisError(f"t must be positive squarefree, got {self.t}")
        if self.chi_disc == 0:
            raise HypothesisError("kronecker character needs a discriminant")

    @property
    def lam(self) -> int:
        return (self.kappa - 1) // 2

    def chi(self, n: int) -> int:
        if self.chi_disc is None:
            return 1 if gcd(n, 4 * self.level_N) == 1 else 0
        return kronecker(self.chi_disc, n)


def chi_t(params: ShimuraParams, n: int) -> int:
    """The shifted character chi_t(n) = chi(n) (-1|n)^lam (t|n)."""
    if n < 1:
        raise ValueError(f"chi_t requires n >= 1, got {n}")
    value = params.chi(n)
    if value == 0:
        return 0
    if params.lam % 2 == 1:
        value *= kronecker(-1, n)
    return value * kronecker(params.t, n)


# -- the formal Shimura lift ---------------------------------------------------


def _closed_form_lvalue(params: ShimuraParams) -> Fraction | None:
    """The exact rational (i/2pi) L(1, check chi_t) when the parameters
    are the paper's (kappa=3, principal chi, t=|Delta|, N=D_B), else
    None."""
    if params.kappa != 3 or params.chi_disc is not None:
        return None
    if params.t % 2 != 0:
        return None
    try:
        field = make_field(-params.t)
        return lvalue_closed_form(field, params.level_N)
    except HypothesisError:
        return None


def lift_count(series: FormalSeries, t: int, mmax: int | None = None) -> int:
    """The count m_top of coefficients b(1..m_top) that shimura_lift
    computes: mmax when given, else the largest M with t*M^2 within the
    input truncation."""
    return isqrt(series.max_exponent // t) if mmax is None else mmax


def shimura_lift(
    series: FormalSeries, params: ShimuraParams, mmax: int | None = None
) -> FormalSeries:
    """The formal Shimura lift: output coefficient at t*m is

        b(m) = sum_{n | m} chi_t(n) n^((kappa-3)/2) a(t m^2 / n^2),

    supported on exponents divisible by t.  The output truncation is
    the largest t*M with t*M^2 within the input truncation (or the
    requested mmax, validated against it).

    The constant term is -a(0) (i/2pi) L(1, check chi_t), evaluated by
    the exact closed form when the parameters admit one; otherwise it
    is left out, as it is when a(0) = 0.
    """
    t = params.t
    m_top = lift_count(series, t, mmax)
    if m_top > lift_count(series, t):
        raise TruncationInsufficientError(
            f"lift to m={mmax} needs input through q^{t * mmax * mmax}, "
            f"have {series.max_exponent}"
        )
    power = (params.kappa - 3) // 2
    # a(t k^2) for k = 1..m_top: the coefficients the sums below read.
    read = [series.coefficient(t * k * k) for k in range(1, m_top + 1)]
    if len({isinstance(a, (int, Fraction)) for a in read if a}) > 1:
        raise ValueError("the lift would add rational and symbolic coefficients")
    a0 = series.coefficient(0)
    lrat = _closed_form_lvalue(params) if a0 else None
    constant = None if lrat is None else a0 * -lrat
    digits = _lift_digits(read, power, m_top, constant)
    if digits > _DIGIT_LIMIT:
        raise ValueError(f"a lifted coefficient could have {digits} digits, above the "
                         f"cap of {_DIGIT_LIMIT}")
    out: dict[int, object] = {}
    for m in range(1, m_top + 1):
        acc = 0
        for n in divisors(m):
            ch = chi_t(params, n)
            if ch == 0:
                continue
            a = read[m // n - 1]
            if not a:
                continue
            acc += a * (ch * n**power)
        if acc:
            out[t * m] = acc
    if constant is not None:
        out[0] = constant
    return FormalSeries(out, t * m_top)


def _lift_digits(read: list, power: int, m_top: int, constant) -> int:
    """A bound on the decimal digits of the numerators and denominators
    that shimura_lift writes: those of `constant`, its constant term (or
    None), and of each b(1..m_top) that it forms from `read`.  b(m) adds at
    most D terms chi_t(n) n^power a, D the most divisors of any m <= m_top,
    and each a is a rational N/Q with |N| <= top and Q <= bottom.  So b(m)
    has a denominator of at most bottom^D and, over it, a numerator of at
    most D m_top^power top bottom^(D - 1).  A symbolic coefficient counts
    by its weights."""
    top = bottom = 1
    for a in read:
        for w in _weights(a):
            top = max(top, abs(w.numerator))
            bottom = max(bottom, w.denominator)
    most = max_divisor_count(m_top)
    logs = [log10(most) + power * log10(max(m_top, 1)) + log10(top)
            + (most - 1) * log10(bottom), most * log10(bottom)]
    for w in _weights(constant) if constant else ():
        logs += [log10(abs(w.numerator)), log10(w.denominator)]
    # The slack covers float rounding, so that the bound is never below.
    return int(max(logs) * (1 + 1e-12) + 1e-9) + 1


def _weights(a):
    """The rational weights of a coefficient: itself when rational, else
    those of its symbols."""
    return (a,) if isinstance(a, (int, Fraction)) else a.terms.values()


# -- reindexing operators -------------------------------------------------------


def op_U(d: int, series: FormalSeries) -> FormalSeries:
    """U_d: sum a(n) q^n -> sum a(dn) q^n."""
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    bound = series.max_exponent // d
    out = {n // d: c for n, c in series.coeffs.items() if n % d == 0 and n // d <= bound}
    return FormalSeries(out, bound)


def op_B(d: int, series: FormalSeries) -> FormalSeries:
    """B_d: sum a(n) q^n -> sum a(n) q^(dn).

    Exponents strictly between multiples of d are known zeros, so the
    bound extends to d*(max_exponent + 1) - 1.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return FormalSeries(
        {d * n: c for n, c in series.coeffs.items()},
        d * (series.max_exponent + 1) - 1,
    )


def op_phi(d: int, series: FormalSeries) -> FormalSeries:
    """phi_d = B_d (1 - U_d): coefficient a(n) - a(dn) at q^(dn)."""
    diff = series.add(op_U(d, series).scale(-1))
    return op_B(d, diff)


def op_phi_set(primes, series: FormalSeries) -> FormalSeries:
    """phi_I for a set of distinct primes (composition; the factors
    commute for coprime indices)."""
    ps = sorted(primes)
    if len(set(ps)) != len(ps):
        raise ValueError("op_phi_set requires distinct primes")
    if not all(is_prime(d) for d in ps):
        raise ValueError("op_phi_set requires prime indices")
    out = series
    for d in ps:
        out = op_phi(d, out)
    return out


# -- JSON series format -----------------------------------------------------------


def rational_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}"


def series_to_json_dict(series: FormalSeries) -> dict:
    """The interchange form: rational coefficients as "num/den", symbolic
    coefficients as lists of {"sym": name, "w": weight} entries."""
    entries = []
    for n in series.support():
        c = series.coeffs[n]
        if isinstance(c, (int, Fraction)):
            entries.append({"n": n, "c": rational_str(c)})
        elif hasattr(c, "to_json_entries"):
            entries.append({"n": n, "c": c.to_json_entries()})
        else:
            raise TypeError(f"coefficient at {n} is not serializable: {c!r}")
    return {"max_exponent": series.max_exponent, "coeffs": entries}


# A "num/den" text that Fraction reads as int(num) / int(den): ASCII
# digits and a nonzero denominator.  Each digit run is capped at 640,
# the least int_max_str_digits Python allows, so that longer runs still
# reach Fraction and its digit-limit error.
_NUM, _DEN = r"-?[0-9]{1,640}", r"(?=0*[1-9])[0-9]{1,640}"
_PLAIN_RATIONAL = re.compile(f"({_NUM})/({_DEN})")
_PLAIN_RATIONALS = re.compile(f"{_NUM}/{_DEN}(?:\n{_NUM}/{_DEN})*")

# Fraction(text) builds 10**|e| for a decimal exponent e, in time that
# grows with |e|.  A text whose power would have more digits than
# Python's default int-to-str limit is refused before it is built.
_DIGIT_LIMIT = 4300
_EXPONENT = r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z"


def parse_rational(text: str) -> Fraction:
    """Fraction(text), read straight from the digits when plain; a text
    whose decimal exponent would pass _DIGIT_LIMIT is a ValueError."""
    plain = _PLAIN_RATIONAL.fullmatch(text)
    if plain is None:
        exponent = re.search(_EXPONENT, text)
        if exponent and abs(int(exponent[1])) >= _DIGIT_LIMIT:
            raise ValueError(f"the exponent of {text!r} makes a power of 10 of more "
                             f"than {_DIGIT_LIMIT} digits")
        return Fraction(text)
    return Fraction(int(plain[1]), int(plain[2]))


def _check_rationals(texts: list) -> None:
    """Raise as Fraction does for the first text it rejects.  One regex
    match checks a batch of plain texts without building anything."""
    joined = "\n".join(texts)
    if texts and (
        joined.count("\n") != len(texts) - 1 or not _PLAIN_RATIONALS.fullmatch(joined)
    ):
        for text in texts:
            parse_rational(text)


def series_from_json_dict(
    data: dict, symbolic_parser=None, square_class: int | None = None
) -> FormalSeries:
    """Inverse of series_to_json_dict.  Exponents and max_exponent must
    be JSON integers.

    Every entry is checked whatever square_class is: its coefficient
    must parse and its exponent must lie in [0, max_exponent].  With
    square_class=t (a positive int) only the coefficients at 0 and
    t*k^2, the ones shimura_lift with parameter t reads, are built;
    the others read as zero.
    """
    t = square_class
    try:
        # type() is int, not isinstance: json reads true as True, a bool.
        bound = data["max_exponent"]
        if type(bound) is not int:
            raise ValueError(f"max_exponent {bound!r} is not an integer")
        coeffs = {}
        dropped = []  # texts of the coefficients not built
        try:
            for entry in data["coeffs"]:
                n = entry["n"]
                if type(n) is not int:
                    raise ValueError(f"exponent {n!r} is not an integer")
                c = entry["c"]
                if t is None:
                    keep = True
                else:
                    k2, rest = divmod(n, t)
                    keep = rest == 0 and k2 >= 0 and isqrt(k2) ** 2 == k2
                if not isinstance(c, str):
                    if symbolic_parser is None:
                        raise ValueError(f"symbolic coefficient at {n} not supported here")
                    value = symbolic_parser(c)
                elif keep:
                    value = parse_rational(c)
                else:
                    dropped.append(c)
                # Dropped entries stay as zeros so that FormalSeries
                # range-checks them with the rest, then prunes them.
                coeffs[n] = value if keep else 0
        except Exception:
            # The dropped texts all precede the entry that raised, so a
            # bad one among them is the first error in the file.
            _check_rationals(dropped)
            raise
        _check_rationals(dropped)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed series data: {exc}") from exc
    return FormalSeries(coeffs, bound)
