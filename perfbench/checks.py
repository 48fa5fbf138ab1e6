"""Independent checks of every job's output.

Nothing here imports cyclelift or compares against saved program output:
expected values come from closed forms, from sympy's number theory, or from
properties the method must have.  A checker returns a list of problems; an
empty list means the output passed.

A result is a dict with ``exit`` (the code ``cli.main`` returned, or 1 when
it raised, as the installed script would), ``error`` (the uncaught
exception, or None), ``out`` (captured stdout) and, for lift jobs, ``file``
(the text of the ``--out`` file, or None).
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import gcd, isqrt

from sympy import divisors, factorint, kronecker_symbol


def kron(a: int, n: int) -> int:
    return int(kronecker_symbol(a, n))


def ball_size(p: int, r: int) -> int:
    """Vertices within distance r of a vertex of the (p+1)-regular tree."""
    return 1 + (p + 1) * (p**r - 1) // (p - 1)


def sphere_size(p: int, d: int) -> int:
    """Vertices at distance exactly d from a vertex of the (p+1)-regular tree."""
    return 1 if d == 0 else (p + 1) * p ** (d - 1)


def expected_checked(spec: dict) -> int | None:
    """The `checked` count a verify sweep must report, or None when it
    depends on vectors the program draws itself (chart)."""
    sweep = spec["sweep"]
    if sweep == "r-formula":
        return spec["count"] * ball_size(spec["p"], spec["radius"])
    if sweep == "local-compare":
        p = spec["p"]
        return sum(
            2 * (ball_size(p, a + 2) + min(12, ball_size(p, a + 2)) + 2)
            for a in range(spec["alpha_max"] + 1)
        )
    if sweep in ("main-identity", "remark-identity"):
        return spec["mmax"] + 1
    if sweep == "rho":
        return spec["deltas"] * spec["max"]
    return None


def _json_output(result: dict, text: str | None) -> tuple[dict | None, list]:
    if result["error"] is not None:
        return None, [f"uncaught {result['error']}"]
    if result["exit"] != 0:
        return None, [f"exit {result['exit']}: {result.get('err', '').strip()[-200:]}"]
    try:
        return json.loads(text or ""), []
    except json.JSONDecodeError as exc:
        return None, [f"output is not JSON: {exc}"]


def check_verify(spec: dict, result: dict) -> list:
    data, problems = _json_output(result, result["out"])
    if problems:
        return problems
    if data.get("mismatches") != []:
        problems.append(f"mismatches reported: {str(data.get('mismatches'))[:200]}")
    checked = data.get("checked")
    want = expected_checked(spec)
    if not isinstance(checked, int) or checked < 1:
        problems.append(f"checked is {checked!r}")
    elif want is not None and checked != want:
        problems.append(f"checked {checked}, expected {want}")
    return problems


# -- cycle decompositions ------------------------------------------------------


def vp(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of 0")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def cycle_profile(spec: dict) -> tuple[int, dict]:
    """(d0, {d: multiplicity}) predicted from the integer coordinates:
    d0 = ord q - 2 r0 is the distance from Lambda0 to the central lattice,
    and the multiplicity at distance d from it is t - floor(d/2), resp.
    t - floor((d+1)/2), for ord q^{+-} = 2t, resp. 2t - 1 (unitary), or
    alpha - d (orthogonal), kept where positive."""
    p = spec["p"]
    x0, y0, x1, y1, s = spec["coords"]
    ordq = vp(x1 * y0 - x0 * y1, p) + 2 * s  # q = 2 Delta (x1 y0 - x0 y1) p^(2s)
    r0 = min(vp(c, p) for c in (x0, y0, x1, y1) if c) + s
    d0 = ordq - 2 * r0
    if spec["kind"] == "ortho":
        alpha = spec["alpha"]
        return d0, {d: alpha - d for d in range(alpha)}
    o = ordq + 1 if spec["kind"] == "plus" else ordq
    t = -((-o) // 2)
    profile = {}
    for d in range(o + 1):
        m = t - d // 2 if o % 2 == 0 else t - (d + 1) // 2
        if m > 0:
            profile[d] = m
    return d0, profile


def _word(label: str) -> tuple:
    return tuple(label.split(".")) if label else ()


def word_distance(a: tuple, b: tuple) -> int:
    """Tree distance between two vertices given by their path words from
    Lambda0: the words share exactly the path to their meeting point."""
    common = 0
    for x, y in zip(a, b):
        if x != y:
            break
        common += 1
    return len(a) + len(b) - 2 * common


def check_cycle(spec: dict, result: dict) -> list:
    data, problems = _json_output(result, result["out"])
    if problems:
        return problems
    p = spec["p"]
    d0, profile = cycle_profile(spec)
    horizontal = data.get("horizontal", [])
    want_count = 2 if spec["kind"] == "ortho" else 1
    if len(horizontal) != 1 or horizontal[0].get("count") != want_count:
        return [f"horizontal {horizontal}, expected one component of count {want_count}"]
    center = horizontal[0]["vertex"]
    cw = _word(center)
    if len(cw) != d0:
        problems.append(f"central lattice at depth {len(cw)} from Lambda0, expected {d0}")
    vertical = data.get("vertical", [])
    labels = [v["vertex"] for v in vertical]
    if len(set(labels)) != len(labels):
        problems.append("repeated vertical labels")
    table = data.get("vertices", {})
    if set(table) != set(labels) | {center}:
        problems.append("vertices table does not match the labels used")
    described = {
        (v["denom_exp"], tuple(v["pivots"]), tuple(v["off"])) for v in table.values()
    }
    if len(described) != len(table):
        problems.append("two labels describe the same lattice")
    for label, v in table.items():
        # Type-0 vertices (even depth from Lambda0) have det valuation 0, and
        # their type-2 neighbours, which contain them with index p, -1.
        det = v["pivots"][0] + v["pivots"][1] - 2 * v["denom_exp"]
        if det != -(len(_word(label)) % 2):
            problems.append(f"vertex {label!r}: det valuation {det} at odd/even depth")
            break
    per_depth: dict[int, int] = {}
    for entry in vertical:
        d = word_distance(cw, _word(entry["vertex"]))
        per_depth[d] = per_depth.get(d, 0) + 1
        if entry["mult"] != profile.get(d):
            problems.append(
                f"vertex {entry['vertex']!r} at distance {d}: mult {entry['mult']},"
                f" expected {profile.get(d)}"
            )
            break
    want_depths = {d: sphere_size(p, d) for d in profile}
    if per_depth != want_depths:
        problems.append(f"vertices per distance {per_depth}, expected {want_depths}")
    return problems


# -- Shimura lifts -------------------------------------------------------------


def reduced_form_count(disc: int) -> int:
    """Class number h(disc), disc < 0, by counting primitive reduced forms."""
    h = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            if (b * b - disc) % (4 * a):
                continue
            c = (b * b - disc) // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                h += 1
        a += 1
    return h


def paper_lvalue(t: int, level: int) -> Fraction | None:
    """-(h/2) prod_{l | N} (1 - chi_k(l)) for k = Q(sqrt(-t)) when (t, N) are
    the paper's parameters (t even squarefree, N = D_B squarefree with an even
    number of prime factors, all inert in k); None otherwise."""
    fac_t = factorint(t)
    fac_n = factorint(level)
    if t % 2 or any(e > 1 for e in fac_t.values()):
        return None
    if level <= 1 or any(e > 1 for e in fac_n.values()) or len(fac_n) % 2:
        return None
    disc = -4 * t
    if any(kron(disc, ell) != -1 for ell in fac_n):
        return None
    value = Fraction(-reduced_form_count(disc), 2)
    for ell in fac_n:
        value *= 1 - kron(disc, ell)
    return value


def lift_coefficients(spec: dict, coeffs: dict, m_top: int) -> dict:
    """From the input coefficients {n: "num/den"}, b(m) = sum_{n | m} chi_t(n) n^((kappa-3)/2) a(t m^2 / n^2) for
    1 <= m <= m_top, keyed by the output exponent t m, nonzero ones only."""
    kappa, level, t, chi = spec["kappa"], spec["level"], spec["t"], spec["chi"]
    lam = (kappa - 1) // 2
    out = {}
    for m in range(1, m_top + 1):
        total = Fraction(0)
        for n in map(int, divisors(m)):
            if chi == "principal":
                ch = 1 if gcd(n, 4 * level) == 1 else 0
            else:
                ch = kron(chi, n)
            if lam % 2:
                ch *= kron(-1, n)
            ch *= kron(t, n)
            if ch:
                total += ch * n ** ((kappa - 3) // 2) * Fraction(coeffs.get(t * (m // n) ** 2, 0))
        if total:
            out[t * m] = total
    return out


def check_lift(spec: dict, max_exponent: int, coeffs: dict, result: dict) -> list:
    data, problems = _json_output(result, result.get("file"))
    if problems:
        return problems
    t = spec["t"]
    m_top = isqrt(max_exponent // t)
    if data.get("max_exponent") != t * m_top:
        problems.append(f"max_exponent {data.get('max_exponent')}, expected {t * m_top}")
    got = {e["n"]: Fraction(e["c"]) for e in data.get("coeffs", [])}
    constant = got.pop(0, None)
    want = lift_coefficients(spec, coeffs, m_top)
    if got != want:
        bad = sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n))
        problems.append(f"{len(bad)} wrong coefficients, first at q^{bad[0]}")
    a0 = Fraction(coeffs.get(0, 0))
    lval = paper_lvalue(t, spec["level"]) if (
        spec["kappa"] == 3 and spec["chi"] == "principal") else None
    policy = data.get("constant_term_policy")
    if a0 == 0:
        if policy != "absent" or constant is not None:
            problems.append(f"a(0) = 0 but constant term policy {policy!r}")
    elif lval is not None:
        if policy != "closed_form" or constant != -a0 * lval:
            problems.append(f"constant term {constant} ({policy}), expected {-a0 * lval}")
    elif policy != "unavailable_omitted" or constant is not None:
        problems.append(f"constant term policy {policy!r}, expected 'unavailable_omitted'")
    chi = spec["chi"]
    want_params = {"kappa": spec["kappa"], "level": spec["level"], "t": t, "chi": chi}
    if data.get("params") != want_params:
        problems.append(f"params {data.get('params')}, expected {want_params}")
    return problems


# -- known faults --------------------------------------------------------------


def check_clean_exit(code: int, result: dict) -> list:
    """A job that must end with the given documented exit code and no
    uncaught exception (e.g. exit 2 for bad input)."""
    if result["error"] is not None:
        return [f"uncaught {result['error']}"]
    if result["exit"] != code:
        return [f"exit {result['exit']}, expected {code}"]
    return []


def check_job(job: dict, result: dict) -> list:
    kind = job["kind"]
    if kind == "verify":
        return check_verify(job["spec"], result)
    if kind == "cycle":
        problems = check_cycle(job["spec"], result)
        if problems and job["fault"] is not None:
            # Mended either by labelling the far vertices or by refusing the
            # input with a documented exit code instead of a traceback.
            if not check_clean_exit(2, result):
                return []
        return problems
    if "expect_exit" in job["spec"]:
        return check_clean_exit(job["spec"]["expect_exit"], result)
    _, max_exponent, coeffs = job["series"]
    return check_lift(job["spec"], max_exponent, coeffs, result)


# -- self-test -------------------------------------------------------------------


def altered_outputs(job: dict, result: dict):
    """Yield (description, altered result) pairs that a checker must reject,
    derived from a result that passed: one wrong multiplicity, one wrong
    lift coefficient, one short `checked`."""
    kind = job["kind"]
    if kind == "verify":
        data = json.loads(result["out"])
        data["checked"] -= 1
        yield "short checked", dict(result, out=json.dumps(data))
    elif kind == "cycle":
        data = json.loads(result["out"])
        if data["vertical"]:
            data["vertical"][-1]["mult"] += 1
            yield "wrong multiplicity", dict(result, out=json.dumps(data))
    elif "series" in job:
        data = json.loads(result["file"])
        for entry in data["coeffs"]:
            if entry["n"] > 0:
                entry["c"] = str(Fraction(entry["c"]) + 1)
                yield "wrong lift coefficient", dict(result, file=json.dumps(data))
                break


def self_test(job: dict, result: dict) -> list:
    """Descriptions of alterations the checker wrongly accepted."""
    return [desc for desc, bad in altered_outputs(job, result) if not check_job(job, bad)]
