"""Job lists of the three workloads, generated from a seed and a round index.

A job is a dict with:

- ``kind``: ``verify``, ``cycle`` or ``lift`` (the CLI subcommand);
- ``argv``: the argument list handed to ``cyclelift.cli.main``;
- ``spec``: what the independent checker needs to know about the input;
- ``fault``: None, or the name of a known program fault the job is expected
  to hit on every run (its inputs do not depend on the seed);
- ``series`` (lift jobs only): ``(path, max_exponent, {n: "num/den"})``,
  the series file the harness writes before the job runs.

Every round of a workload has the same make-up (the same number of jobs of
each kind, prime, radius and label depth), so a round costs about the same
whatever the seed and however many rounds a run measures; only the random
parts (vectors, program seeds, series coefficients, chosen discriminants)
come from ``(seed, round)``.
"""

from __future__ import annotations

import random

# Discriminants Delta with (Delta | p) = -1, i.e. p inert in Q(sqrt(Delta)).
INERT_DELTAS = {
    3: (-10, -22),
    5: (-2, -22),
    7: (-2, -22),
    11: (-14, -26),
}

# tree-sweep: one r-formula ball per prime; ~1.2-1.6 s each except p = 3.
TREE_BALLS = ((3, 7), (5, 6), (7, 5), (11, 4))

# cycle-charts: how many random cycle jobs of each label depth L (the largest
# distance from Lambda0 of any vertex the cycle output names) a round holds,
# per prime.  The labelling search costs about the ball of radius L around
# Lambda0, so the depths are fixed per round to keep rounds equal in cost;
# L <= 7 keeps every random job inside the CLI's default --label-radius (8).
CYCLE_DEPTHS = {
    3: {0: 3, 1: 4, 2: 5, 3: 6, 4: 6, 5: 6, 6: 3, 7: 1},
    5: {0: 3, 1: 5, 2: 7, 3: 11, 4: 7, 5: 1},
    7: {0: 3, 1: 6, 2: 11, 3: 12, 4: 2},
}

# cycle-charts: (p, Delta, alpha_max) of the local-compare sweeps.
LOCAL_COMPARE = ((3, -10, 4), (5, -2, 3))

# series-identity: the identity grids (Delta, D_B, mmax), the rho bound, and
# the lift jobs' input sizes (max_exponent of the series file).
IDENTITY_GRIDS = ((-2, 35, 400), (-10, 51, 600), (-2, 65, 400))
RHO_MAX = 3000
LIFT_SIZES = (12000, 16000, 20000, 24000, 28000) * 4
# (kappa, level N, t, chi) lift parameters; chi is "principal" or a
# Kronecker discriminant.  The first three are the paper's parameters
# (kappa = 3, principal chi, t = |Delta|, N = D_B), where the constant term
# has a closed form; the others take the omitted-constant-term path.
LIFT_PARAMS = (
    (3, 35, 2, "principal"),
    (3, 51, 10, "principal"),
    (3, 65, 2, "principal"),
    (3, 35, 3, "principal"),
    (5, 35, 2, "principal"),
    (5, 11, 6, "principal"),
    (7, 21, 5, "principal"),
    (3, 35, 2, -4),
    (5, 13, 3, 5),
    (7, 11, 5, -3),
)

# Known faults, kept on fixed inputs so that exactly one job per round fails.
FAULT_CYCLE = {
    "name": "cycle-label-radius",
    "p": 3,
    "delta": -10,
    "sign": "minus",
    "coords": (1, 0, 0, 243, 0),
}
FAULT_LIFT_PATH = "fault_div_zero.json"


def round_rng(seed: int, workload: str, rnd: int) -> random.Random:
    return random.Random(f"{seed}:{workload}:{rnd}")


def vector_with_ord(rng: random.Random, p: int, k: int, digits: int = 6):
    """Integer coordinates (x0, y0, x1, y1), not all divisible by p, of a
    vector b = (x0 + y0 d) v0 + (x1 + y1 d) v1 with ord_p(x1 y0 - x0 y1) = k,
    i.e. ord_p q(b) = k, since q(b) = 2 Delta (x1 y0 - x0 y1) and p does
    not divide 2 Delta."""
    if not 0 <= k < digits:
        raise ValueError(f"ord {k} outside [0, {digits})")
    mod = p**digits
    while True:
        x0, y0 = rng.randrange(mod), rng.randrange(mod)
        if x0 % p or y0 % p:
            break
    unit = rng.randrange(1, mod)
    while unit % p == 0:
        unit = rng.randrange(1, mod)
    target = p**k * unit
    if x0 % p:
        x1 = rng.randrange(mod)
        y1 = (x1 * y0 - target) * pow(x0, -1, mod) % mod
    else:
        y1 = rng.randrange(mod)
        x1 = (target + x0 * y1) * pow(y0, -1, mod) % mod
    return x0, y0, x1, y1


def vector_text(p: int, coords) -> str:
    """The CLI's 'x0+y0d,x1+y1d[/p^e]' text of p^s * (x0 + y0 d, x1 + y1 d),
    where coords = (x0, y0, x1, y1, s); s < 0 becomes a denominator."""
    x0, y0, x1, y1, s = coords
    scale = p**s if s > 0 else 1
    text = f"{x0 * scale}+{y0 * scale}d,{x1 * scale}+{y1 * scale}d"
    return text + (f"/p^{-s}" if s < 0 else "")


def cycle_job(p, delta, kind, coords, alpha=None, fault=None) -> dict:
    argv = ["cycle", "--p", str(p), "--delta", str(delta), "--b", vector_text(p, coords)]
    if kind == "ortho":
        argv += ["--ortho", "--alpha", str(alpha)]
    else:
        argv += ["--sign", kind]
    spec = {"p": p, "delta": delta, "kind": kind, "coords": list(coords), "alpha": alpha}
    return {"kind": "cycle", "argv": argv, "spec": spec, "fault": fault}


def random_cycle_job(rng: random.Random, p: int, depth: int, slot: int) -> dict:
    """A cycle job whose output names vertices out to exactly `depth` from
    Lambda0.  With d0 = ord q - 2 r0 the distance from Lambda0 to the
    central lattice (r0 the p-adic valuation of the coordinates) and R the
    cycle's radius (ord q^{+-} - 1, resp. alpha - 1), the depth is d0 + R:

    - minus sign: ord q^- = ord q = d0 + 2 s, depth 2 (d0 + s) - 1 (odd);
    - plus sign:  ord q^+ = ord q + 1,         depth 2 (d0 + s) (even);
    - orthogonal: depth d0 + alpha - 1.

    The kind and R (0 to 3) follow from (depth, slot) alone, so every round
    has the same mix of cycle shapes; the vector, the orthogonal job's
    scaling and Delta are random.
    """
    kind = "ortho" if slot % 2 else ("minus" if depth % 2 else "plus")
    radius = max(min(depth, slot % 4), depth - 5)  # d0 <= 5 < 6 digits
    d0 = depth - radius
    alpha = None
    if kind == "ortho":
        s = rng.choice((-1, 0, 1))
        alpha = depth - d0 + 1
    elif kind == "minus":
        s = (depth + 1) // 2 - d0
    else:
        s = depth // 2 - d0
    x0, y0, x1, y1 = vector_with_ord(rng, p, d0)
    delta = rng.choice(INERT_DELTAS[p])
    return cycle_job(p, delta, kind, (x0, y0, x1, y1, s), alpha)


def verify_job(argv: list, spec: dict) -> dict:
    return {"kind": "verify", "argv": ["verify"] + argv, "spec": spec, "fault": None}


def tree_sweep(rng: random.Random) -> list:
    jobs = []
    for p, radius in TREE_BALLS:
        delta = rng.choice(INERT_DELTAS[p])
        argv = ["r-formula", "--p", str(p), "--delta", str(delta), "--count", "1",
                "--radius", str(radius), "--seed", str(rng.randrange(2**31))]
        jobs.append(verify_job(argv, {"sweep": "r-formula", "p": p, "count": 1,
                                      "radius": radius}))
    return jobs


def cycle_charts(rng: random.Random) -> list:
    jobs = []
    # local-compare exhausts its working precision on a few percent of
    # program seeds (exit 3), so it runs only at the CLI's default seed, as
    # in the README, where it passes; see CHANGES.md.
    for p, delta, alpha_max in LOCAL_COMPARE:
        argv = ["local-compare", "--p", str(p), "--delta", str(delta),
                "--alpha-max", str(alpha_max)]
        jobs.append(verify_job(argv, {"sweep": "local-compare", "p": p,
                                      "alpha_max": alpha_max}))
    # Many small charts rather than a few large ones: the program draws the
    # vectors, and their norms set each chart's size.
    for p, count, radius in ((3, 16, 3), (5, 8, 2)):
        delta = rng.choice(INERT_DELTAS[p])
        argv = ["chart", "--p", str(p), "--delta", str(delta), "--count", str(count),
                "--radius", str(radius), "--seed", str(rng.randrange(2**31))]
        jobs.append(verify_job(argv, {"sweep": "chart"}))
    cycles = [random_cycle_job(rng, p, depth, slot)
              for p, depths in CYCLE_DEPTHS.items()
              for depth, count in depths.items() for slot in range(count)]
    rng.shuffle(cycles)
    jobs += cycles
    f = FAULT_CYCLE
    jobs.append(cycle_job(f["p"], f["delta"], f["sign"], f["coords"], fault=f["name"]))
    return jobs


def random_series(rng: random.Random, max_exponent: int) -> dict:
    """A series with about 80% nonzero coefficients, small rationals as
    "num/den" text, and a nonzero a(0)."""
    coeffs = {0: f"{rng.choice((-1, 1)) * rng.randint(1, 9)}/{rng.randint(1, 9)}"}
    for n in range(1, max_exponent + 1):
        bits = rng.getrandbits(32)
        if bits >> 24 < 205:
            num = (bits & 0x7FF) % 1999 - 999
            coeffs[n] = f"{num or 1}/{(bits >> 11 & 0x1FFF) % 99 + 1}"
    return coeffs


def series_identity(rng: random.Random) -> list:
    jobs = []
    for delta, d_b, mmax in IDENTITY_GRIDS:
        for sweep in ("main-identity", "remark-identity"):
            argv = [sweep, "--delta", str(delta), "--db", str(d_b), "--mmax", str(mmax)]
            jobs.append(verify_job(argv, {"sweep": sweep, "mmax": mmax}))
    jobs.append(verify_job(["rho", "--max", str(RHO_MAX)],
                           {"sweep": "rho", "max": RHO_MAX, "deltas": 6}))
    for i, max_exponent in enumerate(LIFT_SIZES):
        kappa, level, t, chi = rng.choice(LIFT_PARAMS)
        path = f"series_{i}.json"
        argv = ["lift", "--kappa", str(kappa), "--level", str(level), "--t", str(t),
                "--in", path, "--out", f"lifted_{i}.json"]
        if chi != "principal":
            argv += ["--chi-kronecker", str(chi)]
        spec = {"kappa": kappa, "level": level, "t": t, "chi": chi}
        jobs.append({"kind": "lift", "argv": argv, "spec": spec, "fault": None,
                     "series": (path, max_exponent, random_series(rng, max_exponent))})
    fault = {"kind": "lift", "spec": {"expect_exit": 2}, "fault": "lift-div-zero",
             "argv": ["lift", "--kappa", "3", "--level", "35", "--t", "2",
                      "--in", FAULT_LIFT_PATH, "--out", "lifted_fault.json"]}
    jobs.append(fault)
    return jobs


ROUND_JOBS = {
    "tree-sweep": tree_sweep,
    "cycle-charts": cycle_charts,
    "series-identity": series_identity,
}
WORKLOADS = tuple(ROUND_JOBS)


def jobs_for_round(seed: int, workload: str, rnd: int) -> list:
    return ROUND_JOBS[workload](round_rng(seed, workload, rnd))
