"""Property suite: the integer tree core of cyclelift.bttree against the
object-path reference in oracles.py, at p in {3, 5, 7, 11, 13} with two
inert Delta each, at working precisions low enough to run out.

Outcomes are compared whole: either the same values (keys in order,
r-invariants) or the same exception type, message and `needed`.  There
are two exceptions.  The core walks the tree on exact integer bases,
and reads duals and types off integer keys, so it never runs out of
digits there: where the oracle raises at the working precision, the
core must give the oracle's keys, duals and types at precision
EXACT_PRECISION.  And the core's hyperbolic basis keeps every digit of
its exact columns, so it must agree with the oracle's at the smaller
of the two precisions.
"""

import random

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from cyclelift import bttree
from cyclelift.errors import CycleLiftError
from cyclelift.padic import LocalContext, qform

# Two inert (nonresidue) Delta per prime, and a ball radius that keeps
# the object-path reference cheap.
INERT = {3: (-1, -10), 5: (-2, -3), 7: (-1, -2), 11: (-1, -3), 13: (-2, -5)}
RADIUS = {3: 4, 5: 3, 7: 2, 11: 2, 13: 2}

# A working precision at which the oracle enumerates every ball below.
EXACT_PRECISION = 60

PRIME_DELTA = st.sampled_from([(p, d) for p, ds in INERT.items() for d in ds])
SUITE = settings(max_examples=15, deadline=None, derandomize=True)


def outcome(fn):
    try:
        return ("ok", fn())
    except (CycleLiftError, ValueError) as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "needed", None))


def ball_keys(module, center, radius):
    return [(lat.key, d) for lat, d in module.tree_ball(center, radius)]


def oracle_outcome(ctx, fn):
    """The outcome of fn(ctx) on the oracle, or where that raises, of
    fn at EXACT_PRECISION."""
    found = outcome(lambda: fn(ctx))
    if found[0] == "ok":
        return found
    exact = LocalContext(p=ctx.p, delta_sq=ctx.delta_sq, precision=EXACT_PRECISION)
    return outcome(lambda: fn(exact))


def agree_at_smaller_precision(u, r):
    """u keeps at least r's digits, and the two vectors agree in every
    coordinate at the smaller of their precisions."""
    top = max(u.denom_exp, r.denom_exp)
    for a, b in ((u.a0, r.a0), (u.a1, r.a1)):
        known, ref_known = a.prec - u.denom_exp, b.prec - r.denom_exp
        if known < ref_known:
            return False
        m = u.ctx.p ** (ref_known + top)
        scale, ref_scale = u.ctx.p ** (top - u.denom_exp), u.ctx.p ** (top - r.denom_exp)
        if (a.x * scale - b.x * ref_scale) % m or (a.y * scale - b.y * ref_scale) % m:
            return False
    return True


def random_vector(ctx, rng):
    """A random anisotropic vector: coordinates mod p^6, the second one
    skewed by a random p-power, and a random denominator."""
    p = ctx.p
    while True:
        a0 = (rng.randrange(p**6), rng.randrange(p**6))
        skew = p ** rng.randrange(4)
        a1 = (rng.randrange(p**6) * skew, rng.randrange(p**6) * skew)
        if all(x % p == 0 for x in a0 + a1):
            continue
        vec = ctx.vector_from_ints(a0, a1, rng.randrange(-2, 3))
        if not qform(vec).is_isotropic:
            return vec


def coarse_vector(ctx, rng):
    """A vector whose coordinates are known to only 1-4 digits each, so
    that membership can be undecidable at precision (or the vector zero)."""
    p = ctx.p
    k0, k1 = rng.randint(1, 4), rng.randint(1, 4)
    x0, y0, x1, y1 = (rng.randrange(p**4) * p ** rng.randrange(3) for _ in range(4))
    try:
        return ctx.vector(ctx.elem(x0, y0, k0), ctx.elem(x1, y1, k1))
    except CycleLiftError:
        return coarse_vector(ctx, rng)


@SUITE
@given(PRIME_DELTA, st.integers(8, 16), st.booleans())
def test_standard_balls_and_neighbour_order(pd, precision, type2):
    p, delta = pd
    ctx = LocalContext(p=p, delta_sq=delta, precision=precision)
    core = bttree.standard_lattices(ctx)[type2]
    assert outcome(lambda: [nb.key for nb in core.neighbors()]) == oracle_outcome(
        ctx, lambda c: [nb.key for nb in oracles.standard_lattices(c)[type2].neighbors()]
    )
    assert outcome(lambda: ball_keys(bttree, core, RADIUS[p])) == oracle_outcome(
        ctx, lambda c: ball_keys(oracles, oracles.standard_lattices(c)[type2], RADIUS[p])
    )


@SUITE
@given(PRIME_DELTA, st.integers(8, 20), st.integers(0, 2**32))
def test_central_balls_match(pd, precision, seed):
    p, delta = pd
    ctx = LocalContext(p=p, delta_sq=delta, precision=precision)
    rng = random.Random(seed)
    vec = random_vector(ctx, rng)
    core = outcome(lambda: bttree.central_lattice(vec))
    ref = outcome(lambda: oracles.central_lattice(vec))
    if core[0] != "ok" or ref[0] != "ok":
        assert core == ref
        return
    core, ref = core[1], ref[1]
    assert core.key == ref.key
    found = outcome(core.hyperbolic_basis)
    ref_found = outcome(ref.hyperbolic_basis)
    if found[0] != "ok" or ref_found[0] != "ok":
        assert found == ref_found
    else:
        for u, r in zip(found[1], ref_found[1]):
            assert agree_at_smaller_precision(u, r)
    # The oracle's centre carries no inherited basis, so rebuilding it
    # from its key at another precision gives the same tree.
    radius = RADIUS[p] - 1
    core_ball = bttree.tree_ball(core, radius)
    assert ("ok", [(lat.key, d) for lat, d in core_ball]) == oracle_outcome(
        ctx, lambda c: ball_keys(oracles, oracles.ObjectLattice(c, *ref.key, ref.vtype), radius)
    )
    probes = (vec, random_vector(ctx, rng), coarse_vector(ctx, rng))
    for lat, _ in core_ball:
        rlat = oracles.ObjectLattice(ctx, *lat.key)
        for b in probes:
            assert outcome(lambda: lat.r_invariant(b)) == outcome(lambda: rlat.r_invariant(b))


@SUITE
@given(PRIME_DELTA, st.integers(0, 2**32))
def test_neighbour_symmetry(pd, seed):
    p, delta = pd
    ctx = LocalContext(p=p, delta_sq=delta, precision=30)
    rng = random.Random(seed)
    center = bttree.central_lattice(random_vector(ctx, rng))
    ball = bttree.tree_ball(center, RADIUS[p] - 1)
    for lat, _ in rng.sample(ball, min(6, len(ball))):
        for nb in lat.neighbors():
            assert nb.vtype == 2 - lat.vtype
            assert lat.key in [back.key for back in nb.neighbors()]


@SUITE
@given(PRIME_DELTA, st.integers(8, 30), st.integers(0, 2**32))
@example(pd=(3, -1), precision=8, seed=1424)  # construction raises on both sides
def test_dual_involution(pd, precision, seed):
    p, delta = pd
    ctx = LocalContext(p=p, delta_sq=delta, precision=precision)
    rng = random.Random(seed)
    u, v = random_vector(ctx, rng), random_vector(ctx, rng)
    pairs = (
        (lambda: bttree.central_lattice(u), lambda: oracles.central_lattice(u)),
        (
            lambda: bttree.VertexLattice.from_vectors(u, v),
            lambda: oracles.ObjectLattice.from_vectors(u, v),
        ),
    )
    for make, make_ref in pairs:
        found, ref_found = outcome(make), outcome(make_ref)
        if found[0] != "ok" or ref_found[0] != "ok":
            assert found == ref_found
            continue
        lat = found[1]
        assert lat.key == ref_found[1].key
        assert ("ok", lat.dual().key) == oracle_outcome(
            ctx, lambda c: oracles.ObjectLattice(c, *lat.key).dual().key
        )
        assert ("ok", lat.vtype) == oracle_outcome(
            ctx, lambda c: oracles.ObjectLattice(c, *lat.key).vtype
        )
        assert lat.dual().dual() == lat


@SUITE
@given(PRIME_DELTA, st.integers(0, 2**32))
def test_distance_matches_bfs(pd, seed):
    p, delta = pd
    ctx = LocalContext(p=p, delta_sq=delta, precision=30)
    rng = random.Random(seed)
    center = bttree.central_lattice(random_vector(ctx, rng))
    ball = bttree.tree_ball(center, 2)
    for _ in range(3):
        a, _ = rng.choice(ball)
        b, _ = rng.choice(ball)
        assert bttree.distance(a, b) == oracles.distance_bfs(a, b, radius_cap=4)


@SUITE
@given(PRIME_DELTA, st.integers(0, 2**32))
@example(pd=(5, -2), seed=1080)  # a centre basis that lost digits ran out of precision
def test_r_formula(pd, seed):
    p, delta = pd
    ctx = LocalContext(p=p, delta_sq=delta, precision=30)
    vec = random_vector(ctx, random.Random(seed))
    ordq = qform(vec).valuation
    t = -((-ordq) // 2)
    for lat, d in bttree.tree_ball(bttree.central_lattice(vec), RADIUS[p]):
        expected = t - d // 2 if ordq % 2 == 0 else t - (d + 1) // 2
        assert lat.r_invariant(vec) == expected
