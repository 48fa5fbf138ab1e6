"""Property suite: the exact tree core of cyclelift.bttree against the
object-path reference in oracles.py, which runs on the truncated ring,
at p in {3, 5, 7, 11, 13} with two inert Delta each, at working
precisions low enough for the oracle to run out.

The core works on exact vectors and never runs out of digits.  Wherever
the oracle returns at its working precision, the core must give its
values (keys in order, duals, types, r-invariants, hyperbolic bases to
the oracle's digits).  Where the oracle raises, the core must still
return, and give the oracle's values at precision EXACT_PRECISION.
Vectors the oracle knows to a few digits only are compared through
exact lifts: the oracle's r, wherever it returns, is the core's r on
every lift.
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


def oracle_outcome(tctx, fn):
    """The outcome of fn(tctx) on the oracle, or where that raises
    TruncationExhausted, of fn at EXACT_PRECISION."""
    found = outcome(lambda: fn(tctx))
    if found[0] != "TruncationExhausted":
        return found
    exact = oracles.TruncatedContext(tctx.p, tctx.delta_sq, EXACT_PRECISION)
    return outcome(lambda: fn(exact))


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
        if qform(vec) is not None:
            return vec


def coarse_vector(tctx, rng):
    """A truncated vector whose coordinates are known to only 1-4 digits
    each, so that membership can be undecidable at precision (or the
    vector zero)."""
    p = tctx.p
    k0, k1 = rng.randint(1, 4), rng.randint(1, 4)
    x0, y0, x1, y1 = (rng.randrange(p**4) * p ** rng.randrange(3) for _ in range(4))
    try:
        return tctx.vector(tctx.elem(x0, y0, k0), tctx.elem(x1, y1, k1))
    except CycleLiftError:
        return coarse_vector(tctx, rng)


def lift(ctx, b, rng):
    """A random exact vector that agrees with the truncated b in every
    digit b knows."""
    def coord(a):
        m = ctx.p**a.prec
        return (a.x + m * rng.randrange(-m, m), a.y + m * rng.randrange(-m, m))
    return ctx.vector_from_ints(coord(b.a0), coord(b.a1), b.denom_exp)


@SUITE
@given(PRIME_DELTA, st.integers(8, 16), st.booleans())
def test_standard_balls_and_neighbour_order(pd, precision, type2):
    p, delta = pd
    tctx = oracles.TruncatedContext(p, delta, precision)
    core = bttree.standard_lattices(LocalContext(p, delta))[type2]
    assert ("ok", [nb.key for nb in core.neighbors()]) == oracle_outcome(
        tctx, lambda c: [nb.key for nb in oracles.standard_lattices(c)[type2].neighbors()]
    )
    assert ("ok", ball_keys(bttree, core, RADIUS[p])) == oracle_outcome(
        tctx, lambda c: ball_keys(oracles, oracles.standard_lattices(c)[type2], RADIUS[p])
    )


@SUITE
@given(PRIME_DELTA, st.integers(8, 20), st.integers(0, 2**32))
def test_central_balls_match(pd, precision, seed):
    p, delta = pd
    ctx = LocalContext(p, delta)
    tctx = oracles.TruncatedContext(p, delta, precision)
    rng = random.Random(seed)
    vec = random_vector(ctx, rng)
    core = bttree.central_lattice(vec)
    ref = oracle_outcome(tctx, lambda c: oracles.central_lattice(oracles.truncate(c, vec)))
    assert ref[0] == "ok"
    ref = ref[1]
    assert core.key == ref.key
    # The core's basis is exact; the oracle's agrees with it in every
    # digit it keeps, or raises.
    ref_basis = outcome(ref.hyperbolic_basis)
    if ref_basis[0] == "ok":
        for u, r in zip(core.hyperbolic_basis(), ref_basis[1]):
            assert oracles.agrees(u, r)
    # The oracle's centre carries no inherited basis, so rebuilding it
    # from its key at another precision gives the same tree.
    radius = RADIUS[p] - 1
    core_ball = bttree.tree_ball(core, radius)
    assert ("ok", [(lat.key, d) for lat, d in core_ball]) == oracle_outcome(
        tctx, lambda c: ball_keys(oracles, oracles.ObjectLattice(c, *ref.key, ref.vtype), radius)
    )
    probes = (vec, random_vector(ctx, rng))
    coarse = coarse_vector(tctx, rng)
    lifts = [lift(ctx, coarse, rng) for _ in range(3)]
    for lat, _ in core_ball:
        rlat = oracles.ObjectLattice(tctx, *lat.key)
        for b in probes:
            found = outcome(lambda: rlat.r_invariant(oracles.truncate(tctx, b)))
            if found[0] == "ok":
                assert lat.r_invariant(b) == found[1]
        found = outcome(lambda: rlat.r_invariant(coarse))
        if found[0] == "ok":
            assert [lat.r_invariant(b) for b in lifts] == [found[1]] * len(lifts)


@SUITE
@given(PRIME_DELTA, st.integers(0, 2**32))
def test_neighbour_symmetry(pd, seed):
    p, delta = pd
    ctx = LocalContext(p, delta)
    rng = random.Random(seed)
    center = bttree.central_lattice(random_vector(ctx, rng))
    ball = bttree.tree_ball(center, RADIUS[p] - 1)
    for lat, _ in rng.sample(ball, min(6, len(ball))):
        for nb in lat.neighbors():
            assert nb.vtype == 2 - lat.vtype
            assert lat.key in [back.key for back in nb.neighbors()]


@SUITE
@given(PRIME_DELTA, st.integers(8, 30), st.integers(0, 2**32))
@example(pd=(3, -1), precision=8, seed=1424)  # the oracle's construction raises
def test_dual_involution(pd, precision, seed):
    p, delta = pd
    ctx = LocalContext(p, delta)
    tctx = oracles.TruncatedContext(p, delta, precision)
    rng = random.Random(seed)
    u, v = random_vector(ctx, rng), random_vector(ctx, rng)
    pairs = (
        (bttree.central_lattice(u),
         lambda c: oracles.central_lattice(oracles.truncate(c, u))),
        (bttree.VertexLattice.from_vectors(u, v),
         lambda c: oracles.ObjectLattice.from_vectors(
             oracles.truncate(c, u), oracles.truncate(c, v))),
    )
    for lat, make_ref in pairs:
        assert ("ok", lat.key) == oracle_outcome(tctx, lambda c: make_ref(c).key)
        assert ("ok", lat.dual().key) == oracle_outcome(
            tctx, lambda c: oracles.ObjectLattice(c, *lat.key).dual().key
        )
        assert ("ok", lat.vtype) == oracle_outcome(
            tctx, lambda c: oracles.ObjectLattice(c, *lat.key).vtype
        )
        assert lat.dual().dual() == lat


@SUITE
@given(PRIME_DELTA, st.integers(0, 2**32))
def test_distance_matches_bfs(pd, seed):
    p, delta = pd
    ctx = LocalContext(p, delta)
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
    ctx = LocalContext(p, delta)
    vec = random_vector(ctx, random.Random(seed))
    ordq = qform(vec)
    t = -((-ordq) // 2)
    for lat, d in bttree.tree_ball(bttree.central_lattice(vec), RADIUS[p]):
        expected = t - d // 2 if ordq % 2 == 0 else t - (d + 1) // 2
        assert lat.r_invariant(vec) == expected
