"""The descent sweeps against the ball-walking ones in tests/oracles.py.

`sweep_local_compare` and `sweep_chart_consistency` take membership on
a ball by coordinate descent and build sampled vertices by index; the
oracles build every ball vertex and test it with its own r_invariant.
From the same seed both must give the same report (params, checked and
mismatches) and leave the generator in the same state, at inert primes
beyond the grid pairs p in {3, 5}."""

import random

import pytest

import oracles
from cyclelift.sweeps import sweep_chart_consistency, sweep_local_compare

# (p, Delta, local-compare alpha_max, chart radius), sized so that the whole
# module takes a few seconds.
PRIMES = [(3, -10, 4, 6), (5, -2, 3, 4), (7, -2, 2, 3), (11, -14, 1, 3), (13, -2, 1, 2)]
SEEDS = (1, 2, 3)


def same_report(sweep, oracle, seed, *args):
    rng, ref_rng = random.Random(seed), random.Random(seed)
    report = sweep(*args, rng)
    reference = oracle(*args, ref_rng)
    assert report.to_json_dict() == reference.to_json_dict()
    assert rng.getstate() == ref_rng.getstate()
    return report


@pytest.mark.parametrize("p, delta, alpha_max, radius", PRIMES, ids=[str(p[0]) for p in PRIMES])
def test_local_compare_matches_the_ball_walk(p, delta, alpha_max, radius):
    for seed in SEEDS:
        report = same_report(sweep_local_compare, oracles.local_compare_by_ball, seed,
                             p, delta, alpha_max)
        assert report.checked > 0 and report.ok


@pytest.mark.parametrize("p, delta, alpha_max, radius", PRIMES, ids=[str(p[0]) for p in PRIMES])
def test_chart_matches_the_ball_walk(p, delta, alpha_max, radius):
    for seed in SEEDS:
        report = same_report(sweep_chart_consistency, oracles.chart_by_ball, seed,
                             p, delta, 3, radius)
        assert report.checked > 0 and report.ok
