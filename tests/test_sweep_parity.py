"""The descent sweeps against the ball-walking ones in tests/oracles.py.

`sweep_r_formula`, `sweep_local_compare` and `sweep_chart_consistency`
take membership on a ball by coordinate descent, a sphere at a time,
and build sampled vertices by index; the oracles build every ball
vertex and test it with its own r_invariant.
From the same seed both must give the same report (params, checked and
mismatches) and leave the generator in the same state, at inert primes
beyond the grid pairs p in {3, 5}."""

import random

import pytest

import oracles
from cyclelift import localcycles
from cyclelift.bttree import ball_size
from cyclelift.sweeps import sweep_chart_consistency, sweep_local_compare, sweep_r_formula

# (p, Delta, local-compare alpha_max, chart and r-formula radius), sized so
# that the whole module takes a few seconds.
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
def test_r_formula_matches_the_ball_walk(p, delta, alpha_max, radius):
    for seed in SEEDS:
        report = same_report(sweep_r_formula, oracles.r_formula_by_ball, seed,
                             p, delta, 2, radius)
        assert report.checked == 2 * ball_size(p, radius) and report.ok


def test_r_formula_reports_every_vertex_of_a_missed_sphere(monkeypatch):
    # With the formula one too high at depth 2 only, every vertex of sphere
    # 2 of each ball is one entry, m its check counter, and every other
    # sphere is clean; direct membership still agrees with the descent.
    formula = localcycles.mult_from_depth
    monkeypatch.setattr(localcycles, "mult_from_depth", lambda o, d: formula(o, d) + (d == 2))
    p, count, radius = 5, 3, 3
    report = same_report(sweep_r_formula, oracles.r_formula_by_ball, 4, p, -2, count, radius)
    size = ball_size(p, radius)
    assert [m.m for m in report.mismatches] == [
        ball * size + i + 1 for ball in range(count) for i in range(ball_size(p, 1), ball_size(p, 2))
    ]
    assert all(m.rhs == m.lhs + 1 for m in report.mismatches)


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
