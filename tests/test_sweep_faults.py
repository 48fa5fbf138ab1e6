"""The tree sweeps' independent checks under a fault.

Direct membership (`VertexLattice.r_invariant`) cross-checks the
coordinate descent on one geodesic of every ball.  With r_invariant
patched to return r - 1 the two disagree at every geodesic vertex, and
the reports below pin each mismatch entry, in order.  (r + 1 would
instead trip local-compare's negative-multiplicity assertion.)  Chart
reads r, the p-exponent and the residual flag over its support off the
descent, so the same fault shows at its geodesic cross-check, where
`r_invariant` and `ordinary_equation` run on their own; its 6 sampled
vertices, which take r from r_invariant at both ends of each edge, miss
it at this seed.  Every chart edge, in the support or sampled, takes its
exponent pair from `localcycles.exponent_pair`.

The hilbert sweep's one check is reciprocity over `hilbert_places`; a
symbol negated at the place 3 breaks it for every pair that lists 3."""

import json
import random

import pytest

import oracles
from cyclelift import bttree, localcycles, sweeps
from cyclelift.sweeps import (
    sweep_chart_consistency,
    sweep_hilbert,
    sweep_local_compare,
    sweep_r_formula,
)


def entries(*rows):
    return [{"lhs": f"{lhs}/1", "m": m, "rhs": f"{rhs}/1"} for m, lhs, rhs in rows]


R_FORMULA = {
    "checked": 374,
    "mismatches": entries(
        (1, -1, 0), (7, -1, 0), (37, -2, -1), (187, -2, -1),
        (188, 0, 1), (194, -1, 0), (224, -1, 0), (374, -2, -1),
    ),
    "params": {"count": 2, "delta": -2, "p": 5, "radius": 3},
}

LOCAL_COMPARE = {
    "checked": 196,
    "mismatches": entries(
        (0, -1, 0), (1, -2, -1), (2, -2, -1),
        (0, -1, 0), (1, -2, -1), (2, -2, -1),
        (0, -1, 0), (1, -1, 0), (2, -2, -1),
        (0, -1, 0), (1, -1, 0), (2, -2, -1),
        (0, -1, 0), (1, -2, -1), (2, -2, -1), (3, -3, -2),
        (0, 0, 1), (1, -1, 0), (2, -1, 0), (3, -2, -1),
        (0, -1, 0), (1, -1, 0), (2, -2, -1), (3, -2, -1),
        (0, -1, 0), (1, -1, 0), (2, -2, -1), (3, -2, -1),
    ),
    "params": {"alpha_max": 1, "delta": -10, "p": 3},
}

CHART = {
    "checked": 137,
    "mismatches": entries(
        (0, 0, 1), (1, -1, 0), (2, -1, 0), (3, -2, -1),
        (0, -1, 0), (1, -1, 0), (2, -2, -1), (3, -2, -1),
    ),
    "params": {"count": 2, "delta": -10, "p": 3, "radius": 3},
}


@pytest.fixture
def r_invariant_one_low(monkeypatch):
    direct = bttree.VertexLattice.r_invariant
    monkeypatch.setattr(bttree.VertexLattice, "r_invariant", lambda lat, b: direct(lat, b) - 1)


def test_r_formula_reports_every_geodesic_disagreement(r_invariant_one_low):
    report = sweep_r_formula(5, -2, 2, 3, random.Random(7))
    assert json.loads(json.dumps(report.to_json_dict())) == R_FORMULA


def test_local_compare_reports_every_geodesic_disagreement(r_invariant_one_low):
    report = sweep_local_compare(3, -10, 1, random.Random(7))
    assert json.loads(json.dumps(report.to_json_dict())) == LOCAL_COMPARE


def test_chart_reports_every_membership_fault(r_invariant_one_low):
    report = sweep_chart_consistency(3, -10, 2, 3, random.Random(1))
    assert json.loads(json.dumps(report.to_json_dict())) == CHART


def test_every_chart_edge_takes_the_library_exponent_pair(monkeypatch):
    # Each of the 22 support vertices is checked once; every other check is
    # an edge, and with exponent_pair returning a pair no multiplicity
    # matches, each edge reports exactly one mismatch.  ordinary_equation
    # runs only at the support vertices of the two geodesics, 3 and 2.
    vertices = []
    equation = localcycles.ordinary_equation
    monkeypatch.setattr(localcycles, "ordinary_equation",
                        lambda hom, lat: vertices.append(lat) or equation(hom, lat))
    monkeypatch.setattr(localcycles, "exponent_pair", lambda sign, r, rp: (-1, -1))
    report = sweep_chart_consistency(3, -10, 2, 3, random.Random(1))
    assert (report.checked, len(vertices)) == (137, 5)
    assert [m.lhs for m in report.mismatches] == [[-1, -1]] * (report.checked - 22)


def test_chart_builds_no_ball(monkeypatch):
    def no_ball(center, radius):
        raise AssertionError("chart built a ball")

    monkeypatch.setattr(bttree, "tree_ball", no_ball)
    report = sweep_chart_consistency(5, -2, 3, 3, random.Random(2))
    assert report.checked > 0 and report.ok


def test_chart_reports_a_multiplicity_fault_as_the_ball_walk_does(monkeypatch):
    # With the formula one too high at depth 2 only, the spheres whose
    # checks touch depth 2 are read vertex by vertex and edge by edge, and
    # their entries come in the order of the ball walk; sphere 0's edges
    # still pass as one count.  The cross-check compares the descent with
    # r_invariant and ordinary_equation, not with the formula, so it adds
    # nothing.
    formula = localcycles.mult_from_depth
    monkeypatch.setattr(localcycles, "mult_from_depth", lambda o, d: formula(o, d) + (d == 2))
    rng, ref_rng = random.Random(4), random.Random(4)
    report = sweep_chart_consistency(5, -2, 3, 3, rng)
    reference = oracles.chart_by_ball(5, -2, 3, 3, ref_rng)
    assert report.to_json_dict() == reference.to_json_dict()
    assert rng.getstate() == ref_rng.getstate()
    depths = {m.m for m in report.mismatches}
    assert {1, 2, 3} <= depths and 0 not in depths
    assert any(isinstance(m.lhs, int) for m in report.mismatches)
    assert any(isinstance(m.lhs, list) for m in report.mismatches)


def test_hilbert_reports_every_pair_its_fault_reaches(monkeypatch):
    # The places are those of each pair in lowest terms: 6/3 lists 2, not 3.
    symbol = sweeps.hilbert_symbol
    monkeypatch.setattr(sweeps, "hilbert_symbol",
                        lambda a, b, place: -symbol(a, b, place) if place == 3 else symbol(a, b, place))
    rng = random.Random(1)
    report = sweep_hilbert(400, rng)
    assert (report.checked, len(report.mismatches)) == (400, 300)
    assert [(m.m, m.lhs, m.rhs) for m in report.mismatches[:3]] == [
        (0, "(-65/73,32/3)", -1), (1, "(-17/8,27/98)", -1), (6, "(-1/3,-41/76)", -1)]
    # Four draws a pair, whatever the symbols say.
    replay = random.Random(1)
    for _ in range(400):
        for low in (-99, 1, -99, 1):
            replay.randint(low, 99)
    assert rng.getstate() == replay.getstate()


def mismatch_texts(report) -> list:
    """Every JSON string in a report's mismatch entries."""
    def texts(value):
        if isinstance(value, str):
            yield value
        elif isinstance(value, (list, dict)):
            for item in value.values() if isinstance(value, dict) else value:
                yield from texts(item)

    return list(texts(report.to_json_dict()["mismatches"]))


def test_no_mismatch_text_is_a_python_repr(monkeypatch):
    # A hilbert pair, local-compare's and chart's markers and chart's edge
    # pairs are written as themselves: no text opens with a quote or a
    # bracket, as Python's repr of a str or a list would.
    symbol = sweeps.hilbert_symbol
    monkeypatch.setattr(sweeps, "hilbert_symbol",
                        lambda a, b, place: -symbol(a, b, place) if place == 3 else symbol(a, b, place))
    monkeypatch.setattr(sweeps, "horizontal_polynomials_match", lambda j, hp, hm: False)
    multiplicity = localcycles.multiplicity
    monkeypatch.setattr(localcycles, "multiplicity",
                        lambda hom, lat, *d: multiplicity(hom, lat, *d) + 1)
    unit = sweeps._residual_is_unit
    monkeypatch.setattr(sweeps, "_residual_is_unit", lambda p, n0, n1: not unit(p, n0, n1))
    monkeypatch.setattr(localcycles, "exponent_pair", lambda sign, r, rp: (-1, -1))
    hilbert = sweep_hilbert(40, random.Random(1))
    assert hilbert.to_json_dict()["mismatches"][0]["lhs"] == "(-65/73,32/3)"
    local = sweep_local_compare(3, -10, 1, random.Random(7))
    chart = sweep_chart_consistency(3, -10, 2, 3, random.Random(1))
    texts = mismatch_texts(hilbert) + mismatch_texts(local) + mismatch_texts(chart)
    assert {"horizontal-poly", "mismatch", "spot", "residual-unit"} <= set(texts)
    assert ["-1/1", "-1/1"] in [entry["lhs"] for entry in chart.to_json_dict()["mismatches"]]
    assert not [text for text in texts if text.startswith(("'", "["))]
