"""The tree sweeps' geodesic cross-check under a fault.

Direct membership (`VertexLattice.r_invariant`) cross-checks the
coordinate descent on one geodesic of every ball.  With r_invariant
patched to return r - 1 the two disagree at every geodesic vertex, and
the reports below pin each mismatch entry, in order.  (r + 1 would
instead trip local-compare's negative-multiplicity assertion.)"""

import json
import random

import pytest

from cyclelift import bttree
from cyclelift.sweeps import sweep_local_compare, sweep_r_formula


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
