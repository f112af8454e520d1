"""Whole-report invariants of classify: the adjoint involution
tau(u, v, w) = (w0 w, v^-1, w0 u) maps the nonzero triples onto themselves
and keeps the GK flag, and v_min(w0 w, w0 u) = v_min(u, w)^-1; every GK row
meets the smoothness condition |S(v_min, v)| = len(v) - len(v_min). All are
observed on every group checked, not derived; a report that breaks one has
a wrong row."""

from functools import cache

import pytest

from bhl.coxeter import build_group
from bhl.demazure import v_min_idx
from bhl.sigma import classify

from checks import adjoint_mismatches, smoothness_mismatches

# nonzero rows of each full report
ROWS = {"A2": 167, "B2": 401, "C2": 401, "G2": 1377, "A3": 9697}


@cache
def _report(cartan_type: str) -> tuple:
    """(group, full classify report), built once per module."""
    g = build_group(cartan_type)
    return g, classify(g, jobs=2)


@pytest.mark.parametrize("cartan_type", list(ROWS))
def test_adjoint_involution_keeps_every_gk_flag(cartan_type):
    g, report = _report(cartan_type)
    assert len(report.rows) == ROWS[cartan_type]
    assert adjoint_mismatches(g, report.rows) == []
    assert smoothness_mismatches(g, report.rows) == []


def test_smoothness_check_fails_on_one_flipped_non_gk_row():
    """A copy of the A3 report with one non-GK row that fails the condition
    flipped to GK fails, at that row. 198 of A3's 3 416 non-GK rows fail
    it; the rank-2 reports have none."""
    g, report = _report("A3")
    rows = report.rows
    flipped = [(u, v, w, True, s0) for u, v, w, flag, s0 in rows if not flag]
    failing = smoothness_mismatches(g, flipped)
    assert (len(flipped), len(failing)) == (3416, 198)
    for u, v, w, _ in (failing[0], failing[-1]):
        i = next(i for i, row in enumerate(rows) if row[:3] == (u, v, w))
        bad = rows[:i] + [(u, v, w, True, rows[i][4])] + rows[i + 1 :]
        assert smoothness_mismatches(g, bad) == [(u, v, w, True)]


def test_adjoint_check_fails_on_one_flipped_flag(a2):
    """A copy of the A2 report with one flag flipped fails, at that row."""
    rows = classify(a2).rows
    for i in (0, len(rows) // 2, len(rows) - 1):
        u, v, w, flag, sigma0 = rows[i]
        bad = rows[:i] + [(u, v, w, not flag, sigma0)] + rows[i + 1 :]
        assert (u, v, w, not flag) in adjoint_mismatches(a2, bad)


@pytest.mark.parametrize("cartan_type", ["A3", "B3"])
def test_adjoint_maps_v_min_to_its_inverse(cartan_type, request):
    g = request.getfixturevalue(cartan_type.lower())
    w0 = g.longest_idx
    wrong = [
        (u, w)
        for u in range(g.order)
        for w in range(g.order)
        if v_min_idx(g, g.mul_idx(w0, w), g.mul_idx(w0, u))
        != g.inv_table[v_min_idx(g, u, w)]
    ]
    assert wrong == []
