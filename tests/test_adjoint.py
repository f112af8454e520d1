"""The adjoint involution tau(u, v, w) = (w0 w, v^-1, w0 u) on classify
reports: it maps the nonzero triples onto themselves and keeps the GK flag,
and v_min(w0 w, w0 u) = v_min(u, w)^-1. Both are observed on every group
checked, not derived; a report that breaks them has a wrong row."""

import pytest

from bhl.demazure import v_min_idx
from bhl.sigma import classify

from checks import adjoint_mismatches

# nonzero rows of each full report
ROWS = {"A2": 167, "B2": 401, "C2": 401, "G2": 1377, "A3": 9697}


@pytest.mark.parametrize("cartan_type", list(ROWS))
def test_adjoint_involution_keeps_every_gk_flag(cartan_type, request):
    g = request.getfixturevalue(cartan_type.lower())
    report = classify(g, jobs=2)
    assert len(report.rows) == ROWS[cartan_type]
    assert adjoint_mismatches(g, report.rows) == []


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
