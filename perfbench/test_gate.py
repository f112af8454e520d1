"""
Self-test of the benchmark's correctness gate, from the checkout root:

    python3 -m pytest -q perfbench/test_gate.py

classify-a3 is cut down to its identity w here so a round takes well under
a second; the gate code is the benchmark's own.
"""

from __future__ import annotations

import pytest

import run
from tracing import plain_call

run.add_source_path()

import workloads as wl  # noqa: E402
from bhl.hecke import ThetaTable  # noqa: E402
from bhl.polyring import LaurentPoly, RationalFn  # noqa: E402
from bhl.sigma import SigmaEngine  # noqa: E402
from bhl.verify import SuiteResult  # noqa: E402


@pytest.fixture
def identity_w_only(monkeypatch):
    monkeypatch.setattr(wl, "A3_SUBSET_LENGTHS", (0,))


def flip_one_coefficient(poly: LaurentPoly) -> LaurentPoly:
    terms = dict(poly.terms)
    first = min(terms)
    terms[first] = -terms[first]
    return LaurentPoly(poly.arity, terms)


def perturb_sigma(monkeypatch, target=(0, 0, 0)):
    """sigma(u, v, w) with one numerator coefficient negated at ``target``
    (by default sigma(e, e, e), which becomes the sigma0 of its rows)."""
    original = SigmaEngine.sigma_idx

    def perturbed(self, u, v, w, xi_cache=None):
        val = original(self, u, v, w, xi_cache)
        if (u, v, w) == target:
            return RationalFn(flip_one_coefficient(val.num), val.den, reduce=False)
        return val

    monkeypatch.setattr(SigmaEngine, "sigma_idx", perturbed)


def classify_failures() -> list:
    workload = wl.ClassifyA3(seed=3, golden=wl.load_golden())
    out = workload.run(workload.setup(plain_call), plain_call)
    return workload.check(out)


def test_classify_gate_passes_unperturbed(identity_w_only):
    assert classify_failures() == []


def test_classify_gate_fails_on_perturbed_sigma(identity_w_only, monkeypatch):
    perturb_sigma(monkeypatch)
    assert "classify-a3: rows of w=e differ from golden.json" in classify_failures()


def test_perturbed_sigma_fails_the_run(identity_w_only, monkeypatch, capsys):
    argv = ["--workload", "classify-a3", "--seed", "1", "--seconds", "0.01"]
    assert run.main(argv + ["--trace", "0"]) == 0
    perturb_sigma(monkeypatch)
    assert run.main(argv + ["--trace", "0"]) == 1
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert '"correct": false' in last and '"failed": 1' in last


def test_traced_counts_match_report_and_repeat(identity_w_only, capsys):
    argv = ["--workload", "classify-a3", "--seed", "2", "--seconds", "0.01", "--trace", "1"]
    assert run.main(argv) == 0
    out = capsys.readouterr().out
    golden_e = wl.load_golden()["classify-a3"]["per_w"]["e"]
    assert f"sigma.sigma_calls {golden_e['nonzero']} count" in out
    assert f"sigma.gk_factor_calls {golden_e['nonzero']} count" in out


def test_tables_gate_fails_on_perturbed_product(monkeypatch):
    original = ThetaTable.product

    def perturbed(self, x, y):
        prod = original(self, x, y)
        if (x, y) == (1, 2):
            t = min(prod)
            prod = {**prod, t: flip_one_coefficient(prod[t])}
        return prod

    monkeypatch.setattr(ThetaTable, "product", perturbed)
    workload = wl.TablesA4(seed=0, golden=wl.load_golden())
    out = workload.run(workload.setup(plain_call), plain_call)
    assert workload.check(out) == ["tables-a4: digest of products differs from golden.json"]


def test_verify_gate_needs_pass_and_same_counts():
    workload = wl.VerifyB3(seed=5, golden={})
    g = wl.build_group("B3")
    want = wl.expected_suite_details(g, wl.VERIFY_SAMPLES, 5)
    results = [SuiteResult(name, True, want[name]) for name in wl.SUITE_NAMES]
    out = wl.Outcome(items=0, attempted=8, data={"results": results, "group": g}, rtable=None)
    assert workload.check(out) == []
    results[5] = SuiteResult("poles", False, want["poles"])
    results[2] = SuiteResult("theta", True, "1 checks")
    assert len(workload.check(out)) == 2
