"""
Acceptance criteria, one test per criterion, each printing a PASS line with
what was measured. Every tolerance is exact; the only non-exact quantities
are the wall-clock budgets, asserted with generous margins.

Criterion 3 pins the externally published A3 nonzero-triple count of 9597.
This implementation computes 9697, confirmed by independent brute-force
oracles (the mixed-meet definition, the subword-property Bruhat matrix, and
exhaustive vanishing on the complement), while the companion GK count 6281
matches the published value exactly. The 9597 assertion is kept as stated
and fails; see the assertion message.
"""

import time

from bhl.coxeter import build_group, _bits
from bhl.kl import KLTable, check_theta_power_conjecture
from bhl.polyring import LaurentPoly
from bhl.rpoly import s_set_idx
from bhl.sigma import classify
from bhl.verify import run_suite

from checks import (
    check_deodhar_under_q1,
    check_kl_defining_identity,
    check_r_descent_independence,
)
from test_sigma import A2_EXCEPTIONS


def test_criterion_01_a2_classification(a2):
    t0 = time.monotonic()
    rep = classify(a2, jobs=1)
    elapsed = time.monotonic() - t0
    assert rep.total_triples == 216
    assert rep.nonzero_count == 167
    assert rep.gk_count == 147
    assert rep.exceptions == A2_EXCEPTIONS
    assert elapsed < 10
    print(f"PASS criterion 1: A2 216/167/147 with the 20 listed exceptions "
          f"({elapsed:.1f}s)")


def test_criterion_02_b2_c2_classification(b2, c2):
    for g in (b2, c2):
        t0 = time.monotonic()
        rep = classify(g)
        elapsed = time.monotonic() - t0
        assert rep.total_triples == 512
        assert rep.nonzero_count == 401
        assert rep.gk_count == 305
        assert elapsed < 60
    print("PASS criterion 2: B2 and C2 both give 401 nonzero, 305 of GK type")


def test_criterion_03_a3_classification(a3, engine_a3):
    engine_a3.prefill_shared_tables()  # warm caches, as the budget assumes
    t0 = time.monotonic()
    rep = classify(a3, jobs=4, engine=engine_a3)
    elapsed = time.monotonic() - t0
    assert elapsed < 1800
    assert rep.total_triples == 13824
    assert rep.gk_count == 6281
    print(f"criterion 3: A3 nonzero={rep.nonzero_count}, gk={rep.gk_count} "
          f"({elapsed:.1f}s, jobs=4)")
    assert rep.nonzero_count == 9597, (
        f"A3 classification counted {rep.nonzero_count} triples with "
        "v >= v_min. The pinned reference value 9597 appears to be a "
        "misprint: 9697 is confirmed by brute-force mixed meets, a "
        "subword-property Bruhat oracle, per-triple nonvanishing, and "
        "exhaustive vanishing on the 4127-triple complement, and the "
        "companion GK count 6281 matches the reference exactly."
    )


def test_criterion_04_main_theorem(a2, b2, a3, engine_a2, engine_b2, engine_a3):
    assert run_suite("main-theorem", a2, engine=engine_a2).ok
    assert run_suite("main-theorem", b2, engine=engine_b2).ok
    assert run_suite("main-theorem", a3, engine=engine_a3).ok
    print("PASS criterion 4: sigma at v_min is torus-free and equals the "
          "interval series on A2, B2, A3")


def test_criterion_05_vanishing(a2, b2, a3, engine_a2, engine_b2, engine_a3):
    assert run_suite("vanishing", a2, engine=engine_a2).ok
    assert run_suite("vanishing", b2, engine=engine_b2).ok
    assert run_suite("vanishing", a3, samples=2000, engine=engine_a3).ok
    print("PASS criterion 5: vanishing exhaustive on A2/B2 and on 2000 "
          "sampled A3 triples")


def test_criterion_06_gk_base_case(a3, engine_a3):
    g = a3
    checked = 0
    for v in range(g.order):
        sig = engine_a3.sigma_idx(0, v, 0)
        assert sig == engine_a3.gk_factor(s_set_idx(g, 0, v))
        checked += 1
    assert checked == 24
    print("PASS criterion 6: product formula at u = e for every v in A3")


def test_criterion_07_product_form_under_q1(a3, engine_a3):
    g = a3
    kl = KLTable(g, rtable=engine_a3.rtable)
    one = LaurentPoly.one(0)
    checked = 0
    for v in range(g.order):
        for u in _bits(g.down_masks[v]):
            if kl.q_idx(u, v) != one:
                continue
            sig = engine_a3.sigma_idx(u, v, 0)
            assert sig == engine_a3.gk_factor(s_set_idx(g, u, v))
            checked += 1
    assert checked == 207
    print(f"PASS criterion 7: product form at w = e for all {checked} pairs "
          "with trivial inverse KL polynomial in A3")


def test_criterion_08_theta_power_scan(a3, b3, engine_a3, engine_b3):
    assert check_theta_power_conjecture(a3, theta_table=engine_a3.theta) == []
    t0 = time.monotonic()
    assert check_theta_power_conjecture(b3, theta_table=engine_b3.theta) == []
    elapsed = time.monotonic() - t0
    assert elapsed < 4 * 3600
    print(f"PASS criterion 8: no power-of-q violations on A3 or B3 "
          f"({elapsed:.1f}s for B3)")


def test_criterion_09_pole_containment(a2, b2, a3, engine_a2, engine_b2, engine_a3):
    for g, eng in ((a2, engine_a2), (b2, engine_b2)):
        res = run_suite("poles", g, engine=eng)
        assert res.ok, res.detail
    res = run_suite("poles", a3, engine=engine_a3)  # exhaustive at this order
    assert res.ok, res.detail
    print("PASS criterion 9: denominators stay inside the allowed root sets "
          "with multiplicity one (A2/B2 exhaustive, A3 full scan)")


def test_criterion_10_property_suites(a2, b2, a3, b3, engine_b2, engine_a3, engine_b3):
    for name in ("theta", "mixed-meet", "demazure"):
        res = run_suite(name, a3, engine=engine_a3)
        assert res.ok, f"A3 {name}: {res.detail}"
        res = run_suite(name, b2, engine=engine_b2)
        assert res.ok, f"B2 {name}: {res.detail}"
        res = run_suite(name, b3, samples=300, engine=engine_b3)
        assert res.ok, f"B3 {name}: {res.detail}"
    assert check_r_descent_independence(a3) == 328
    assert check_kl_defining_identity(a3) == 213
    assert check_deodhar_under_q1(a3) == 207
    print("PASS criterion 10: exhaustive A3/B2 and sampled B3 property "
          "suites, pivot independence, KL identity, root-count equality")
