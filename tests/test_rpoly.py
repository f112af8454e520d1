import random

from bhl.polyring import LaurentPoly, RationalFn
from bhl.rpoly import RPolyTable, s_set, s_set3
from bhl.sigma import SigmaEngine
from bhl.verify import run_suite

from checks import (
    check_deodhar_under_q1,
    check_r_descent_independence,
    check_r_numerical_limit,
)


def test_r_base_cases(a2):
    g = a2
    rt = RPolyTable(g)
    for u in g.elements():
        assert rt.r(u, u) == RationalFn.one(2)
    assert rt.r(g.from_word("12"), g.from_word("21")).is_zero()
    assert rt.r(g.simple(1), g.identity()).is_zero()


def test_r_one_step_example(a2):
    g = a2
    rt = RPolyTable(g)
    # one recursion step at v = s1: (1 - q) x1 / (1 - x1)
    expected = RationalFn(
        LaurentPoly(2, {(0, 1, 0): 1, (1, 1, 0): -1}), ((1, 0),)
    )
    assert rt.r(g.identity(), g.simple(1)) == expected


def test_bar_examples(a2):
    g = a2
    rt = RPolyTable(g)
    val = rt.r(g.identity(), g.simple(1))
    expected = RationalFn(
        LaurentPoly(2, {(0, 1, 0): 1, (-1, 1, 0): -1}), ((1, 0),)
    )
    assert val.bar_q() == expected
    assert RationalFn.one(2).bar_q() == RationalFn.one(2)
    rng = random.Random(3)
    for _ in range(100):
        u = rng.randrange(g.order)
        v = rng.randrange(g.order)
        f = rt.r_idx(u, v)
        assert f.bar_q().bar_q() == f


def test_classical_examples(a2):
    g = a2
    rt = RPolyTable(g)
    for u in g.elements():
        assert rt.classical_R(u, u) == LaurentPoly.one(0)
    qm1 = LaurentPoly(0, {(1,): 1, (0,): -1})
    assert rt.classical_R(g.identity(), g.simple(1)) == qm1
    assert rt.classical_R(g.identity(), g.simple(2)) == qm1
    assert rt.classical_R(g.identity(), g.longest()).q_max_degree() == 3


def test_classical_degree_is_length_gap(a3):
    g = a3
    rt = RPolyTable(g)
    for v in range(g.order):
        for u in range(g.order):
            if g.leq_idx(u, v):
                assert rt.classical_idx(u, v).q_max_degree() == (
                    g.lengths[v] - g.lengths[u]
                )


def test_descent_choice_independence(a3):
    assert check_r_descent_independence(a3) > 0


def test_pole_containment_suite(a2, b2, engine_a2, engine_b2):
    res = run_suite("poles", a2, engine=engine_a2)
    assert res.ok, res.detail
    res = run_suite("poles", b2, engine=engine_b2)
    assert res.ok, res.detail


def test_pole_suite_fails_on_non_root_factor(a2, monkeypatch):
    """A sigma den factor that is not a positive root is an escape: the
    suite reports FAIL instead of raising."""
    eng = SigmaEngine(a2)
    bad = RationalFn(LaurentPoly.one(2), ((2, 0),))  # 2*alpha_1 is no root
    monkeypatch.setattr(eng, "sigma_idx", lambda u, v, w, xi_cache=None: bad)
    res = run_suite("poles", a2, engine=eng)
    assert not res.ok and "sigma denominator escapes" in res.detail


def test_deodhar_under_q1(a3):
    assert check_deodhar_under_q1(a3) > 0


def test_numerical_limit_a2_all_pairs(a2):
    assert check_r_numerical_limit(a2) == 19


def test_numerical_limit_a3_sampled(a3):
    g = a3
    rng = random.Random(42)
    comparable = [
        (u, v)
        for v in range(g.order)
        for u in range(g.order)
        if g.leq_idx(u, v)
    ]
    pairs = rng.sample(comparable, 50)
    assert check_r_numerical_limit(g, pairs=pairs) == 50


def test_bar_matches_at_q_one(a3):
    g = a3
    rt = RPolyTable(g)
    for v in range(g.order):
        for u in range(g.order):
            f = rt.r_idx(u, v)
            assert f.num.subs_q(1) == f.num.bar_q().subs_q(1)


def test_s_set_examples(a2):
    g = a2
    e, s1, w0 = g.identity(), g.simple(1), g.longest()
    assert s_set(e, s1) == frozenset({0})  # alpha_1 only
    for u in g.elements():
        assert s_set(u, u) == frozenset()
    assert s_set(e, w0) == frozenset(range(3))


def test_s_set3_examples(a2):
    g = a2
    e, s2 = g.identity(), g.simple(2)
    for u in g.elements():
        for v in g.elements():
            assert s_set3(u, v, e) == s_set(u, v)
    from bhl.demazure import v_min

    for u in g.elements():
        for w in g.elements():
            assert s_set3(u, v_min(u, w), w) == frozenset()
    assert s_set3(e, s2, s2) == frozenset({g.positive_root_index((0, 1))})
