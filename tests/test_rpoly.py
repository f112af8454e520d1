import os
import random
import subprocess
import sys

import pytest

import bhl
from bhl import polyring
from bhl.coxeter import build_group
from bhl.polyring import LaurentPoly, RationalFn, _decode_q, _pack, _unpack
from bhl.rpoly import RPolyTable, s_set, s_set3
from bhl.sigma import SigmaEngine
from bhl.verify import run_suite

from checks import (
    check_deodhar_under_q1,
    check_r_descent_independence,
    check_r_numerical_limit,
    reduced_tuples,
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


@pytest.mark.parametrize("cartan", ["A3", "B3", "C3", "G2"])
def test_reduced_den_matches_reduced_rational(cartan):
    """The den reduced on the packed entry equals the den of the unpacked
    entry's reduced() and of the tuple-key oracle, on every pair."""
    g = build_group(cartan)
    table = RPolyTable(g)
    for u in range(g.order):
        for v in range(g.order):
            entry = table.bar_r_idx(u, v)
            got = table.reduced_den_idx(u, v)
            assert got == entry.reduced().den, (u, v)
            assert got == reduced_tuples(entry)[1], (u, v)


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


def _r_by_rational_recursion(g):
    """Every r(u, v) of g by the recursion in RationalFn arithmetic, the
    route the packed fill replaces: (u, v) -> r, 0 where u is not <= v."""
    one_minus_q = LaurentPoly(g.rank, {(0,) * (g.rank + 1): 1, (1,) + (0,) * g.rank: -1})
    q = LaurentPoly.q_power(g.rank, 1)
    table = {}
    for v in range(g.order):  # indices are sorted by length
        for u in range(g.order):
            if u == v:
                val = RationalFn.one(g.rank)
            elif not g.leq_idx(u, v):
                val = RationalFn.zero(g.rank)
            else:
                mask = g.left_desc_masks[v]
                i = (mask & -mask).bit_length() - 1
                sv, su = g.lmult[v][i], g.lmult[u][i]
                beta = tuple(-c for c in g.cols[g.inv_table[v]][i])
                if g.lengths[su] < g.lengths[u]:
                    head = RationalFn(one_minus_q, (beta,))
                    val = head * table[u, sv] + table[su, sv]
                else:
                    x_beta = LaurentPoly.monomial(0, beta)
                    head = RationalFn(one_minus_q * x_beta, (beta,))
                    val = head * table[u, sv] + table[su, sv].mul_poly(q)
            table[u, v] = val
    return table


@pytest.mark.parametrize("cartan", ["A2", "B2", "C2", "G2", "A3", "B3", "C3"])
def test_packed_fill_matches_rational_recursion_term_for_term(cartan):
    """Same numerator dict and same unreduced den as RationalFn arithmetic,
    for bar_r_idx, r_idx and entries(), on every pair."""
    g = build_group(cartan)
    want = _r_by_rational_recursion(g)
    rt = RPolyTable(g)
    for (u, v), r in want.items():
        bar = r.bar_q()
        got_bar = rt.bar_r_idx(u, v)
        assert (got_bar.num.terms, got_bar.den) == (bar.num.terms, bar.den), (u, v)
        got = rt.r_idx(u, v)
        assert (got.num.terms, got.den) == (r.num.terms, r.den), (u, v)
    entries = dict(rt.entries())
    assert entries.keys() == want.keys()
    for key, r in entries.items():
        assert (r.num.terms, r.den) == (want[key].num.terms, want[key].den), key


def _minus_v_image(g, rf: RationalFn, v: int) -> RationalFn:
    """rf with every x^gamma, in the numerator and in each den factor
    1 - x^gamma, replaced by x^(-v gamma)."""

    def image(gamma):
        return tuple(-c for c in g.root_action(g.element(v), gamma))

    num = {(e[0],) + image(e[1:]): c for e, c in rf.num.terms.items()}
    return RationalFn(LaurentPoly(g.rank, num), [image(b) for b in rf.den])


@pytest.mark.parametrize("cartan", ["A2", "B2", "G2", "A3", "B3"])
def test_bar_r_of_inverses_is_the_minus_v_image(cartan):
    """bar r(u^-1, v^-1) equals bar r(u, v) under x^gamma -> x^(-v gamma) as a
    value on every u <= v: a check of the whole fill by a symmetry its
    recursion never uses. In types B and G the two are not always the same
    fraction term for term, so this compares values and is no way to fill
    the table."""
    g = build_group(cartan)
    rt = RPolyTable(g)
    inv = g.inv_table
    pairs = [(u, v) for v in range(g.order) for u in range(g.order) if g.leq_idx(u, v)]
    for u, v in pairs:
        mirrored = _minus_v_image(g, rt.bar_r_idx(u, v), v)
        assert rt.bar_r_idx(inv[u], inv[v]) == mirrored, (u, v)


@pytest.mark.parametrize("cartan", ["G2", "B3", "C3", "A4"])
def test_fill_digits_stay_within_the_computed_bound(cartan):
    """Every den key and x-key unpacks inside max_digit with q-digit 0, and
    every q-degree decoded from the columns lies in [-len(w0), 0]."""
    g = build_group(cartan)
    rt = RPolyTable(g)
    rt.prefill()
    assert rt.max_digit < polyring._DIGIT_BOUND
    assert rt.low == -max(g.lengths) >= -rt.max_digit
    n = g.rank + 1
    seen = 0
    for u in range(g.order):
        for v in range(g.order):
            den, cols, _ = rt.bar_r_packed_idx(u, v)
            for key in (*den, *cols):
                digits = _unpack(key, n)
                assert digits[0] == 0, (u, v)
                seen = max(seen, max(map(abs, digits)))
            for col in cols.values():
                for d, _ in _decode_q(col, rt.low):
                    assert rt.low <= d <= 0, (u, v)
                    seen = max(seen, -d)
    assert 0 < seen <= rt.max_digit


def _q_slots(monkeypatch, bits):
    """Columns of bits-bit slots, for tables built from here on."""
    monkeypatch.setattr(polyring, "_Q_BITS", bits)
    monkeypatch.setattr(polyring, "_Q_BOUND", 1 << (bits - 1))
    monkeypatch.setattr(polyring, "_Q_MASK", (1 << bits) - 1)


def test_fill_on_narrow_slots_matches_or_refuses(a3, monkeypatch):
    """The largest L1 bound of the A3 fill has 9 bits. On 10-bit q-slots
    the fill gives the default table term for term; on 9-bit slots it
    raises instead of filling columns its bound does not vouch for."""
    default = RPolyTable(a3)
    default.prefill()
    want = dict(default.entries())
    _q_slots(monkeypatch, 10)
    narrow = RPolyTable(a3)
    narrow.prefill()
    got = dict(narrow.entries())
    assert got.keys() == want.keys()
    for key, r in got.items():
        assert (r.num.terms, r.den) == (want[key].num.terms, want[key].den), key
    _q_slots(monkeypatch, 9)
    with pytest.raises(ValueError, match="L1 bound"):
        RPolyTable(a3).prefill()


def test_fill_refuses_a_planted_coefficient_past_its_slots(a2):
    """bar r(e, s1) is (1 - q^-1) x1 bar r(e, e) / (1 - x1). With
    bar r(e, e) planted as 2^(K - 2), the step's L1 bound reaches 2^(K - 1)
    and the step raises."""
    rt = RPolyTable(a2)
    e, s1 = a2.identity_idx, a2.simple(1).index
    c = polyring._Q_BOUND // 2
    rt._bar_r[e, e] = (frozenset(), {0: c << (polyring._Q_BITS * -rt.low)}, c)
    with pytest.raises(ValueError, match="L1 bound"):
        rt.bar_r_idx(e, s1)


@pytest.mark.parametrize("planted, target", [(("e", "e"), ("e", "1")), (("1", "21"), ("e", "121"))])
def test_fill_refuses_a_q_shift_out_of_the_column(a2, planted, target):
    """An entry with q^low occupied: the step that multiplies it by q^-1,
    as the head (bar r(e, s1) reads bar r(e, e)) or as the tail
    (bar r(e, w0) reads bar r(s1, s2 s1)), raises instead of dropping it."""
    rt = RPolyTable(a2)
    u, v = (a2.parse_word_idx(word) for word in planted)
    rt._bar_r[u, v] = (frozenset(), {0: 1}, 1)
    u, v = (a2.parse_word_idx(word) for word in target)
    with pytest.raises(RuntimeError, match="q-degree below"):
        rt.bar_r_idx(u, v)


def test_reduction_and_sigma_refuse_bounds_past_narrow_slots(a3, monkeypatch):
    """On 10-bit q-slots the A3 fill fits, but the L1 bounds of the
    reduction of bar r(s1, w0) and of sigma(e, w0, w0) pass the slots: each
    raises instead of reading columns that may not hold its value."""
    _q_slots(monkeypatch, 10)
    eng = SigmaEngine(a3)
    e, s1, w0 = a3.identity_idx, a3.simple(1).index, a3.longest_idx
    with pytest.raises(ValueError, match="quotients may pass"):
        eng.rtable.reduced_den_idx(s1, w0)
    with pytest.raises(RuntimeError, match="L1 bound"):
        eng.sigma_idx(e, w0, w0)


def test_table_refuses_a_group_whose_fill_could_reach_the_digit_bound(a2, monkeypatch):
    bound = RPolyTable(a2).max_digit
    monkeypatch.setattr(polyring, "_DIGIT_BOUND", bound + 1)
    RPolyTable(a2)
    monkeypatch.setattr(polyring, "_DIGIT_BOUND", bound)
    with pytest.raises(ValueError, match="packed digit range"):
        RPolyTable(a2)


TABLE_AT_THE_BOUND = """
from bhl import polyring
from bhl.coxeter import build_group
from bhl.rpoly import RPolyTable
g = build_group("A2")
polyring._DIGIT_BOUND = RPolyTable(g).max_digit
try:
    RPolyTable(g)
except ValueError:
    pass
else:
    raise SystemExit("no ValueError")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_table_guard_raises_under_optimize(flags):
    """A raise, not an assert: it must hold under python -O too."""
    src = os.path.dirname(os.path.dirname(bhl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", TABLE_AT_THE_BOUND],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_fill_refuses_a_repeated_den_factor(a2, monkeypatch):
    """With every pivot root forced to alpha_1, the step at v = s1 s2 reads
    bar r(e, s2), whose den already holds alpha_1, and would add it again."""
    monkeypatch.setattr(RPolyTable, "_pivot_root", lambda self, v, i: _pack((0, 1, 0)))
    rt = RPolyTable(a2)
    v = a2.from_word("12").index
    with pytest.raises(RuntimeError, match=f"u=e, v={a2.word_str(v)}\\)"):
        rt.bar_r_idx(0, v)
