import pytest

from bhl.coxeter import GroupMismatchError
from bhl.demazure import (
    circ,
    circ_idx,
    down_left,
    down_right,
    fold_word_idx,
    mixed_meet,
    up_left,
    v_min,
)
from bhl.verify import run_suite


def test_circ_examples(a2):
    g = a2
    s1, s12, s21 = g.simple(1), g.from_word("12"), g.from_word("21")
    assert circ(s1, s1) == s1
    assert circ(s12, s21).word() == "121"
    for v in g.elements():
        assert circ(g.identity(), v) == v


def test_down_left_examples(a2):
    g = a2
    s1, s12 = g.simple(1), g.from_word("12")
    assert down_left(s1, s12).word() == "2"
    # folding U_{s1 s2} through both of its reduced words pins the value:
    # the last letter acts first, so s2 fixes 12 and s1 then lowers it to 2
    assert down_left(s12, s12).word() == "2"
    brute = {
        fold_word_idx(g, word, s12.index, "down_left")
        for word in [(1, 2)]  # s1 s2 is the unique reduced word of 12
    }
    assert brute == {g.from_word("2").index}
    for w in g.elements():
        assert down_left(w, g.identity()) == g.identity()


def test_mixed_meet_examples(a2):
    g = a2
    s12, s21, w0 = g.from_word("12"), g.from_word("21"), g.longest()
    assert mixed_meet(s12, s21) == g.simple(1)
    # brute force over the defining set
    cands = [
        x
        for x in g.elements()
        if g.weak_leq_right(x, s12) and g.bruhat_leq(x, s21)
    ]
    assert {x.word() for x in cands} == {"e", "1"}
    for u in g.elements():
        assert mixed_meet(u, w0) == u
    for w in g.elements():
        assert mixed_meet(g.identity(), w) == g.identity()


def test_v_min_examples(a2):
    g = a2
    s12, s21, w0 = g.from_word("12"), g.from_word("21"), g.longest()
    assert v_min(s12, s21) == g.simple(2)
    for u in g.elements():
        assert v_min(u, w0) == g.identity()
        assert v_min(u, g.identity()) == u


def test_v_min_is_meet_inverse_times_u(a3):
    g = a3
    for u in g.elements():
        for w in g.elements():
            m = mixed_meet(u, w)
            assert v_min(u, w) == m.inverse() * u


def test_up_down_adjoint_by_w0(b2):
    g = b2
    w0 = g.longest()
    for u in g.elements():
        for v in g.elements():
            assert up_left(u, v) * w0 == down_left(u, v * w0)
            assert down_right(u, v) == w0 * circ(w0 * u, v)


def test_demazure_suite_exhaustive(a3, b2):
    for g in (a3, b2):
        res = run_suite("demazure", g)
        assert res.ok, res.detail


def test_mixed_meet_suite(a3, b3, g2):
    for g in (a3, b3, g2):
        res = run_suite("mixed-meet", g)
        assert res.ok, res.detail


def test_demazure_suite_sampled_b3(b3):
    res = run_suite("demazure", b3, samples=300)
    assert res.ok, res.detail


def test_context_table_matches_folding(a2):
    for u in a2.elements():
        letters = tuple(i + 1 for i in a2.words[u.index])
        for v in a2.elements():
            folded = fold_word_idx(a2, letters, v.index, "up_left")
            assert circ_idx(a2, u.index, v.index) == folded
            assert circ(u, v).index == folded


def test_group_mismatch_rejected(a2, b2):
    with pytest.raises(GroupMismatchError):
        circ(a2.identity(), b2.identity())
    with pytest.raises(GroupMismatchError):
        v_min(a2.identity(), b2.identity())
