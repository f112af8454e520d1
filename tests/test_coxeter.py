import copy
from itertools import combinations

import pytest

from bhl.coxeter import (
    CartanType,
    GroupMismatchError,
    OrderCapError,
    UnsupportedTypeError,
    WordError,
    build_group,
)
from bhl.polyring import LaurentPoly
from checks import root_action


def test_orders_and_root_counts(a2, b2, a3, b3, g2):
    assert a2.order == 6 and len(a2.positive_roots) == 3
    assert b2.order == 8 and len(b2.positive_roots) == 4
    assert a3.order == 24 and len(a3.positive_roots) == 6
    assert b3.order == 48 and len(b3.positive_roots) == 9
    assert g2.order == 12 and len(g2.positive_roots) == 6
    assert build_group("A1").order == 2
    assert build_group("D4").order == 192


def test_type_parsing_and_validation():
    assert str(CartanType.parse("b3")) == "B3"
    assert repr(CartanType.parse("a3")) == "CartanType(family='A', rank=3)"
    assert CartanType.parse("A3") == CartanType("A", 3) != CartanType("A", 4)
    assert hash(CartanType.parse("A3")) == hash(CartanType("A", 3))
    with pytest.raises(AttributeError):
        CartanType("A", 3).rank = 4
    for bad in ("E8", "G3", "D2", "A0", "xyz", "B"):
        with pytest.raises(UnsupportedTypeError):
            CartanType.parse(bad)


def test_non_ascii_digits_are_refused(a3):
    """str.isdigit() takes '²' and '٣'; a type or word takes ASCII digits
    only, so each raises the library's own error, not int()'s ValueError,
    and 'A٣' is not read as A3."""
    for bad in ("A²", "A٣", "B²"):
        with pytest.raises(UnsupportedTypeError, match="cannot parse"):
            build_group(bad)
    for bad in ("²", "٣", "1²", "1,٣", "1,²"):
        with pytest.raises(WordError, match="malformed"):
            a3.from_word(bad)


def test_order_cap():
    with pytest.raises(OrderCapError):
        build_group("A3", max_order=10)


def test_simple_reflections_permute_other_positive_roots(b3):
    g = b3
    pos = set(g.positive_roots)
    for i in range(1, g.rank + 1):
        s = g.simple(i)
        alpha_i = g.positive_roots[i - 1]
        for beta in g.positive_roots:
            image = root_action(g, s, beta)
            if beta == alpha_i:
                assert image == tuple(-c for c in beta)
            else:
                assert image in pos


def test_length_counts_inversions(a3, b2, g2):
    for g in (a3, b2, g2):
        for w in g.elements():
            inversions = sum(
                1
                for beta in g.positive_roots
                if all(c <= 0 for c in root_action(g, w, beta))
            )
            assert w.length() == inversions


def test_length_extremes_unique(a3, b3):
    for g in (a3, b3):
        hist = g.length_histogram()
        assert hist[0] == 1 and hist[-1] == 1
        assert g.longest().length() == len(g.positive_roots)


def test_right_w0_reverses_bruhat(a3, b2):
    for g in (a3, b2):
        w0 = g.longest_idx
        for u in range(g.order):
            uw0 = g.mul_idx(u, w0)
            for w in range(g.order):
                assert g.leq_idx(u, w) == g.leq_idx(g.mul_idx(w, w0), uw0)


def test_bruhat_examples(a2):
    g = a2
    e, s1, s12, s21 = g.identity(), g.simple(1), g.from_word("12"), g.from_word("21")
    assert g.bruhat_leq(s1, s12)
    assert not g.bruhat_leq(s12, s21)
    for w in g.elements():
        assert g.bruhat_leq(e, w)


def _subword_reachable(g, w):
    word = g.words[w]
    out = set()
    for k in range(len(word) + 1):
        for sub in combinations(word, k):
            x = 0
            for i in sub:
                x = g.rmult[x][i]
            if g.lengths[x] == k:
                out.add(x)
    return out


def test_bruhat_matches_subword_property(a2, b2, a3):
    for g in (a2, b2, a3):
        for w in range(g.order):
            reachable = _subword_reachable(g, w)
            for u in range(g.order):
                assert g.leq_idx(u, w) == (u in reachable)


def test_weak_order_examples(a2):
    g = a2
    s1, s2, s12 = g.simple(1), g.simple(2), g.from_word("12")
    assert g.weak_leq_right(s1, s12)  # 1 + 1 == 2
    assert not g.weak_leq_right(s2, s12)  # len(s2^-1 s1s2) = 3
    for u in g.elements():
        assert g.weak_leq_right(u, u)


def test_weak_implies_strong(a3):
    g = a3
    for u in range(g.order):
        for w in range(g.order):
            if g.weak_leq_right_idx(u, w):
                assert g.leq_idx(u, w)
            if g.weak_leq_left_idx(u, w):
                assert g.leq_idx(u, w)


def test_bruhat_lifting_property(a3):
    g = a3
    for i in range(g.rank):
        for w in range(g.order):
            sw = g.lmult[w][i]
            if g.lengths[sw] >= g.lengths[w]:
                continue
            for u in range(g.order):
                su = g.lmult[u][i]
                if g.lengths[su] >= g.lengths[u]:
                    continue
                assert g.leq_idx(u, w) == g.leq_idx(su, sw)


def test_weak_prefix_lifting(a3, b2):
    # w <=_R wz, w <=_R wv, wz <= wv together force z <= v
    for g in (a3, b2):
        for w in range(g.order):
            for z in range(g.order):
                wz = g.mul_idx(w, z)
                if not g.weak_leq_right_idx(w, wz):
                    continue
                for v in range(g.order):
                    wv = g.mul_idx(w, v)
                    if g.weak_leq_right_idx(w, wv) and g.leq_idx(wz, wv):
                        assert g.leq_idx(z, v)


def test_conditional_order_reversal(a3, b2):
    # x, y <=_R u^-1 and x <= y force ux >= uy
    for g in (a3, b2):
        for u in range(g.order):
            ui = g.inv_table[u]
            below = [x for x in range(g.order) if g.weak_leq_right_idx(x, ui)]
            for x in below:
                for y in below:
                    if g.leq_idx(x, y):
                        assert g.leq_idx(g.mul_idx(u, y), g.mul_idx(u, x))


def test_interval_examples(a2):
    g = a2
    s1, s21, s12 = g.simple(1), g.from_word("21"), g.from_word("12")
    assert {x.word() for x in g.interval(s1, s21)} == {"1", "21"}
    assert g.interval(s1, s1) == [s1]
    assert g.interval(s12, s21) == []


def test_poincare_examples(a2):
    g = a2
    e, w0 = g.identity(), g.longest()
    assert g.poincare(e, w0) == LaurentPoly(0, {(0,): 1, (1,): 2, (2,): 2, (3,): 1})
    assert g.poincare(g.simple(1), g.from_word("21")) == LaurentPoly(
        0, {(1,): 1, (2,): 1}
    )
    for u in g.elements():
        assert g.poincare(u, u) == LaurentPoly(0, {(u.length(),): 1})
    assert g.poincare(g.from_word("12"), g.from_word("21")).is_zero()


def test_root_action_and_reflections(a2):
    g = a2
    s1 = g.simple(1)
    alpha1 = g.positive_roots[0]
    assert root_action(g, s1, alpha1) == (-1, 0)
    assert g.reflection((1, 1)).word() == "121"
    assert g.longest().word() == "121"


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "C2", "G2", "A3", "B3", "C3", "D4"])
def test_root_reflections_are_involutions_negating_their_root(cartan_type):
    """Every root reflection squares to e, sends its root beta to -beta and
    moves each simple root by a multiple of beta (which w0 = -1 in B2 or G2
    would not); root lengths differ in B, C and G, so those are the telling
    cases."""
    g = build_group(cartan_type)
    for a, beta in enumerate(g.positive_roots):
        r = g.reflection(a)
        assert r * r == g.identity()
        assert root_action(g, r, beta) == tuple(-c for c in beta)
        for j in range(g.rank):
            simple = tuple(int(k == j) for k in range(g.rank))
            d = [x - y for x, y in zip(root_action(g, r, simple), simple)]
            assert all(
                d[k] * beta[l] == d[l] * beta[k]
                for k in range(g.rank)
                for l in range(g.rank)
            )


def test_length_parity_additive(a3):
    g = a3
    for u in range(g.order):
        for v in range(g.order):
            uv = g.mul_idx(u, v)
            assert (g.lengths[u] + g.lengths[v] - g.lengths[uv]) % 2 == 0


def _all_reduced_words(g, w):
    if w == 0:
        return {()}
    out = set()
    for i in range(g.rank):
        sw = g.lmult[w][i]
        if g.lengths[sw] < g.lengths[w]:
            out |= {(i + 1,) + rest for rest in _all_reduced_words(g, sw)}
    return out


def test_canonical_word_is_lex_smallest_reduced(a2, b2):
    for g in (a2, b2):
        for w in range(g.order):
            words = _all_reduced_words(g, w)
            canon = tuple(i + 1 for i in g.words[w])
            assert canon == min(words)


def test_word_parse_and_format(a3):
    g = a3
    for w in g.elements():
        assert g.from_word(w.word()) == w
    assert g.from_word("e") == g.identity()
    assert g.from_word("1,2,1") == g.from_word("121")
    assert g.from_word("11") == g.identity()  # words need not be reduced
    for bad in ("x", "140", "0", "1,4"):
        with pytest.raises(WordError):
            g.from_word(bad)


def test_word_strings_are_spelled_once_on_first_use():
    """A build spells no word; the first word_str spells every canonical
    word, and the cached strings are the words of ``words``."""
    for cartan_type in ("A3", "B3"):
        g = build_group(cartan_type)
        assert g._word_strs is None
        assert g.word_str(0) == "e"
        assert g._word_strs is not None
        for w in range(1, g.order):
            assert g.word_str(w) == "".join(str(i + 1) for i in g.words[w])
            assert g.parse_word_idx(g.word_str(w)) == w


def test_b_and_c_labels_agree_on_order_data(b2, c2):
    assert b2.order == c2.order
    assert sorted(b2.lengths) == sorted(c2.lengths)
    assert b2.positive_roots != c2.positive_roots  # coordinates do differ


def test_element_equality_and_hash(a2):
    """Elements compare by (group identity, index): never equal to a bare
    index, to the pair (group, index) or to an element of another build of
    the same type, and usable as dict keys. A copy is equal; a field
    cannot be assigned."""
    for i in range(a2.order):
        assert a2.element(i) == a2.element(i)
        assert hash(a2.element(i)) == hash(a2.element(i))
        assert a2.element(i) != i
        assert a2.element(i) != (a2, i)
        assert copy.copy(a2.element(i)) == a2.element(i)
    with pytest.raises(AttributeError):
        a2.identity().index = 1
    assert a2.element(1) != a2.element(2)
    assert build_group("A2").identity() != build_group("A2").identity()
    by_element = {w: w.index for w in a2.elements()}
    assert len(by_element) == a2.order
    assert all(by_element[a2.element(i)] == i for i in range(a2.order))


def test_group_mismatch_rejected(a2, b2):
    with pytest.raises(GroupMismatchError):
        a2.identity() * b2.identity()
    with pytest.raises(GroupMismatchError):
        a2.bruhat_leq(a2.identity(), b2.identity())
