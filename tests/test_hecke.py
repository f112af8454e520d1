import itertools
import random

import pytest

from bhl import hecke
from bhl.coxeter import GroupMismatchError, build_group
from bhl.hecke import (
    ThetaTable,
    _product_coeffs,
    _theta_from_product,
    lambda_w,
    t_basis,
    t_mul,
    theta,
)
from bhl.polyring import LaurentPoly
from bhl.sigma import SigmaEngine
from bhl.verify import run_suite


def qpoly(terms):
    return LaurentPoly(0, {(k,): c for k, c in terms.items()})


def test_quadratic_relation(a2):
    g = a2
    s1 = g.simple(1)
    prod = t_mul(t_basis(s1), t_basis(s1))
    assert prod.coeff(s1) == qpoly({1: 1, 0: -1})
    assert prod.coeff(g.identity()) == qpoly({1: 1})
    assert len(prod.coeffs) == 2


def test_length_additive_product(a2):
    g = a2
    prod = t_mul(t_basis(g.simple(1)), t_basis(g.simple(2)))
    assert prod.coeffs == {g.from_word("12").index: LaurentPoly.one(0)}


def test_support_extrema_example(a2):
    g = a2
    prod = t_mul(t_basis(g.from_word("12")), t_basis(g.from_word("21")))
    supp = list(prod.coeffs)
    lo = [t for t in supp if all(g.leq_idx(t, s) for s in supp)]
    hi = [t for t in supp if all(g.leq_idx(s, t) for s in supp)]
    assert lo == [g.identity_idx]  # (s1 s2)(s2 s1) = e
    assert hi == [g.from_word("121").index]  # the Demazure product


def test_lambda_examples(a2):
    g = a2
    s1 = g.simple(1)
    assert lambda_w(s1, t_basis(s1)) == qpoly({1: 1})
    assert lambda_w(g.identity(), t_basis(s1)).is_zero()
    w0 = g.longest()
    for u in g.elements():
        for v in g.elements():
            prod = t_mul(t_basis(u), t_basis(v))
            assert lambda_w(w0, prod) == qpoly({u.length() + v.length(): 1})


def test_theta_examples(a2):
    g = a2
    s1, s2, e = g.simple(1), g.simple(2), g.identity()
    assert theta(s1, s1, e) == qpoly({1: 1})
    assert theta(s1, s1, s1) == qpoly({2: 1})
    assert theta(s1, s2, e).is_zero()


def test_theta_table_matches_direct(b2):
    g = b2
    table = ThetaTable(g)
    rng = random.Random(5)
    for _ in range(200):
        x, y, w = (g.element(rng.randrange(g.order)) for _ in range(3))
        assert table.theta(x, y, w) == theta(x, y, w)


def _theta_single_shot(g, x, y, w):
    return _theta_from_product(g, _product_coeffs(g, x, y), w)


@pytest.mark.parametrize("order", ["index", "shuffled"])
@pytest.mark.parametrize("cartan_type", ["A2", "B2", "G2", "A3"])
def test_masked_theta_memo_matches_single_shot(cartan_type, order, request):
    """The memo keyed by (x, y, down(w) & supp) returns the single-shot theta
    on every (x, y, w), queried in index order or in a seeded shuffle."""
    g = request.getfixturevalue(cartan_type.lower())
    triples = list(itertools.product(range(g.order), repeat=3))
    if order == "shuffled":
        random.Random(20240811).shuffle(triples)
    table = ThetaTable(g)
    for x, y, w in triples:
        assert table.theta_idx(x, y, w) == _theta_single_shot(g, x, y, w), (x, y, w)


@pytest.mark.parametrize("order", ["index", "shuffled"])
def test_masked_theta_memo_matches_single_shot_sampled_b3(b3, order):
    rng = random.Random(7)
    triples = [tuple(rng.randrange(b3.order) for _ in range(3)) for _ in range(5000)]
    if order == "index":
        triples.sort()
    table = ThetaTable(b3)
    for x, y, w in triples:
        assert table.theta_idx(x, y, w) == _theta_single_shot(b3, x, y, w), (x, y, w)


def test_theta_memo_size_after_classifying_every_w_of_a3(a3):
    """xi asks theta only for the x in reach(y, w), and the memo keeps one
    entry per distinct (x, y, mask): 2 060 keys for all 24 w of A3, where
    one per triple would be 24^3 = 13 824."""
    engine = SigmaEngine(a3)
    engine.prefill_shared_tables()
    for w in range(a3.order):
        engine.classify_for_w(w)
    assert len(engine.theta._theta) == 2060


@pytest.mark.parametrize("cartan_type", ["A3", "B3", "G2"])
def test_reach_is_the_x_with_x_y_inverse_below_w(cartan_type, request):
    """theta(x, y, w) at q = 1 is [x y^-1 <= w], so the x whose product
    meets [e, w] are exactly those with x y^-1 <= w."""
    g = request.getfixturevalue(cartan_type.lower())
    table = ThetaTable(g)
    for y in range(g.order):
        for w in range(g.order):
            want = 0
            for x in range(g.order):
                if g.leq_idx(g.mul_idx(x, g.inv_table[y]), w):
                    want |= 1 << x
            assert table.reach(y, w) == want, (y, w)


_Q_MINUS_1 = LaurentPoly(0, {(1,): 1, (0,): -1})
_Q = LaurentPoly(0, {(1,): 1})


def _left_mul_product(g, x, y):
    """T_x T_{y^-1} by the left relation T_s T_z = T_{sz} if sz > z, else
    (q - 1) T_z + q T_{sz}: T_{y^-1} multiplied on the left by the letters
    of x, last letter first. Shares no step with the table's right route."""
    coeffs = {g.inv_table[y]: LaurentPoly.one(0)}
    for i in reversed(g.words[x]):
        out = {}
        for z, c in coeffs.items():
            sz = g.lmult[z][i]
            if g.lengths[sz] > g.lengths[z]:
                parts = [(sz, c)]
            else:
                parts = [(z, c * _Q_MINUS_1), (sz, c * _Q)]
            for t, add in parts:
                s = out[t] + add if t in out else add
                if s.is_zero():
                    out.pop(t, None)
                else:
                    out[t] = s
        coeffs = out
    return coeffs


def _assert_matches_independent_routes(g, table, pairs):
    for x, y in pairs:
        prod = table.product(x, y)
        assert prod == _product_coeffs(g, x, y), (x, y)
        yinv = g.element(g.inv_table[y])
        assert prod == t_mul(t_basis(g.element(x)), t_basis(yinv)).coeffs, (x, y)
        assert prod == _left_mul_product(g, x, y), (x, y)
        assert table.product(x, y) is prod


def _count_relabels(monkeypatch, table):
    """Patch hecke._relabel to count the entries each symmetry relabels."""
    counts = {"inverse": 0, "w0-conjugate": 0}
    original = hecke._relabel

    def counting(prod, labels):
        counts["inverse" if labels is table._inv else "w0-conjugate"] += 1
        return original(prod, labels)

    monkeypatch.setattr(hecke, "_relabel", counting)
    return counts


@pytest.mark.parametrize("fill", ["prefilled", "lazy-shuffled", "reversed"])
@pytest.mark.parametrize("cartan_type", ["A3", "B3", "G2"])
def test_theta_table_products_match_independent_routes(
    cartan_type, fill, request, monkeypatch
):
    """Every memoized T_x T_{y^-1} equals the single-shot word walk, t_mul,
    and the left-multiplication route, whether the table was filled whole,
    built lazily by queries in a seeded shuffled order, or in reversed
    x-major order: each order takes a different mix of entries from the
    inverse relabel, the w0-conjugate relabel and walks."""
    g = request.getfixturevalue(cartan_type.lower())
    pairs = [(x, y) for x in range(g.order) for y in range(g.order)]
    if fill == "prefilled":
        engine = SigmaEngine(g)
        table = engine.theta
        counts = _count_relabels(monkeypatch, table)
        engine.prefill_shared_tables()
    else:
        table = ThetaTable(g)
        counts = _count_relabels(monkeypatch, table)
        if fill == "reversed":
            pairs.reverse()
        else:
            random.Random(20240811).shuffle(pairs)
    _assert_matches_independent_routes(g, table, pairs)
    assert counts["inverse"] > 0
    assert (counts["w0-conjugate"] > 0) == (cartan_type == "A3")


def test_theta_table_products_match_independent_routes_sampled_a4(a4):
    """A4, where w0-conjugation is no identity: a seeded sample of 2 000
    pairs after a full prefill."""
    engine = SigmaEngine(a4)
    engine.prefill_shared_tables()
    rng = random.Random(20240811)
    pairs = [(rng.randrange(a4.order), rng.randrange(a4.order)) for _ in range(2000)]
    _assert_matches_independent_routes(a4, engine.theta, pairs)


@pytest.mark.parametrize("mutant", ["inverse-keeps-t", "skips-w0-conjugation"])
def test_wrong_relabel_fails_the_left_multiplication_route(a3, mutant, monkeypatch):
    """A copy of the table that keys the inverse relabel by t instead of
    t^-1, or reads the w0-conjugate entry without relabelling it, builds
    products the left-multiplication route rejects: the route test can see
    a wrong relabel."""
    table = ThetaTable(a3)
    broken = table._inv if mutant == "inverse-keeps-t" else table._conj
    original = hecke._relabel

    def mutated(prod, labels):
        return dict(prod) if labels is broken else original(prod, labels)

    monkeypatch.setattr(hecke, "_relabel", mutated)
    wrong = [
        (x, y)
        for x in range(a3.order)
        for y in range(a3.order)
        if table.product(x, y) != _left_mul_product(a3, x, y)
    ]
    assert wrong


def test_full_fill_calls_product_once_per_pair(a3, monkeypatch):
    """Relabels read the memo and never call product() again, so a full A3
    fill makes exactly |W|^2 = 576 calls."""
    calls = []
    original = ThetaTable.product

    def counting(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(ThetaTable, "product", counting)
    engine = SigmaEngine(a3)
    engine.prefill_shared_tables()
    assert len(calls) == a3.order**2 == 576
    assert len(engine.theta._products) == 576


@pytest.mark.parametrize(
    "cartan_type, is_identity",
    [("A2", False), ("A3", False), ("A4", False), ("B3", True), ("G2", True), ("D4", True)],
)
def test_w0_conjugation_is_none_exactly_when_w0_is_central(cartan_type, is_identity):
    g = build_group(cartan_type)
    conj = hecke._longest_conjugation(g)
    assert (conj is None) == is_identity
    if conj is not None:
        w0 = g.longest_idx
        assert all(g.mul_idx(w0, conj[t]) == g.mul_idx(t, w0) for t in range(g.order))


def test_table_refuses_a_conjugation_that_moves_a_simple_reflection(a3, monkeypatch):
    """Conjugation by s_1 sends s_2 to s_1 s_2 s_1, of length 3: no relabel
    may be built from it."""
    monkeypatch.setattr(a3, "longest_idx", a3.rmult[a3.identity_idx][0])
    with pytest.raises(RuntimeError, match="no automorphism"):
        ThetaTable(a3)


def test_theta_suite(a3, b2):
    for g in (a3, b2):
        res = run_suite("theta", g)
        assert res.ok, res.detail


def test_theta_suite_sampled_b3(b3, engine_b3):
    res = run_suite("theta", b3, samples=400, engine=engine_b3)
    assert res.ok, res.detail


def test_t_mul_associative(a3):
    g = a3
    rng = random.Random(11)
    for _ in range(40):
        a, b, c = (t_basis(g.element(rng.randrange(g.order))) for _ in range(3))
        assert t_mul(t_mul(a, b), c).coeffs == t_mul(a, t_mul(b, c)).coeffs


def test_group_mismatch_rejected(a2, b2):
    with pytest.raises(GroupMismatchError):
        t_mul(t_basis(a2.identity()), t_basis(b2.identity()))
    with pytest.raises(GroupMismatchError):
        theta(a2.identity(), a2.identity(), b2.identity())
