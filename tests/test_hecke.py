import itertools
import random

import pytest

from bhl.coxeter import GroupMismatchError
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
    """Every (x, y, w) of A3 is asked, 24^3 = 13 824 triples, but only 2 612
    distinct (x, y, mask) keys are memoized."""
    engine = SigmaEngine(a3)
    engine.prefill_shared_tables()
    for w in range(a3.order):
        engine.classify_for_w(w)
    assert len(engine.theta._theta) == 2612


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


@pytest.mark.parametrize("fill", ["prefilled", "lazy-shuffled"])
@pytest.mark.parametrize("cartan_type", ["A3", "B3", "G2"])
def test_theta_table_products_match_independent_routes(cartan_type, fill, request):
    """Every memoized T_x T_{y^-1} equals the single-shot word walk, t_mul,
    and the left-multiplication route, whether the table was filled whole or
    built lazily by queries in a seeded shuffled order."""
    g = request.getfixturevalue(cartan_type.lower())
    pairs = [(x, y) for x in range(g.order) for y in range(g.order)]
    if fill == "prefilled":
        engine = SigmaEngine(g)
        engine.prefill_shared_tables()
        table = engine.theta
    else:
        table = ThetaTable(g)
        random.Random(20240811).shuffle(pairs)
    for x, y in pairs:
        prod = table.product(x, y)
        assert prod == _product_coeffs(g, x, y), (x, y)
        yinv = g.element(g.inv_table[y])
        assert prod == t_mul(t_basis(g.element(x)), t_basis(yinv)).coeffs, (x, y)
        assert prod == _left_mul_product(g, x, y), (x, y)
        assert table.product(x, y) is prod


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
