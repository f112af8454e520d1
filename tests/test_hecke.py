import random

import pytest

from bhl.coxeter import GroupMismatchError
from bhl.hecke import ThetaTable, lambda_w, t_basis, t_mul, theta
from bhl.polyring import LaurentPoly
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
