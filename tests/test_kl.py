import random

import pytest

from bhl import kl as kl_module
from bhl.coxeter import _bits
from bhl.hecke import ThetaTable
from bhl.kl import KLTable, check_theta_power_conjecture
from bhl.polyring import LaurentPoly, _decode_q, _encode_q
from bhl.rpoly import RPolyTable
from bhl.sigma import SigmaEngine
from bhl.verify import run_suite

from checks import check_kl_defining_identity, is_q_monomial


def test_p_base_cases(a3):
    g = a3
    kl = KLTable(g)
    one = LaurentPoly.one(0)
    for w in g.elements():
        assert kl.kl_P(w, w) == one
    assert kl.kl_P(g.simple(1), g.identity()).is_zero()
    # short intervals force the constant polynomial 1
    for v in range(g.order):
        for u in _bits(g.down_masks[v]):
            if g.lengths[v] - g.lengths[u] <= 2:
                assert kl.p_idx(u, v) == one


def test_known_nontrivial_entry(a3):
    # the defining identity together with triangularity and the degree
    # bound determines the table uniquely (test_defining_identity and
    # test_degree_bound cover the whole group); this pins the one famous
    # nonconstant entry in rank 3
    g = a3
    kl = KLTable(g)
    one_plus_q = LaurentPoly(0, {(0,): 1, (1,): 1})
    assert kl.kl_P(g.identity(), g.from_word("2132")) == one_plus_q
    nonconstant = {
        (g.word_str(u), g.word_str(w))
        for w in range(g.order)
        for u in _bits(g.down_masks[w])
        if len(kl.p_idx(u, w).terms) > 1
    }
    assert nonconstant == {
        ("e", "2132"),
        ("2", "2132"),
        ("e", "12321"),
        ("1", "12321"),
        ("3", "12321"),
        ("13", "12321"),
    }
    for u_word, w_word in nonconstant:
        assert kl.kl_P(g.from_word(u_word), g.from_word(w_word)) == one_plus_q


def test_defining_identity(a3):
    assert check_kl_defining_identity(a3) == 213


def test_defining_identity_b3(b3):
    """The identity, summed on LaurentPoly by the check, holds for the P
    that p_idx builds from its truncated products on a group with two root
    lengths."""
    kl = KLTable(b3)
    assert check_kl_defining_identity(b3, kl) == sum(
        bin(b3.down_masks[v]).count("1") for v in range(b3.order)
    )


def test_degree_bound_and_nonnegativity(a3, b3):
    for g in (a3, b3):
        kl = KLTable(g)
        for v in range(g.order):
            for u in _bits(g.down_masks[v]):
                p = kl.p_idx(u, v)
                assert all(c > 0 for c in p.coefficients())
                if u != v:
                    assert 2 * p.q_max_degree() <= g.lengths[v] - g.lengths[u] - 1
                assert p.q_min_degree() == 0


def test_q_examples(a2, a3):
    kl2 = KLTable(a2)
    one = LaurentPoly.one(0)
    for v in a2.elements():
        for u in a2.elements():
            if a2.bruhat_leq(u, v):
                assert kl2.kl_Q(u, v) == one
    kl3 = KLTable(a3)
    w0 = a3.longest()
    for v in a3.elements():
        assert kl3.kl_Q(a3.identity(), v) == kl3.kl_P(w0 * v, w0)
        assert kl3.kl_Q(v, v) == one


def test_theta_power_conjecture_small(a2, a3, engine_a3):
    assert check_theta_power_conjecture(a2) == []
    assert check_theta_power_conjecture(a3, theta_table=engine_a3.theta) == []


def _theta_decoded(theta, x, y, w):
    """theta(x, y, w) from the int sums the scan reads, decoded."""
    ((_, col),) = theta.thetas(x, y, 1 << w)
    return LaurentPoly(0, {(d,): c for d, c in _decode_q(col, 0)})


def _scan_per_pair(g, theta):
    """The power-of-q scan that tests P(x y^-1, w) = 1 again for every
    (x, y, w), and "a power of q" on the decoded polynomial: the oracle for
    the scan over one P = 1 mask per z and its int test."""
    kl = KLTable(g)
    one = LaurentPoly.one(0)
    found = []
    for x in range(g.order):
        for y in range(g.order):
            z = g.mul_idx(x, g.inv_table[y])
            for w in _bits(g.up_masks[z]):
                if kl.p_idx(z, w) == one:
                    if not is_q_monomial(_theta_decoded(theta, x, y, w)):
                        found.append((x, y, w))
    return found


def _planted_table(g):
    """A ThetaTable whose int theta is 1 + q at one seeded (x, y, w) with
    P(x y^-1, w) = 1, w the largest such; returns (table, triple). The plant
    sits on the int sum that the scan reads."""
    rng = random.Random(20240811)
    x, y = rng.randrange(g.order), rng.randrange(g.order)
    z = g.mul_idx(x, g.inv_table[y])
    kl = KLTable(g)
    w = max(w for w in _bits(g.up_masks[z]) if kl.p_idx(z, w) == LaurentPoly.one(0))
    planted = (x, y, w)

    class Planted(ThetaTable):
        def thetas(self, xx, yy, ws):
            one_plus_q = _encode_q([(0, 1), (1, 1)], 0)
            return [
                (ww, one_plus_q if (xx, yy, ww) == planted else col)
                for ww, col in super().thetas(xx, yy, ws)
            ]

    return Planted(g), planted


def _indices(violations):
    return [(x.index, y.index, w.index) for x, y, w in violations]


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "G2", "A3"])
def test_masked_scan_matches_per_pair_scan(cartan_type, request):
    """Both scans report the same triples, in the same order, and both
    report the planted non-monomial theta."""
    g = request.getfixturevalue(cartan_type.lower())
    table, planted = _planted_table(g)
    got = _indices(check_theta_power_conjecture(g, theta_table=table))
    assert got == _scan_per_pair(g, table) == [planted]


def test_p_one_mask_that_drops_a_w_fails_the_per_pair_scan(a3, monkeypatch):
    """A P = 1 mask that loses the planted w hides the planted violation,
    so the masked scan no longer matches the per-pair oracle."""
    table, planted = _planted_table(a3)
    x, y, w = planted
    z = a3.mul_idx(x, a3.inv_table[y])
    original = kl_module._p_one_mask

    def dropping(kl, zz):
        mask = original(kl, zz)
        return mask & ~(1 << w) if zz == z else mask

    monkeypatch.setattr(kl_module, "_p_one_mask", dropping)
    got = _indices(check_theta_power_conjecture(a3, theta_table=table))
    assert got != _scan_per_pair(a3, table)


def test_kl_conjecture_suite_reuses_the_engine_r_table(a3, monkeypatch):
    engine = SigmaEngine(a3)
    built = []
    original = RPolyTable.__init__

    def counting(self, group):
        built.append(group)
        original(self, group)

    monkeypatch.setattr(RPolyTable, "__init__", counting)
    res = run_suite("kl-conjecture", a3, engine=engine)
    assert res.ok, res.detail
    assert built == []
