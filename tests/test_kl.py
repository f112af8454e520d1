import random

import pytest

from bhl import cli
from bhl import kl as kl_module
from bhl.coxeter import _bits
from bhl.hecke import ThetaTable
from bhl.kl import KLTable, check_theta_power_conjecture
from bhl.polyring import LaurentPoly, _decode_q, _encode_q
from bhl.rpoly import RPolyTable
from bhl.sigma import SigmaEngine
from bhl.verify import run_suite

from checks import check_kl_defining_identity, is_q_monomial, kl_p_by_recursion


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
    ((_, col),) = theta.theta_groups(x, y, 1 << w)
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
    sits on the int sums that the scan reads, split off the group of w."""
    rng = random.Random(20240811)
    x, y = rng.randrange(g.order), rng.randrange(g.order)
    z = g.mul_idx(x, g.inv_table[y])
    kl = KLTable(g)
    w = max(w for w in _bits(g.up_masks[z]) if kl.p_idx(z, w) == LaurentPoly.one(0))
    planted = (x, y, w)

    class Planted(ThetaTable):
        def theta_groups(self, xx, yy, ws):
            out = []
            for mask, col in super().theta_groups(xx, yy, ws):
                if (xx, yy) == (x, y) and mask >> w & 1:
                    out.append((1 << w, _encode_q([(0, 1), (1, 1)], 0)))
                    mask &= ~(1 << w)
                if mask:
                    out.append((mask, col))
            return out

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


def test_verify_all_builds_one_kl_table(monkeypatch, capsys):
    """``verify --type A3 --suite all``: gk-base and kl-conjecture both
    read the engine's one KL table."""
    built = []
    original = KLTable.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(KLTable, "__init__", counting)
    assert cli.run(["verify", "--type", "A3", "--suite", "all"]) == 0
    assert "gk-base: PASS" in capsys.readouterr().out
    assert len(built) == 1


@pytest.mark.parametrize("cartan_type, top_slots", [("G2", 0), ("A3", 5), ("B3", 49)])
def test_p_columns_match_the_laurent_recursion(cartan_type, top_slots, request):
    """P decoded from its q-column equals the truncated LaurentPoly
    recursion on every pair, and is 0 off the Bruhat order. Every P(u, v)
    with u < v makes the kept slots of the int sum negative, so the sign
    fix runs on each; top_slots counts the pairs whose top kept slot
    itself holds a nonzero (negative) coefficient, deg P = cut > 0. A
    dihedral group has none: all its P are 1."""
    g = request.getfixturevalue(cartan_type.lower())
    kl = KLTable(g)
    want = kl_p_by_recursion(g, kl.rtable)
    top_slot = 0
    for v in range(g.order):
        for u in range(g.order):
            got = kl.p_idx(u, v)
            assert got == want.get((u, v), LaurentPoly.zero(0)), (u, v)
            cut = (g.lengths[v] - g.lengths[u] - 1) // 2
            top_slot += (u, v) in want and u != v and got.q_max_degree() == cut > 0
    assert top_slot == top_slots


def test_p_column_l1_guard_raises(a3, monkeypatch):
    """The largest L1 bound of an A3 sum R(u, z) P(z, v) is 200: with the
    slot bound at 201 every P is built, at 200 the guard raises."""
    monkeypatch.setattr(kl_module, "_Q_BOUND", 201)
    kl = KLTable(a3)
    for v in range(a3.order):
        for u in _bits(a3.down_masks[v]):
            kl.p_idx(u, v)
    monkeypatch.setattr(kl_module, "_Q_BOUND", 200)
    kl = KLTable(a3)
    with pytest.raises(RuntimeError, match="L1 bound 200"):
        kl.p_idx(a3.identity_idx, a3.longest_idx)
