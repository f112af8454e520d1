import itertools
import random
from collections.abc import Mapping

import pytest

from bhl import hecke
from bhl.coxeter import GroupMismatchError, _bits, build_group
from bhl.hecke import ThetaTable
from bhl.polyring import LaurentPoly, _decode_q
from bhl.sigma import SigmaEngine
from bhl.verify import run_suite

from checks import (
    Q,
    Q_MINUS_1,
    add_term,
    lambda_w,
    product_coeffs,
    t_basis,
    t_mul,
    theta,
    theta_from_product,
)


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
    return theta_from_product(g, product_coeffs(g, x, y), w)


def _decoded(col):
    return LaurentPoly(0, {(d,): c for d, c in _decode_q(col, 0)})


def _assert_int_theta(table, x, y, w):
    """theta(x, y, w) from theta_idx and from the column of y (theta_sum
    over the one x, theta_groups at the one w), decoded, equals the
    single-shot oracle."""
    want = _theta_single_shot(table.group, x, y, w)
    assert table.theta_idx(x, y, w) == want, (x, y, w)
    assert _decoded(table.theta_sum(1 << x, y, w)) == want, (x, y, w)
    assert [(ws, _decoded(col)) for ws, col in table.theta_groups(x, y, 1 << w)] == [
        (1 << w, want)
    ], (x, y, w)


@pytest.mark.parametrize("order", ["index", "shuffled"])
@pytest.mark.parametrize("cartan_type", ["A2", "B2", "G2", "A3"])
def test_masked_theta_memo_matches_single_shot(cartan_type, order, request):
    """theta, the int sum of the lifted terms at the t <= w, decoded, is
    the single-shot theta on every (x, y, w), from the column of y, queried
    in index order or in a seeded shuffle, which builds the columns in
    another order."""
    g = request.getfixturevalue(cartan_type.lower())
    triples = list(itertools.product(range(g.order), repeat=3))
    if order == "shuffled":
        random.Random(20240811).shuffle(triples)
    table = ThetaTable(g)
    for x, y, w in triples:
        _assert_int_theta(table, x, y, w)


@pytest.mark.parametrize("order", ["index", "shuffled"])
def test_masked_theta_memo_matches_single_shot_sampled_b3(b3, order):
    rng = random.Random(7)
    triples = [tuple(rng.randrange(b3.order) for _ in range(3)) for _ in range(5000)]
    if order == "index":
        triples.sort()
    table = ThetaTable(b3)
    for x, y, w in triples:
        _assert_int_theta(table, x, y, w)


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "G2", "A3", "B3"])
def test_thetas_over_many_w_match_single_shot(cartan_type):
    """theta_groups(x, y, ws), whose w share one sum per part of the
    support they cover, gives the single-shot theta at every w of ws: every
    (x, y) with all w, or on B3 a seeded sample of (x, y) with random
    masks."""
    g = build_group(cartan_type)
    table = ThetaTable(g)
    everything = (1 << g.order) - 1
    if g.order <= 24:
        cases = [(x, y, everything) for x in range(g.order) for y in range(g.order)]
    else:
        rng = random.Random(20240811)
        cases = [
            (rng.randrange(g.order), rng.randrange(g.order), rng.getrandbits(g.order))
            for _ in range(300)
        ]
    for x, y, ws in cases:
        got = sorted(
            (w, _decoded(col))
            for mask, col in table.theta_groups(x, y, ws)
            for w in _bits(mask)
        )
        want = [
            (w, _theta_single_shot(g, x, y, w)) for w in range(g.order) if ws >> w & 1
        ]
        assert got == want, (x, y)


@pytest.mark.parametrize("cartan_type", ["A4", "D4"])
def test_int_theta_matches_single_shot_sampled_rank_4(cartan_type):
    """A4, where w0-conjugation relabels, and D4, with the largest products
    of the three: a seeded sample of 2 000 triples each."""
    g = build_group(cartan_type)
    rng = random.Random(20240811)
    table = ThetaTable(g)
    for _ in range(2000):
        _assert_int_theta(table, *(rng.randrange(g.order) for _ in range(3)))


def test_lift_by_one_less_fails_the_single_shot_check(a3):
    """A table whose walks start from T_x lifted by len(x) - 1 instead of
    len(x) (x = e, whose q^-1 has no slot, keeps its lift) builds theta
    values the single-shot oracle rejects: the walk carries the lift of its
    start entry into every product."""
    table = ThetaTable(a3)
    for x, n in enumerate(a3.lengths):
        lift = hecke._Q_BITS * max(n - 1, 0)
        table._products[(x, a3.identity_idx)] = {x: 1 << lift}
    wrong = [
        (x, y, w)
        for x, y, w in itertools.product(range(a3.order), repeat=3)
        if table.theta_idx(x, y, w) != _theta_single_shot(a3, x, y, w)
    ]
    assert wrong


def test_column_refuses_a_product_past_the_slot_bound(a3, monkeypatch):
    """With the slot bound lowered to 24 * 3^3, the products of a y of
    length 3 may pass it when 24 of them are summed: asking for one raises,
    through product, theta_idx and reach, and the column of that y is not
    built; a y of length 2 is still served."""
    monkeypatch.setattr(hecke, "_Q_BOUND", a3.order * 3**3)
    table = ThetaTable(a3)
    y = a3.from_word("123").index
    for ask in (
        lambda: table.product(1, y),
        lambda: table.theta_idx(1, y, a3.longest_idx),
        lambda: table.reach(y, a3.longest_idx),
    ):
        with pytest.raises(RuntimeError, match="overflow the q-column slots"):
            ask()
    assert y not in table._columns
    assert not any(key[1] == y for key in table._products)
    short = a3.from_word("12").index
    assert table.reach(short, a3.longest_idx) == (1 << a3.order) - 1
    assert table.product(1, short) == product_coeffs(a3, 1, short)


def test_lifted_store_after_classifying_every_w_of_a3(a3):
    """Classifying all 24 w of A3 builds one column per y. Its entries are
    the stored lifted products themselves, t -> q^len(t) c_t as q-columns
    from q^0, which decode to the single-shot word walk; its support masks
    and totals are read off them. No theta is memoized and no other copy
    of a product is kept."""
    engine = SigmaEngine(a3)
    engine.prefill_shared_tables()
    for w in range(a3.order):
        engine.classify_for_w(w)
    table = engine.theta
    assert sorted(table._columns) == list(range(a3.order))
    assert len(table._products) == 576
    for y, (supports, prods, totals) in table._columns.items():
        for x in range(a3.order):
            prod = prods[x]
            assert prod is table._products[(x, y)]
            assert supports[x] == sum(1 << t for t in prod)
            assert totals[x] == sum(prod.values())
            decoded = {
                t: LaurentPoly(0, {(d,): c for d, c in _decode_q(col, -a3.lengths[t])})
                for t, col in prod.items()
            }
            assert decoded == product_coeffs(a3, x, y), (x, y)
    assert set(vars(table)) == {
        "group", "_inv", "_conj", "_max_len", "_products", "_columns", "_reach"
    }


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
                add_term(out, sz, c)
            else:
                add_term(out, z, c * Q_MINUS_1)
                add_term(out, sz, c * Q)
        coeffs = out
    return coeffs


def _independent_routes(g):
    """T_x T_{y^-1} by the single-shot word walk, by t_mul and by left
    multiplication; none shares a step with the table."""
    return {
        "word walk": lambda x, y: product_coeffs(g, x, y),
        "t_mul": lambda x, y: t_mul(
            t_basis(g.element(x)), t_basis(g.element(g.inv_table[y]))
        ).coeffs,
        "left multiplication": lambda x, y: _left_mul_product(g, x, y),
    }


def _assert_matches_independent_routes(g, table, pairs):
    """The decoded view of every pair equals the three routes; a second
    query reads the same stored entry, not a rebuilt one."""
    routes = _independent_routes(g).items()
    for x, y in pairs:
        prod = table.product(x, y)
        for name, route in routes:
            assert prod == route(x, y), (name, x, y)
        assert table.product(x, y)._lifted is table._products[(x, y)]


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


def test_step_that_drops_minus_l_fails_every_independent_route(a3, monkeypatch):
    """A lifted generator step whose down step gives t L << K instead of
    (L << K) - L builds products that each of the three routes rejects on
    its own: the route test can see a wrong step, since no route runs the
    table's."""
    original = hecke._rmul_gen

    def dropping(g, lifted, i):
        out = original(g, lifted, i)
        for t, col in lifted.items():
            if g.lengths[g.rmult[t][i]] < g.lengths[t]:
                out[t] = out.get(t, 0) + col
        return {t: col for t, col in out.items() if col}

    monkeypatch.setattr(hecke, "_rmul_gen", dropping)
    table = ThetaTable(a3)
    pairs = [(x, y) for x in range(a3.order) for y in range(a3.order)]
    for name, route in _independent_routes(a3).items():
        assert any(table.product(x, y) != route(x, y) for x, y in pairs), name


def test_product_is_a_read_only_view(a3):
    """product() decodes the stored entry on each read and cannot be
    written through."""
    table = ThetaTable(a3)
    prod = table.product(5, 7)
    assert isinstance(prod, Mapping)
    assert list(prod) == list(table._products[(5, 7)])
    with pytest.raises(TypeError):
        prod[min(prod)] = LaurentPoly.one(0)


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
    fill makes exactly |W|^2 = 576 calls; building every column, as
    classifying a w does, reads the stored entries and makes none."""
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
    engine.classify_for_w(a3.longest_idx)
    assert sorted(engine.theta._columns) == list(range(a3.order))
    assert len(calls) == 576


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
    with pytest.raises(GroupMismatchError):
        ThetaTable(a2).theta(a2.identity(), a2.identity(), b2.identity())
