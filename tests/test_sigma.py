import hashlib
import itertools
import multiprocessing
import os
import random
from types import SimpleNamespace

import pytest

from bhl import sigma
from bhl.coxeter import GroupMismatchError, _bits, build_group
from bhl.demazure import v_min, v_min_idx
from bhl.hecke import ThetaTable
from bhl.polyring import LaurentPoly, RationalFn, _decode_q
from bhl.rpoly import s_set, s_set_idx
from bhl.sigma import SigmaEngine, classify, verify_main_theorem, verify_vanishing
from bhl.verify import SUITE_NAMES, run_suite

from checks import mu_element, sigma_via_mu_idx

# the twenty non-product-form triples in rank 2, canonical words,
# sorted lexicographically
A2_EXCEPTIONS = [
    ("1", "1", "12"),
    ("1", "12", "12"),
    ("1", "121", "1"),
    ("1", "121", "12"),
    ("1", "121", "21"),
    ("1", "21", "1"),
    ("1", "21", "12"),
    ("1", "21", "21"),
    ("12", "12", "12"),
    ("12", "121", "12"),
    ("2", "12", "12"),
    ("2", "12", "2"),
    ("2", "12", "21"),
    ("2", "121", "12"),
    ("2", "121", "2"),
    ("2", "121", "21"),
    ("2", "2", "21"),
    ("2", "21", "21"),
    ("21", "121", "21"),
    ("21", "21", "21"),
]

# sha256 prefixes of the CSV and JSON classification reports
GOLDEN_REPORTS = {
    "A2": ("eb713052a6929c9e", "ff8d498e3cb41c98"),
    "B2": ("b333a5810a025b51", "e3cf1c6234a9576b"),
    "C2": ("19c1cee52fee905a", "c3dbccd7ba8757ad"),
    "G2": ("056d86b9702e3c4d", "3b474881d4e9c14a"),
    "A3": ("643eba03b88cac48", "d12c7a173c9f9afb"),
}


def test_sigma_base_example(a2, engine_a2):
    g = a2
    val = engine_a2.sigma(g.identity(), g.simple(1), g.identity())
    expected = RationalFn(
        LaurentPoly(2, {(0, 0, 0): 1, (-1, 1, 0): -1}), ((1, 0),)
    )
    assert val == expected
    assert str(val) == "(1 - q^-1*x1) / (1 - x1)"


def test_sigma_poincare_example(a2, engine_a2):
    g = a2
    val = engine_a2.sigma(g.simple(1), g.identity(), g.from_word("21"))
    assert val == RationalFn(LaurentPoly(2, {(1, 0, 0): 1, (2, 0, 0): 1}))


def test_sigma_vanishing_example(a2, engine_a2):
    g = a2
    assert engine_a2.sigma(g.from_word("12"), g.identity(), g.identity()).is_zero()


def test_sigma_equals_poincare_at_trivial_v(a2, a3, engine_a2, engine_a3):
    for g, eng in ((a2, engine_a2), (a3, engine_a3)):
        e = g.identity()
        for u in g.elements():
            for w in g.elements():
                val = eng.sigma(u, e, w)
                expected = RationalFn(g.poincare(u, w).embed(g.rank))
                assert val == expected


def test_sigma0_examples(a2, engine_a2):
    g = a2
    assert engine_a2.sigma0(g.simple(1), g.simple(2)) == LaurentPoly(
        0, {(0,): 1, (1,): 1}
    )
    w0 = g.longest()
    for u in g.elements():
        assert engine_a2.sigma0(u, w0) == g.poincare(u, w0)
    assert engine_a2.sigma0(g.from_word("12"), w0) == LaurentPoly(
        0, {(2,): 1, (3,): 1}
    )


def test_mu_element_examples(a2, engine_a2):
    g = a2
    e, s1 = g.identity(), g.simple(1)
    mu_e = mu_element(engine_a2, e)
    assert set(mu_e) == {e} and mu_e[e] == RationalFn.one(2)
    mu_s1 = mu_element(engine_a2, s1)
    assert set(mu_s1) == {e, s1}
    assert mu_s1[s1] == RationalFn(LaurentPoly.q_power(2, -1))
    expected = RationalFn(
        LaurentPoly(2, {(0, 1, 0): 1, (-1, 1, 0): -1}), ((1, 0),)
    )
    assert mu_s1[e] == expected


def test_mu_route_agrees_with_double_sum(a3, engine_a3):
    g = a3
    rng = random.Random(17)
    for _ in range(50):
        u, v, w = (rng.randrange(g.order) for _ in range(3))
        a = engine_a3.sigma_idx(u, v, w)
        b = sigma_via_mu_idx(engine_a3, u, v, w)
        assert a == b


def test_is_gk_examples(a2, engine_a2):
    g = a2
    for u in g.elements():
        for w in g.elements():
            assert engine_a2.is_gk(u, v_min(u, w), w)
    assert not engine_a2.is_gk(g.simple(1), g.simple(1), g.from_word("12"))
    with pytest.raises(ValueError):
        engine_a2.is_gk(g.from_word("12"), g.identity(), g.identity())


def test_gk_base_case_all_v(a3, engine_a3):
    g = a3
    e = g.identity()
    for v in g.elements():
        sig = engine_a3.sigma(e, v, e)
        assert sig == engine_a3.gk_factor(s_set(e, v))


def test_classify_a2(a2):
    rep = classify(a2)
    assert rep.total_triples == 216
    assert rep.nonzero_count == 167
    assert rep.gk_count == 147
    assert rep.exceptions == A2_EXCEPTIONS
    assert rep.gk_count + len(rep.exceptions) == rep.nonzero_count
    assert len(rep.rows) == 167


def test_classify_b2(b2):
    rep = classify(b2)
    assert rep.total_triples == 512
    assert rep.nonzero_count == 401
    assert rep.gk_count == 305


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("cartan_type", sorted(GOLDEN_REPORTS))
def test_classify_reports_match_golden_digests(cartan_type):
    rep = classify(build_group(cartan_type))
    assert (_digest(rep.to_csv_text()), _digest(rep.to_json_text())) == (
        GOLDEN_REPORTS[cartan_type]
    )


def test_classify_deterministic_across_jobs(a2):
    rep1 = classify(a2, jobs=1)
    rep2 = classify(a2, jobs=3)
    assert rep1.to_json_text() == rep2.to_json_text()
    assert rep1.to_csv_text() == rep2.to_csv_text()


def test_worker_count_is_capped(a2, monkeypatch):
    """min(jobs, |W|, cpu_count) workers; fewer than two runs serially. The
    pool is replaced by an in-process stand-in, so no process starts."""
    sizes = []

    class InlinePool:
        def __init__(self, processes, initializer, initargs):
            sizes.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            return [fn(i) for i in items]

    monkeypatch.setattr(sigma, "_WORKER", None)  # the stand-in sets it here
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=InlinePool)
    )
    serial = classify(a2).to_csv_text()
    # (jobs, cpu_count, expected pool size); |W| = 6 for A2
    for jobs, cpus, workers in ((3, 8, 3), (10, 8, 6), (10, 4, 4), (1, 8, None), (5, 1, None)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        sizes.clear()
        assert classify(a2, jobs=jobs).to_csv_text() == serial
        assert sizes == ([] if workers is None else [workers])
    with pytest.raises(ValueError):
        classify(a2, jobs=0)


def test_pool_takes_one_w_at_a_time_longest_first(b2, engine_b2, monkeypatch):
    """The pool is handed every w by descending length with chunksize 1, and
    the results come back in w order. The stand-in pool runs in process."""
    calls = []

    class InlinePool:
        def __init__(self, processes, initializer, initargs):
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=None):
            items = list(items)
            calls.append((items, chunksize))
            return [fn(i) for i in items]

    monkeypatch.setattr(sigma, "_WORKER", None)  # the stand-in sets it here
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["fork"])
    monkeypatch.setattr(
        multiprocessing, "get_context", lambda method: SimpleNamespace(Pool=InlinePool)
    )
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    out = sigma._map_over_w(engine_b2, lambda engine, w: (w, engine.group.lengths[w]), 2)
    assert out == [(w, b2.lengths[w]) for w in range(b2.order)]
    ((items, chunksize),) = calls
    assert chunksize == 1
    assert sorted(items) == list(range(b2.order))
    assert [b2.lengths[w] for w in items] == sorted(b2.lengths, reverse=True)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(), reason="needs fork"
)
def test_workers_ignore_a_worker_global_set_by_another_caller(a2, engine_b2, monkeypatch):
    """Another thread's classify may set sigma._WORKER between this call's
    set-up and its fork; the workers must still run this call's engine."""
    real_context = multiprocessing.get_context

    def racing_context(method):
        ctx = real_context(method)

        def pool(*args, **kwargs):
            sigma._WORKER = (engine_b2, SigmaEngine.classify_for_w)
            return ctx.Pool(*args, **kwargs)

        return SimpleNamespace(Pool=pool)

    monkeypatch.setattr(sigma, "_WORKER", None)
    monkeypatch.setattr(multiprocessing, "get_context", racing_context)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert classify(a2, jobs=2).to_csv_text() == classify(a2).to_csv_text()


def test_classify_rows_match_public_gk_api(a2, b2, engine_a2, engine_b2):
    for g, eng in ((a2, engine_a2), (b2, engine_b2)):
        for w in range(g.order):
            for u_word, v_word, _, flag, sigma0 in eng.classify_for_w(w)[2]:
                u, v = g.parse_word_idx(u_word), g.parse_word_idx(v_word)
                assert flag == eng.is_gk_idx(u, v, w)
                assert sigma0 == str(eng.sigma0_idx(u, w))


def test_main_theorem(a2, b2, engine_a2, engine_b2):
    assert verify_main_theorem(a2, engine=engine_a2)
    assert verify_main_theorem(b2, engine=engine_b2)


def test_vanishing_exhaustive_small(a2, b2, engine_a2, engine_b2):
    assert verify_vanishing(a2, engine=engine_a2)
    assert verify_vanishing(b2, engine=engine_b2)


def test_sigma_pole_containment_a2(a2, engine_a2):
    g = a2
    coords = {tuple(b): a for a, b in enumerate(g.positive_roots)}
    for u in range(g.order):
        for w in range(g.order):
            vm = v_min_idx(g, u, w)
            for v in _bits(g.up_masks[vm]):
                sig = engine_a2.sigma_idx(u, v, w)
                allowed = s_set_idx(g, vm, v)
                seen = set()
                for b in sig.reduced().den:
                    assert b not in seen  # multiplicity one
                    seen.add(b)
                    assert coords[b] in allowed


def test_unreduced_denominators_stay_in_s_e_v(a3, b2, engine_a3, engine_b2):
    """Values are built without cancelling; every factor they carry is still
    a distinct root of S(e, v), so numerators stay bounded and the reduced
    form is unique."""
    rng = random.Random(11)
    for g, eng in ((a3, engine_a3), (b2, engine_b2)):
        coords = {tuple(b): a for a, b in enumerate(g.positive_roots)}

        def check(den, v):
            assert len(set(den)) == len(den)
            assert {coords[b] for b in den} <= s_set_idx(g, 0, v)

        for v in range(g.order):
            for u in range(g.order):
                check(eng.rtable.r_idx(u, v).den, v)
        for _ in range(100):
            u, v, w = (rng.randrange(g.order) for _ in range(3))
            check(eng.sigma_idx(u, v, w).den, v)


def _xi_by_chained_add(eng, u, y, w):
    """xi as a chain of LaurentPoly additions over every x >= u, the oracle
    for the one-dict sum of SigmaEngine._xi over the x that reach [e, w]."""
    out = LaurentPoly.zero(0)
    for x in _bits(eng.group.up_masks[u]):
        out = out + eng.theta.theta_idx(x, y, w)
    return out


def _xi_poly(eng, u, y, w):
    """q^-len(y) xi(u, y, w) decoded from the q-column _xi returns."""
    col, l1 = eng._xi(u, y, w)
    terms = {(d,): c for d, c in _decode_q(col, eng.rtable.low)}
    assert l1 == sum(map(abs, terms.values()))
    return LaurentPoly(0, terms)


def _xi_mismatches(eng, triples):
    """The (u, y, w) whose _xi, decoded, differs from the chained add times
    q^-len(y), term for term; _xi runs first, so its reach skip is not
    helped by the oracle's theta."""
    wrong = []
    for u, y, w in triples:
        got = _xi_poly(eng, u, y, w)
        want = _xi_by_chained_add(eng, u, y, w).shift_q(-eng.group.lengths[y])
        if got.terms != want.terms:
            wrong.append((u, y, w))
    return wrong


def test_xi_matches_chained_add(a2, b2, g2, a3):
    for g in (a2, b2, g2, a3):
        triples = itertools.product(range(g.order), repeat=3)
        assert _xi_mismatches(SigmaEngine(g), triples) == [], g.cartan_type


def test_xi_matches_chained_add_sampled_b3(b3):
    rng = random.Random(20240811)
    triples = [tuple(rng.randrange(b3.order) for _ in range(3)) for _ in range(5000)]
    assert _xi_mismatches(SigmaEngine(b3), triples) == []


def test_reach_that_drops_a_nonzero_theta_fails_the_xi_check(a3, monkeypatch):
    """A reach(y, w) that loses one x with nonzero theta(x, y, w) makes
    _xi(e, y, w) differ from the chained add: the check sees a reach that
    skips too much."""
    eng = SigmaEngine(a3)
    y, w = 5, a3.longest_idx
    x = next(
        x for x in _bits(eng.theta.reach(y, w))
        if not eng.theta.theta_idx(x, y, w).is_zero()
    )
    original = ThetaTable.reach

    def dropping(self, yy, ww):
        mask = original(self, yy, ww)
        return mask & ~(1 << x) if (yy, ww) == (y, w) else mask

    monkeypatch.setattr(ThetaTable, "reach", dropping)
    triples = itertools.product(range(a3.order), repeat=3)
    assert (a3.identity_idx, y, w) in _xi_mismatches(eng, triples)


def _sigma_by_rational_sum(eng, u, v, w):
    """sigma as a chain of RationalFn additions, the oracle for the packed
    accumulation of SigmaEngine.sigma_idx."""
    g = eng.group
    acc = RationalFn.zero(g.rank)
    for y in _bits(g.down_masks[v]):
        xi = _xi_poly(eng, u, y, w)
        if not xi.is_zero():
            acc = acc + eng.rtable.bar_r_idx(y, v).mul_poly(xi.embed(g.rank))
    return acc


def test_packed_sigma_matches_rational_sum_term_for_term(
    a2, b2, g2, a3, b3, engine_a2, engine_b2, engine_a3, engine_b3
):
    """Same numerator dict and same unreduced den, not just equal values."""
    rng = random.Random(5)
    cases = []
    for g, eng in ((a2, engine_a2), (b2, engine_b2), (g2, SigmaEngine(g2))):
        cases += [(eng, t) for t in itertools.product(range(g.order), repeat=3)]
    for g, eng in ((a3, engine_a3), (b3, engine_b3)):
        cases += [
            (eng, tuple(rng.randrange(g.order) for _ in range(3)))
            for _ in range(200)
        ]
    for eng, (u, v, w) in cases:
        got = eng.sigma_idx(u, v, w)
        want = _sigma_by_rational_sum(eng, u, v, w)
        assert (got.num.terms, got.den) == (want.num.terms, want.den), (u, v, w)


def _classify_path_mismatches(eng, pairs, vs):
    """The (u, v, w) whose sigma on the classify path differs from the
    RationalFn chain term for term: one xi cache per (u, w), as
    classify_for_w shares it, and the engine's scaled bar r memo kept
    across all pairs, so later pairs read entries that earlier ones made."""
    wrong = []
    for u, w in pairs:
        xi_cache: dict = {}
        for v in vs:
            got = eng.sigma_idx(u, v, w, xi_cache)
            want = _sigma_by_rational_sum(eng, u, v, w)
            if (got.num.terms, got.den) != (want.num.terms, want.den):
                wrong.append((u, v, w))
    return wrong


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "G2"])
def test_classify_path_sigma_matches_rational_sum_every_triple(cartan_type, request):
    g = request.getfixturevalue(cartan_type.lower())
    ws = list(range(g.order))
    random.Random(7).shuffle(ws)
    pairs = [(u, w) for w in ws for u in range(g.order)]
    assert _classify_path_mismatches(SigmaEngine(g), pairs, range(g.order)) == []


def test_classify_path_sigma_matches_rational_sum_sampled_a3_b3(a3, b3):
    rng = random.Random(8)
    for g, n_pairs in ((a3, 12), (b3, 5)):
        pairs = [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(n_pairs)]
        eng = SigmaEngine(g)
        assert _classify_path_mismatches(eng, pairs, range(g.order)) == []
        assert eng._scaled_bar_r, g.cartan_type


def test_sigma_keys_stay_within_the_table_digit_bound(a3, b3):
    """Every x-key sigma accumulates on, read off its numerator and den on
    the classify path of seeded A3 and B3 pairs, unpacks inside the r
    table's max_digit: a scaled bar's x_j-degree is at most the pivot roots
    below v plus U, two sets of distinct positive roots."""
    rng = random.Random(9)
    for g, n_pairs in ((a3, 12), (b3, 4)):
        eng = SigmaEngine(g)
        bound = eng.rtable.max_digit
        seen = 0
        for _ in range(n_pairs):
            u, w = rng.randrange(g.order), rng.randrange(g.order)
            xi_cache: dict = {}
            for v in range(g.order):
                sig = eng.sigma_idx(u, v, w, xi_cache)
                for x in (*(e[1:] for e in sig.num.terms), *sig.den):
                    assert all(0 <= d <= bound for d in x), (u, v, w)
                    seen = max(seen, *x)
        assert 0 < seen <= bound, g.cartan_type


def test_corrupted_scaled_bar_fails_the_term_for_term_check(a3):
    """One memo entry with a flipped coefficient makes the classify-path
    sigma that reads it differ from the RationalFn chain."""
    eng = SigmaEngine(a3)
    e, w0 = a3.identity_idx, a3.longest_idx
    assert _classify_path_mismatches(eng, [(e, w0)], [w0]) == []
    key = next(iter(eng._scaled_bar_r))
    bad = list(eng._scaled_bar_r[key])
    k, c = bad[0]
    bad[0] = (k, -c)
    eng._scaled_bar_r[key] = tuple(bad)
    assert _classify_path_mismatches(eng, [(e, w0)], [w0]) == [(e, w0, w0)]


def test_single_shot_sigma_reads_the_memo_that_classify_filled(a3):
    """The memo is shared by every sigma of an engine: single-shot sigma
    after a classification builds no entry, and matches the chain."""
    eng = SigmaEngine(a3)
    for w in range(a3.order):
        eng.classify_for_w(w)
    entries = dict(eng._scaled_bar_r)
    rng = random.Random(10)
    for _ in range(300):
        u, v, w = (rng.randrange(a3.order) for _ in range(3))
        got = eng.sigma_idx(u, v, w)
        want = _sigma_by_rational_sum(eng, u, v, w)
        assert (got.num.terms, got.den) == (want.num.terms, want.den), (u, v, w)
    assert eng._scaled_bar_r == entries


@pytest.mark.parametrize(
    "cartan_type, entries, columns, pairs",
    [("G2", 75, 356, 120), ("A3", 561, 2664, 285)],
    ids=["G2", "A3"],
)
def test_scaled_bar_memo_size_after_classifying_every_w(
    cartan_type, entries, columns, pairs, request
):
    """The memo keeps one scaled bar r(y, v) per distinct (y, v, U) whose
    bar lacks a factor of U: 561 for all 24 w of A3, whose 3 benchmark w
    alone ask 7 240 (y, v) parts; a bar that lacks none is read from the
    r table and not stored. An entry holds one (x-key, q-column) pair per
    x-monomial, and its pairs share one object per distinct pair: 285 for
    the 2 664 columns of A3."""
    g = request.getfixturevalue(cartan_type.lower())
    engine = SigmaEngine(g)
    for w in range(g.order):
        engine.classify_for_w(w)
    memo = engine._scaled_bar_r
    assert len(memo) == entries
    assert sum(map(len, memo.values())) == columns
    assert len({id(t) for terms in memo.values() for t in terms}) == pairs


def test_classify_round_scales_each_bar_once_per_key(a3, monkeypatch):
    """The 3 w of the classify-a3 benchmark make 1 029 binomial steps inside
    sigma, one per factor of a memo entry built; scaling every part of
    every triple took 12 848."""
    steps = 0
    original = sigma._times_binomial

    def counting(num, b):
        nonlocal steps
        steps += 1
        return original(num, b)

    engine = SigmaEngine(a3)
    engine.prefill_shared_tables()
    monkeypatch.setattr(sigma, "_times_binomial", counting)
    for word in ("e", "32", "2132"):
        engine.classify_for_w(a3.parse_word_idx(word))
    assert steps == 1029


def test_group_mismatch_rejected(a2, b2, engine_a2, engine_b2):
    with pytest.raises(GroupMismatchError):
        engine_a2.sigma(a2.identity(), a2.identity(), b2.identity())
    # an engine over another group is refused, not silently used
    with pytest.raises(GroupMismatchError):
        classify(a2, engine=engine_b2)
    with pytest.raises(GroupMismatchError):
        verify_main_theorem(a2, engine=engine_b2)
    with pytest.raises(GroupMismatchError):
        verify_vanishing(a2, engine=engine_b2)
    for name in SUITE_NAMES:
        with pytest.raises(GroupMismatchError):
            run_suite(name, a2, engine=engine_b2)
