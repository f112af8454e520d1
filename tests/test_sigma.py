import hashlib
import itertools
import multiprocessing
import os
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import bhl
from bhl import polyring, sigma, verify
from bhl.coxeter import GroupMismatchError, _bits, build_group
from bhl.demazure import (
    circ,
    down_left,
    down_right,
    mixed_meet,
    up_left,
    up_right,
    v_min,
    v_min_idx,
)
from bhl.hecke import ThetaTable
from bhl.polyring import (
    LaurentPoly,
    RationalFn,
    _columns_equal,
    _decode_q,
    _deferred_columns,
    _q_poly,
    _times_binomial,
    _unpack,
    binomial,
)
from bhl.rpoly import s_set, s_set_idx
from bhl.sigma import ClassificationReport, SigmaEngine, classify
from bhl.verify import SUITE_NAMES, run_suite

from checks import mu_element, rf_mul_poly, sigma_via_mu_idx, theta_from_product

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


def test_report_built_by_keyword_renders_the_same_bytes(a2):
    """A report built by keyword from classify's fields renders the golden
    bytes; one built from the four counts alone has no exception or row,
    and no report's fields can be assigned."""
    rep = classify(a2)
    again = ClassificationReport(
        cartan_type=rep.cartan_type,
        total_triples=rep.total_triples,
        nonzero_count=rep.nonzero_count,
        gk_count=rep.gk_count,
        exceptions=list(rep.exceptions),
        rows=list(rep.rows),
    )
    assert again == rep
    assert (_digest(again.to_csv_text()), _digest(again.to_json_text())) == GOLDEN_REPORTS["A2"]
    bare = ClassificationReport(cartan_type="A2", total_triples=216, nonzero_count=0, gk_count=0)
    assert bare.to_csv_text() == "type,u,v,w,is_gk,sigma0\n"
    assert '"exceptions": []' in bare.to_json_text()
    with pytest.raises(AttributeError):
        rep.gk_count = 0
    result = verify.SuiteResult("theta", True, "1 checks")
    assert repr(result) == "SuiteResult(name='theta', ok=True, detail='1 checks')"
    with pytest.raises(AttributeError):
        result.ok = False


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
    assert run_suite("main-theorem", a2, engine=engine_a2).ok
    assert run_suite("main-theorem", b2, engine=engine_b2).ok


def test_vanishing_exhaustive_small(a2, b2, engine_a2, engine_b2):
    assert run_suite("vanishing", a2, engine=engine_a2).ok
    assert run_suite("vanishing", b2, engine=engine_b2).ok


def test_vanishing_refuses_fewer_than_one_sample(a3, engine_a3):
    """A sampled vanishing check with no sample would pass having checked
    nothing; it raises."""
    for samples in (0, -5):
        with pytest.raises(ValueError, match="at least 1"):
            run_suite("vanishing", a3, samples=samples, engine=engine_a3)


def _recorded_sigma_calls(monkeypatch, eng) -> list:
    """The (u, v, w) of every sigma_idx call on eng from now on."""
    original, asked = eng.sigma_idx, []

    def recording(u, v, w, row=None):
        asked.append((u, v, w))
        return original(u, v, w, row)

    monkeypatch.setattr(eng, "sigma_idx", recording)
    return asked


def test_vanishing_samples_the_package_seed_by_default(a3, monkeypatch):
    """With no seed, the vanishing suite asks sigma at the first triples of
    an independent re-draw from the package seed, which classify's point
    is drawn from too: u, v, w in turn from random.Random(20240811), a
    draw with v >= v_min passed over but taken from the generator all the
    same. A suite that drew in another order, or drew again in place of a
    passed-over draw, asks other triples."""
    assert sigma._POINT_SEED == sigma.DEFAULT_SEED == verify.DEFAULT_SEED == 20240811
    eng = SigmaEngine(a3)
    asked = _recorded_sigma_calls(monkeypatch, eng)
    assert run_suite("vanishing", a3, samples=12, engine=eng).ok
    rng, want, passed_over = random.Random(20240811), [], 0
    while len(want) < 12:
        u, v, w = (a3.element(rng.randrange(a3.order)) for _ in range(3))
        if a3.bruhat_leq(v_min(u, w), v):
            passed_over += 1
        else:
            want.append((u.index, v.index, w.index))
    assert asked == want and passed_over > 0


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
    """xi as a chain of LaurentPoly additions over every x >= u, each theta
    summed on dicts from the product's coefficients: the oracle for the int
    sum of SigmaEngine._xi over the x that reach [e, w]."""
    g = eng.group
    out = LaurentPoly.zero(0)
    for x in _bits(g.up_masks[u]):
        out = out + theta_from_product(g, eng.theta.product(x, y), w)
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


def test_single_shot_sigma_asks_xi_only_where_some_x_reaches(a3, monkeypatch):
    """Without a row, sigma asks xi(u, y, w) for exactly the y <= v
    whose reach(y, w) has an x >= u: on an A3 main-theorem pass, every such
    y at v = v_min and no other."""
    eng = SigmaEngine(a3)
    asked = []
    original = SigmaEngine._xi

    def counting(self, u, y, w, point=None):
        asked.append((u, y, w))
        return original(self, u, y, w, point)

    monkeypatch.setattr(SigmaEngine, "_xi", counting)
    assert run_suite("main-theorem", a3, engine=eng).ok
    want = [
        (u, y, w)
        for w in range(a3.order)
        for u in range(a3.order)
        for y in _bits(a3.down_masks[v_min_idx(a3, u, w)])
        if a3.up_masks[u] & eng.theta.reach(y, w)
    ]
    assert asked == want


def _sigma_by_rational_sum(eng, u, v, w):
    """sigma as a chain of RationalFn additions, the oracle for the packed
    accumulation of SigmaEngine.sigma_idx."""
    g = eng.group
    acc = RationalFn.zero(g.rank)
    for y in _bits(g.down_masks[v]):
        xi = _xi_poly(eng, u, y, w)
        if not xi.is_zero():
            acc = acc + rf_mul_poly(eng.rtable.bar_r_idx(y, v), xi.embed(g.rank))
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
    RationalFn chain term for term: one ``_XiRow`` of every y per (u, w),
    at the point, as classify_for_w builds it, and the deferred columns
    read."""
    point = sigma._Point(eng)
    everything = (1 << eng.group.order) - 1
    wrong = []
    for u, w in pairs:
        row = eng._xi_row(u, w, everything, point)
        for v in vs:
            got = eng.sigma_idx(u, v, w, row)
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


def test_sigma_keys_stay_within_the_table_digit_bound(a3, b3):
    """Every x-key sigma accumulates on, read off its numerator and den on
    the classify path of seeded A3 and B3 pairs, unpacks inside the r
    table's max_digit: every key of a den group, at every step of the
    merge, has x_j-degree at most the pivot roots below v plus U, two sets
    of distinct positive roots."""
    rng = random.Random(9)
    for g, n_pairs in ((a3, 12), (b3, 4)):
        eng = SigmaEngine(g)
        point = sigma._Point(eng)
        bound = eng.rtable.max_digit
        seen = 0
        for _ in range(n_pairs):
            u, w = rng.randrange(g.order), rng.randrange(g.order)
            row = eng._xi_row(u, w, (1 << g.order) - 1, point)
            for v in range(g.order):
                sig = eng.sigma_idx(u, v, w, row)
                for x in (*(e[1:] for e in sig.num.terms), *sig.den):
                    assert all(0 <= d <= bound for d in x), (u, v, w)
                    seen = max(seen, *x)
        assert 0 < seen <= bound, g.cartan_type


def test_skipped_merge_factor_fails_the_term_for_term_check(a3, monkeypatch):
    """A merge step that leaves out its factor 1 - x^beta once makes the
    classify-path sigma it feeds differ from the RationalFn chain, and only
    that sigma."""
    eng = SigmaEngine(a3)
    current, step_triples = [], []  # the triple of each binomial step
    original_sigma, original_step = eng.sigma_idx, sigma._times_binomial

    def tracking(u, v, w, row=None):
        current[:] = [(u, v, w)]
        return original_sigma(u, v, w, row)

    def skipping(num, b):
        step_triples.append(current[0])
        return dict(num) if len(step_triples) == 101 else original_step(num, b)

    monkeypatch.setattr(eng, "sigma_idx", tracking)
    monkeypatch.setattr(sigma, "_times_binomial", skipping)
    pairs = [(a3.identity_idx, a3.longest_idx), (1, a3.parse_word_idx("2132"))]
    wrong = _classify_path_mismatches(eng, pairs, range(a3.order))
    assert len(step_triples) > 100
    assert wrong == [step_triples[100]]


def test_single_shot_sigma_after_classify_keeps_no_state(a3):
    """sigma keeps nothing between calls: after every w of A3 is
    classified, single-shot sigma still matches the chain, and the engine
    holds the same attributes it was built with."""
    eng = SigmaEngine(a3)
    names = set(vars(eng))
    for w in range(a3.order):
        eng.classify_for_w(w)
    rng = random.Random(10)
    for _ in range(300):
        u, v, w = (rng.randrange(a3.order) for _ in range(3))
        got = eng.sigma_idx(u, v, w)
        want = _sigma_by_rational_sum(eng, u, v, w)
        assert (got.num.terms, got.den) == (want.num.terms, want.den), (u, v, w)
    assert set(vars(eng)) == names


def test_bar_r_reads_keep_no_unpack_memo(a3):
    """Decoding every bar r of A3 through bar_r_idx adds no attribute to
    the r table or the engine, and neither does decoding sigma, which
    still matches the chain after those decodes."""
    eng = SigmaEngine(a3)
    names = set(vars(eng.rtable)), set(vars(eng))
    for u in range(a3.order):
        for v in range(a3.order):
            eng.rtable.bar_r_idx(u, v).num
    assert (set(vars(eng.rtable)), set(vars(eng))) == names
    rng = random.Random(12)
    for _ in range(200):
        u, v, w = (rng.randrange(a3.order) for _ in range(3))
        got = eng.sigma_idx(u, v, w)
        want = _sigma_by_rational_sum(eng, u, v, w)
        assert (got.num.terms, got.den) == (want.num.terms, want.den), (u, v, w)
    assert (set(vars(eng.rtable)), set(vars(eng))) == names


def test_classify_round_binomial_steps(a3, monkeypatch):
    """The 3 w of the classify-a3 benchmark make 6 779 binomial steps
    inside sigma when the columns of every sigma are built: each den group
    is multiplied once per factor of U it lacks, after the parts that share
    its den are added. classify itself builds only the sigma that equal
    their GK right-hand side at the point, 603 of the 1 049, in 2 483
    steps."""
    steps = 0
    original = sigma._times_binomial

    def counting(num, b):
        nonlocal steps
        steps += 1
        return original(num, b)

    def steps_of_round():
        nonlocal steps
        steps = 0
        engine = SigmaEngine(a3)
        engine.prefill_shared_tables()
        for word in ("e", "32", "2132"):
            engine.classify_for_w(a3.parse_word_idx(word))
        return steps

    monkeypatch.setattr(sigma, "_times_binomial", counting)
    assert steps_of_round() == 2483
    original_sigma = SigmaEngine.sigma_idx

    def built(self, u, v, w, row=None):
        val = original_sigma(self, u, v, w, row)
        val._packed.cols  # build the columns now
        return val

    monkeypatch.setattr(SigmaEngine, "sigma_idx", built)
    assert steps_of_round() == 6779


def test_unreduced_factor_at_v_min_is_not_cancelled(a2, monkeypatch):
    """sigma0 is read off sigma at v_min as built, with no cancelling: a
    sigma at v_min carrying (1 - x^beta)/(1 - x^beta) makes classify_for_w
    raise and the main-theorem suite fail."""
    eng = SigmaEngine(a2)
    original = eng.sigma_idx
    beta = a2.positive_roots[0]

    def padded(u, v, w, row=None):
        sig = original(u, v, w, row)
        if v != v_min_idx(a2, u, w):
            return sig
        return RationalFn(sig.num * binomial(a2.rank, beta), sig.den + (beta,))

    monkeypatch.setattr(eng, "sigma_idx", padded)
    with pytest.raises(RuntimeError, match="kept torus dependence"):
        eng.classify_for_w(a2.identity_idx)
    res = run_suite("main-theorem", a2, engine=eng)
    assert res == ("main-theorem", False, "sigma at v_min is torus-dependent at u=e, w=e")
    monkeypatch.setattr(eng, "sigma_idx", original)
    assert run_suite("main-theorem", a2, engine=eng).ok


def test_every_element_entry_point_rejects_an_element_of_another_build(a2, engine_a2):
    """Each public entry point that takes elements raises GroupMismatchError
    when any one of them comes from another build of the same type."""
    other = build_group("A2")
    rtable, kl = engine_a2.rtable, engine_a2.kl
    entries = [
        (engine_a2.sigma, 3), (engine_a2.sigma0, 2), (engine_a2.is_gk, 3),
        (rtable.r, 2), (rtable.classical_R, 2), (s_set, 2),
        (kl.kl_P, 2), (kl.kl_Q, 2), (engine_a2.theta.theta, 3),
        (a2.bruhat_leq, 2), (a2.weak_leq_right, 2), (a2.interval, 2), (a2.poincare, 2),
        (lambda w: a2.random_reduced_word(w, random.Random(0)), 1),
        (circ, 2), (up_left, 2), (down_left, 2), (up_right, 2), (down_right, 2),
        (mixed_meet, 2), (v_min, 2), (lambda a, b: a * b, 2),
    ]
    for fn, n in entries:
        for i in range(n):
            args = [a2.longest()] * n
            args[i] = other.longest()
            with pytest.raises(GroupMismatchError):
                fn(*args)


def test_group_mismatch_rejected(a2, b2, engine_a2, engine_b2):
    with pytest.raises(GroupMismatchError):
        engine_a2.sigma(a2.identity(), a2.identity(), b2.identity())
    # an engine over another group is refused, not silently used
    with pytest.raises(GroupMismatchError):
        classify(a2, engine=engine_b2)
    for name in SUITE_NAMES:
        with pytest.raises(GroupMismatchError):
            run_suite(name, a2, engine=engine_b2)


# sha256 prefixes over the decoded (sorted num.terms, den) of bar_r_idx at
# every pair and of sigma_idx at 300 triples drawn with seed 21, recorded
# when column-backed values still decoded at once: reading a column-backed
# value must give the same terms
DECODED_DIGESTS = {
    "B2": ("bc32b5abbc79a83b", "18c56245001f0138"),
    "G2": ("cce20b02759a2f19", "9dd72030a9f73146"),
    "A3": ("e2472b54142cfa73", "abd5eefb5aef8447"),
    "B3": ("e5df60be3bb71155", "b5884320bb87bf48"),
}


def _terms_digest(values) -> str:
    h = hashlib.sha256()
    for val in values:
        h.update(repr((sorted(val.num.terms.items()), val.den)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("cartan_type", sorted(DECODED_DIGESTS))
def test_column_backed_values_decode_to_the_recorded_terms(cartan_type):
    g = build_group(cartan_type)
    eng = SigmaEngine(g)
    bar = [eng.rtable.bar_r_idx(u, v) for u in range(g.order) for v in range(g.order)]
    rng = random.Random(21)
    triples = [tuple(rng.randrange(g.order) for _ in range(3)) for _ in range(300)]
    sig = [eng.sigma_idx(u, v, w) for u, v, w in triples]
    assert all(val._packed is not None for val in bar + sig)
    assert (_terms_digest(bar), _terms_digest(sig)) == DECODED_DIGESTS[cartan_type]


def _gk_comparisons(eng, pairs) -> list:
    """(column ==, eager ==) of sigma against its GK right-hand side, on
    every nonzero triple of the (u, w) in pairs; the column comparison must
    be decided on the columns, the eager one compares decoded copies."""
    g = eng.group
    point = sigma._Point(eng)
    out = []
    for u, w in pairs:
        vm = v_min_idx(g, u, w)
        sigma0 = eng._sigma0(u, w, eng.sigma_idx(u, vm, w))
        row = eng._xi_row(u, w, (1 << g.order) - 1, point)
        for v in _bits(g.up_masks[vm]):
            sig = eng.sigma_idx(u, v, w, row)
            rhs = eng._gk_rhs(s_set_idx(g, vm, v), sigma0)
            assert _columns_equal(sig._packed, rhs._packed) is not None, (u, v, w)
            eager = RationalFn(sig.num, sig.den) == RationalFn(rhs.num, rhs.den)
            out.append((sig == rhs, eager))
    return out


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "C2", "G2"])
def test_column_gk_equality_matches_eager_every_nonzero_triple(cartan_type):
    g = build_group(cartan_type)
    pairs = [(u, w) for u in range(g.order) for w in range(g.order)]
    got = _gk_comparisons(SigmaEngine(g), pairs)
    assert [col for col, _ in got] == [eager for _, eager in got]
    assert {col for col, _ in got} == {True, False}


def test_column_gk_equality_matches_eager_sampled_a3_b3(a3, b3):
    rng = random.Random(22)
    for g, n_pairs in ((a3, 10), (b3, 4)):
        pairs = [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(n_pairs)]
        got = _gk_comparisons(SigmaEngine(g), pairs)
        assert [col for col, _ in got] == [eager for _, eager in got], g.cartan_type
        assert {col for col, _ in got} == {True, False}, g.cartan_type


def test_gk_cross_multiplied_keys_stay_within_the_table_digit_bound(a3, b3):
    """Both sides of the column GK test, sigma times the factors of S it
    lacks and the right-hand side times those of U, have every x-digit in
    [0, max_digit], as the sigma docstring argues, on seeded A3 and B3
    pairs."""
    rng = random.Random(23)
    for g, n_pairs in ((a3, 8), (b3, 3)):
        eng = SigmaEngine(g)
        bound, n = eng.rtable.max_digit, g.rank + 1
        seen = 0
        for _ in range(n_pairs):
            u, w = rng.randrange(g.order), rng.randrange(g.order)
            vm = v_min_idx(g, u, w)
            sigma0 = eng._sigma0(u, w, eng.sigma_idx(u, vm, w))
            for v in _bits(g.up_masks[vm]):
                a = eng.sigma_idx(u, v, w)._packed
                b = eng._gk_rhs(s_set_idx(g, vm, v), sigma0)._packed
                for side, lacks in ((a, b.den - a.den), (b, a.den - b.den)):
                    cols = side.cols
                    for beta in lacks:
                        cols = _times_binomial(cols, beta)
                    for key in cols:
                        digits = _unpack(key, n)
                        assert digits[0] == 0 and all(0 <= d <= bound for d in digits)
                        seen = max(seen, *digits)
        assert 0 < seen <= bound, g.cartan_type


@pytest.mark.parametrize("fault", ["drop-factor", "flip-column"])
def test_gk_factor_with_one_fault_changes_a_flag(a2, monkeypatch, fault):
    """A copy of gk_factor whose numerator leaves out its largest root's
    factor 1 - q^-1 x^alpha (den kept whole), or that negates the column of
    its first root's x-key, changes the flag of some triple."""
    want = classify(a2).rows
    original = SigmaEngine.gk_factor

    def faulty(self, roots):
        if not roots:
            return original(self, roots)
        packed = original(self, roots)._packed
        if fault == "drop-factor":
            short = original(self, roots - {max(roots)})._packed
            cols, low = short.cols, short.low
        else:
            key = self._root_keys[min(roots)]
            cols, low = {**packed.cols, key: -packed.cols[key]}, packed.low
        return _deferred_columns(
            lambda: cols, packed.den, low, packed.n, packed.l1, packed.span
        )

    monkeypatch.setattr(SigmaEngine, "gk_factor", faulty)
    got = classify(a2).rows
    assert [row[:3] for row in got] == [row[:3] for row in want]
    assert any(g_row[3] != w_row[3] for g_row, w_row in zip(got, want))


def test_mixed_eager_and_column_equality(a2, engine_a2):
    """A column-backed sigma equals its eager copy in both orders, and not a
    copy with one coefficient negated, as the benchmark's perturbed sigma
    is built; the GK right-hand side compares the same way."""
    g = a2
    checked = 0
    for u in range(g.order):
        for w in range(g.order):
            vm = v_min_idx(g, u, w)
            sigma0 = engine_a2._sigma0(u, w, engine_a2.sigma_idx(u, vm, w))
            for v in _bits(g.up_masks[vm]):
                sig = engine_a2.sigma_idx(u, v, w)
                rhs = engine_a2._gk_rhs(s_set_idx(g, vm, v), sigma0)
                copy = RationalFn(sig.num, sig.den)
                terms = dict(sig.num.terms)
                first = min(terms)
                terms[first] = -terms[first]
                flipped = RationalFn(LaurentPoly(g.rank, terms), sig.den)
                assert sig == copy and copy == sig
                assert not sig == flipped and not flipped == sig
                assert (rhs == copy) == (copy == rhs) == (sig == rhs)
                checked += 1
    assert checked == 167


def test_classify_and_main_theorem_decode_no_value(a2, b2, g2, monkeypatch):
    """classify and the main-theorem suite run on columns alone: with the
    decode and the eager cross-multiplication (``LaurentPoly.__mul__``)
    refused, the reports keep their counts and sigma0, read off the column
    of the x-key 0 at v_min, keeps its golden digest."""
    want = {g: classify(g) for g in (a2, b2, g2)}

    def refuse(*args):
        raise AssertionError("a column-backed value was decoded")

    monkeypatch.setattr(RationalFn, "_decode", refuse)
    monkeypatch.setattr(LaurentPoly, "__mul__", refuse)
    for g, rep in want.items():
        got = classify(g)
        assert got.rows == rep.rows, g.cartan_type
        assert run_suite("main-theorem", g).ok, g.cartan_type
    assert _digest(classify(a2).to_csv_text()) == GOLDEN_REPORTS["A2"][0]


def _sigma0_off_by(eng, pairs, delta):
    """eng.sigma_idx with delta added to the coefficient of the lowest
    q-degree of sigma at v_min for each (u, w) in pairs, all else as
    built."""
    g, original = eng.group, eng.sigma_idx

    def perturbed(u, v, w, row=None):
        sig = original(u, v, w, row)
        if (u, w) not in pairs or v != v_min_idx(g, u, w):
            return sig
        p = sig._packed
        cols = dict(p.cols)
        slot = ((cols[0] & -cols[0]).bit_length() - 1) // polyring._Q_BITS
        cols[0] += delta << polyring._Q_BITS * slot
        return _deferred_columns(lambda: cols, p.den, p.low, p.n, p.l1 + 1, p.span)

    return perturbed


@pytest.mark.parametrize("delta", [1, -1])
def test_sigma0_off_by_one_fails_the_main_theorem(a3, monkeypatch, delta):
    """sigma(s1, v_min, w0) with delta added to the coefficient of its
    lowest q-degree, all else as built: the one changed pair makes the
    main-theorem suite fail, naming it by canonical words."""
    eng = SigmaEngine(a3)
    u, w = a3.simple(1).index, a3.longest_idx
    assert run_suite("main-theorem", a3, engine=eng).ok
    monkeypatch.setattr(eng, "sigma_idx", _sigma0_off_by(eng, {(u, w)}, delta))
    res = run_suite("main-theorem", a3, engine=eng)
    assert res == (
        "main-theorem", False,
        f"sigma0 differs from the interval series at u=1, w={a3.word_str(w)}",
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_main_theorem_failure_names_the_pair_of_the_smallest_w(a2, monkeypatch, jobs):
    """sigma0 off by one at (u, w) = (e, w0) and (w0, s1): the suite names
    (w0, s1), the pair of the smaller w, serially and with two workers,
    which start on w0, the longest w."""
    eng = SigmaEngine(a2)
    w0, s1 = a2.longest_idx, a2.simple(1).index
    monkeypatch.setattr(eng, "sigma_idx", _sigma0_off_by(eng, {(0, w0), (w0, s1)}, 1))
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    res = run_suite("main-theorem", a2, engine=eng, jobs=jobs)
    assert res.detail == "sigma0 differs from the interval series at u=121, w=1"


def test_vanishing_failure_names_the_first_nonzero_triple(a2, a3, monkeypatch):
    """sigma made nonzero on one triple below v_min fails the vanishing
    suite, naming that triple by canonical words: (w0, e, e) on exhaustive
    A2, and the third sampled triple on sampled A3."""
    for g, samples, pick in ((a2, None, None), (a3, 20, 2)):
        eng = SigmaEngine(g)
        asked = _recorded_sigma_calls(monkeypatch, eng)
        assert run_suite("vanishing", g, samples=samples, engine=eng).ok
        target = asked[pick] if pick is not None else (g.longest_idx, 0, 0)
        assert target in asked
        original = eng.sigma_idx

        def nonzero(u, v, w, row=None):
            return original(0, 0, 0) if (u, v, w) == target else original(u, v, w, row)

        monkeypatch.setattr(eng, "sigma_idx", nonzero)
        res = run_suite("vanishing", g, samples=samples, engine=eng)
        u, v, w = (g.word_str(x) for x in target)
        assert res == ("vanishing", False, f"sigma nonzero at u={u}, v={v}, w={w}")


@pytest.mark.parametrize("where", ["base", "product-form"])
def test_one_flipped_gk_comparison_at_e_fails_gk_base(a3, monkeypatch, where):
    """One GK comparison at w = e answered the other way fails the gk-base
    suite: at (e, s2, e), in the base-case loop, or at the KL-trivial
    (s1, s1 s2, e) of type A, in the product-form loop."""
    eng = SigmaEngine(a3)
    original = eng._is_gk
    target = (0, 2, 0) if where == "base" else (1, a3.parse_word_idx("12"), 0)

    def flipped(u, v, w, vm, sigma0):
        return original(u, v, w, vm, sigma0) != ((u, v, w) == target)

    monkeypatch.setattr(eng, "_is_gk", flipped)
    res = run_suite("gk-base", a3, engine=eng)
    detail = "base case fails at v=2" if where == "base" else "product form fails at u=1, v=12"
    assert res == ("gk-base", False, detail)


def test_one_wrong_fold_fails_demazure(a2, monkeypatch):
    """An up_right fold of the canonical word of w0 that returns the wrong
    element fails the demazure suite at w0."""
    w0 = a2.longest_idx
    canon = tuple(i + 1 for i in a2.words[w0])
    fold = verify.fold_word_idx

    def wrong(g, letters, x, step):
        out = fold(g, letters, x, step)
        return (out + 1) % g.order if (tuple(letters), step) == (canon, "up_right") else out

    monkeypatch.setattr(verify, "fold_word_idx", wrong)
    res = run_suite("demazure", a2)
    assert res == ("demazure", False, f"braid fold differs at w={w0}")


def test_theta_and_mixed_meet_failures_name_elements_by_word(a2, monkeypatch):
    """A theta of 0 at (x, y, w) = (s1, s2, w0) and a mixed meet of e at
    (u, w) = (w0, s1) fail their suites with details that name the
    elements by canonical word."""
    eng = SigmaEngine(a2)
    word = a2.word_str
    x, y, w0 = a2.simple(1).index, a2.simple(2).index, a2.longest_idx
    theta_idx = eng.theta.theta_idx

    def zero_at(xx, yy, ww):
        return LaurentPoly.zero(0) if (xx, yy, ww) == (x, y, w0) else theta_idx(xx, yy, ww)

    monkeypatch.setattr(eng.theta, "theta_idx", zero_at)
    res = run_suite("theta", a2, engine=eng)
    assert not res.ok
    assert res.detail == f"q=1 value wrong at x={word(x)}, y={word(y)}, w={word(w0)}"
    meet = verify.mixed_meet_idx
    monkeypatch.setattr(
        verify, "mixed_meet_idx",
        lambda g, u, w: 0 if (u, w) == (w0, x) else meet(g, u, w),
    )
    res = run_suite("mixed-meet", a2, engine=eng)
    assert not res.ok
    assert res.detail == f"not the unique max at u={word(w0)}, w={word(x)}"


@pytest.mark.parametrize("extra", ["den", "x"])
def test_column_sigma_at_v_min_with_a_den_or_an_x_is_refused(a2, monkeypatch, extra):
    """A column-backed sigma at v_min times (1 - x^beta)/(1 - x^beta), or
    times x^beta, makes classify_for_w raise and the main-theorem suite
    fail, as an eager one does."""
    eng = SigmaEngine(a2)
    original = eng.sigma_idx
    b = eng._root_keys[0]

    def padded(u, v, w, row=None):
        sig = original(u, v, w, row)
        if v != v_min_idx(a2, u, w):
            return sig
        p = sig._packed
        if extra == "den":
            cols, den = _times_binomial(p.cols, b), p.den | {b}
        else:
            cols, den = {key + b: col for key, col in p.cols.items()}, p.den
        return _deferred_columns(lambda: cols, den, p.low, p.n, 2 * p.l1, p.span)

    monkeypatch.setattr(eng, "sigma_idx", padded)
    with pytest.raises(RuntimeError, match="kept torus dependence"):
        eng.classify_for_w(a2.identity_idx)
    res = run_suite("main-theorem", a2, engine=eng)
    assert res == ("main-theorem", False, "sigma at v_min is torus-dependent at u=e, w=e")


def test_import_leaves_multiprocessing_out_and_two_jobs_still_fork():
    """A fresh ``import bhl, bhl.verify`` does not import multiprocessing;
    classify with jobs=2 still forks its workers wherever two CPUs allow
    two of them."""
    code = (
        "import os, sys\n"
        "import bhl, bhl.verify\n"
        "print('multiprocessing' in sys.modules)\n"
        "forks = []\n"
        "os.register_at_fork(before=lambda: forks.append(1))\n"
        "rep = bhl.classify(bhl.build_group('A2'), jobs=2)\n"
        "print(rep.nonzero_count, rep.gk_count, (os.cpu_count() or 1) > 1, bool(forks))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(bhl.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    imported, counts = proc.stdout.splitlines()
    assert imported == "False"
    nonzero, gk, two_cpus, forked = counts.split()
    assert (nonzero, gk) == ("167", "147") and forked == two_cpus


# loaded by none of these imports: dataclasses brings inspect, ast, dis and
# tokenize with it, and json, decimal and multiprocessing are imported only
# where they are used
_HEAVY_MODULES = {
    "dataclasses", "inspect", "ast", "dis", "tokenize", "json", "decimal", "multiprocessing",
}


@pytest.mark.parametrize("modules", ["bhl, bhl.verify", "bhl.cli"])
def test_import_loads_no_heavy_module(modules):
    """A fresh isolated interpreter's import of the package adds none of
    _HEAVY_MODULES to sys.modules; what its site module loaded before the
    import is not counted."""
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(bhl.__file__).parent.parent)!r})\n"
        "before = set(sys.modules)\n"
        f"import {modules}\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "bhl" in added
    assert not added & _HEAVY_MODULES


# -- the point route of classify ----------------------------------------------


def _exact_path_rows(eng, w) -> tuple:
    """classify_for_w's (nonzero, gk, rows) by the exact path: sigma with
    no row, so with no point value, compared with its GK right-hand side
    built with no point value either."""
    g = eng.group
    rows = []
    w_word = g.word_str(w)
    for u in range(g.order):
        vm = v_min_idx(g, u, w)
        for v in _bits(g.up_masks[vm]):
            sig = eng.sigma_idx(u, v, w)
            assert sig._packed.point is None and not sig.is_zero()
            if v == vm:
                sigma0 = eng._sigma0(u, w, sig)
            rhs = eng._gk_rhs(s_set_idx(g, vm, v), sigma0)
            assert rhs._packed.point is None
            flag = sig == rhs
            sigma0_str = str(_q_poly(sigma0.col, sigma0.low))
            rows.append((g.word_str(u), g.word_str(v), w_word, flag, sigma0_str))
    return len(rows), sum(row[3] for row in rows), rows


def _point_route_mismatches(g, ws) -> list:
    """The w whose classify_for_w differs from the eager exact path; two
    engines, so that neither route reads the other's state."""
    exact, pointed = SigmaEngine(g), SigmaEngine(g)
    return [w for w in ws if pointed.classify_for_w(w) != _exact_path_rows(exact, w)]


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "C2", "G2", "A3"])
def test_point_route_matches_the_exact_path_every_triple(cartan_type):
    g = build_group(cartan_type)
    assert _point_route_mismatches(g, range(g.order)) == []


def test_point_route_matches_the_exact_path_on_seeded_b3_w(b3):
    ws = random.Random(24).sample(range(b3.order), 2)
    assert _point_route_mismatches(b3, ws) == []


def test_classify_builds_exact_sigma_only_where_the_point_agrees(a3, monkeypatch):
    """Exhaustive A3 builds the columns of 6 281 sigma, one per GK triple:
    no triple is equal to its GK right-hand side at the point but not GK."""
    built = 0
    original = sigma._accumulate

    def counting(parts, union):
        nonlocal built
        built += 1
        return original(parts, union)

    monkeypatch.setattr(sigma, "_accumulate", counting)
    report = classify(a3)
    assert (report.nonzero_count, report.gk_count, built) == (9697, 6281, 6281)


def test_one_wrong_bar_r_point_value_changes_a_flag(a2, monkeypatch):
    """A copy whose point reads bar r(e, w0) wrong flags some GK triple
    non-GK: the point route is checked against the exact path."""
    original = sigma._Point.bar
    target = (a2.identity_idx, a2.longest_idx)

    def wrong(self, y, v):
        val = original(self, y, v)
        return (val + 1) % sigma._P if (y, v) == target else val

    monkeypatch.setattr(sigma._Point, "bar", wrong)
    assert _point_route_mismatches(a2, range(a2.order)) != []


@pytest.mark.parametrize("cartan_type", ["G2", "A3"])
def test_sigma_at_v_min_carries_the_value_of_sigma0_at_the_point(cartan_type):
    """For every (u, w), the point value that sigma at v_min carries on the
    classify path, which the GK right-hand side is scaled from, is sigma0
    evaluated at q0 term by term."""
    g = build_group(cartan_type)
    eng = SigmaEngine(g)
    point = sigma._Point(eng)
    everything = (1 << g.order) - 1
    for u in range(g.order):
        for w in range(g.order):
            row = eng._xi_row(u, w, everything, point)
            sigma0 = eng._sigma0(u, w, eng.sigma_idx(u, v_min_idx(g, u, w), w, row))
            terms = _decode_q(sigma0.col, sigma0.low)
            assert sigma0.point == (point, point.q_value(terms)), (u, w)


def test_one_wrong_sigma0_point_value_changes_a_flag(a2, monkeypatch):
    """A copy whose sigma at v_min(e, w0) carries a wrong point value flags
    some GK triple non-GK: the GK right-hand side takes its point value
    from there, and the point route is checked against the exact path."""
    original = SigmaEngine.sigma_idx
    target = (a2.identity_idx, a2.longest_idx)

    def wrong(self, u, v, w, row=None):
        val = original(self, u, v, w, row)
        p = val._packed
        if (u, w) != target or v != v_min_idx(self.group, u, w) or p.point is None:
            return val
        point = (p.point[0], (p.point[1] + 1) % sigma._P)
        return _deferred_columns(lambda: p.cols, p.den, p.low, p.n, p.l1, p.span, point)

    monkeypatch.setattr(SigmaEngine, "sigma_idx", wrong)
    assert _point_route_mismatches(a2, range(a2.order)) != []


@pytest.mark.parametrize("bad", ["q0", "binomial"])
def test_a_bad_first_draw_is_drawn_again(a2, monkeypatch, bad):
    """A first draw with q0 = 0, or with x0 = (1, ..., 1), where every
    1 - x0^beta is 0, is drawn again from the same generator, so the point
    is the second draw of the package seed; the flags stay exact."""
    original = sigma._draw_point
    draws = []

    def first_bad(rng, n):
        vals = original(rng, n)
        draws.append(vals)
        if len(draws) == 1:
            return [0] + vals[1:] if bad == "q0" else vals[:1] + [1] * (n - 1)
        return vals

    rng = random.Random(sigma._POINT_SEED)
    want = [original(rng, a2.rank + 1) for _ in range(2)][1]
    monkeypatch.setattr(sigma, "_draw_point", first_bad)
    eng = SigmaEngine(a2)
    rows = [eng.classify_for_w(w) for w in range(a2.order)]
    assert len(draws) == 2
    assert [eng._point.q0, *eng._point.xs] == want
    exact = SigmaEngine(a2)
    assert rows == [_exact_path_rows(exact, w) for w in range(a2.order)]


def test_sigma_past_the_l1_limit_raises_although_the_point_settles_it(a2, monkeypatch):
    """A non-GK triple whose sigma has an L1 bound past the limit raises on
    the classify path, though its value at the point differs from its GK
    right-hand side's and would settle it without its columns."""
    g = a2
    u, v, w = (g.parse_word_idx(word) for word in A2_EXCEPTIONS[0])
    eng = SigmaEngine(g)
    eng.classify_for_w(w)
    row = eng._xi_row(u, w, (1 << g.order) - 1, eng._point)
    sig = eng.sigma_idx(u, v, w, row)
    vm = v_min_idx(g, u, w)
    sigma0 = eng._sigma0(u, w, eng.sigma_idx(u, vm, w, row))
    rhs = eng._gk_rhs(s_set_idx(g, vm, v), sigma0)
    assert sig._packed.point[1] != rhs._packed.point[1]
    assert not sig == rhs and sig._packed._cols is None
    original = SigmaEngine.sigma_idx
    limit = eng.rtable._l1_limit

    def lowered(self, *args):
        self.rtable._l1_limit = 1 if args[:3] == (u, v, w) else limit
        return original(self, *args)

    monkeypatch.setattr(SigmaEngine, "sigma_idx", lowered)
    with pytest.raises(RuntimeError, match="u=1, v=1, w=12\\) has L1 bound"):
        eng.classify_for_w(w)


def test_eager_sigma_against_a_deferred_rhs_compares_exactly(a2, b2, monkeypatch):
    """classify with every sigma past v_min replaced by an eager copy, as
    the benchmark's perturbed sigma is built, compares it with a deferred
    GK right-hand side that carries a point value (sigma at v_min keeps
    its own, which sigma0 takes), exactly: the rows are unchanged, and a
    copy with one coefficient negated changes them."""
    want = {g: classify(g).rows for g in (a2, b2)}
    original, original_rhs = SigmaEngine.sigma_idx, SigmaEngine._gk_rhs
    flip = []
    pointed = []

    def eager(self, u, v, w, row=None):
        val = original(self, u, v, w, row)
        if v == v_min_idx(self.group, u, w):
            return val
        terms = dict(val.num.terms)
        if (u, v, w) in flip:
            first = min(terms)
            terms[first] = -terms[first]
        return RationalFn(LaurentPoly(self.group.rank, terms), val.den)

    def recording(self, *args):
        rhs = original_rhs(self, *args)
        pointed.append(rhs._packed.point is not None)
        return rhs

    monkeypatch.setattr(SigmaEngine, "sigma_idx", eager)
    monkeypatch.setattr(SigmaEngine, "_gk_rhs", recording)
    for g, rows in want.items():
        assert classify(g).rows == rows, g.cartan_type
    assert pointed and all(pointed)
    flip.append((a2.identity_idx, a2.parse_word_idx("1"), a2.identity_idx))
    got = classify(a2).rows
    assert [row for row in got if row not in want[a2]] == [("e", "1", "e", False, "1")]


def test_verify_never_draws_a_point(b2, monkeypatch):
    """Every verify suite on B2 passes with the point refused: verify's
    sigma and GK tests stay on the eager exact path."""

    def refuse(engine):
        raise AssertionError("verify drew classify's point")

    monkeypatch.setattr(sigma, "_Point", refuse)
    eng = SigmaEngine(b2)
    for name in SUITE_NAMES:
        assert run_suite(name, b2, engine=eng).ok, name
    with pytest.raises(AssertionError, match="drew"):
        eng.classify_for_w(0)
