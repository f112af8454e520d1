"""
Executable verification suites: each one checks a family of identities over
a whole group, exhaustively where the group is small enough and on seeded
random samples otherwise, and reports a pass/fail with a count of what was
checked.

``run_suite`` runs one of the eight suites named in ``SUITE_NAMES``; it is
the one route to them, for ``bhl verify`` and for library callers alike.
A suite that fails at elements names the first failing ones by canonical
word (``_fail``); kl-conjecture counts its violations.
"""

from __future__ import annotations

import random
from itertools import combinations, islice, product
from typing import NamedTuple

from .coxeter import CoxeterGroup, _bits
from .demazure import (
    circ_idx,
    down_left_idx,
    down_right_idx,
    fold_word_idx,
    mixed_meet_idx,
    up_left_idx,
    up_right_idx,
    v_min_idx,
)
from .kl import check_theta_power_conjecture
from .polyring import (
    _Q_BITS,
    _Q_BOUND,
    LaurentPoly,
    _divides_packed,
    _packed_factor,
    _packed_of,
)
from .rpoly import s_set_idx
from .sigma import DEFAULT_SEED, SigmaEngine, _engine_for, _map_over_w

__all__ = [
    "SUITE_NAMES",
    "SuiteResult",
    "run_suite",
]

DEFAULT_SAMPLES = 2000

# exhaustive cutoffs by tuple size: quadratic checks scan all pairs up to
# order 120, cubic checks all triples up to order 24
_EXHAUSTIVE_ORDER = {2: 120, 3: 24}

# the vanishing suite scans every triple of a group up to this order
_VANISHING_EXHAUSTIVE_ORDER = 10


class SuiteResult(NamedTuple):
    name: str
    ok: bool
    detail: str


def _tuples(g: CoxeterGroup, k: int, samples: int | None, seed: int):
    """All k-tuples of elements when the group is small, else seeded random
    ones, each drawn coordinate by coordinate."""
    if samples is None and g.order <= _EXHAUSTIVE_ORDER[k]:
        return product(range(g.order), repeat=k)
    n = samples if samples is not None else DEFAULT_SAMPLES
    rng = random.Random(seed)
    return (tuple(rng.randrange(g.order) for _ in range(k)) for _ in range(n))


def _fail(g: CoxeterGroup, name: str, what: str, **at) -> SuiteResult:
    """The failing result of suite name: what, at the elements at, each
    named by its canonical word."""
    where = ", ".join(f"{k}={g.word_str(el)}" for k, el in at.items())
    return SuiteResult(name, False, f"{what} at {where}")


def _is_max(g: CoxeterGroup, m: int, xs) -> bool:
    """m is one of xs and Bruhat-above all of them."""
    return m in xs and all(g.leq_idx(x, m) for x in xs)


def _is_min(g: CoxeterGroup, m: int, xs) -> bool:
    """m is one of xs and Bruhat-below all of them."""
    return m in xs and all(g.leq_idx(m, x) for x in xs)


# -- main theorem and vanishing ---------------------------------------------


def _main_theorem_for_w(engine: SigmaEngine, w: int) -> tuple | None:
    """The first u, with what fails there, at which sigma(u, v_min, w) is
    not its v_min part, or sigma0(u, w), read off the xi row of the
    y <= v_min (``SigmaEngine._sigma0_at``), differs from q^-len(v_min)
    times the length series of [u, w v_min]; None when every u passes. No
    sigma is built and nothing is decoded: sigma0's column from the r
    table's low must equal, as one int, the series' column from q^0, one
    add of q^len(z) per element z of the interval, moved up
    -low - len(v_min) slots. Every coefficient of either is below
    2^(K - 1), so the ints are equal exactly when the polynomials are."""
    g = engine.group
    powers = [1 << _Q_BITS * d for d in g.lengths]  # z -> q^len(z) from q^0
    for u in range(g.order):
        try:
            vm, sigma0 = engine._sigma0_at(u, w)
        except RuntimeError:
            return u, "sigma at v_min is not its v_min part"
        series = sum(map(powers.__getitem__, _bits(g.interval_mask(u, g.mul_idx(w, vm)))))
        if sigma0.col != series << _Q_BITS * (-sigma0.low - g.lengths[vm]):
            return u, "sigma0 differs from the interval series"
    return None


def _suite_main_theorem(g: CoxeterGroup, samples, seed, engine, jobs) -> SuiteResult:
    """sigma(u, v_min, w) is its v_min part and is the translated length
    series of [u, w v_min], on every pair (u, w); a failure names the u of
    the smallest w that fails, whatever jobs is."""
    for w, failed in enumerate(_map_over_w(engine, _main_theorem_for_w, jobs)):
        if failed is not None:
            u, what = failed
            return _fail(g, "main-theorem", what, u=u, w=w)
    return SuiteResult("main-theorem", True, f"{g.order * g.order} pairs")


def _suite_vanishing(g: CoxeterGroup, samples, seed, engine, jobs) -> SuiteResult:
    """sigma(u, v, w) == 0 for v not >= v_min(u, w): on every such triple,
    u, then w, then v, of a group of order at most
    ``_VANISHING_EXHAUSTIVE_ORDER``, else on the first samples of them in
    a stream drawn u, v, w from ``random.Random(seed)``, where a draw with
    v >= v_min is passed over. A failure names the first failing triple."""
    order = g.order
    if order <= _VANISHING_EXHAUSTIVE_ORDER:
        n, detail = None, "exhaustive"
        triples = ((u, v, w) for u, w, v in product(range(order), repeat=3))
    else:
        n = samples if samples is not None else DEFAULT_SAMPLES
        detail = f"{n} samples"
        draw = random.Random(seed).randrange
        triples = iter(lambda: (draw(order), draw(order), draw(order)), None)
    below = ((u, v, w) for u, v, w in triples if not g.leq_idx(v_min_idx(g, u, w), v))
    for u, v, w in islice(below, n):
        if not engine.sigma_idx(u, v, w).is_zero():
            return _fail(g, "vanishing", "sigma nonzero", u=u, v=v, w=w)
    return SuiteResult("vanishing", True, detail)


# -- theta ---------------------------------------------------------------


def _suite_theta(g: CoxeterGroup, samples, seed, engine: SigmaEngine, jobs) -> SuiteResult:
    theta = engine.theta
    checked = 0
    # support extrema of T_u T_v: min u*v, max Demazure product
    for u, v in _tuples(g, 2, samples, seed):
        supp = list(theta.product(u, g.inv_table[v]))  # T_u T_v, v = (v^-1)^-1
        if not (_is_min(g, g.mul_idx(u, v), supp) and _is_max(g, circ_idx(g, u, v), supp)):
            return _fail(g, "theta", "support extrema wrong", u=u, v=v)
        checked += 1
    for x, y, w in _tuples(g, 3, samples, seed + 1):
        xyi = g.mul_idx(x, g.inv_table[y])
        val = theta.theta_idx(x, y, w)
        if not g.leq_idx(xyi, w):
            if not val.is_zero():
                return _fail(g, "theta", "nonzero theta", x=x, y=y, w=w)
            continue
        if sum(val.coefficients()) != 1:  # theta at q = 1
            return _fail(g, "theta", "q=1 value wrong", x=x, y=y, w=w)
        low = (g.lengths[x] + g.lengths[y] + g.lengths[xyi]) // 2
        if val.q_min_degree() < low or val.q_max_degree() > g.lengths[x] + g.lengths[y]:
            return _fail(g, "theta", "degree window wrong", x=x, y=y, w=w)
        if g.leq_idx(circ_idx(g, x, g.inv_table[y]), w):
            if val != LaurentPoly.q_power(0, g.lengths[x] + g.lengths[y]):
                return _fail(g, "theta", "full power case wrong", x=x, y=y, w=w)
        checked += 1
    # theta(z, v_min, w) = q^len(z) along the ladder interval
    for u, w in _tuples(g, 2, samples, seed + 2):
        vm = v_min_idx(g, u, w)
        wv = g.mul_idx(w, vm)
        for z in _bits(g.interval_mask(u, wv)):
            if theta.theta_idx(z, vm, w) != LaurentPoly.q_power(0, g.lengths[z]):
                return _fail(g, "theta", "ladder value wrong", u=u, w=w, z=z)
            checked += 1
    return SuiteResult("theta", True, f"{checked} checks")


# -- mixed meet ------------------------------------------------------------


def _suite_mixed_meet(g: CoxeterGroup, samples, seed, engine, jobs) -> SuiteResult:
    checked = 0
    for u, w in _tuples(g, 2, samples, seed):
        cands = [
            x
            for x in range(g.order)
            if g.weak_leq_right_idx(x, u) and g.leq_idx(x, w)
        ]
        m = mixed_meet_idx(g, u, w)
        if not _is_max(g, m, cands):
            return _fail(g, "mixed-meet", "not the unique max", u=u, w=w)
        if g.mul_idx(g.inv_table[m], u) != v_min_idx(g, u, w):
            return _fail(g, "mixed-meet", "v_min mismatch", u=u, w=w)
        checked += 1
    return SuiteResult("mixed-meet", True, f"{checked} pairs")


# -- demazure ---------------------------------------------------------------

# Each law of the demazure suite takes the group and one sampled tuple and
# returns what fails there, or None when the law holds.


def _action_laws(g: CoxeterGroup, u: int, v: int, x: int) -> str | None:
    """Monoid action laws: folding u o v equals folding v then u (left),
    u then v (right)."""
    uv = circ_idx(g, u, v)
    if down_left_idx(g, uv, x) != down_left_idx(g, u, down_left_idx(g, v, x)):
        return "left down action law fails"
    if up_left_idx(g, uv, x) != up_left_idx(g, u, up_left_idx(g, v, x)):
        return "left up action law fails"
    if down_right_idx(g, x, uv) != down_right_idx(g, down_right_idx(g, x, u), v):
        return "right down action law fails"
    if up_right_idx(g, x, uv) != up_right_idx(g, up_right_idx(g, x, u), v):
        return "right up action law fails"
    return None


def _product_routes(g: CoxeterGroup, u: int, v: int) -> str | None:
    """The two Demazure product routes agree; longest-element conjugations
    and the down/product exchange."""
    w0 = g.longest_idx
    if circ_idx(g, u, v) != up_right_idx(g, u, v):
        return "product routes differ"
    if g.mul_idx(up_left_idx(g, u, v), w0) != down_left_idx(g, u, g.mul_idx(v, w0)):
        return "w0 exchange fails"
    if down_right_idx(g, u, v) != g.mul_idx(w0, circ_idx(g, g.mul_idx(w0, u), v)):
        return "down via product (right) fails"
    if down_left_idx(g, u, v) != g.mul_idx(circ_idx(g, u, g.mul_idx(v, w0)), w0):
        return "down via product (left) fails"
    return None


def _monotonicity(g: CoxeterGroup, u: int, x: int, w: int) -> str | None:
    """The product and the down actions are monotone, the down actions
    antitone in the acting element."""
    leq = g.leq_idx
    if leq(u, x):
        if not leq(down_left_idx(g, w, u), down_left_idx(g, w, x)):
            return "left down monotone fails"
        if not leq(down_right_idx(g, u, w), down_right_idx(g, x, w)):
            return "right down monotone fails"
        if not leq(circ_idx(g, u, w), circ_idx(g, x, w)):
            return "product monotone in the left factor fails"
        if not leq(circ_idx(g, w, u), circ_idx(g, w, x)):
            return "product monotone in the right factor fails"
    if leq(x, w):
        if not leq(down_left_idx(g, w, u), down_left_idx(g, x, u)):
            return "left down antitone fails"
        if not leq(down_right_idx(g, u, w), down_right_idx(g, u, x)):
            return "right down antitone fails"
    return None


def _translates(g: CoxeterGroup, u: int, v: int) -> str | None:
    """Translated-interval extrema against brute force; u[1,v] and [u,w0]v
    share their minimum, as do [1,u]v and u[v,w0]."""
    left_translate = [g.mul_idx(u, z) for z in _bits(g.down_masks[v])]
    right_translate = [g.mul_idx(z, v) for z in _bits(g.down_masks[u])]
    top = circ_idx(g, u, v)
    if not (_is_max(g, top, left_translate) and _is_max(g, top, right_translate)):
        return "translate max fails"
    m_right = down_right_idx(g, u, v)  # u down-arrow U_v
    m_left = down_left_idx(g, u, v)  # U_u down-arrow v
    if not (_is_min(g, m_right, left_translate) and _is_min(g, m_left, right_translate)):
        return "translate min fails"
    w0 = g.longest_idx
    upper_right = [g.mul_idx(z, v) for z in _bits(g.interval_mask(u, w0))]
    upper_left = [g.mul_idx(u, z) for z in _bits(g.interval_mask(v, w0))]
    if not (_is_min(g, m_right, upper_right) and _is_min(g, m_left, upper_left)):
        return "upper translate min fails"
    return None


def _weak_order(g: CoxeterGroup, u: int, w: int) -> str | None:
    """Weak-order consequences of the down actions."""
    weak = g.weak_leq_right_idx
    if not weak(down_right_idx(g, u, w), u):
        return "down leaves the weak interval"
    if not g.leq_idx(g.mul_idx(u, down_right_idx(g, g.inv_table[u], w)), w):
        return "meet candidate above w"
    for up in _bits(g.down_masks[u]):
        if weak(up, u) and not weak(down_right_idx(g, up, w), u):
            return "relative down fails"
    if weak(w, g.inv_table[u]) and not weak(g.mul_idx(u, w), u):
        return "translate weak fails"
    return None


def _prefix_lifting(g: CoxeterGroup, a: int, b: int, c: int) -> str | None:
    """Lifting through a common weak prefix, and conditional order
    reversal."""
    weak, leq = g.weak_leq_right_idx, g.leq_idx
    ab, ac = g.mul_idx(a, b), g.mul_idx(a, c)
    if weak(a, ab) and weak(a, ac) and leq(ab, ac) and not leq(b, c):
        return "prefix lifting fails"
    ai = g.inv_table[a]
    if weak(b, ai) and weak(c, ai) and leq(b, c) and not leq(ac, ab):
        return "reversal fails"
    return None


def _ladder(g: CoxeterGroup, u: int, w: int) -> str | None:
    """The ladder around v_min: lengths add, the bracket interval matches,
    the chain down from each z of it is strict, and only v itself divides
    back into [1, w]."""
    lengths, rmult = g.lengths, g.rmult
    vm = v_min_idx(g, u, w)
    wv = g.mul_idx(w, vm)
    if lengths[wv] != lengths[w] + lengths[vm]:
        return "ladder lengths fail"
    # so each letter of v_min raises the length by exactly 1 from w to w v_min
    vmi = g.inv_table[vm]
    bracket = {z for z in _bits(g.up_masks[u]) if g.leq_idx(g.mul_idx(z, vmi), w)}
    interval = set(_bits(g.interval_mask(u, wv)))
    if bracket != interval:
        return "bracket interval fails"
    letters = g.words[vm]
    for z in interval:
        zz = z
        for i in reversed(letters):
            if lengths[rmult[zz][i]] >= lengths[zz]:
                return "descending chain fails"
            zz = rmult[zz][i]
        for vp in _bits(g.down_masks[vm]):
            if vp != vm and g.leq_idx(g.mul_idx(z, g.inv_table[vp]), w):
                return "divisor uniqueness fails"
    return None


# (names of the sampled elements, seed offset, law), in the order they run
_DEMAZURE_LAWS = (
    (("u", "v", "x"), 1, _action_laws),
    (("u", "v"), 2, _product_routes),
    (("u", "x", "w"), 3, _monotonicity),
    (("u", "v"), 4, _translates),
    (("u", "w"), 5, _weak_order),
    (("a", "b", "c"), 6, _prefix_lifting),
    (("u", "w"), 7, _ladder),
)


def _reduced_subword_closure(g: CoxeterGroup, letters: tuple) -> set:
    """All elements having a reduced word among the subsequences of letters."""
    out = set()
    for k in range(len(letters) + 1):
        for sub in combinations(letters, k):
            x = 0
            for i in sub:
                x = g.rmult[x][i - 1]
            if g.lengths[x] == k:
                out.add(x)
    return out


def _suite_demazure(g: CoxeterGroup, samples, seed, engine, jobs) -> SuiteResult:
    rng = random.Random(seed)
    checked = 0
    # folding is independent of the chosen reduced word, for all four actions
    for w in range(g.order):
        canon = tuple(i + 1 for i in g.words[w])
        probes = [rng.randrange(g.order) for _ in range(3)]
        for _ in range(5):
            word = g.random_reduced_word(g.element(w), rng)
            for x in probes:
                for step in ("up_left", "down_left", "up_right", "down_right"):
                    if fold_word_idx(g, word, x, step) != fold_word_idx(g, canon, x, step):
                        return _fail(g, "demazure", "braid fold differs", w=w)
                checked += 1
    # reduced-subword membership matches the product criterion
    for _ in range(30):
        word = tuple(rng.randrange(1, g.rank + 1) for _ in range(rng.randrange(0, 9)))
        contained = _reduced_subword_closure(g, word)
        top = 0
        for i in reversed(word):
            top = up_left_idx(g, g.rmult[0][i - 1], top)
        for w in range(g.order):
            if (w in contained) != g.leq_idx(w, top):
                return _fail(g, "demazure", "subword criterion fails", w=w, top=top)
        checked += 1
    for names, offset, law in _DEMAZURE_LAWS:
        for t in _tuples(g, len(names), samples, seed + offset):
            what = law(g, *t)
            if what is not None:
                return _fail(g, "demazure", what, **dict(zip(names, t)))
            checked += 1
    return SuiteResult("demazure", True, f"{checked} checks")


# -- poles -------------------------------------------------------------------


def _pole_test(g: CoxeterGroup, root_keys: list):
    """escapes(den, cols, l1, span, allowed): whether the value with packed
    den keys den and x-keys -> q-columns cols (L1 norm at most l1, every
    |x-digit| at most span) keeps, after a full reduction, a den factor
    that is not the factor of a positive root in the index set allowed.

    A factor of a root in allowed needs no test; every other factor of a
    root must divide the numerator N exactly, which one coset-sum pass over
    the columns decides (``polyring._divides_packed``), exact while
    l1 < 2^(K - 1) and once ``_packed_factor`` has checked that no coset
    representative carries. No quotient is built. This is what a full
    reduction decides: the den has distinct factors (the r fill and the
    union of sigma raise on a repeated one), and the 1 - x^beta of distinct
    positive roots beta are pairwise coprime irreducibles of the UFD
    Z[q^+-1, x^+-1], since a root is a primitive vector. So a reduction
    cancels a factor f exactly when f divides N, whatever it cancelled
    before. A factor that is not a positive root (root_keys gives each
    root's packed key) is an escape."""
    n = g.rank
    root_of = {key: a for a, key in enumerate(root_keys)}

    def escapes(den, cols: dict, l1: int, span: int, allowed: frozenset) -> bool:
        if l1 >= _Q_BOUND:
            raise ValueError(f"L1 bound {l1} is past the q-column slots")
        spans = (span,) * (n + 1)
        for b in den:
            a = root_of.get(b)
            if a is None:
                return True
            if a not in allowed and not _divides_packed(
                cols, _packed_factor(g.positive_roots[a], n, spans)
            ):
                return True
        return False

    return escapes


def _suite_poles(g: CoxeterGroup, samples, seed, engine: SigmaEngine, jobs) -> SuiteResult:
    """The reduced den of every bar r(u, v) lies in S(u, v), and that of
    every sampled nonzero sigma(u, v, w) in S(v_min(u, w), v), each factor
    once, decided on the stored columns by ``_pole_test``. bar touches
    only q, so the den of bar r(u, v) is that of r(u, v). A sigma that is
    not column-backed is packed once (``polyring._packed_of``)."""
    rtable = engine.rtable
    escapes = _pole_test(g, engine._root_keys)
    checked = 0
    for v in range(g.order):
        for u in _bits(g.down_masks[v]):
            den, cols, l1 = rtable.bar_r_packed_idx(u, v)
            if escapes(den, cols, l1, rtable.max_digit, s_set_idx(g, u, v)):
                return _fail(g, "poles", "r denominator escapes", u=u, v=v)
            checked += 1
    for u, v, w in _tuples(g, 3, samples, seed):
        vm = v_min_idx(g, u, w)
        if not g.leq_idx(vm, v):
            continue
        sig = _packed_of(engine.sigma_idx(u, v, w))
        if escapes(sig.den, sig.cols, sig.l1, sig.span, s_set_idx(g, vm, v)):
            return _fail(g, "poles", "sigma denominator escapes", u=u, v=v, w=w)
        checked += 1
    return SuiteResult("poles", True, f"{checked} checks")


# -- gk base -----------------------------------------------------------------


def _suite_gk_base(g: CoxeterGroup, samples, seed, engine: SigmaEngine, jobs) -> SuiteResult:
    # at w = e, v_min(u, e) = u: sigma0 is 1 and S(u, v, e) = S(u, v), so
    # the GK test is the product formula itself; sigma0 is built once per u
    checked = 0
    e = g.identity_idx
    base = engine._sigma0_at(e, e)
    for v in range(g.order):
        if not engine._is_gk(e, v, e, *base):
            return _fail(g, "gk-base", "base case fails", v=v)
        checked += 1
    if g.cartan_type.family in ("A", "D"):
        kl = engine.kl
        per_u = {}  # u -> (v_min(u, e), sigma0)
        for v in range(g.order):
            for u in _bits(g.down_masks[v]):
                if not kl._q_is_one(u, v):
                    continue
                if u not in per_u:
                    per_u[u] = engine._sigma0_at(u, e)
                if not engine._is_gk(u, v, e, *per_u[u]):
                    return _fail(g, "gk-base", "product form fails", u=u, v=v)
                checked += 1
    return SuiteResult("gk-base", True, f"{checked} checks")


# -- kl conjecture ---------------------------------------------------------


def _suite_kl_conjecture(g: CoxeterGroup, samples, seed, engine, jobs) -> SuiteResult:
    violations = check_theta_power_conjecture(g, theta_table=engine.theta, kl=engine.kl)
    detail = f"{len(violations)} violations" if violations else "no violations"
    return SuiteResult("kl-conjecture", not violations, detail)


# -- dispatch -----------------------------------------------------------------

# name -> suite(g, samples, seed, engine, jobs), in the order of "all"
_SUITES = {
    "main-theorem": _suite_main_theorem,
    "vanishing": _suite_vanishing,
    "theta": _suite_theta,
    "mixed-meet": _suite_mixed_meet,
    "demazure": _suite_demazure,
    "poles": _suite_poles,
    "kl-conjecture": _suite_kl_conjecture,
    "gk-base": _suite_gk_base,
}
SUITE_NAMES = list(_SUITES)


def run_suite(
    name: str,
    group: CoxeterGroup,
    samples: int | None = None,
    seed: int = DEFAULT_SEED,
    engine: SigmaEngine | None = None,
    jobs: int = 1,
) -> SuiteResult:
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    engine = _engine_for(group, engine)
    suite = _SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}")
    return suite(group, samples, seed, engine, jobs)
