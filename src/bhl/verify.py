"""
Executable verification suites: each one checks a family of identities over
a whole group, exhaustively where the group is small enough and on seeded
random samples otherwise, and reports a pass/fail with a count of what was
checked.

``run_suite`` runs one of the eight suites named in ``SUITE_NAMES``; it is
the one route to them, for ``bhl verify`` and for library callers alike.
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


# -- main theorem and vanishing ---------------------------------------------


def _main_theorem_for_w(engine: SigmaEngine, w: int) -> tuple | None:
    """The first u, with what fails there, at which sigma(u, v_min, w) is
    torus-dependent or differs from q^-len(v_min) times the length series
    of [u, w v_min]; None when every u passes. Nothing is decoded: the
    ``SigmaEngine._sigma0`` of (u, w) must start at q^(len(u) - len(v_min)),
    where the series does, and its column times q^len(u) must equal, as one
    int, the series' column from q^0, one add of q^len(z) per element z of
    the interval. Every coefficient of either is below 2^(K - 1), so the
    ints are equal exactly when the polynomials are."""
    g = engine.group
    lengths = g.lengths
    powers = [1 << _Q_BITS * d for d in lengths]  # z -> q^len(z) from q^0
    for u in range(g.order):
        vm = v_min_idx(g, u, w)
        sig = engine.sigma_idx(u, vm, w)
        try:
            sigma0 = engine._sigma0(u, w, sig)
        except RuntimeError:
            return u, "sigma at v_min is torus-dependent"
        series = sum(map(powers.__getitem__, _bits(g.interval_mask(u, g.mul_idx(w, vm)))))
        if (sigma0.low, sigma0.col * powers[u]) != (lengths[u] - lengths[vm], series):
            return u, "sigma0 differs from the interval series"
    return None


def _suite_main_theorem(g: CoxeterGroup, samples, seed, engine, jobs) -> SuiteResult:
    """sigma(u, v_min, w) is torus-free and is the translated length series
    of [u, w v_min], on every pair (u, w); a failure names the u of the
    smallest w that fails, whatever jobs is."""
    for w, failed in enumerate(_map_over_w(engine, _main_theorem_for_w, jobs)):
        if failed is not None:
            u, what = failed
            word = g.word_str
            return SuiteResult("main-theorem", False, f"{what} at u={word(u)}, w={word(w)}")
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
    word = g.word_str
    for u, v, w in islice(below, n):
        if not engine.sigma_idx(u, v, w).is_zero():
            return SuiteResult(
                "vanishing", False, f"sigma nonzero at u={word(u)}, v={word(v)}, w={word(w)}"
            )
    return SuiteResult("vanishing", True, detail)


# -- theta ---------------------------------------------------------------


def _suite_theta(g: CoxeterGroup, samples, seed, engine: SigmaEngine, jobs) -> SuiteResult:
    theta = engine.theta
    word = g.word_str

    def fail(what: str, **at) -> SuiteResult:
        where = ", ".join(f"{k}={word(el)}" for k, el in at.items())
        return SuiteResult("theta", False, f"{what} at {where}")

    checked = 0
    # support extrema of T_u T_v: min u*v, max Demazure product
    for u, v in _tuples(g, 2, samples, seed):
        prod = theta.product(u, g.inv_table[v])  # T_u T_v with v = (v^-1)^-1
        supp = list(prod)
        uv = g.mul_idx(u, v)
        mx = circ_idx(g, u, v)
        if uv not in supp or mx not in supp:
            return fail("support extrema missing", u=u, v=v)
        if not all(g.leq_idx(uv, s) and g.leq_idx(s, mx) for s in supp):
            return fail("support extrema wrong", u=u, v=v)
        checked += 1
    for x, y, w in _tuples(g, 3, samples, seed + 1):
        xyi = g.mul_idx(x, g.inv_table[y])
        val = theta.theta_idx(x, y, w)
        if not g.leq_idx(xyi, w):
            if not val.is_zero():
                return fail("nonzero theta", x=x, y=y, w=w)
            continue
        if sum(val.coefficients()) != 1:  # theta at q = 1
            return fail("q=1 value wrong", x=x, y=y, w=w)
        low = (g.lengths[x] + g.lengths[y] + g.lengths[xyi]) // 2
        if val.q_min_degree() < low or val.q_max_degree() > g.lengths[x] + g.lengths[y]:
            return fail("degree window wrong", x=x, y=y, w=w)
        if g.leq_idx(circ_idx(g, x, g.inv_table[y]), w):
            if val != LaurentPoly.q_power(0, g.lengths[x] + g.lengths[y]):
                return fail("full power case wrong", x=x, y=y, w=w)
        checked += 1
    # theta(z, v_min, w) = q^len(z) along the ladder interval
    for u, w in _tuples(g, 2, samples, seed + 2):
        vm = v_min_idx(g, u, w)
        wv = g.mul_idx(w, vm)
        for z in _bits(g.interval_mask(u, wv)):
            if theta.theta_idx(z, vm, w) != LaurentPoly.q_power(0, g.lengths[z]):
                return fail("ladder value wrong", u=u, w=w, z=z)
            checked += 1
    return SuiteResult("theta", True, f"{checked} checks")


# -- mixed meet ------------------------------------------------------------


def _suite_mixed_meet(g: CoxeterGroup, samples, seed, engine, jobs) -> SuiteResult:
    word = g.word_str
    checked = 0
    for u, w in _tuples(g, 2, samples, seed):
        cands = [
            x
            for x in range(g.order)
            if g.weak_leq_right_idx(x, u) and g.leq_idx(x, w)
        ]
        m = mixed_meet_idx(g, u, w)
        if m not in cands or not all(g.leq_idx(x, m) for x in cands):
            return SuiteResult(
                "mixed-meet", False, f"not the unique max at u={word(u)}, w={word(w)}"
            )
        vm = v_min_idx(g, u, w)
        if g.mul_idx(g.inv_table[m], u) != vm:
            return SuiteResult(
                "mixed-meet", False, f"v_min mismatch at u={word(u)}, w={word(w)}"
            )
        checked += 1
    return SuiteResult("mixed-meet", True, f"{checked} pairs")


# -- demazure ---------------------------------------------------------------


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
    name = "demazure"
    w0 = g.longest_idx
    checked = 0

    # folding is independent of the chosen reduced word, for all four actions
    for w in range(g.order):
        canon = tuple(i + 1 for i in g.words[w])
        probes = [rng.randrange(g.order) for _ in range(3)]
        for _ in range(5):
            word = g.random_reduced_word(g.element(w), rng)
            for x in probes:
                for step in ("up_left", "down_left", "up_right", "down_right"):
                    if fold_word_idx(g, word, x, step) != fold_word_idx(
                        g, canon, x, step
                    ):
                        return SuiteResult(name, False, f"braid fold differs at w={w}")
                checked += 1

    # monoid action laws: folding u o v equals folding v then u (left),
    # u then v (right)
    for u, v, x in _tuples(g, 3, samples, seed + 1):
        uv = circ_idx(g, u, v)
        if down_left_idx(g, uv, x) != down_left_idx(g, u, down_left_idx(g, v, x)):
            return SuiteResult(name, False, f"left down action law fails at {u},{v},{x}")
        if up_left_idx(g, uv, x) != up_left_idx(g, u, up_left_idx(g, v, x)):
            return SuiteResult(name, False, f"left up action law fails at {u},{v},{x}")
        if down_right_idx(g, x, uv) != down_right_idx(g, down_right_idx(g, x, u), v):
            return SuiteResult(name, False, f"right down action law fails at {u},{v},{x}")
        if up_right_idx(g, x, uv) != up_right_idx(g, up_right_idx(g, x, u), v):
            return SuiteResult(name, False, f"right up action law fails at {u},{v},{x}")
        checked += 1

    for u, v in _tuples(g, 2, samples, seed + 2):
        # the two Demazure product routes agree
        if circ_idx(g, u, v) != up_right_idx(g, u, v):
            return SuiteResult(name, False, f"product routes differ at {u},{v}")
        # longest-element conjugations and down/product exchange
        lhs = g.mul_idx(up_left_idx(g, u, v), w0)
        if lhs != down_left_idx(g, u, g.mul_idx(v, w0)):
            return SuiteResult(name, False, f"w0 exchange fails at {u},{v}")
        if down_right_idx(g, u, v) != g.mul_idx(
            w0, circ_idx(g, g.mul_idx(w0, u), v)
        ):
            return SuiteResult(name, False, f"down via product (right) fails at {u},{v}")
        if down_left_idx(g, u, v) != g.mul_idx(
            circ_idx(g, u, g.mul_idx(v, w0)), w0
        ):
            return SuiteResult(name, False, f"down via product (left) fails at {u},{v}")
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
                return SuiteResult(name, False, f"subword criterion fails for {word}")
        checked += 1

    # monotonicity of the product and the down actions
    for u, x, w in _tuples(g, 3, samples, seed + 3):
        if g.leq_idx(u, x):
            if not g.leq_idx(down_left_idx(g, w, u), down_left_idx(g, w, x)):
                return SuiteResult(name, False, f"left down monotone fails at {u},{x},{w}")
            if not g.leq_idx(down_right_idx(g, u, w), down_right_idx(g, x, w)):
                return SuiteResult(name, False, f"right down monotone fails at {u},{x},{w}")
            if not g.leq_idx(circ_idx(g, u, w), circ_idx(g, x, w)):
                return SuiteResult(name, False, f"product monotone fails at {u},{x},{w}")
            if not g.leq_idx(circ_idx(g, w, u), circ_idx(g, w, x)):
                return SuiteResult(name, False, f"product monotone fails at {w};{u},{x}")
        if g.leq_idx(x, w):
            if not g.leq_idx(down_left_idx(g, w, u), down_left_idx(g, x, u)):
                return SuiteResult(name, False, f"left down antitone fails at {u},{x},{w}")
            if not g.leq_idx(down_right_idx(g, u, w), down_right_idx(g, u, x)):
                return SuiteResult(name, False, f"right down antitone fails at {u},{x},{w}")
        checked += 1

    # translated-interval extrema against brute force; u[1,v] and [u,w0]v
    # share their minimum, as do [1,u]v and u[v,w0]
    for u, v in _tuples(g, 2, samples, seed + 4):
        left_translate = [g.mul_idx(u, z) for z in _bits(g.down_masks[v])]
        right_translate = [g.mul_idx(z, v) for z in _bits(g.down_masks[u])]
        top = circ_idx(g, u, v)
        if not all(g.leq_idx(z, top) for z in left_translate) or top not in left_translate:
            return SuiteResult(name, False, f"translate max fails at {u},{v}")
        if not all(g.leq_idx(z, top) for z in right_translate) or top not in right_translate:
            return SuiteResult(name, False, f"translate max fails at {u},{v}")
        m_right = down_right_idx(g, u, v)  # u down-arrow U_v
        m_left = down_left_idx(g, u, v)  # U_u down-arrow v
        if not all(g.leq_idx(m_right, z) for z in left_translate) or m_right not in left_translate:
            return SuiteResult(name, False, f"translate min fails at {u},{v}")
        if not all(g.leq_idx(m_left, z) for z in right_translate) or m_left not in right_translate:
            return SuiteResult(name, False, f"translate min fails at {u},{v}")
        upper_right = [g.mul_idx(z, v) for z in _bits(g.interval_mask(u, w0))]
        if not all(g.leq_idx(m_right, z) for z in upper_right) or m_right not in upper_right:
            return SuiteResult(name, False, f"upper translate min fails at {u},{v}")
        upper_left = [g.mul_idx(u, z) for z in _bits(g.interval_mask(v, w0))]
        if not all(g.leq_idx(m_left, z) for z in upper_left) or m_left not in upper_left:
            return SuiteResult(name, False, f"upper translate min fails at {u},{v}")
        checked += 1

    # weak-order consequences of the down actions
    for u, w in _tuples(g, 2, samples, seed + 5):
        if not g.weak_leq_right_idx(down_right_idx(g, u, w), u):
            return SuiteResult(name, False, f"down stays weakly below at {u},{w}")
        m = g.mul_idx(u, down_right_idx(g, g.inv_table[u], w))
        if not g.leq_idx(m, w):
            return SuiteResult(name, False, f"meet candidate above w at {u},{w}")
        for up in _bits(g.down_masks[u]):
            if g.weak_leq_right_idx(up, u):
                if not g.weak_leq_right_idx(down_right_idx(g, up, w), u):
                    return SuiteResult(name, False, f"relative down fails at {up},{u},{w}")
        if g.weak_leq_right_idx(w, g.inv_table[u]):
            if not g.weak_leq_right_idx(g.mul_idx(u, w), u):
                return SuiteResult(name, False, f"translate weak fails at {u},{w}")
        checked += 1

    # lifting through a common weak prefix, and conditional order reversal
    for a, b, c in _tuples(g, 3, samples, seed + 6):
        wz, wv = g.mul_idx(a, b), g.mul_idx(a, c)
        if (
            g.weak_leq_right_idx(a, wz)
            and g.weak_leq_right_idx(a, wv)
            and g.leq_idx(wz, wv)
        ):
            if not g.leq_idx(b, c):
                return SuiteResult(name, False, f"prefix lifting fails at {a},{b},{c}")
        ui = g.inv_table[a]
        if (
            g.weak_leq_right_idx(b, ui)
            and g.weak_leq_right_idx(c, ui)
            and g.leq_idx(b, c)
        ):
            if not g.leq_idx(g.mul_idx(a, c), g.mul_idx(a, b)):
                return SuiteResult(name, False, f"reversal fails at {a},{b},{c}")
        checked += 1

    # the ladder around v_min: lengths add, the bracket interval matches,
    # the two chains are strict, and only v itself divides back into [1, w]
    for u, w in _tuples(g, 2, samples, seed + 7):
        vm = v_min_idx(g, u, w)
        wv = g.mul_idx(w, vm)
        if g.lengths[wv] != g.lengths[w] + g.lengths[vm]:
            return SuiteResult(name, False, f"ladder lengths fail at {u},{w}")
        vmi = g.inv_table[vm]
        bracket = {
            z
            for z in _bits(g.up_masks[u])
            if g.leq_idx(g.mul_idx(z, vmi), w)
        }
        interval = set(_bits(g.interval_mask(u, wv)))
        if bracket != interval:
            return SuiteResult(name, False, f"bracket interval fails at {u},{w}")
        letters = tuple(i + 1 for i in g.words[vm])
        x = w
        for i in letters:
            nxt = g.rmult[x][i - 1]
            if g.lengths[nxt] <= g.lengths[x]:
                return SuiteResult(name, False, f"ascending chain fails at {u},{w}")
            x = nxt
        for z in interval:
            zz = z
            for i in reversed(letters):
                nxt = g.rmult[zz][i - 1]
                if g.lengths[nxt] >= g.lengths[zz]:
                    return SuiteResult(name, False, f"descending chain fails at {u},{w}")
                zz = nxt
            for vp in _bits(g.down_masks[vm]):
                if g.leq_idx(g.mul_idx(z, g.inv_table[vp]), w) and vp != vm:
                    return SuiteResult(name, False, f"divisor uniqueness fails at {u},{w}")
        checked += 1

    return SuiteResult(name, True, f"{checked} checks")


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
    word = g.word_str
    checked = 0
    for v in range(g.order):
        for u in _bits(g.down_masks[v]):
            den, cols, l1 = rtable.bar_r_packed_idx(u, v)
            if escapes(den, cols, l1, rtable.max_digit, s_set_idx(g, u, v)):
                return SuiteResult(
                    "poles", False, f"r denominator escapes at u={word(u)}, v={word(v)}"
                )
            checked += 1
    for u, v, w in _tuples(g, 3, samples, seed):
        vm = v_min_idx(g, u, w)
        if not g.leq_idx(vm, v):
            continue
        sig = _packed_of(engine.sigma_idx(u, v, w))
        if escapes(sig.den, sig.cols, sig.l1, sig.span, s_set_idx(g, vm, v)):
            return SuiteResult(
                "poles",
                False,
                f"sigma denominator escapes at u={word(u)}, v={word(v)}, w={word(w)}",
            )
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
            return SuiteResult("gk-base", False, f"base case fails at v={g.word_str(v)}")
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
                    return SuiteResult(
                        "gk-base",
                        False,
                        f"product form fails at u={g.word_str(u)}, v={g.word_str(v)}",
                    )
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
    engine = _engine_for(group, engine)
    suite = _SUITES.get(name)
    if suite is None:
        raise ValueError(f"unknown suite {name!r}")
    return suite(group, samples, seed, engine, jobs)
