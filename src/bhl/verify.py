"""
Executable verification suites: each one checks a family of identities over
a whole group, exhaustively where the group is small enough and on seeded
random samples otherwise, and reports a pass/fail with a count of what was
checked.

The suites exposed through the command line are the eight names in
``SUITE_NAMES``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, product

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
from .kl import KLTable, check_theta_power_conjecture
from .polyring import LaurentPoly
from .rpoly import s_set_idx
from .sigma import (
    _VANISHING_EXHAUSTIVE_ORDER,
    SigmaEngine,
    _engine_for,
    verify_main_theorem,
    verify_vanishing,
)

__all__ = [
    "SUITE_NAMES",
    "SuiteResult",
    "run_suite",
]

SUITE_NAMES = [
    "main-theorem",
    "vanishing",
    "theta",
    "mixed-meet",
    "demazure",
    "poles",
    "kl-conjecture",
    "gk-base",
]

DEFAULT_SEED = 20240811
DEFAULT_SAMPLES = 2000

# exhaustive cutoffs by tuple size: quadratic checks scan all pairs up to
# order 120, cubic checks all triples up to order 24
_EXHAUSTIVE_ORDER = {2: 120, 3: 24}


@dataclass
class SuiteResult:
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


# -- theta ---------------------------------------------------------------


def _suite_theta(
    g: CoxeterGroup, samples, seed, engine: SigmaEngine
) -> SuiteResult:
    theta = engine.theta
    checked = 0
    # support extrema of T_u T_v: min u*v, max Demazure product
    for u, v in _tuples(g, 2, samples, seed):
        prod = theta.product(u, g.inv_table[v])  # T_u T_v with v = (v^-1)^-1
        supp = list(prod)
        uv = g.mul_idx(u, v)
        mx = circ_idx(g, u, v)
        if uv not in supp or mx not in supp:
            return SuiteResult("theta", False, f"support extrema missing at {u},{v}")
        if not all(g.leq_idx(uv, s) and g.leq_idx(s, mx) for s in supp):
            return SuiteResult("theta", False, f"support extrema wrong at {u},{v}")
        checked += 1
    for x, y, w in _tuples(g, 3, samples, seed + 1):
        xyi = g.mul_idx(x, g.inv_table[y])
        val = theta.theta_idx(x, y, w)
        if not g.leq_idx(xyi, w):
            if not val.is_zero():
                return SuiteResult("theta", False, f"nonzero theta at {x},{y},{w}")
            continue
        if val.is_zero() or val.evaluate(1) != 1:
            return SuiteResult("theta", False, f"q=1 value wrong at {x},{y},{w}")
        low = (g.lengths[x] + g.lengths[y] + g.lengths[xyi]) // 2
        if val.q_min_degree() < low or val.q_max_degree() > g.lengths[x] + g.lengths[y]:
            return SuiteResult("theta", False, f"degree window wrong at {x},{y},{w}")
        if g.leq_idx(circ_idx(g, x, g.inv_table[y]), w):
            if val != LaurentPoly.q_power(0, g.lengths[x] + g.lengths[y]):
                return SuiteResult("theta", False, f"full power case wrong at {x},{y},{w}")
        checked += 1
    # theta(z, v_min, w) = q^len(z) along the ladder interval
    for u, w in _tuples(g, 2, samples, seed + 2):
        vm = v_min_idx(g, u, w)
        wv = g.mul_idx(w, vm)
        for z in _bits(g.interval_mask(u, wv)):
            if theta.theta_idx(z, vm, w) != LaurentPoly.q_power(0, g.lengths[z]):
                return SuiteResult("theta", False, f"ladder value wrong at {u},{w},{z}")
            checked += 1
    return SuiteResult("theta", True, f"{checked} checks")


# -- mixed meet ------------------------------------------------------------


def _suite_mixed_meet(g: CoxeterGroup, samples, seed, engine) -> SuiteResult:
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
                "mixed-meet", False, f"not the unique max at u={u}, w={w}"
            )
        vm = v_min_idx(g, u, w)
        if g.mul_idx(g.inv_table[m], u) != vm:
            return SuiteResult("mixed-meet", False, f"v_min mismatch at u={u}, w={w}")
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


def _suite_demazure(g: CoxeterGroup, samples, seed, engine) -> SuiteResult:
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


def _suite_poles(g: CoxeterGroup, samples, seed, engine: SigmaEngine) -> SuiteResult:
    rtable = engine.rtable
    # a factor that is not a positive root maps to None, which no root set
    # holds, so it is reported as an escape
    root_coords = {tuple(b): a for a, b in enumerate(g.positive_roots)}
    checked = 0
    for v in range(g.order):
        for u in _bits(g.down_masks[v]):
            den = Counter(rtable.r_idx(u, v).reduced().den)
            allowed = s_set_idx(g, u, v)
            for b, mult in den.items():
                if mult > 1 or root_coords.get(b) not in allowed:
                    return SuiteResult("poles", False, f"r denominator escapes at {u},{v}")
            checked += 1
    for u, v, w in _tuples(g, 3, samples, seed):
        vm = v_min_idx(g, u, w)
        if not g.leq_idx(vm, v):
            continue
        sig = engine.sigma_idx(u, v, w)
        den = Counter(sig.reduced().den)
        allowed = s_set_idx(g, vm, v)
        for b, mult in den.items():
            if mult > 1 or root_coords.get(b) not in allowed:
                return SuiteResult("poles", False, f"sigma denominator escapes at {u},{v},{w}")
        checked += 1
    return SuiteResult("poles", True, f"{checked} checks")


# -- gk base -----------------------------------------------------------------


def _suite_gk_base(g: CoxeterGroup, samples, seed, engine: SigmaEngine) -> SuiteResult:
    # at w = e, v_min(u, e) = u: sigma0 is 1 and S(u, v, e) = S(u, v), so
    # the GK test is the product formula itself
    checked = 0
    for v in range(g.order):
        if not engine.is_gk_idx(0, v, 0):
            return SuiteResult("gk-base", False, f"base case fails at v={g.word_str(v)}")
        checked += 1
    if g.cartan_type.family in ("A", "D"):
        kl = KLTable(g, rtable=engine.rtable)
        one = LaurentPoly.one(0)
        for v in range(g.order):
            for u in _bits(g.down_masks[v]):
                if kl.q_idx(u, v) != one:
                    continue
                if not engine.is_gk_idx(u, v, 0):
                    return SuiteResult(
                        "gk-base",
                        False,
                        f"product form fails at u={g.word_str(u)}, v={g.word_str(v)}",
                    )
                checked += 1
    return SuiteResult("gk-base", True, f"{checked} checks")


# -- dispatch -----------------------------------------------------------------


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
    g = group
    if name == "main-theorem":
        ok = verify_main_theorem(g, engine=engine, jobs=jobs)
        return SuiteResult(name, ok, f"{g.order * g.order} pairs")
    if name == "vanishing":
        n = samples if samples is not None else DEFAULT_SAMPLES
        ok = verify_vanishing(g, samples=n, seed=seed, engine=engine)
        exhaustive = g.order <= _VANISHING_EXHAUSTIVE_ORDER
        detail = "exhaustive" if exhaustive else f"{n} samples"
        return SuiteResult(name, ok, detail)
    if name == "theta":
        return _suite_theta(g, samples, seed, engine)
    if name == "mixed-meet":
        return _suite_mixed_meet(g, samples, seed, engine)
    if name == "demazure":
        return _suite_demazure(g, samples, seed, engine)
    if name == "poles":
        return _suite_poles(g, samples, seed, engine)
    if name == "kl-conjecture":
        violations = check_theta_power_conjecture(
            g, theta_table=engine.theta
        )
        return SuiteResult(
            name,
            not violations,
            "no violations" if not violations else f"{len(violations)} violations",
        )
    if name == "gk-base":
        return _suite_gk_base(g, samples, seed, engine)
    raise ValueError(f"unknown suite {name!r}")
