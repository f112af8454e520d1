"""
The matrix-coefficient rational function sigma(u, v, w), its polynomial
specialization sigma0(u, w) at v = v_min(u, w), the product-form test behind
the "GK type" classification, and the full triple classification.

sigma is always evaluated through its combinatorial expansion

    sigma(u, v, w) = sum over x >= u, y <= v of
                     q^(-len(y)) * theta(x, y, w) * bar r(y, v),

with the sum grouped by y: the inner sum over x is a pure q-polynomial xi
that is shared across all v for a fixed (u, w). xi sums theta(x, y, w) only
over the x >= u in ``ThetaTable.reach(y, w)``, the x whose T_x T_{y^-1} has
a term at some t <= w: for every other x theta is an empty sum, exactly 0,
so leaving it out changes no term. The mask is read off the products'
supports and uses no theorem about sigma and no v_min: every nonzero theta
is still summed, so the zero of sigma for v not >= v_min is still a
computed outcome, which is what makes the vanishing verification
meaningful.

The sum is built over one denominator U, the union of the denominators of
the bar r(y, v) that meet a nonzero xi: U is the least common denominator of
the terms, since each bar r carries distinct factors 1 - x^beta (the r fill
raises on a repeated one). The bar r entries are read from the r table as
stored: packed x-keys (see ``polyring._pack``) whose values are q-columns,
the q-polynomial of each x-monomial as one int (see ``polyring._encode_q``).
Each bar r(y, v) is multiplied by the factors of U it lacks, and then each
of its columns is multiplied by the column of q^-len(y) xi, one int
product, and added under its x-key; no intermediate ``RationalFn`` is
built, and the columns are decoded once, at the end. Since the
substitution q -> 2^K is a ring homomorphism, that product is exact, and
the decode reads it back while every coefficient of sigma stays below
2^(K - 1) in magnitude, which ``sigma_idx`` checks by an L1 bound before
decoding (at most 24 bits on the classify runs of A3, B3 and A4 measured,
against K - 1 = 63). The keys need no check: the x-keys of a scaled bar
stay inside the r table's ``max_digit``, as the ``rpoly`` docstring shows.

The scaled bar depends on (y, v, U) alone, and the same key recurs across
triples (the 3 w of the classify-a3 benchmark ask 7 240 parts of 774 keys;
one verify-b3 round 3 605 parts of 978), so the engine keeps it in a memo
keyed by (y, v, U) and scales each key once. A bar whose den is all of U
is read from the r table and not stored; a stored one is a tuple of
(x-key, column) pairs, each distinct pair one shared object, since the
entries repeat few pairs. U, the den and every numerator coefficient are
what scaling each term would give; only the order of the additions
differs. This is not clearing over D_v = prod over S(e, v) (a dead end,
see ROADMAP): the den stays U, so at v = v_min only y = v_min contributes,
bar r(v_min, v_min) = 1, and sigma0 needs no division.

A triple with v >= v_min(u, w) is "of GK type" when

    sigma(u, v, w) = sigma0(u, w) * prod over alpha in S(u, v, w) of
                     (1 - q^-1 x^alpha) / (1 - x^alpha),

tested by exact cross-multiplied equality. Classification enumerates all
|W|^3 triples, counts those with v >= v_min (asserting their sigma is indeed
nonzero), counts the GK ones, and reports the exceptions in canonical word
form. The enumeration parallelizes over w against read-only shared tables;
the report is sorted canonically afterwards, so its bytes do not depend on
the worker count.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
from dataclasses import dataclass, field

from .coxeter import CoxeterGroup, Element, _bits
from .demazure import v_min_idx
from .hecke import ThetaTable
from .polyring import (
    LaurentPoly,
    RationalFn,
    _decode_q,
    _encode_q,
    _new,
    _times_binomial,
    _unpack,
)
from .rpoly import RPolyTable, s_set_idx

__all__ = [
    "SigmaEngine",
    "ClassificationReport",
    "classify",
    "verify_main_theorem",
    "verify_vanishing",
]

# verify_vanishing scans every triple of a group up to this order
_VANISHING_EXHAUSTIVE_ORDER = 10


def _q_polynomial(val: RationalFn) -> LaurentPoly | None:
    """The q-polynomial equal to val, or None if torus dependence remains."""
    val = val.reduced()
    if val.den or not val.num.is_q_only():
        return None
    return val.num.q_only()


class _UnpackMemo(dict):
    """Packed key -> exponent tuple of n entries, unpacked on first read."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, key: int) -> tuple:
        val = self[key] = _unpack(key, self.n)
        return val


class SigmaEngine:
    """sigma evaluation over one group, with shared memoized tables."""

    def __init__(self, group: CoxeterGroup):
        self.group = group
        self.rtable = RPolyTable(group)
        self.theta = ThetaTable(group)
        self._gk_factor: dict = {}
        # many sigma of one group share monomials: each packed key is
        # unpacked once per engine
        self._unpacked = _UnpackMemo(group.rank + 1)
        # (y, v, U) -> bar r(y, v) times the factors of U it lacks, for the
        # bars that lack one: a tuple of (x-key, q-column) pairs, each pair
        # one shared object (one w of A4 stores 161 090 pairs, 8 799 of
        # them distinct); read-only once stored
        self._scaled_bar_r: dict = {}
        self._bar_terms: dict = {}  # (x-key, column) -> the one shared pair

    # -- building blocks -----------------------------------------------------

    def gk_factor(self, roots: frozenset) -> RationalFn:
        """prod over alpha in roots of (1 - q^-1 x^alpha)/(1 - x^alpha)."""
        val = self._gk_factor.get(roots)
        if val is None:
            g = self.group
            num = LaurentPoly.one(g.rank)
            den = []
            for a in sorted(roots):
                beta = g.positive_roots[a]
                num = num * LaurentPoly(g.rank, {
                    (0,) * (g.rank + 1): 1,
                    (-1,) + tuple(beta): -1,
                })
                den.append(beta)
            val = RationalFn(num, den)
            self._gk_factor[roots] = val
        return val

    # -- sigma ---------------------------------------------------------------

    def _xi(self, u: int, y: int, w: int) -> tuple:
        """q^-len(y) times xi(u, y, w), the sum of theta(x, y, w) over
        x >= u, as (q-column from q^low, L1 norm); (0, 0) when it is zero.
        low = -len(w0) is the r table's: theta has no negative q-degree, so
        neither has xi, and len(y) <= len(w0). Only the x in
        ``ThetaTable.reach(y, w)`` are asked: theta is an empty sum for the
        others. The theta terms are added into one dict keyed by q-degree,
        which is encoded at the end."""
        mask = self.group.up_masks[u] & self.theta.reach(y, w)
        if not mask:
            return 0, 0
        theta = self.theta.theta_idx
        acc: dict = {}
        get = acc.get
        for x in _bits(mask):
            for (k,), c in theta(x, y, w).terms.items():
                acc[k] = get(k, 0) + c
        # q^k of xi is q^(k - len(y)) of the column from q^low
        col = _encode_q(acc.items(), self.rtable.low + self.group.lengths[y])
        return col, sum(map(abs, acc.values()))

    def sigma_idx(self, u: int, v: int, w: int, xi_cache: dict | None = None) -> RationalFn:
        """sigma(u, v, w) over den U, the union of the dens of the bar r(y, v)
        whose xi(u, y, w) is nonzero. Each part q^-len(y) xi bar r(y, v) is
        added into one numerator of q-columns on packed x-keys: bar r(y, v),
        read from the r table as stored, is first brought to U by the
        factors 1 - x^beta it lacks, and then each of its columns times the
        column of q^-len(y) xi, one int product, is added under its x-key.
        The scaled bar depends on (y, v, U) only, never on u or w, so an
        entry is never stale: every call keeps it in the engine memo under
        that key, and later triples read it back. A bar that lacks no
        factor is the r table's own dict and is not stored. Entries, like
        the r table's, are read only. ``xi_cache`` (y -> the column of
        q^-len(y) xi and its L1 norm) shares xi across the v of one (u, w),
        as classify does.

        The columns are decoded once, at the end. Before any is read, the
        L1 bound of the sum, over the parts, of L1(xi) times the L1 bound
        of bar r(y, v) times 2^|U - den| (each factor 1 - x^beta at most
        doubles it) must stay below 2^(K - 1), or ``RuntimeError`` is
        raised. This is, term for term, what the chain of
        ``RationalFn.__add__`` over y builds, as long as no partial sum of
        that chain is zero (the chain would restart its den there): U is
        the same union, not a fixed D_v, so at v_min nothing needs dividing
        out."""
        g = self.group
        bar_r = self.rtable.bar_r_packed_idx
        parts = []
        for y in _bits(g.down_masks[v]):
            if xi_cache is not None:
                xi = xi_cache.get(y)
                if xi is None:
                    xi = xi_cache[y] = self._xi(u, y, w)
            else:
                xi = self._xi(u, y, w)
            if xi[0]:
                parts.append((y, xi, bar_r(y, v)))
        union = frozenset().union(*(entry[0] for _, _, entry in parts))
        l1 = 0
        for _, (_, l1_xi), (den, _, l1_bar) in parts:
            l1 += l1_xi * l1_bar << (len(union) - len(den))
        if l1 >= self.rtable._l1_limit:
            raise RuntimeError(
                f"sigma(u={g.word_str(u)}, v={g.word_str(v)}, w={g.word_str(w)}) "
                f"has L1 bound {l1}, past the q-column slots"
            )
        scaled = self._scaled_bar_r
        acc: dict = {}
        get = acc.get
        for y, (col_xi, _), (den, bar, _) in parts:
            if len(den) < len(union):  # den, a subset of U, lacks a factor
                memo_key = y, v, union
                terms = scaled.get(memo_key)
                if terms is None:
                    for beta in union - den:
                        bar = _times_binomial(bar, beta)
                    intern = self._bar_terms.setdefault
                    terms = scaled[memo_key] = tuple(
                        intern(term, term) for term in bar.items() if term[1]
                    )
            else:
                terms = bar.items()
            for key, col in terms:
                acc[key] = get(key, 0) + col_xi * col
        unpacked = self._unpacked
        low = 2 * self.rtable.low
        num = {
            unpacked[key + d]: c
            for key, col in acc.items()
            for d, c in _decode_q(col, low)
        }
        return RationalFn(_new(g.rank, num), [unpacked[b][1:] for b in union])

    def sigma(self, u: Element, v: Element, w: Element) -> RationalFn:
        g = self.group
        for el in (u, v, w):
            g.check_same(el.group)
        return self.sigma_idx(u.index, v.index, w.index)

    def sigma0_idx(self, u: int, w: int) -> LaurentPoly:
        return self._sigma0(u, w, self.sigma_idx(u, v_min_idx(self.group, u, w), w))

    def _sigma0(self, u: int, w: int, sig_at_vmin: RationalFn) -> LaurentPoly:
        val = _q_polynomial(sig_at_vmin)
        if val is None:
            raise RuntimeError(
                "sigma at v_min kept torus dependence; this is a bug, "
                f"not bad input (u={self.group.word_str(u)}, "
                f"w={self.group.word_str(w)}, value={sig_at_vmin})"
            )
        return val

    def sigma0(self, u: Element, w: Element) -> LaurentPoly:
        g = self.group
        g.check_same(u.group)
        g.check_same(w.group)
        return self.sigma0_idx(u.index, w.index)

    def main_theorem_rhs_idx(self, u: int, w: int) -> LaurentPoly:
        """q^(-len(v_min)) times the length generating series of [u, w*v_min]."""
        g = self.group
        vm = v_min_idx(g, u, w)
        return g.poincare_idx(u, g.mul_idx(w, vm)).shift_q(-g.lengths[vm])

    # -- GK form -------------------------------------------------------------

    def is_gk_idx(
        self,
        u: int,
        v: int,
        w: int,
        sig: RationalFn | None = None,
        sigma0: LaurentPoly | None = None,
    ) -> bool:
        g = self.group
        vm = v_min_idx(g, u, w)
        if not g.leq_idx(vm, v):
            raise ValueError(
                "GK type is undefined when sigma vanishes "
                f"(v={g.word_str(v)} is not >= v_min={g.word_str(vm)})"
            )
        if sig is None:
            sig = self.sigma_idx(u, v, w)
        if sigma0 is None:
            sigma0 = self.sigma0_idx(u, w)
        rhs = self.gk_factor(s_set_idx(g, vm, v)).mul_poly(
            sigma0.embed(g.rank)
        )
        return sig == rhs

    def is_gk(self, u: Element, v: Element, w: Element) -> bool:
        g = self.group
        for el in (u, v, w):
            g.check_same(el.group)
        return self.is_gk_idx(u.index, v.index, w.index)

    # -- classification ------------------------------------------------------

    def prefill_shared_tables(self) -> None:
        """Fill the tables every worker reads: all bar r values and all
        T-basis products. Per-w theta values are computed inside workers."""
        self.rtable.prefill()
        g = self.group
        for x in range(g.order):
            for y in range(g.order):
                self.theta.product(x, y)

    def classify_for_w(self, w: int) -> tuple:
        """All triples with this w: (nonzero, gk, rows)."""
        g = self.group
        rows = []
        nonzero = 0
        gk = 0
        w_word = g.word_str(w)
        for u in range(g.order):
            vm = v_min_idx(g, u, w)
            u_word = g.word_str(u)
            xi_cache: dict = {}
            sigma0 = None
            for v in _bits(g.up_masks[vm]):
                sig = self.sigma_idx(u, v, w, xi_cache)
                if sig.is_zero():
                    raise RuntimeError(
                        "sigma vanished although v >= v_min; this is a bug "
                        f"(u={u_word}, v={g.word_str(v)}, w={w_word})"
                    )
                nonzero += 1
                if v == vm:  # indices are sorted by length: v_min comes first
                    sigma0 = self._sigma0(u, w, sig)
                    sigma0_str = str(sigma0)
                flag = self.is_gk_idx(u, v, w, sig, sigma0)
                if flag:
                    gk += 1
                rows.append((u_word, g.word_str(v), w_word, flag, sigma0_str))
        return nonzero, gk, rows


@dataclass
class ClassificationReport:
    """Per-type classification statistics plus the per-triple audit rows."""

    cartan_type: str
    total_triples: int
    nonzero_count: int
    gk_count: int
    exceptions: list = field(default_factory=list)  # (u, v, w) word triples
    rows: list = field(default_factory=list)  # (u, v, w, is_gk, sigma0 str)

    def to_json_dict(self) -> dict:
        return {
            "type": self.cartan_type,
            "total": self.total_triples,
            "nonzero": self.nonzero_count,
            "gk": self.gk_count,
            "exceptions": [
                {"u": u, "v": v, "w": w} for (u, v, w) in self.exceptions
            ],
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_csv_text(self) -> str:
        lines = ["type,u,v,w,is_gk,sigma0"]
        for u, v, w, flag, sigma0 in self.rows:
            flag_s = "true" if flag else "false"
            lines.append(f"{self.cartan_type},{u},{v},{w},{flag_s},{sigma0}")
        return "\n".join(lines) + "\n"


_WORKER: tuple | None = None  # (engine, fn), set in each forked worker


def _engine_for(group: CoxeterGroup, engine: SigmaEngine | None) -> SigmaEngine:
    """engine, or a new one over group; an engine built over another group
    raises GroupMismatchError."""
    if engine is None:
        return SigmaEngine(group)
    group.check_same(engine.group)
    return engine


def _init_worker(engine: SigmaEngine, fn) -> None:
    global _WORKER
    _WORKER = (engine, fn)


def _worker(w: int):
    assert _WORKER is not None
    engine, fn = _WORKER
    return fn(engine, w)


def _map_over_w(engine: SigmaEngine, fn, jobs: int) -> list:
    """[fn(engine, w) for every w], in w order. Forks min(jobs, |W|,
    cpu_count) workers where fork is available, after filling the tables
    they share read-only (a no-op when already full); runs serially when
    that minimum is 1 or fork is unavailable. Each worker inherits
    (engine, fn) as its initializer's arguments, so callers in other
    threads cannot swap them. The pool takes one w at a time, longest
    first, so the costliest w do not start last."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    order = engine.group.order
    workers = min(jobs, order, os.cpu_count() or 1)
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return [fn(engine, w) for w in range(order)]
    engine.prefill_shared_tables()
    ctx = multiprocessing.get_context("fork")
    lengths = engine.group.lengths
    by_length = sorted(range(order), key=lengths.__getitem__, reverse=True)
    with ctx.Pool(workers, _init_worker, (engine, fn)) as pool:
        results = pool.map(_worker, by_length, chunksize=1)
    out = [None] * order
    for w, res in zip(by_length, results):
        out[w] = res
    return out


def classify(
    group: CoxeterGroup, jobs: int = 1, engine: SigmaEngine | None = None
) -> ClassificationReport:
    """Classify every triple of the group; deterministic for any job count."""
    engine = _engine_for(group, engine)
    g = group
    engine.prefill_shared_tables()
    parts = _map_over_w(engine, SigmaEngine.classify_for_w, jobs)
    nonzero = sum(p[0] for p in parts)
    gk = sum(p[1] for p in parts)
    rows = [row for p in parts for row in p[2]]
    rows.sort(key=lambda row: (row[0], row[1], row[2]))
    exceptions = [(u, v, w) for (u, v, w, flag, _) in rows if not flag]
    report = ClassificationReport(
        cartan_type=str(g.cartan_type),
        total_triples=g.order**3,
        nonzero_count=nonzero,
        gk_count=gk,
        exceptions=exceptions,
        rows=rows,
    )
    assert report.gk_count + len(report.exceptions) == report.nonzero_count
    return report


def _main_theorem_for_w(engine: SigmaEngine, w: int) -> bool:
    g = engine.group
    for u in range(g.order):
        vm = v_min_idx(g, u, w)
        val = _q_polynomial(engine.sigma_idx(u, vm, w))
        if val is None or val != engine.main_theorem_rhs_idx(u, w):
            return False
    return True


def verify_main_theorem(
    group: CoxeterGroup,
    engine: SigmaEngine | None = None,
    jobs: int = 1,
) -> bool:
    """Check sigma(u, v_min, w) is torus-free and matches the translated
    Bruhat-interval length series, for every pair (u, w)."""
    engine = _engine_for(group, engine)
    return all(_map_over_w(engine, _main_theorem_for_w, jobs))


def verify_vanishing(
    group: CoxeterGroup,
    samples: int = 2000,
    seed: int = 987654321,
    engine: SigmaEngine | None = None,
) -> bool:
    """Check sigma(u, v, w) == 0 for v not >= v_min(u, w); exhaustive for
    groups of order at most ``_VANISHING_EXHAUSTIVE_ORDER``, else on
    ``samples`` seeded random triples."""
    engine = _engine_for(group, engine)
    g = group
    if g.order <= _VANISHING_EXHAUSTIVE_ORDER:
        for u in range(g.order):
            for w in range(g.order):
                up = g.up_masks[v_min_idx(g, u, w)]
                for v in range(g.order):
                    if not up >> v & 1:
                        if not engine.sigma_idx(u, v, w).is_zero():
                            return False
        return True
    rng = random.Random(seed)
    found = 0
    while found < samples:
        u = rng.randrange(g.order)
        v = rng.randrange(g.order)
        w = rng.randrange(g.order)
        if g.leq_idx(v_min_idx(g, u, w), v):
            continue
        if not engine.sigma_idx(u, v, w).is_zero():
            return False
        found += 1
    return True
