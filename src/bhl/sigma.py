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
so leaving it out changes no term, and a y whose mask is empty is skipped
before xi is asked. The mask is read off the products' supports and uses no
theorem about sigma and no v_min: every nonzero theta is still summed, so
the zero of sigma for v not >= v_min is still a computed outcome, which is
what makes the vanishing verification meaningful. xi itself is one int:
``ThetaTable.theta_sum`` adds the lifted terms q^len(t) c_t of the products
as q-columns, and one shift turns the sum into the column that sigma reads,
so no theta is built as a polynomial.

The sum is built over one denominator U, the union of the denominators of
the bar r(y, v) that meet a nonzero xi: U is the least common denominator of
the terms, since each bar r carries distinct factors 1 - x^beta (the r fill
raises on a repeated one). The bar r entries are read from the r table as
stored: packed x-keys (see ``polyring._pack``) whose values are q-columns,
the q-polynomial of each x-monomial as one int (see ``polyring._encode_q``).
The parts are grouped by their den: each column of bar r(y, v) times the
column of q^-len(y) xi, one int product, is added under its x-key into its
group's sum. For each beta in U in turn, every group whose den lacks beta
is then multiplied by 1 - x^beta (``polyring._times_binomial``), and groups
whose dens become equal are added into one, so that one group is left, over
U. Multiplying before scaling is the cheaper order: each factor lengthens
a bar, so a classify-a3 round multiplies 13 674 stored terms where the bars
scaled to U would have 44 601, and a factor is applied once per group, not
once per part. The result is a deferred column-backed ``RationalFn``
(``polyring._deferred_columns``): ``_accumulate`` builds its columns on
their first read, and they are decoded only when its ``num`` or ``den`` is
read. A product of two columns from q^low starts at q^(2 low), low the r
table's. Since the substitution q -> 2^K is a ring homomorphism, that
product is exact, and a decode reads it back while every coefficient of
sigma stays below 2^(K - 1) in magnitude, which ``sigma_idx`` checks by an
L1 bound, and passes on with the value. The keys need no check: the x-keys
of every group stay inside the r table's ``max_digit``, as the ``rpoly``
docstring shows. U, the den and every numerator coefficient are what scaling each
part to U would give; only the order of the additions differs, and
nothing is kept between calls.

sigma0(u, w) is sigma at v = v_min read off the xi row, with no sigma
built: among the y <= v_min only y = v_min has xi(u, y, w) != 0, and
bar r(v_min, v_min) = 1 (the ``u == v`` branch of
``RPolyTable.bar_r_packed_idx``), so sigma at v_min is its one part
q^-len(v_min) xi(u, v_min, w), over an empty den and with no x. That is
asserted, not assumed: ``_sigma0`` raises when v_min is not the only
y <= v_min in the row's mask; ``classify`` lets the error through, and
the main-theorem suite of ``verify`` fails. sigma0 is the row's column at
v_min, from the r table's low, and it is decoded only where it is
printed: the classify row and ``sigma0_idx``.

A triple with v >= v_min(u, w) is "of GK type" when

    sigma(u, v, w) = sigma0(u, w) * prod over alpha in S(u, v, w) of
                     (1 - q^-1 x^alpha) / (1 - x^alpha),

where S(u, v, w) = S(v_min(u, w), v); the test is exact cross-multiplied
equality, ``sig == rhs`` in ``_is_gk``, and it runs on q-columns.
sigma0 has one form, the ``_Sigma0`` that ``_sigma0`` reads once per
(u, w) off an xi row: its column from the r table's low, its L1 norm and,
for a row with a point, its value there. ``_is_gk`` takes v_min and the
``_Sigma0`` from its caller: ``classify_for_w`` reads it off the row it
builds for every v, and ``_sigma0_at(u, w)`` off the row of the
y <= v_min for ``is_gk_idx``, ``sigma0_idx`` and the ``gk-base`` and
main-theorem suites.
``gk_factor`` builds prod over S of (1 - q^-1 x^alpha) on columns from
q^-|S|, each factor one copy with keys moved by alpha and columns shifted
down one slot, over the den keys of S, with L1 bound 2^|S|; ``_gk_rhs``
multiplies each of its columns by the column of sigma0, and the L1 bound
by L1(sigma0). That product must stay below 2^(K - 1), or ``_gk_rhs``
raises ``RuntimeError``, as ``sigma_idx`` does past its own bound.
``RationalFn.__eq__`` then multiplies sigma by the factors of S - U and the
right-hand side by those of U - S and compares columns, as the
``polyring`` docstring states, with no decode.

The x-keys of both cross-multiplied sides stay inside the r table's
``max_digit``, extending the argument of the ``rpoly`` docstring. Every
key of sigma has x_j-degree in [0, P_j + U_j], P the sum of the pivot
roots below v and U_j the sum of the j-th coordinates of U; multiplying by
1 - x^beta for the beta of S - U moves keys by those beta only, so the
left side stays in [0, P_j + (U union S)_j]. The right-hand side has
x_j-degree in [0, S_j] before, and in [0, (S union U)_j] after, its
factors. S and U are sets of distinct positive roots, so each bound is at
most twice the largest coordinate sum of the positive roots, which is at
most ``max_digit``, and the table refuses a group whose ``max_digit``
reaches the digit bound. The comparison also checks a looser bound on
every call, built from the ``span`` of each value (``max_digit`` here),
and takes the eager route if it fails (both sides decoded and
cross-multiplied by the ring's own ``*``, as the ``polyring`` docstring
states); the test suite checks the tight one on sampled A3 and B3 pairs.
Classification enumerates all |W|^3 triples, counts those with
v >= v_min (asserting their sigma is indeed nonzero), counts the GK ones,
and reports the exceptions in canonical word form. The enumeration
parallelizes over w against read-only shared tables; the report is sorted
canonically afterwards, so its bytes do not depend on the worker count.

classify settles most non-GK triples at one point. On its first
``classify_for_w`` the engine draws (q0, x0) in (Z/p)^(r + 1),
p = 2^61 - 1, from the package seed, drawn again until q0, every x0_i and
every 1 - x0^beta, beta a positive root, are units mod p (``_Point``).
Every den factor of bar r, sigma and the GK factor is such a binomial, so
evaluation at the point is a ring homomorphism from the Laurent
polynomials with those binomials inverted to Z/p, and it sends a sum or
product to the sum or product of the values. Hence sigma = rhs forces
equal values: different values prove sigma != rhs, and a nonzero value of
sigma proves sigma != 0. Equal values prove nothing. For a point drawn at
random, a fixed nonzero cross-multiplied difference of degree d vanishes
there with probability at most d/p (Schwartz 1980; Zippel 1979), so
equality is then only likely, and the triple takes the exact column
comparison above. So a flag is true only where that comparison says so,
and false either by it or by a proof; sigma0 is read off the row's
column at v_min. No flag, sigma0 or report byte depends on the point.

Every sigma is read from an ``_XiRow``: for one (u, w), the xi of the y
in a mask, and the mask of those y with xi != 0. A single-shot
``sigma_idx`` builds the row of the y <= v. ``classify_for_w`` builds the
row of every y once per (u, w), at the point, with each xi's value at q0
read off the decode that gives its L1 norm. From either row ``sigma_idx``
builds the parts, their den union and the L1 bound as above, raises as
above, and returns a deferred value whose columns are accumulated on
their first read. Given a row with a point, the value also carries
sigma(pt), the sum of xi(q0) bar r(y, v)(pt) over the parts. The GK
right-hand side is deferred too: each column of the GK factor times the
column of sigma0, and it carries sigma0(q0) G_S(pt), sigma0(q0) the
row's value at v_min (the test suite checks that it is sigma0 at q0, and
the value sigma at v_min carries, on every (u, w) of G2 and A3). ``==``
then returns False at once when the two values differ, and ``is_zero`` is
False when sigma(pt) != 0, with no columns built; every triple equal at
the point, sigma at v_min among them, is built and compared exactly. On
A3 that builds the columns of 6 281 of the 9 697 nonzero sigma, one per
GK triple. bar r(y, v)(pt) is read off the stored columns once per entry,
through tables of q0 and x0 powers and a memo of x-key values. A single-shot ``sigma_idx``,
``is_gk_idx`` and every verify suite draw no point, so their values carry
none and each of their comparisons is exact.
"""

from __future__ import annotations

import os
import random
from math import prod
from typing import NamedTuple, Sequence

from .coxeter import CoxeterGroup, Element, _bits
from .demazure import v_min_idx
from .hecke import ThetaTable
from .kl import KLTable
from .polyring import (
    LaurentPoly,
    RationalFn,
    _Q_BITS,
    _Q_BOUND,
    _Q_MASK,
    _decode_q,
    _deferred_columns,
    _pack,
    _q_poly,
    _times_binomial,
    _unpack,
)
from .rpoly import RPolyTable, s_set_idx

__all__ = [
    "SigmaEngine",
    "ClassificationReport",
    "classify",
]

# the package seed: classify draws its point from it, and the sampled
# verifications draw their samples from it by default
DEFAULT_SEED = 20240811
_POINT_SEED = DEFAULT_SEED

# classify's point: residues mod this prime
_P = (1 << 61) - 1


def _draw_point(rng: random.Random, n: int) -> list:
    """n residues mod p, uniform: one draw of (q0, x0_1, ..., x0_r)."""
    return [rng.randrange(_P) for _ in range(n)]


class _Point:
    """One point (q0, x0) of (Z/p)^(r + 1), p = 2^61 - 1, and the values
    there of what classify reads (module docstring). It is drawn from the
    package seed, and drawn again, deterministically, until q0, every x0_i
    and every 1 - x0^beta, beta a positive root, are units mod p: every den
    factor of bar r, sigma and the GK factor is such a binomial, so that
    evaluation is a ring homomorphism on all of them. Values are read
    lazily, and ``pow`` runs once per q-degree and once per x-key and
    coordinate, not per term: q0^d, x0^e and each bar r(y, v) are memos."""

    def __init__(self, engine: "SigmaEngine"):
        g = engine.group
        rng = random.Random(_POINT_SEED)
        while True:
            q0, *xs = _draw_point(rng, g.rank + 1)
            units = [(1 - _monomial(xs, beta)) % _P for beta in g.positive_roots]
            if q0 and all(xs) and all(units):
                break
        self.q0, self.xs = q0, tuple(xs)
        self._rtable = engine.rtable
        self._n = g.rank + 1
        inverse = [pow(b, -1, _P) for b in units]
        # packed (0, beta) den key -> 1 / (1 - x0^beta)
        self._inverse = dict(zip(engine._root_keys, inverse))
        q_inv = pow(q0, -1, _P)
        # root index -> (1 - q0^-1 x0^beta) / (1 - x0^beta)
        self._gk_root = [(1 - q_inv * (1 - b)) * inv % _P for b, inv in zip(units, inverse)]
        self._q_powers: dict = {}  # d -> q0^d
        self._x_values: dict = {}  # packed x-key of e -> x0^e
        self._bar: dict = {}  # (y, v) -> bar r(y, v)(pt)

    def q_value(self, terms, shift: int = 0) -> int:
        """The sum of c q0^(d + shift) over the (d, c) of terms, mod p."""
        powers = self._q_powers
        total = 0
        for d, c in terms:
            d += shift
            q = powers.get(d)
            if q is None:
                q = powers[d] = pow(self.q0, d, _P)
            total += c * q
        return total % _P

    def bar(self, y: int, v: int) -> int:
        """bar r(y, v) at the point, read off its stored columns once."""
        key = (y, v)
        val = self._bar.get(key)
        if val is None:
            den, cols, _ = self._rtable.bar_r_packed_idx(y, v)
            low, x_values = self._rtable.low, self._x_values
            val = 0
            for x_key, col in cols.items():
                x = x_values.get(x_key)
                if x is None:
                    x = x_values[x_key] = _monomial(self.xs, _unpack(x_key, self._n)[1:])
                val += x * self.q_value(_decode_q(col, low))
            val %= _P
            for b in den:
                val = val * self._inverse[b] % _P
            self._bar[key] = val
        return val

    def gk(self, roots: frozenset) -> int:
        """The GK factor of roots at the point."""
        val = 1
        for a in roots:
            val = val * self._gk_root[a] % _P
        return val


def _monomial(xs, exponents) -> int:
    """The monomial with these exponents at the point xs, mod p."""
    return prod(pow(x, d, _P) for x, d in zip(xs, exponents)) % _P


class _XiRow(NamedTuple):
    """The xi of one (u, w) that sigma reads: y -> ``SigmaEngine._xi`` of
    each y asked with xi != 0, so with its value at point when point is
    not None, and the mask of those y."""

    point: _Point | None
    xis: dict
    mask: int


def _accumulate(parts: list, union: frozenset) -> dict:
    """The numerator of sigma over union from its parts (see
    ``SigmaEngine.sigma_idx``): x-key -> column."""
    groups: dict = {}  # den -> the sum of its parts, x-key -> column
    for xi, (den, bar, _) in parts:
        col_xi = xi[0]
        acc = groups.setdefault(den, {})
        get = acc.get
        for key, col in bar.items():
            acc[key] = get(key, 0) + col_xi * col
    for beta in union:
        for den in [den for den in groups if beta not in den]:
            acc = _times_binomial(groups.pop(den), beta)
            into = groups.setdefault(den | {beta}, acc)
            if into is not acc:  # a group with that den is there: merge
                get = into.get
                for key, col in acc.items():
                    into[key] = get(key, 0) + col
    return groups.get(union, {})  # {} when sigma has no part


class _Sigma0(NamedTuple):
    """sigma0(u, w) in the one form classify, the GK test and the
    main-theorem suite read, read once per (u, w) off an xi row by
    ``SigmaEngine._sigma0``: the row's column at v_min from q^low, low
    the r table's, its L1 norm, and (point, value there) for a row with a
    point, else None."""

    col: int
    low: int
    l1: int
    point: tuple | None


class SigmaEngine:
    """sigma evaluation over one group, with shared memoized tables."""

    def __init__(self, group: CoxeterGroup):
        self.group = group
        self.rtable = RPolyTable(group)
        self.theta = ThetaTable(group)
        self._kl: KLTable | None = None
        self._gk_factor: dict = {}
        # the packed (0, beta) key of each positive root, by root index
        self._root_keys = [_pack((0,) + beta) for beta in group.positive_roots]
        # classify's point, drawn on its first classify_for_w
        self._point: _Point | None = None

    @property
    def kl(self) -> KLTable:
        """The engine's KL table, over its r table; built on first use."""
        if self._kl is None:
            self._kl = KLTable(self.group, rtable=self.rtable)
        return self._kl

    # -- building blocks -----------------------------------------------------

    def gk_factor(self, roots: frozenset) -> RationalFn:
        """prod over alpha in roots of (1 - q^-1 x^alpha)/(1 - x^alpha),
        column-backed: the columns start at q^-|roots|, and each factor
        subtracts a copy of the numerator with its keys moved by alpha and
        its columns shifted down one slot, which must find slot 0 empty.
        Each factor at most doubles the L1 norm, so 2^|roots| bounds it."""
        val = self._gk_factor.get(roots)
        if val is None:
            num = {0: 1 << _Q_BITS * len(roots)}
            den = [self._root_keys[a] for a in roots]
            for b in den:
                out = num.copy()
                get = out.get
                for key, col in num.items():
                    if col & _Q_MASK:
                        raise RuntimeError(
                            "GK factor would take a q-degree below its columns; "
                            "this is a bug"
                        )
                    key += b
                    out[key] = get(key, 0) - (col >> _Q_BITS)
                num = out
            val = _deferred_columns(
                lambda: num, den, -len(roots), self.group.rank + 1, 1 << len(roots),
                self.rtable.max_digit,
            )
            self._gk_factor[roots] = val
        return val

    # -- sigma ---------------------------------------------------------------

    def _xi(self, u: int, y: int, w: int, point: _Point | None = None) -> tuple:
        """q^-len(y) times xi(u, y, w), the sum of theta(x, y, w) over
        x >= u, as (q-column from q^low, L1 norm), and with point also its
        value there, read off the same decode; (0, 0) when it is zero.
        low = -len(w0) is the r table's: theta has no negative q-degree, so
        neither has xi, and len(y) <= len(w0). Only the x in
        ``ThetaTable.reach(y, w)`` are asked: theta is an empty sum for the
        others. ``ThetaTable.theta_sum`` adds their lifted terms as ints, a
        column from q^0, and one shift by K (len(w0) - len(y)) slots makes
        it the column that sigma reads. The L1 norm is read off the slots,
        which the theta table's bound |W| 3^len(y) < 2^(K - 1) keeps
        exact."""
        mask = self.group.up_masks[u] & self.theta.reach(y, w)
        xi = self.theta.theta_sum(mask, y, w)
        terms = _decode_q(xi, 0)
        l1 = sum(abs(c) for _, c in terms)
        length = self.group.lengths[y]
        col = xi << _Q_BITS * (-self.rtable.low - length)
        if point is None:
            return col, l1
        return col, l1, point.q_value(terms, -length)

    def _xi_row(self, u: int, w: int, ys: int, point: _Point | None = None) -> _XiRow:
        """The ``_XiRow`` of (u, w) over the y in the mask ys, at point when
        given; a y whose reach mask has no x >= u is skipped without asking
        ``_xi``, as its xi is an empty sum."""
        up, reach = self.group.up_masks[u], self.theta.reach
        xis, mask = {}, 0
        for y in _bits(ys):
            if up & reach(y, w):
                xi = self._xi(u, y, w, point)
                if xi[0]:
                    xis[y] = xi
                    mask |= 1 << y
        return _XiRow(point, xis, mask)

    def sigma_idx(self, u: int, v: int, w: int, row: _XiRow | None = None) -> RationalFn:
        """sigma(u, v, w) over den U, the union of the dens of the bar r(y, v)
        whose xi(u, y, w) is nonzero, read from row, by default the
        ``_xi_row`` of the y <= v with no point; classify passes the row of
        every y at its point. Each part q^-len(y) xi bar r(y, v) is added
        into the sum of the parts with its den, one int product per column
        of bar r(y, v) as the r table stores it (its dicts are read only).
        Then, for each beta in U, each group whose den lacks beta is
        multiplied by 1 - x^beta, and groups whose dens meet are added,
        until one group is left, over U: multiplying first costs one
        product per stored term, and a factor is applied once per group,
        not once per part (``_accumulate``).

        The value is deferred and column-backed, its columns from
        q^(2 low), accumulated on their first read and decoded only when
        read. The L1 bound of the sum, over the parts, of L1(xi) times the
        L1 bound of bar r(y, v) times 2^|U - den| (each factor 1 - x^beta at
        most doubles it) must stay below 2^(K - 1), or ``RuntimeError`` is
        raised, also when the row has a point; the value carries it. This
        is, term for term, what the chain of ``RationalFn.__add__`` over y
        builds, as long as no partial sum of that chain is zero (the chain
        would restart its den there): U is the same union, not a fixed
        D_v, so at v_min nothing needs dividing out. When the row has a
        point, the value carries sigma there, the sum of
        xi(q0) bar r(y, v)(pt) over the parts."""
        g = self.group
        if row is None:
            row = self._xi_row(u, w, g.down_masks[v])
        xis, point = row.xis, row.point
        bar_r = self.rtable.bar_r_packed_idx
        ys = list(_bits(g.down_masks[v] & row.mask))
        parts = [(xis[y], bar_r(y, v)) for y in ys]
        union = frozenset().union(*(entry[0] for _, entry in parts))
        l1 = sum(xi[1] * l1_bar << len(union) - len(den)
                 for xi, (den, _, l1_bar) in parts)
        if l1 >= self.rtable._l1_limit:
            raise RuntimeError(
                f"sigma(u={g.word_str(u)}, v={g.word_str(v)}, w={g.word_str(w)}) "
                f"has L1 bound {l1}, past the q-column slots"
            )
        if point is not None:
            at = point.bar
            point = (point, sum(xis[y][2] * at(y, v) for y in ys) % _P)
        return _deferred_columns(
            lambda: _accumulate(parts, union), union, 2 * self.rtable.low, g.rank + 1,
            l1, self.rtable.max_digit, point,
        )

    def sigma(self, u: Element, v: Element, w: Element) -> RationalFn:
        return self.sigma_idx(*self.group.indices(u, v, w))

    def sigma0_idx(self, u: int, w: int) -> LaurentPoly:
        sigma0 = self._sigma0_at(u, w)[1]
        return _q_poly(sigma0.col, sigma0.low)

    def _sigma0(self, u: int, w: int, vm: int, row: _XiRow) -> _Sigma0:
        """The ``_Sigma0`` of (u, w), read off row at vm = v_min(u, w). When
        v_min is the only y <= v_min in the row's mask, sigma at v_min is
        its one part q^-len(v_min) xi(u, v_min, w) bar r(v_min, v_min), and
        that bar r is 1, so sigma0 is the row's entry at v_min: its column
        from the r table's low, its L1 norm and, for a row with a point,
        its value there. Any other mask raises ``RuntimeError``."""
        if row.mask & self.group.down_masks[vm] != 1 << vm:
            raise RuntimeError(
                "sigma at v_min is not its v_min part; this is a bug, not bad input "
                f"(u={self.group.word_str(u)}, w={self.group.word_str(w)})"
            )
        col, l1, *at = row.xis[vm]
        return _Sigma0(col, self.rtable.low, l1, (row.point, at[0]) if at else None)

    def _sigma0_at(self, u: int, w: int) -> tuple:
        """(v_min(u, w), the ``_Sigma0`` of (u, w)), from the row of the
        y <= v_min with no point."""
        vm = v_min_idx(self.group, u, w)
        return vm, self._sigma0(u, w, vm, self._xi_row(u, w, self.group.down_masks[vm]))

    def sigma0(self, u: Element, w: Element) -> LaurentPoly:
        return self.sigma0_idx(*self.group.indices(u, w))

    # -- GK form -------------------------------------------------------------

    def is_gk_idx(self, u: int, v: int, w: int) -> bool:
        return self._is_gk(u, v, w, *self._sigma0_at(u, w))

    def _is_gk(self, u: int, v: int, w: int, vm: int, sigma0: _Sigma0) -> bool:
        """``is_gk_idx`` with vm = v_min(u, w) and the ``_Sigma0`` of
        (u, w) given, so that a caller asking many v of one (u, w) builds
        sigma0 once."""
        g = self.group
        if not g.leq_idx(vm, v):
            raise ValueError(
                "GK type is undefined when sigma vanishes "
                f"(v={g.word_str(v)} is not >= v_min={g.word_str(vm)})"
            )
        return self.sigma_idx(u, v, w) == self._gk_rhs(s_set_idx(g, vm, v), sigma0)

    def _gk_rhs(self, roots: frozenset, sigma0: _Sigma0) -> RationalFn:
        """The GK right-hand side gk_factor(roots) times sigma0, deferred:
        each column of the factor times sigma0's column, with L1 bound the
        product of the two. That bound must stay below 2^(K - 1), or
        ``RuntimeError`` is raised, as in ``sigma_idx``. When sigma0
        carries a point value, the right-hand side carries it times the
        factor's value at that point."""
        gk = self.gk_factor(roots)._packed
        l1 = gk.l1 * sigma0.l1
        if l1 >= _Q_BOUND:
            raise RuntimeError(
                f"the GK right-hand side over {len(roots)} roots has L1 bound {l1}, "
                "past the q-column slots"
            )
        point = sigma0.point
        if point is not None:
            point = (point[0], point[0].gk(roots) * point[1] % _P)
        col = sigma0.col
        return _deferred_columns(
            lambda: {key: c * col for key, c in gk.cols.items()},
            gk.den, gk.low + sigma0.low, gk.n, l1, gk.span, point,
        )

    def is_gk(self, u: Element, v: Element, w: Element) -> bool:
        return self.is_gk_idx(*self.group.indices(u, v, w))

    # -- classification ------------------------------------------------------

    def prefill_shared_tables(self) -> None:
        """Fill the tables every worker reads: all bar r values and all
        T-basis products. The lifted theta columns, and every theta and xi
        sum, are built inside workers."""
        self.rtable.prefill()
        g = self.group
        for x in range(g.order):
            for y in range(g.order):
                self.theta.product(x, y)

    def classify_for_w(self, w: int) -> tuple:
        """All triples with this w: (nonzero, gk, rows). Each (u, w) computes
        its ``_XiRow`` once, and reads sigma0 and its printed form off it;
        sigma and the GK right-hand side are deferred values that carry
        their values at the engine's point (module docstring)."""
        g = self.group
        if self._point is None:
            self._point = _Point(self)
        point = self._point
        everything = (1 << g.order) - 1
        rows = []
        nonzero = 0
        gk = 0
        w_word = g.word_str(w)
        for u in range(g.order):
            vm = v_min_idx(g, u, w)
            u_word = g.word_str(u)
            row = self._xi_row(u, w, everything, point)
            sigma0 = self._sigma0(u, w, vm, row)
            sigma0_str = str(_q_poly(sigma0.col, sigma0.low))
            for v in _bits(g.up_masks[vm]):
                sig = self.sigma_idx(u, v, w, row)
                if sig.is_zero():
                    raise RuntimeError(
                        "sigma vanished although v >= v_min; this is a bug "
                        f"(u={u_word}, v={g.word_str(v)}, w={w_word})"
                    )
                nonzero += 1
                flag = sig == self._gk_rhs(s_set_idx(g, vm, v), sigma0)
                if flag:
                    gk += 1
                rows.append((u_word, g.word_str(v), w_word, flag, sigma0_str))
        return nonzero, gk, rows


class ClassificationReport(NamedTuple):
    """Per-type classification statistics plus the per-triple audit rows."""

    cartan_type: str
    total_triples: int
    nonzero_count: int
    gk_count: int
    exceptions: Sequence = ()  # (u, v, w) word triples
    rows: Sequence = ()  # (u, v, w, is_gk, sigma0 str)

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
        import json  # here, not at the top, so that import bhl does not load it

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
    if workers > 1:
        # imported only here, so that import bhl does not load it
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers < 2:
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
