"""
T-basis products of the Iwahori-Hecke algebra over Z[q, q^-1] and the
pairing polynomial theta(x, y, w) = lambda_w(T_x T_{y^{-1}}).

T-basis relations, for s a simple reflection:

    T_y T_s = T_{ys}                  if ys > y,
    T_y T_s = (q - 1) T_y + q T_{ys}  if ys < y.

Products of basis elements are computed by right-multiplying one generator
at a time along a reduced word of the right factor; no inverse basis is
needed. lambda_w sends T_t to q^len(t) when t <= w in Bruhat order and to 0
otherwise, so theta(x, y, w) is a polynomial in q that vanishes exactly when
x y^{-1} is not <= w.

ThetaTable memoizes the basis products; the table is meant to be filled
before any parallel enumeration and then shared read-only. Canonical words
satisfy words[y] = (i,) + words[s_i y], so the table builds T_x T_{y^{-1}}
from its entry for s_i y with one generator step: the same steps, in the
same order, as walking the whole reversed word of y. A step keeps every
coefficient it does not change, and coefficients are immutable, so an entry
shares most of its polynomials with the shorter one it extends.

Many entries need no step at all: they are relabelled from one already
held, through two exact symmetries of the T-basis (an x-major fill walks
about half of the entries when only the first applies, a quarter on A4):
- the anti-involution iota(T_w) = T_{w^{-1}} (Kazhdan-Lusztig 1979). It is
  the Z[q, q^-1]-linear anti-automorphism fixing every T_s: the relations
  T_s^2 = (q - 1) T_s + q and the braid relations read the same backwards,
  and a reduced word of w reversed is one of w^{-1}. So
  iota(T_y T_{x^{-1}}) = T_x T_{y^{-1}}, and the entry of (x, y) is the
  entry of (y, x) with each t replaced by t^{-1}, coefficients untouched;
- conjugation c(t) = w0 t w0. It maps every simple reflection to a simple
  one, so it is an automorphism of the Coxeter system, keeps lengths, and
  T_t -> T_{c(t)} is an algebra automorphism. So the entry of (x, y) is the
  entry of (c(x), c(y)) with each t replaced by c(t). When w0 is central
  (types A1, B, C, G2 and D_n for even n) c is the identity and only iota
  applies.
Both are relabellings of the support only: no coefficient is recomputed,
and a relabelled entry shares its source's immutable coefficients.

theta(x, y, w) sums q^len(t) c_t over the t in supp(T_x T_{y^{-1}}) with
t <= w. The table lifts each term q^len(t) c_t to one q-column from q^0
(see ``polyring``), one int per t, so theta is the int sum of the lifted
terms at the bits of down(w), and a sum of theta over many x (the xi of
``sigma``) is one int sum as well; neither builds a polynomial. The lifted
terms are kept one column per y, built on the first query of that y: for
every x, the support mask of T_x T_{y^{-1}}, the tuple of its lifted
terms, aligned with the keys of ``product(x, y)``, and their total, which is
theta for every w above the whole support. Each distinct int and each
distinct tuple is stored once. No theta is memoized: one costs a pass over
the terms of one product. Every read goes through the column and shares
that pass (``_sum_at``): ``theta_sum`` adds theta over many x at one w
(xi), ``thetas`` gives theta of one (x, y) at many w (the power-of-q scan),
and w that cover the same part of the support share one pass within a
call; ``theta_idx`` is ``thetas`` at one w, decoded.

A sum of theta(x, y, w) over any set of x has L1 norm at most |W| times the
largest L1 norm of a product T_x T_{y^{-1}}. Every lift checks that bound
against 2^(K - 1), so every such sum decodes exactly, and "theta is a power
of q" is an int test (``polyring._is_q_power``).

reach(y, w), memoized per (y, w), is the mask of the x whose support meets
down(w); theta(x, y, w) is an empty sum, exactly 0, for every x outside it,
so a sum of theta over x need only ask the x in it.
"""

from __future__ import annotations

from .coxeter import CoxeterGroup, Element, _bits
from .polyring import _Q_BITS, _Q_BOUND, LaurentPoly, _decode_q, _new

__all__ = ["ThetaTable"]


def _add_into(terms: dict, other: dict, sign: int) -> None:
    """terms += sign * other, in place, dropping zeros."""
    for e, v in other.items():
        nv = terms.get(e, 0) + sign * v
        if nv:
            terms[e] = nv
        else:
            del terms[e]


def _rmul_gen(g: CoxeterGroup, coeffs: dict, i: int) -> dict:
    """Multiply a coefficient dict by T_{s_i} on the right.

    Only the upper element t of a coset {t s_i, t} can receive two terms:
    c(t s_i) moved up and (q - 1)*c(t). A coefficient that is moved up
    alone is kept as the same object."""
    out: dict = {}
    rmult, lengths = g.rmult, g.lengths
    for t, c in coeffs.items():
        ts = rmult[t][i]
        if lengths[ts] > lengths[t]:
            prev = out.get(ts)
            if prev is None:
                out[ts] = c
            else:  # prev is (q - 1)*c(ts), built below by this call
                _add_into(prev.terms, c.terms, 1)
                if not prev.terms:
                    del out[ts]
            continue
        # q*c, and (q - 1)*c as q*c - c
        qc = {(e[0] + 1,) + e[1:]: v for e, v in c.terms.items()}
        terms = dict(qc)
        _add_into(terms, c.terms, -1)
        prev = out.get(t)
        if prev is not None:  # c(t s_i) moved up, a shared object
            _add_into(terms, prev.terms, 1)
        if terms:
            out[t] = _new(c.arity, terms)
        elif prev is not None:
            del out[t]
        out[ts] = _new(c.arity, qc)
    return out


def _longest_conjugation(g: CoxeterGroup) -> list | None:
    """[w0 t w0 for t], or None when that is the identity. Raises
    RuntimeError unless it maps every simple reflection to a simple one and
    keeps every length: what makes it relabel T-products exactly."""
    w0 = g.longest_idx
    conj = [g.mul_idx(g.mul_idx(w0, t), w0) for t in range(g.order)]
    simples = {g.rmult[g.identity_idx][i] for i in range(g.rank)}
    if {conj[s] for s in simples} != simples or any(
        g.lengths[conj[t]] != g.lengths[t] for t in range(g.order)
    ):
        raise RuntimeError(
            f"conjugation by w0 is no automorphism of the Coxeter system "
            f"{g.cartan_type}; this is a bug"
        )
    return None if conj == list(range(g.order)) else conj


def _sum_at(prod: dict, terms: tuple, part: int) -> int:
    """The sum of the lifted terms of a product at the t in the bit mask
    part; terms are aligned with the keys of prod."""
    col = 0
    for t, term in zip(prod, terms):
        if part >> t & 1:
            col += term
    return col


def _relabel(prod: dict, labels: list) -> dict:
    """The product with each basis index t replaced by labels[t]; the
    coefficients are shared, not copied."""
    return {labels[t]: c for t, c in prod.items()}


class ThetaTable:
    """Memoized T_x T_{y^{-1}} products and the lifted terms theta sums.

    A product not yet memoized is the relabelled entry of (y, x) under
    t -> t^{-1} if that is memoized, else the relabelled entry of
    (w0 x w0, w0 y w0) under t -> w0 t w0 if that is (see the module
    docstring for why both are exact). Only when neither is held is it
    walked: the product for (x, y) with y != e is the product for
    (x, s_i y), i = words[y][0], times T_{s_i}, so each walked entry costs
    one generator step and shares the coefficients that step leaves alone
    with its shorter neighbour. In an x-major fill of A4 only 3 843 of the
    14 400 products are walked, in B3 1 176 of 2 304.

    The column of y, built on the first query of that y, holds for every
    x what ``_lift`` gives: the support mask of T_x T_{y^{-1}}, the
    product, its lifted terms q^len(t) c_t as q-columns from q^0 in the
    order of the product's keys, and their total.
    reach(y, w) is the mask of the x whose support meets down_masks[w],
    memoized per (y, w): at most |W|^2 ints. theta is 0 for every x
    outside it."""

    def __init__(self, group: CoxeterGroup):
        self.group = group
        self._inv = group.inv_table
        self._conj = _longest_conjugation(group)  # None when the identity
        self._products: dict = {}
        # y -> (support masks, products, lifted terms, totals), lists over x
        self._columns: dict = {}
        # the shift that lifts a term at t by q^len(t), K len(t) bits
        self._lifts = [_Q_BITS * n for n in group.lengths]
        # each distinct lifted term or total, and each distinct tuple of
        # lifted terms, stored once
        self._lifted_ints: dict = {}
        self._lifted_tuples: dict = {}
        self._reach: dict = {}  # (y, w) -> mask of the x whose support meets down(w)

    def product(self, x: int, y: int) -> dict:
        products = self._products
        prod = products.get((x, y))
        if prod is not None:
            return prod
        src = products.get((y, x))
        if src is not None:
            prod = products[(x, y)] = _relabel(src, self._inv)
            return prod
        conj = self._conj
        if conj is not None:
            src = products.get((conj[x], conj[y]))
            if src is not None:
                prod = products[(x, y)] = _relabel(src, conj)
                return prod
        # walk down to the longest memoized prefix, then build back up; a
        # loop, not recursion, so a cold product(x, w0) stays shallow
        g = self.group
        words, lmult = g.words, g.lmult
        pending = []
        while prod is None:
            if y == g.identity_idx:
                prod = {x: LaurentPoly.one(0)}
                products[(x, y)] = prod
                break
            i = words[y][0]
            pending.append((y, i))
            y = lmult[y][i]
            prod = products.get((x, y))
        for y, i in reversed(pending):
            prod = _rmul_gen(g, prod, i)
            products[(x, y)] = prod
        return prod

    def _lift(self, x: int, y: int) -> tuple:
        """(support mask, product, lifted terms, total) of T_x T_{y^{-1}}.
        A lifted term is q^len(t) c_t as a q-column from q^0, each q^d c of
        c_t adding c << lifts[t] + K d; the terms are in the order of the
        product's keys, and the total is their sum, theta(x, y, w) for
        every w above the whole support. Raises RuntimeError unless |W|
        times the product's L1 norm is below 2^(K - 1), the bound that makes
        every sum of theta over x decode exactly."""
        g = self.group
        lifts = self._lifts
        intern = self._lifted_ints.setdefault
        prod = self.product(x, y)
        supp = l1 = total = 0
        terms = []
        for t, poly in prod.items():
            supp |= 1 << t
            lift = lifts[t]
            term = 0
            for (d,), c in poly.terms.items():
                term += c << lift + _Q_BITS * d
                l1 += abs(c)
            terms.append(intern(term, term))
            total += term
        if g.order * l1 >= _Q_BOUND:
            raise RuntimeError(
                f"T_x T_y^-1 at x={g.word_str(x)}, y={g.word_str(y)} has L1 "
                f"norm {l1}: {g.order} of them overflow the q-column slots"
            )
        terms = tuple(terms)
        terms = self._lifted_tuples.setdefault(terms, terms)
        return supp, prod, terms, intern(total, total)

    def _column(self, y: int) -> tuple:
        """(support masks, products, lifted terms, totals) of y, each a list
        indexed by x, from ``_lift``; built once per y."""
        column = self._columns.get(y)
        if column is None:
            lifts = [self._lift(x, y) for x in range(self.group.order)]
            column = self._columns[y] = tuple(map(list, zip(*lifts)))
        return column

    def reach(self, y: int, w: int) -> int:
        """Bit mask of the x whose T_x T_{y^{-1}} has a term at some t <= w;
        theta(x, y, w) is an empty sum, exactly 0, for every other x."""
        key = (y, w)
        mask = self._reach.get(key)
        if mask is None:
            down = self.group.down_masks[w]
            mask = 0
            for x, supp in enumerate(self._column(y)[0]):
                if supp & down:
                    mask |= 1 << x
            self._reach[key] = mask
        return mask

    def theta_sum(self, xs: int, y: int, w: int) -> int:
        """The sum of theta(x, y, w) over the x in the bit mask xs, as one
        q-column from q^0: the lifted terms at the t <= w of the column of
        y, added as ints; the total of an x whose support lies below w."""
        supports, prods, lifted, totals = self._columns.get(y) or self._column(y)
        down = self.group.down_masks[w]
        col = 0
        while xs:  # the bits x of xs, lowest first, as _bits yields them
            low = xs & -xs
            xs ^= low
            x = low.bit_length() - 1
            supp = supports[x]
            part = supp & down
            col += totals[x] if part == supp else _sum_at(prods[x], lifted[x], part)
        return col

    def thetas(self, x: int, y: int, ws: int) -> list:
        """[(w, theta(x, y, w) as a q-column from q^0) for each w in the bit
        mask ws, lowest w first]. theta reads w only through the part of the
        support of T_x T_{y^{-1}} below it, so the w of one call that cover
        the same part share one sum; nothing is kept after the call."""
        supports, prods, lifted, totals = self._columns.get(y) or self._column(y)
        supp, prod, terms = supports[x], prods[x], lifted[x]
        down_masks = self.group.down_masks
        sums = {supp: totals[x]}
        out = []
        for w in _bits(ws):
            part = supp & down_masks[w]
            col = sums.get(part)
            if col is None:
                col = sums[part] = _sum_at(prod, terms, part)
            out.append((w, col))
        return out

    def theta_idx(self, x: int, y: int, w: int) -> LaurentPoly:
        """theta(x, y, w), decoded from ``thetas`` at the one w."""
        ((_, col),) = self.thetas(x, y, 1 << w)
        return _new(0, {(d,): c for d, c in _decode_q(col, 0)})

    def theta(self, x: Element, y: Element, w: Element) -> LaurentPoly:
        g = self.group
        for el in (x, y, w):
            g.check_same(el.group)
        return self.theta_idx(x.index, y.index, w.index)
