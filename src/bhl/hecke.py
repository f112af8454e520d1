"""
The Iwahori-Hecke algebra over Z[q, q^-1] in its T-basis, the linear
functionals lambda_w, and the pairing polynomial theta(x, y, w).

T-basis relations, for s a simple reflection:

    T_y T_s = T_{ys}                  if ys > y,
    T_y T_s = (q - 1) T_y + q T_{ys}  if ys < y.

Products of basis elements are computed by right-multiplying one generator
at a time along a reduced word of the right factor; no inverse basis is
needed. lambda_w sends T_y to q^len(y) when y <= w in Bruhat order and to 0
otherwise, and theta(x, y, w) = lambda_w(T_x T_{y^{-1}}) is a polynomial in
q that vanishes exactly when x y^{-1} is not <= w.

ThetaTable memoizes the basis products and the theta values; the tables are
meant to be filled before any parallel enumeration and then shared read-only.
Canonical words satisfy words[y] = (i,) + words[s_i y], so the table builds
T_x T_{y^{-1}} from its entry for s_i y with one generator step: the same
steps, in the same order, as walking the whole reversed word of y. A step
keeps every coefficient it does not change, and coefficients are immutable,
so an entry shares most of its polynomials with the shorter one it extends.

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
t <= w, so it reads w only through the bit mask down(w) & supp(x, y): two w
with the same mask give the same theta, exactly, whatever else lies below
them. The theta memo is keyed by (x, y, that mask), so it holds one entry
per distinct mask of each (x, y), not one per (x, y, w).

The support masks are kept as one column per y, the mask of
supp(T_x T_{y^{-1}}) for every x. reach(y, w), memoized per (y, w), is the
mask of the x whose support meets down(w); theta(x, y, w) is an empty sum,
exactly 0, for every x outside it, so a sum of theta over x need only ask
the x in it. With xi summed over reach, classifying all 24 w of A3
memoizes 2 060 theta (2 612 when every x was asked, 13 824 with one key
per triple), and one round of the benchmark's verify-b3 workload 12 546
(14 787).
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import CoxeterGroup, Element
from .polyring import LaurentPoly, _new

__all__ = ["HeckeElem", "t_basis", "t_mul", "lambda_w", "theta", "ThetaTable"]


@dataclass(frozen=True)
class HeckeElem:
    """A sparse Hecke algebra element: element index -> q-Laurent coefficient."""

    group: CoxeterGroup
    coeffs: dict

    def coeff(self, w: Element) -> LaurentPoly:
        self.group.check_same(w.group)
        return self.coeffs.get(w.index, LaurentPoly.zero(0))


def t_basis(w: Element) -> HeckeElem:
    """The basis element T_w."""
    return HeckeElem(w.group, {w.index: LaurentPoly.one(0)})


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


def _rmul_word(g: CoxeterGroup, coeffs: dict, letters) -> dict:
    for i in letters:
        coeffs = _rmul_gen(g, coeffs, i)
    return coeffs


def t_mul(a: HeckeElem, b: HeckeElem) -> HeckeElem:
    """Exact product in the T-basis."""
    a.group.check_same(b.group)
    g = a.group
    total: dict = {}
    for t, c in b.coeffs.items():
        part = _rmul_word(g, a.coeffs, g.words[t])
        for s, v in part.items():
            add = v * c
            cur = total.get(s)
            cur = add if cur is None else cur + add
            if cur.is_zero():
                total.pop(s, None)
            else:
                total[s] = cur
    return HeckeElem(g, total)


def lambda_w(w: Element, a: HeckeElem) -> LaurentPoly:
    """Apply the functional sending T_y to q^len(y) for y <= w, else 0."""
    w.group.check_same(a.group)
    return _theta_from_product(w.group, a.coeffs, w.index)


def theta(x: Element, y: Element, w: Element) -> LaurentPoly:
    """lambda_w(T_x T_{y^{-1}}), a polynomial in q."""
    g = x.group
    g.check_same(y.group)
    g.check_same(w.group)
    prod = _product_coeffs(g, x.index, y.index)
    return _theta_from_product(g, prod, w.index)


def _product_coeffs(g: CoxeterGroup, x: int, y: int) -> dict:
    """Coefficients of T_x T_{y^{-1}}; the reversed word of y is reduced
    for y^{-1}."""
    start = {x: LaurentPoly.one(0)}
    return _rmul_word(g, start, reversed(g.words[y]))


def _theta_from_product(g: CoxeterGroup, prod: dict, w: int) -> LaurentPoly:
    mask = g.down_masks[w]
    terms: dict = {}
    for t, c in prod.items():
        if mask >> t & 1:
            shift = g.lengths[t]
            for e, v in c.terms.items():
                k = (e[0] + shift,)
                nv = terms.get(k, 0) + v
                if nv:
                    terms[k] = nv
                else:
                    del terms[k]
    return LaurentPoly(0, terms)


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


def _relabel(prod: dict, labels: list) -> dict:
    """The product with each basis index t replaced by labels[t]; the
    coefficients are shared, not copied."""
    return {labels[t]: c for t, c in prod.items()}


class ThetaTable:
    """Memoized T_x T_{y^{-1}} products and theta values over one group.

    A product not yet memoized is the relabelled entry of (y, x) under
    t -> t^{-1} if that is memoized, else the relabelled entry of
    (w0 x w0, w0 y w0) under t -> w0 t w0 if that is (see the module
    docstring for why both are exact). Only when neither is held is it
    walked: the product for (x, y) with y != e is the product for
    (x, s_i y), i = words[y][0], times T_{s_i}, so each walked entry costs
    one generator step and shares the coefficients that step leaves alone
    with its shorter neighbour. In an x-major fill of A4 only 3 843 of the
    14 400 products are walked, in B3 1 176 of 2 304.

    theta(x, y, w) is memoized under (x, y, down_masks[w] & supp), supp the
    bit mask of the product's support. The supports are built one column
    per y, for every x at once, on the first theta or reach query of that
    y. theta reads exactly the product's terms at the bits of that mask, so
    the key loses nothing, and the memo is bounded by the number of
    distinct masks per (x, y) rather than by |W|^3. reach(y, w) is the mask
    of the x whose supp meets down_masks[w], memoized per (y, w): at most
    |W|^2 ints. theta is 0 for every x outside it."""

    def __init__(self, group: CoxeterGroup):
        self.group = group
        self._inv = group.inv_table
        self._conj = _longest_conjugation(group)  # None when the identity
        self._products: dict = {}
        self._supports: dict = {}  # y -> [support mask of (x, y) for every x]
        self._reach: dict = {}  # (y, w) -> mask of the x whose support meets down(w)
        self._theta: dict = {}  # (x, y, down mask & support) -> theta

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

    def _support_column(self, y: int) -> list:
        """[support mask of T_x T_{y^{-1}} for every x], built once per y."""
        col = self._supports.get(y)
        if col is None:
            col = []
            for x in range(self.group.order):
                supp = 0
                for t in self.product(x, y):
                    supp |= 1 << t
                col.append(supp)
            self._supports[y] = col
        return col

    def reach(self, y: int, w: int) -> int:
        """Bit mask of the x whose T_x T_{y^{-1}} has a term at some t <= w;
        theta(x, y, w) is an empty sum, exactly 0, for every other x."""
        key = (y, w)
        mask = self._reach.get(key)
        if mask is None:
            down = self.group.down_masks[w]
            mask = 0
            for x, supp in enumerate(self._support_column(y)):
                if supp & down:
                    mask |= 1 << x
            self._reach[key] = mask
        return mask

    def theta_idx(self, x: int, y: int, w: int) -> LaurentPoly:
        key = (x, y, self.group.down_masks[w] & self._support_column(y)[x])
        val = self._theta.get(key)
        if val is None:
            val = _theta_from_product(self.group, self.product(x, y), w)
            self._theta[key] = val
        return val

    def theta(self, x: Element, y: Element, w: Element) -> LaurentPoly:
        g = self.group
        for el in (x, y, w):
            g.check_same(el.group)
        return self.theta_idx(x.index, y.index, w.index)
