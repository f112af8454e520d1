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
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import CoxeterGroup, Element
from .polyring import LaurentPoly

__all__ = ["HeckeElem", "t_basis", "t_mul", "lambda_w", "theta", "ThetaTable"]

_Q_MINUS_1 = LaurentPoly(0, {(1,): 1, (0,): -1})


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


def _rmul_gen(g: CoxeterGroup, coeffs: dict, i: int) -> dict:
    """Multiply a coefficient dict by T_{s_i} on the right."""
    out: dict = {}

    def bump(t: int, c: LaurentPoly) -> None:
        s = out.get(t)
        s = c if s is None else s + c
        if s.is_zero():
            out.pop(t, None)
        else:
            out[t] = s

    for t, c in coeffs.items():
        ts = g.rmult[t][i]
        if g.lengths[ts] > g.lengths[t]:
            bump(ts, c)
        else:
            bump(t, c * _Q_MINUS_1)
            bump(ts, c.shift_q(1))
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
    g = w.group
    mask = g.down_masks[w.index]
    out = LaurentPoly.zero(0)
    for t, c in a.coeffs.items():
        if mask >> t & 1:
            out = out + c.shift_q(g.lengths[t])
    return out


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


class ThetaTable:
    """Memoized T_x T_{y^{-1}} products and theta values over one group."""

    def __init__(self, group: CoxeterGroup):
        self.group = group
        self._products: dict = {}
        self._theta: dict = {}

    def product(self, x: int, y: int) -> dict:
        key = (x, y)
        prod = self._products.get(key)
        if prod is None:
            prod = _product_coeffs(self.group, x, y)
            self._products[key] = prod
        return prod

    def theta_idx(self, x: int, y: int, w: int) -> LaurentPoly:
        key = (x, y, w)
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
