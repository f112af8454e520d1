"""
Deformed R-polynomials, their q -> q^-1 conjugates, the classical
Kazhdan-Lusztig R-polynomials, and the root sets S(u, v) and S(u, v, w).

The deformed value r(u, v) is a rational function of the torus coordinates
with q-polynomial numerator. It is defined by r(u, u) = 1, r(u, v) = 0
unless u <= v, and for a simple reflection s with sv < v, writing beta for
the positive root -v^{-1}(alpha_s):

    r(u, v) = (1 - q)/(1 - x^beta) * r(u, sv) + r(su, sv)          if su < u,
    r(u, v) = (1 - q) x^beta/(1 - x^beta) * r(u, sv) + q r(su, sv) if su > u.

The recursion always pivots on the smallest-index left descent of v;
independence of the pivot is a tested property, not an assumption. The
classical R-polynomial is the coefficientwise limit of the same recursion as
every x^alpha grows without bound (the first case keeps only r(su, sv), the
second replaces the rational prefactor by q - 1), giving the usual

    R(u, v) = R(su, sv)                      if su < u,
    R(u, v) = (q - 1) R(u, sv) + q R(su, sv) if su > u.

All tables are per-group memos, filled single-threaded and read-only after.
"""

from __future__ import annotations

from .coxeter import CoxeterGroup, Element
from .polyring import LaurentPoly, RationalFn

__all__ = ["RPolyTable", "s_set", "s_set3", "s_set_idx"]

_Q_MINUS_1 = LaurentPoly(0, {(1,): 1, (0,): -1})


class RPolyTable:
    """Memoized unreduced r(u, v) and classical R(u, v) over one group."""

    def __init__(self, group: CoxeterGroup):
        self.group = group
        r = group.rank
        self._r: dict = {}
        self._classical: dict = {}
        self._one = RationalFn.one(r)
        self._zero = RationalFn.zero(r)
        self._one_minus_q = LaurentPoly(r, {
            (0,) * (r + 1): 1,
            (1,) + (0,) * r: -1,
        })

    # -- deformed ------------------------------------------------------------

    def _pivot_root(self, v: int, i: int) -> tuple:
        """The positive root -v^{-1}(alpha_i); requires s_i v < v."""
        g = self.group
        beta = tuple(-c for c in g.cols[g.inv_table[v]][i])
        assert all(c >= 0 for c in beta)
        return beta

    def _step(self, u: int, v: int, i: int) -> RationalFn:
        """One recursion step pivoting on the left descent i of v."""
        g = self.group
        sv = g.lmult[v][i]
        su = g.lmult[u][i]
        beta = self._pivot_root(v, i)
        if g.lengths[su] < g.lengths[u]:
            head = RationalFn(self._one_minus_q, (beta,))
            return head * self.r_idx(u, sv) + self.r_idx(su, sv)
        x_beta = LaurentPoly.monomial(0, beta)
        head = RationalFn(self._one_minus_q * x_beta, (beta,))
        q = LaurentPoly.q_power(g.rank, 1)
        return head * self.r_idx(u, sv) + self.r_idx(su, sv).mul_poly(q)

    def r_idx(self, u: int, v: int) -> RationalFn:
        key = (u, v)
        val = self._r.get(key)
        if val is not None:
            return val
        g = self.group
        if u == v:
            val = self._one
        elif not g.leq_idx(u, v):
            val = self._zero
        else:
            mask = g.left_desc_masks[v]
            i = (mask & -mask).bit_length() - 1
            val = self._step(u, v, i)
        self._r[key] = val
        return val

    def r(self, u: Element, v: Element) -> RationalFn:
        g = self.group
        g.check_same(u.group)
        g.check_same(v.group)
        return self.r_idx(u.index, v.index)

    def bar_r_idx(self, u: int, v: int) -> RationalFn:
        return self.r_idx(u, v).bar_q()

    def prefill(self) -> None:
        """Fill every pair; call before sharing across workers."""
        for v in range(self.group.order):
            for u in range(self.group.order):
                self.r_idx(u, v)

    def entries(self):
        """The filled (u, v) -> r(u, v) map."""
        return self._r.items()

    # -- classical -----------------------------------------------------------

    def classical_idx(self, u: int, v: int) -> LaurentPoly:
        key = (u, v)
        val = self._classical.get(key)
        if val is not None:
            return val
        g = self.group
        if u == v:
            val = LaurentPoly.one(0)
        elif not g.leq_idx(u, v):
            val = LaurentPoly.zero(0)
        else:
            mask = g.left_desc_masks[v]
            i = (mask & -mask).bit_length() - 1
            sv = g.lmult[v][i]
            su = g.lmult[u][i]
            if g.lengths[su] < g.lengths[u]:
                val = self.classical_idx(su, sv)
            else:
                val = _Q_MINUS_1 * self.classical_idx(u, sv) + self.classical_idx(
                    su, sv
                ).shift_q(1)
        self._classical[key] = val
        return val

    def classical_R(self, u: Element, v: Element) -> LaurentPoly:
        g = self.group
        g.check_same(u.group)
        g.check_same(v.group)
        return self.classical_idx(u.index, v.index)


def s_set_idx(g: CoxeterGroup, u: int, v: int) -> frozenset:
    """Indices of positive roots alpha with u <= v r_alpha < v."""
    lv = g.lengths[v]
    out = []
    for a, refl in enumerate(g.reflection_of_root):
        vr = g.mul_idx(v, refl)
        if g.lengths[vr] < lv and g.leq_idx(u, vr):
            out.append(a)
    return frozenset(out)


def s_set(u: Element, v: Element) -> frozenset:
    """S(u, v) as a set of positive-root indices."""
    g = u.group
    g.check_same(v.group)
    return s_set_idx(g, u.index, v.index)


def s_set3(u: Element, v: Element, w: Element) -> frozenset:
    """S(u, v, w) = S(U_{w^{-1}} down-arrow u, v)."""
    from .demazure import v_min_idx

    g = u.group
    g.check_same(v.group)
    g.check_same(w.group)
    return s_set_idx(g, v_min_idx(g, u.index, w.index), v.index)
