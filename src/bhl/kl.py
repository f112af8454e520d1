"""
Classical Kazhdan-Lusztig polynomials P(u, v), the inverse polynomials
Q(u, v) = P(w0 v, w0 u), and the scan for pairing polynomials theta(x, y, w)
that fail to be a plain power of q where P forces them to be one.

P is pinned down by triangularity and the bar identity

    q^(len(v) - len(u)) * bar(P(u, v)) = sum over u <= z <= v of
                                         R(u, z) * P(z, v)

together with the degree bound deg P(u, v) <= (len(v) - len(u) - 1)/2 for
u < v. Solving by downward induction on u for fixed v: the sum over z > u is
known, and the degree bound splits the identity so that P(u, v) is minus the
low-degree part of that sum. R is the classical R-polynomial from rpoly.
"""

from __future__ import annotations

from .coxeter import CoxeterGroup, Element, _bits
from .polyring import LaurentPoly
from .rpoly import RPolyTable
from .hecke import ThetaTable

__all__ = ["KLTable", "check_theta_power_conjecture"]


class KLTable:
    """Memoized P(u, v) and Q(u, v) over one group."""

    def __init__(self, group: CoxeterGroup, rtable: RPolyTable | None = None):
        self.group = group
        self.rtable = rtable if rtable is not None else RPolyTable(group)
        self.rtable.group.check_same(group)
        self._p: dict = {}

    def p_idx(self, u: int, v: int) -> LaurentPoly:
        key = (u, v)
        val = self._p.get(key)
        if val is not None:
            return val
        g = self.group
        if u == v:
            val = LaurentPoly.one(0)
        elif not g.leq_idx(u, v):
            val = LaurentPoly.zero(0)
        else:
            gap = g.lengths[v] - g.lengths[u]
            acc = LaurentPoly.zero(0)
            for z in _bits(g.interval_mask(u, v)):
                if z == u:
                    continue
                acc = acc + self.rtable.classical_idx(u, z) * self.p_idx(z, v)
            cut = (gap - 1) // 2
            val = LaurentPoly(
                0, {e: -c for e, c in acc.terms.items() if e[0] <= cut}
            )
        self._p[key] = val
        return val

    def q_idx(self, u: int, v: int) -> LaurentPoly:
        w0 = self.group.longest_idx
        return self.p_idx(
            self.group.mul_idx(w0, v), self.group.mul_idx(w0, u)
        )

    def kl_P(self, u: Element, v: Element) -> LaurentPoly:
        g = self.group
        g.check_same(u.group)
        g.check_same(v.group)
        return self.p_idx(u.index, v.index)

    def kl_Q(self, u: Element, v: Element) -> LaurentPoly:
        g = self.group
        g.check_same(u.group)
        g.check_same(v.group)
        return self.q_idx(u.index, v.index)


def check_theta_power_conjecture(
    group: CoxeterGroup, theta_table: ThetaTable | None = None
) -> list:
    """Scan all (x, y, w) with x y^{-1} <= w and P(x y^{-1}, w) = 1 and
    collect the triples whose theta(x, y, w) is not a single power of q.

    Returns the violating triples as Elements, in (x, y, w) index order.
    """
    g = group
    theta = theta_table if theta_table is not None else ThetaTable(g)
    kl = KLTable(g)
    theta.group.check_same(g)
    one = LaurentPoly.one(0)
    violations = []
    for x in range(g.order):
        for y in range(g.order):
            z = g.mul_idx(x, g.inv_table[y])
            for w in _bits(g.up_masks[z]):
                if kl.p_idx(z, w) == one:
                    val = theta.theta_idx(x, y, w)
                    if not val.is_q_monomial():
                        violations.append(
                            (Element(g, x), Element(g, y), Element(g, w))
                        )
    return violations
