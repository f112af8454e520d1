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
R and P have no negative q-degree, so only the products of terms whose
degrees add up to at most that cut are formed, into one dict per (u, v).

The scan reads each theta as the int that ``ThetaTable.thetas`` adds up
from lifted q-columns, and tests "theta = q^k" on that int
(``polyring._is_q_power``): exact, since the theta table bounds every
coefficient below 2^(K - 1). No theta is built as a polynomial.
"""

from __future__ import annotations

from .coxeter import CoxeterGroup, Element, _bits
from .polyring import LaurentPoly, _is_q_power
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
            cut = (g.lengths[v] - g.lengths[u] - 1) // 2
            acc: dict = {}
            get = acc.get
            for z in _bits(g.interval_mask(u, v)):
                if z == u:
                    continue
                p_terms = self.p_idx(z, v).terms
                for (a,), r in self.rtable.classical_idx(u, z).terms.items():
                    if a > cut:
                        continue
                    for (b,), c in p_terms.items():
                        if a + b <= cut:
                            acc[a + b] = get(a + b, 0) + r * c
            val = LaurentPoly(0, {(d,): -c for d, c in acc.items()})
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


def _p_one_mask(kl: KLTable, z: int) -> int:
    """Bit mask of the w >= z with P(z, w) = 1."""
    one = LaurentPoly.one(0)
    mask = 0
    for w in _bits(kl.group.up_masks[z]):
        if kl.p_idx(z, w) == one:
            mask |= 1 << w
    return mask


def check_theta_power_conjecture(
    group: CoxeterGroup,
    theta_table: ThetaTable | None = None,
    rtable: RPolyTable | None = None,
) -> list:
    """Scan all (x, y, w) with x y^{-1} <= w and P(x y^{-1}, w) = 1 and
    collect the triples whose theta(x, y, w) is not a single power of q.
    P is read through rtable's classical R-polynomials when one is given,
    so a caller holding an R table does not build a second one.

    The w with P(z, w) = 1 are gathered once per z into one bit mask, so
    each P(z, w) is tested once, not once for every (x, y) with
    x y^{-1} = z; each (x, y) then asks the int theta at every w of the
    mask of its z in one ``ThetaTable.thetas`` call and tests each.

    Returns the violating triples as Elements, in (x, y, w) index order.
    """
    g = group
    theta = theta_table if theta_table is not None else ThetaTable(g)
    kl = KLTable(g, rtable=rtable)
    theta.group.check_same(g)
    p_one = [_p_one_mask(kl, z) for z in range(g.order)]
    violations = []
    for x in range(g.order):
        for y in range(g.order):
            for w, col in theta.thetas(x, y, p_one[g.mul_idx(x, g.inv_table[y])]):
                if not _is_q_power(col):
                    violations.append(
                        (Element(g, x), Element(g, y), Element(g, w))
                    )
    return violations
