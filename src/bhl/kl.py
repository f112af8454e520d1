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

R and P have no negative q-degree, so both are kept as q-columns from q^0
(``polyring._encode_q``): R(u, z) encoded once from the r table's classical
R, P(u, v) built as one. Each R(u, z) P(z, v) is one int product, and the
products over z are added as ints. Slots 0..cut of that sum, cut the
degree bound, are its residue mod 2^(K (cut + 1)), read as balanced
digits: when the residue's top bit is set, the kept part is negative and
2^(K (cut + 1)) is subtracted. The slots above the cut are multiples of
that power, so they never reach the residue; the kept slots read back
exactly while each of their coefficients is below 2^(K - 1), which the
sum over z of L1(R(u, z)) L1(P(z, v)) bounds, and a sum whose bound
reaches 2^(K - 1) raises ``RuntimeError``. P(u, v) is minus the kept part,
stored with its L1 norm; ``p_idx`` decodes it on every read, and a test
"P = 1" is the int test ``column == 1``.

The scan reads each theta as the int that ``ThetaTable.theta_groups`` adds
up from lifted q-columns, and tests "theta = q^k" on that int
(``polyring._is_q_power``): exact, since the theta table bounds every
coefficient below 2^(K - 1). No theta is built as a polynomial. For one
(x, y) the w with P(x y^-1, w) = 1 split into those above the whole
support of T_x T_{y^-1}, whose theta is the stored total and is tested
once, and the rest, tested once per part of the support below them.
"""

from __future__ import annotations

from .coxeter import CoxeterGroup, Element, _bits
from .polyring import (
    _Q_BITS,
    _Q_BOUND,
    LaurentPoly,
    _decode_q,
    _encode_q,
    _is_q_power,
    _q_poly,
)
from .rpoly import RPolyTable
from .hecke import ThetaTable

__all__ = ["KLTable", "check_theta_power_conjecture"]


class KLTable:
    """Memoized P(u, v) on q-columns, read as ``LaurentPoly`` values, and
    Q(u, v), over one group."""

    def __init__(self, group: CoxeterGroup, rtable: RPolyTable | None = None):
        self.group = group
        self.rtable = rtable if rtable is not None else RPolyTable(group)
        self.rtable.group.check_same(group)
        self._p: dict = {}  # (u, v) -> (column from q^0, L1 norm) of P(u, v)
        self._r: dict = {}  # (u, z) -> (column from q^0, L1 norm) of R(u, z)

    def _r_column(self, u: int, z: int) -> tuple:
        """R(u, z) as (column from q^0, L1 norm), encoded once from the r
        table's classical R."""
        key = (u, z)
        val = self._r.get(key)
        if val is None:
            terms = [(e[0], c) for e, c in self.rtable.classical_idx(u, z).terms.items()]
            val = self._r[key] = (_encode_q(terms, 0), sum(abs(c) for _, c in terms))
        return val

    def _p_column(self, u: int, v: int) -> tuple:
        """P(u, v) as (column from q^0, L1 norm): minus the slots 0..cut of
        the sum over u < z <= v of R(u, z) P(z, v), one int product each
        (module docstring)."""
        key = (u, v)
        val = self._p.get(key)
        if val is not None:
            return val
        g = self.group
        if u == v:
            val = (1, 1)
        elif not g.leq_idx(u, v):
            val = (0, 0)
        else:
            acc = bound = 0
            for z in _bits(g.interval_mask(u, v)):
                if z != u:
                    r, r_l1 = self._r_column(u, z)
                    p, p_l1 = self._p_column(z, v)
                    acc += r * p
                    bound += r_l1 * p_l1
            if bound >= _Q_BOUND:
                raise RuntimeError(
                    f"P(u={g.word_str(u)}, v={g.word_str(v)}) of {g.cartan_type} "
                    f"has L1 bound {bound}, past the q-column slots"
                )
            width = _Q_BITS * ((g.lengths[v] - g.lengths[u] - 1) // 2 + 1)
            low = acc & ((1 << width) - 1)
            if low >> (width - 1):  # the top kept slot is negative
                low -= 1 << width
            val = (-low, sum(abs(c) for _, c in _decode_q(low, 0)))
        self._p[key] = val
        return val

    def p_idx(self, u: int, v: int) -> LaurentPoly:
        """P(u, v), decoded from its column on every read."""
        return _q_poly(self._p_column(u, v)[0], 0)

    def _q_is_one(self, u: int, v: int) -> bool:
        """Whether Q(u, v) = 1, on the column of P(w0 v, w0 u)."""
        g = self.group
        w0 = g.longest_idx
        return self._p_column(g.mul_idx(w0, v), g.mul_idx(w0, u))[0] == 1

    def q_idx(self, u: int, v: int) -> LaurentPoly:
        w0 = self.group.longest_idx
        return self.p_idx(
            self.group.mul_idx(w0, v), self.group.mul_idx(w0, u)
        )

    def kl_P(self, u: Element, v: Element) -> LaurentPoly:
        return self.p_idx(*self.group.indices(u, v))

    def kl_Q(self, u: Element, v: Element) -> LaurentPoly:
        return self.q_idx(*self.group.indices(u, v))


def _p_one_mask(kl: KLTable, z: int) -> int:
    """Bit mask of the w >= z with P(z, w) = 1: the column of P(z, w) is
    the int 1."""
    mask = 0
    for w in _bits(kl.group.up_masks[z]):
        if kl._p_column(z, w)[0] == 1:
            mask |= 1 << w
    return mask


def check_theta_power_conjecture(
    group: CoxeterGroup,
    theta_table: ThetaTable | None = None,
    kl: KLTable | None = None,
) -> list:
    """Scan all (x, y, w) with x y^{-1} <= w and P(x y^{-1}, w) = 1 and
    collect the triples whose theta(x, y, w) is not a single power of q.
    P is read from kl when one is given, so a caller holding a KL table
    (a ``SigmaEngine``'s, over its r table) builds no second one.

    The w with P(z, w) = 1 are gathered once per z into one bit mask, so
    each P(z, w) is tested once, not once for every (x, y) with
    x y^{-1} = z; each (x, y) then asks the int theta at the w of the mask
    of its z in one ``ThetaTable.theta_groups`` call, which gives one
    theta per group of w that share it, and tests each group once.

    Returns the violating triples as Elements, in (x, y, w) index order.
    """
    g = group
    theta = theta_table if theta_table is not None else ThetaTable(g)
    kl = kl if kl is not None else KLTable(g)
    theta.group.check_same(g)
    kl.group.check_same(g)
    p_one = [_p_one_mask(kl, z) for z in range(g.order)]
    violations = []
    for x in range(g.order):
        for y in range(g.order):
            bad = 0
            for ws, col in theta.theta_groups(x, y, p_one[g.mul_idx(x, g.inv_table[y])]):
                if not _is_q_power(col):
                    bad |= ws
            for w in _bits(bad):
                violations.append((Element(g, x), Element(g, y), Element(g, w)))
    return violations
