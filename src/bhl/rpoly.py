"""
Deformed R-polynomials, their q -> q^-1 conjugates, the classical
Kazhdan-Lusztig R-polynomials, and the root sets S(u, v) and S(u, v, w).

The deformed value r(u, v) is a rational function of the torus coordinates
with q-polynomial numerator. It is defined by r(u, u) = 1, r(u, v) = 0
unless u <= v, and for a simple reflection s with sv < v, writing beta for
the positive root -v^{-1}(alpha_s):

    r(u, v) = (1 - q)/(1 - x^beta) * r(u, sv) + r(su, sv)          if su < u,
    r(u, v) = (1 - q) x^beta/(1 - x^beta) * r(u, sv) + q r(su, sv) if su > u.

The table stores the conjugate bar r(u, v) (q replaced by q^-1), which is
what sigma reads, by the conjugated recursion

    bar r(u, v) = (1 - q^-1)/(1 - x^beta) * bar r(u, sv) + bar r(su, sv)
                                                                    if su < u,
    bar r(u, v) = (1 - q^-1) x^beta/(1 - x^beta) * bar r(u, sv)
                  + q^-1 bar r(su, sv)                              if su > u,

on packed integer exponents (``polyring._pack``): an entry is a frozenset of
packed (0, beta) den keys and a dict from packed monomial keys to nonzero
coefficients. x^beta is ``key + pack(beta)``, q^-1 is ``key - 1``, and
multiplying by 1 - x^b subtracts a copy shifted by b. The two summands are
brought to the union of their dens, each multiplied by the factors it lacks;
a step that would repeat a factor raises ``RuntimeError``, so every den has
distinct factors and the union is a set union. This builds, term for term,
the numerator and den that ``RationalFn`` arithmetic builds for the same
recursion; values are unpacked on each read.

Adding keys multiplies monomials only while every digit stays inside the
packed bound, so a table refuses (``ValueError``) a group whose fill could
reach it. Every key the fill forms has q-degree in [-len(w0), 0], since each
step lowers it by at most one, and x_j-degree in [0, 2 * sum over positive
roots alpha of alpha_j]: by induction on len(v), the numerator of bar r(u, v)
has x_j-degree at most the sum of the pivot roots of the recursion below v
plus the sum of its den factors, and each of these is a set of distinct
positive roots.

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

from . import polyring
from .coxeter import CoxeterGroup, Element
from .polyring import (
    LaurentPoly,
    RationalFn,
    _pack,
    _reduce_packed,
    _times_binomial,
    _unpack,
    _unpacked,
)

__all__ = ["RPolyTable", "s_set", "s_set3", "s_set_idx"]

_Q_MINUS_1 = LaurentPoly(0, {(1,): 1, (0,): -1})

# shared packed entries; no entry is mutated once stored
_ZERO = (frozenset(), {})
_ONE = (frozenset(), {0: 1})


def _max_packed_digit(group: CoxeterGroup) -> int:
    """A bound on |d| for every digit d of every key the r fill of group
    forms: len(w0) for the q-degree, twice the largest coordinate sum of
    the positive roots for the x-degrees (see the module docstring)."""
    x_bound = max((sum(col) for col in zip(*group.positive_roots)), default=0)
    return max(max(group.lengths), 2 * x_bound)


class RPolyTable:
    """Memoized bar r(u, v) on packed keys, and classical R(u, v), over one
    group. ``max_digit`` bounds every digit the fill forms; construction
    raises ``ValueError`` when it could reach the packed digit bound."""

    def __init__(self, group: CoxeterGroup):
        self.group = group
        self.max_digit = _max_packed_digit(group)
        if self.max_digit >= polyring._DIGIT_BOUND:
            raise ValueError(
                f"the r fill of {group.cartan_type} can reach degree "
                f"{self.max_digit}, outside the packed digit range "
                f"(|d| < {polyring._DIGIT_BOUND})"
            )
        self._bar_r: dict = {}
        self._classical: dict = {}

    # -- deformed ------------------------------------------------------------

    def _pivot_root(self, v: int, i: int) -> int:
        """The positive root -v^{-1}(alpha_i), packed as (0, beta); requires
        s_i v < v."""
        g = self.group
        beta = tuple(-c for c in g.cols[g.inv_table[v]][i])
        assert all(c >= 0 for c in beta)
        return _pack((0,) + beta)

    def _step(self, u: int, v: int, i: int) -> tuple:
        """One step of the conjugated recursion, pivoting on the left
        descent i of v; returns the packed entry of bar r(u, v)."""
        g = self.group
        sv = g.lmult[v][i]
        su = g.lmult[u][i]
        beta = self._pivot_root(v, i)
        den_a, num_a = self.bar_r_packed_idx(u, sv)
        den_b, num_b = self.bar_r_packed_idx(su, sv)
        x_shift = 0
        if g.lengths[su] > g.lengths[u]:  # the head gains x^beta, the tail q^-1
            x_shift = beta
            num_b = {k - 1: c for k, c in num_b.items()}
        if not num_a:
            return den_b, num_b
        if beta in den_a:
            raise RuntimeError(
                "r recursion would repeat a denominator factor; this is a bug "
                f"(u={g.word_str(u)}, v={g.word_str(v)})"
            )
        den_a = den_a | {beta}
        # (1 - q^-1) x^shift * num_a
        head = {k + x_shift: c for k, c in num_a.items()}
        head = _times_binomial(head, -1)
        for b in den_b - den_a:
            head = _times_binomial(head, b)
        for b in den_a - den_b:
            num_b = _times_binomial(num_b, b)
        get = head.get
        for k, c in num_b.items():
            head[k] = get(k, 0) + c
        num = {k: c for k, c in head.items() if c}
        if not num:
            return _ZERO
        return den_a | den_b, num

    def bar_r_packed_idx(self, u: int, v: int) -> tuple:
        """bar r(u, v) as stored: (frozenset of packed (0, beta) den keys,
        dict packed key -> coefficient). Shared with the table: read only."""
        key = (u, v)
        val = self._bar_r.get(key)
        if val is None:
            g = self.group
            if u == v:
                val = _ONE
            elif not g.leq_idx(u, v):
                val = _ZERO
            else:
                mask = g.left_desc_masks[v]
                val = self._step(u, v, (mask & -mask).bit_length() - 1)
            self._bar_r[key] = val
        return val

    def _rational(self, entry: tuple) -> RationalFn:
        """A packed entry as the RationalFn it stands for."""
        den, num = entry
        n = self.group.rank
        return RationalFn(_unpacked(n, num), [_unpack(b, n + 1)[1:] for b in den])

    def bar_r_idx(self, u: int, v: int) -> RationalFn:
        return self._rational(self.bar_r_packed_idx(u, v))

    def reduced_den_idx(self, u: int, v: int) -> tuple:
        """The den of ``bar_r_idx(u, v).reduced()``, reduced on the packed
        entry's own keys by ``polyring._reduce_packed`` with no unpack of
        the numerator. ``max_digit`` bounds every degree of the entry, so it
        stands in for the entry's spans in the carry check."""
        den, num = self.bar_r_packed_idx(u, v)
        n = self.group.rank
        den = tuple(sorted(_unpack(b, n + 1)[1:] for b in den))
        return _reduce_packed(num, den, n, (self.max_digit,) * (n + 1))[1]

    def r_idx(self, u: int, v: int) -> RationalFn:
        return self.bar_r_idx(u, v).bar_q()

    def r(self, u: Element, v: Element) -> RationalFn:
        g = self.group
        g.check_same(u.group)
        g.check_same(v.group)
        return self.r_idx(u.index, v.index)

    def prefill(self) -> None:
        """Fill every pair; call before sharing across workers."""
        for v in range(self.group.order):
            for u in range(self.group.order):
                self.bar_r_packed_idx(u, v)

    def entries(self):
        """The filled pairs as ((u, v), r(u, v)), unpacked."""
        for key, entry in self._bar_r.items():
            yield key, self._rational(entry).bar_q()

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
