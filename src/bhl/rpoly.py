"""
Deformed R-polynomials, their q -> q^-1 conjugates, the classical
Kazhdan-Lusztig R-polynomials, and the root sets S(u, v).

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

on packed integer exponents (``polyring._pack``) with q-columns
(``polyring._encode_q``): an entry is a frozenset of packed (0, beta) den
keys, a dict from packed x-keys (q-digit 0) to nonzero columns, and an L1
bound. A column holds the q-polynomial of one x-monomial, q^d in slot
d + len(w0); the degree bound below keeps every d in [-len(w0), 0]. x^beta
is ``key + pack(beta)``, q^-1 is ``col >> K`` and 1 - q^-1 is
``col - (col >> K)``; each shift first checks that slot 0 is empty, since
a q-degree below -len(w0) would leave the column, and raises
``RuntimeError`` if not. Multiplying by 1 - x^b subtracts a copy shifted by
b (``_times_binomial``). The two summands are brought to the union of
their dens, each multiplied by the factors it lacks; a step that would
repeat a factor raises ``RuntimeError``, so every den has distinct factors
and the union is a set union. This builds, term for term, the numerator
and den that ``RationalFn`` arithmetic builds for the same recursion.
Each read returns a column-backed value (``polyring._deferred_columns``)
over the stored dicts, with the entry's L1 bound and ``max_digit`` as its
span. The ``poles`` suite of ``verify`` reads the stored entries as they
are: it tests each den factor outside S(u, v) for exact division of the
columns (``polyring._divides_packed``), with no quotient and no decode.

Adding keys multiplies monomials only while every digit stays inside the
packed bound, so a table refuses (``ValueError``) a group whose fill could
reach it. Every monomial the fill forms has q-degree in [-len(w0), 0],
since each step lowers it by at most one, and x_j-degree in
[0, 2 * sum over positive roots alpha of alpha_j]: by induction on len(v),
the numerator of bar r(u, v) has x_j-degree at most the sum of the pivot
roots of the recursion below v plus the sum of its den factors, and each of
these is a set of distinct positive roots (``_max_packed_digit``). The
same holds for the x-keys sigma accumulates on. At every step of its
merge, a group is a sum of bars r(y, v) times xi, each multiplied by the
factors of the group's den D it lacks, D a subset of U; a key of a sum is
a key of one of its summands, and each summand has x_j-degree at most the
sum of the pivot roots below v plus the sum of D <= the sum of U, two sets
of distinct positive roots again. The q-degrees of sigma live inside its
columns, not its keys.

A column reads back only while every coefficient c has |c| < 2^(K - 1)
(``polyring._Q_BOUND``). The fill carries an L1 bound B(u, v) >= the sum of
the |c| of bar r(u, v): B = 1 at u = v, 0 where u is not <= v, and, for a
step that multiplies the head by the a factors of the tail's den that it
lacks and the tail by the b factors it lacks,

    B(u, v) = 2 * 2^a * B(u, sv) + 2^b * B(su, sv),

since 1 - q^-1 and each 1 - x^beta at most double the L1 norm and a shift
keeps it. The step raises ``ValueError`` when B reaches 2^(K - 1), before
any column is tested for zero, so every coset sum of the ``poles`` test
is exact; the sum of ``sigma`` carries the bound on (see there).

The recursion always pivots on the smallest-index left descent of v;
independence of the pivot is a tested property, not an assumption.

The classical R-polynomial is read off the same table. As every x^alpha
grows without bound, the prefactor (1 - q)/(1 - x^beta) of the first case
tends to 0 and (1 - q) x^beta/(1 - x^beta) of the second to q - 1, so r
tends coefficientwise to the R of the classical recursion

    R(u, v) = R(su, sv)                      if su < u,
    R(u, v) = (q - 1) R(u, sv) + q R(su, sv) if su > u.

Write bar r(u, v) = N / prod over beta in den of (1 - x^beta) and D for
the sum of den. The den equals (-1)^|den| x^D times the product of the
1 - x^-beta, each of which tends to 1, so N x^-D tends to
(-1)^|den| bar R(u, v). Take x_j = t^c_j with every c_j > 0, so that every
x^alpha grows as t does; N x^-D is a sum of a_m t^(c.m). For generic c the
c.m of distinct m differ, so a limit exists only if c.m <= 0 for every m
with a_m != 0; an m with some m_j > 0 fails that once c_j is large enough.
So every exponent of N x^-D is <= 0, and the limit is its constant term:
R(u, v) is (-1)^|den| times the column of N at the x-key D, with q
replaced by q^-1. It is read off on every call and not kept: its one
caller in the package, ``kl.KLTable``, keeps each R it reads as a column.

All tables are per-group memos, filled single-threaded and read-only after.
"""

from __future__ import annotations

from . import polyring
from .coxeter import CoxeterGroup, Element
from .polyring import (
    LaurentPoly,
    RationalFn,
    _decode_q,
    _deferred_columns,
    _new,
    _pack,
    _times_binomial,
)

__all__ = ["RPolyTable", "s_set", "s_set_idx"]

# shared entry of every u not <= v; no entry is mutated once stored
_ZERO = (frozenset(), {}, 0)


def _max_packed_digit(group: CoxeterGroup) -> int:
    """A bound on |d| for every digit d of every monomial the r fill of
    group forms: len(w0) for the q-degree, twice the largest coordinate sum
    of the positive roots for the x-degrees (see the module docstring). The
    coefficients have their own bound, the L1 bound B of the fill."""
    x_bound = max((sum(col) for col in zip(*group.positive_roots)), default=0)
    return max(max(group.lengths), 2 * x_bound)


class RPolyTable:
    """Memoized bar r(u, v) on packed x-keys and q-columns, and classical
    R(u, v) read off it, over one group. ``max_digit`` bounds every digit
    the fill forms; construction raises ``ValueError`` when it could reach
    the packed digit bound."""

    def __init__(self, group: CoxeterGroup):
        self.group = group
        self.max_digit = _max_packed_digit(group)
        if self.max_digit >= polyring._DIGIT_BOUND:
            raise ValueError(
                f"the r fill of {group.cartan_type} can reach degree "
                f"{self.max_digit}, outside the packed digit range "
                f"(|d| < {polyring._DIGIT_BOUND})"
            )
        # columns hold q^d in slot d - low, d in [low, 0]
        self.low = -max(group.lengths)
        self._q_bits = polyring._Q_BITS
        self._l1_limit = polyring._Q_BOUND
        self._one = (frozenset(), {0: 1 << (self._q_bits * -self.low)}, 1)
        self._bar_r: dict = {}
        self._pivots: dict = {}  # v -> (smallest left descent i, packed root)

    # -- deformed ------------------------------------------------------------

    def _pivot_root(self, v: int, i: int) -> int:
        """The positive root -v^{-1}(alpha_i), packed as (0, beta); requires
        s_i v < v."""
        g = self.group
        beta = tuple(-c for c in g.cols[g.inv_table[v]][i])
        assert all(c >= 0 for c in beta)
        return _pack((0,) + beta)

    def _below_low(self, u: int, v: int) -> RuntimeError:
        g = self.group
        return RuntimeError(
            f"r recursion would take a q-degree below {self.low}; this is a "
            f"bug (u={g.word_str(u)}, v={g.word_str(v)})"
        )

    def _step(self, u: int, v: int, i: int, beta: int) -> tuple:
        """One step of the conjugated recursion, pivoting on the left
        descent i of v with beta = ``_pivot_root(v, i)``; returns the entry
        of bar r(u, v). Every column shifted down one q-slot must have
        slot 0 empty."""
        g = self.group
        sv = g.lmult[v][i]
        su = g.lmult[u][i]
        den_a, num_a, l1_a = self.bar_r_packed_idx(u, sv)
        den_b, num_b, l1_b = self.bar_r_packed_idx(su, sv)
        bits = self._q_bits
        mask = (1 << bits) - 1
        x_shift = 0
        if g.lengths[su] > g.lengths[u]:  # the head gains x^beta, the tail q^-1
            x_shift = beta
            tail = {}
            for k, col in num_b.items():
                if col & mask:
                    raise self._below_low(u, v)
                tail[k] = col >> bits
            num_b = tail
        if not num_a:
            return den_b, num_b, l1_b
        if beta in den_a:
            raise RuntimeError(
                "r recursion would repeat a denominator factor; this is a bug "
                f"(u={g.word_str(u)}, v={g.word_str(v)})"
            )
        den_a = den_a | {beta}
        head = {}  # (1 - q^-1) x^shift * num_a
        for k, col in num_a.items():
            if col & mask:
                raise self._below_low(u, v)
            head[k + x_shift] = col - (col >> bits)
        head_lacks = den_b - den_a
        tail_lacks = den_a - den_b
        l1 = (l1_a << (len(head_lacks) + 1)) + (l1_b << len(tail_lacks))
        if l1 >= self._l1_limit:
            raise ValueError(
                f"bar r(u={g.word_str(u)}, v={g.word_str(v)}) of "
                f"{g.cartan_type} has L1 bound {l1}, past the "
                f"{self._q_bits}-bit q-slots (|c| < 2^{self._q_bits - 1})"
            )
        for b in head_lacks:
            head = _times_binomial(head, b)
        for b in tail_lacks:
            num_b = _times_binomial(num_b, b)
        get = head.get
        for k, c in num_b.items():
            head[k] = get(k, 0) + c
        num = {k: c for k, c in head.items() if c}
        if not num:
            return _ZERO
        return den_a | den_b, num, l1

    def bar_r_packed_idx(self, u: int, v: int) -> tuple:
        """bar r(u, v) as stored: (frozenset of packed (0, beta) den keys,
        dict packed x-key -> q-column from q^low, L1 bound of the
        numerator). Shared with the table: read only."""
        key = (u, v)
        val = self._bar_r.get(key)
        if val is None:
            g = self.group
            if u == v:
                val = self._one
            elif not g.leq_idx(u, v):
                val = _ZERO
            else:
                pivot = self._pivots.get(v)
                if pivot is None:
                    mask = g.left_desc_masks[v]
                    i = (mask & -mask).bit_length() - 1
                    pivot = self._pivots[v] = (i, self._pivot_root(v, i))
                val = self._step(u, v, *pivot)
            self._bar_r[key] = val
        return val

    def _rational(self, entry: tuple) -> RationalFn:
        """An entry as the column-backed RationalFn it stands for."""
        den, cols, l1 = entry
        return _deferred_columns(
            lambda: cols, den, self.low, self.group.rank + 1, l1, self.max_digit
        )

    def bar_r_idx(self, u: int, v: int) -> RationalFn:
        return self._rational(self.bar_r_packed_idx(u, v))

    def r_idx(self, u: int, v: int) -> RationalFn:
        return self.bar_r_idx(u, v).bar_q()

    def r(self, u: Element, v: Element) -> RationalFn:
        return self.r_idx(*self.group.indices(u, v))

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
        """R(u, v): (-1)^|den| times the column of bar r(u, v) at the x-key
        sum of den, with q replaced by q^-1 (see the module docstring)."""
        den, cols, _ = self.bar_r_packed_idx(u, v)
        sign = -1 if len(den) & 1 else 1
        return _new(0, {(-d,): sign * c for d, c in _decode_q(cols.get(sum(den), 0), self.low)})

    def classical_R(self, u: Element, v: Element) -> LaurentPoly:
        return self.classical_idx(*self.group.indices(u, v))


def s_set_idx(g: CoxeterGroup, u: int, v: int) -> frozenset:
    """Indices of positive roots alpha with u <= v r_alpha < v, read off
    the reflections below v (``CoxeterGroup.reflections_below``)."""
    down = g.down_masks
    return frozenset(a for a, vr in g.reflections_below(v) if down[vr] >> u & 1)


def s_set(u: Element, v: Element) -> frozenset:
    """S(u, v) as a set of positive-root indices."""
    g = u.group
    return s_set_idx(g, *g.indices(u, v))
