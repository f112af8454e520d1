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

ThetaTable stores each product T_x T_{y^{-1}} = sum of c_t T_t lifted: as
the dict t -> L_t = q^len(t) c_t, each L_t one q-column from q^0 (see
``polyring``). A generator step is int work. On an up step (ts > t),
T_t T_s = T_{ts} and q^len(ts) c_t = q L_t, so L_t << K goes to ts. On a
down step, T_t T_s = (q - 1) T_t + q T_{ts}: t gets (L_t << K) - L_t plus
any term moved up into it, and ts gets q^len(ts) q c_t = L_t itself.
The table is filled before any parallel enumeration and then shared
read-only. Canonical words satisfy words[y] = (i,) + words[s_i y], so the
table builds T_x T_{y^{-1}} from its entry for s_i y with one step: the
steps, in order, of walking the whole reversed word of y.

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
Both are relabellings of the support only, and both keep lengths,
len(t^{-1}) = len(c(t)) = len(t): a lifted entry is relabelled with its
ints unchanged.

``product(x, y)`` is a read-only view of the stored entry, a mapping
t -> c_t whose values are decoded (``polyring._q_poly`` from q^-len(t))
only when read. The walk, the relabels and the columns never read it.

theta(x, y, w) sums L_t over the t in supp(T_x T_{y^{-1}}) with t <= w: the
int sum of the stored entry at the bits of down(w); a sum of theta over
many x (the xi of ``sigma``) is one int sum too. The column of y, built on
the first query of that y, holds for every x the support mask of
T_x T_{y^{-1}}, the stored entry and the sum of its values, which is theta
for every w above the whole support. No theta is memoized. Every read goes
through the column (``_sum_at``): ``theta_sum`` adds theta over many x at
one w (xi), ``theta_groups`` gives theta of one (x, y) at many w (the
power-of-q scan), the w of one call that cover the same part of the
support sharing one pass; ``theta_idx`` is the ``theta_sum`` of one x,
decoded.

A down step at most triples the L1 norm of a product ((q - 1) c_t and q c_t
from c_t), and an up step or a relabel keeps it, so T_x T_{y^{-1}} has L1
norm at most 3^len(y), and a sum of theta over any set of x at most
|W| 3^len(y). The table stores no entry of a y with |W| 3^len(y) >=
2^(K - 1): asking for one raises RuntimeError, before the column of y is
built. So every stored coefficient and every such sum decodes exactly, and
"theta is a power of q" is an int test (``polyring._is_q_power``).

reach(y, w), memoized per (y, w), is the mask of the x whose support meets
down(w); theta(x, y, w) is an empty sum, exactly 0, for every x outside it,
so a sum of theta over x need only ask the x in it.
"""

from __future__ import annotations

from collections.abc import Mapping

from .coxeter import CoxeterGroup, Element, _bits
from .polyring import _Q_BITS, _Q_BOUND, LaurentPoly, _q_poly

__all__ = ["ThetaTable"]


def _rmul_gen(g: CoxeterGroup, lifted: dict, i: int) -> dict:
    """A lifted product (t -> q^len(t) c_t as a q-column from q^0) times
    T_{s_i} on the right, lifted: the up and down steps of the module
    docstring. A term moved down keeps its int."""
    out: dict = {}
    rmult, lengths = g.rmult, g.lengths
    for t, col in lifted.items():
        ts = rmult[t][i]
        if lengths[ts] > lengths[t]:  # T_t T_s = T_ts
            t, col = ts, col << _Q_BITS
        else:  # T_t T_s = (q - 1) T_t + q T_ts
            out[ts] = col
            col = (col << _Q_BITS) - col
        prev = out.get(t)
        if prev is not None:  # the other term of the coset's upper t
            col += prev
            if not col:
                del out[t]
                continue
        out[t] = col
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


def _sum_at(prod: dict, part: int) -> int:
    """The sum of the lifted terms of a product at the t in the bit mask
    part."""
    col = 0
    for t, term in prod.items():
        if part >> t & 1:
            col += term
    return col


def _relabel(prod: dict, labels: list) -> dict:
    """The product with each basis index t replaced by labels[t]; the
    lifted terms are shared, not copied."""
    return {labels[t]: c for t, c in prod.items()}


class _Product(Mapping):
    """T_x T_{y^{-1}} as t -> c_t, a read-only view of a lifted entry:
    each c_t is decoded from q^-len(t) when it is read."""

    __slots__ = ("_lifted", "_lengths")

    def __init__(self, lifted: dict, lengths: list):
        self._lifted = lifted
        self._lengths = lengths

    def __getitem__(self, t: int) -> LaurentPoly:
        col = self._lifted[t]
        return _q_poly(col, -self._lengths[t])

    def __iter__(self):
        return iter(self._lifted)

    def __len__(self) -> int:
        return len(self._lifted)


class ThetaTable:
    """Memoized lifted T_x T_{y^{-1}} products (module docstring) and the
    theta sums read off them.

    An entry not yet memoized is the relabelled entry of (y, x) under
    t -> t^{-1} if that is held, else that of (w0 x w0, w0 y w0) under
    t -> w0 t w0 if that is. Else it is walked: the entry for (x, s_i y),
    i = words[y][0], times T_{s_i}. An x-major fill walks 3 843 of the
    14 400 entries of A4 and 1 176 of the 2 304 of B3. An entry of a y with
    |W| 3^len(y) >= 2^(K - 1) raises RuntimeError, so its column is not
    built. reach(y, w) is memoized per (y, w): at most |W|^2 ints."""

    def __init__(self, group: CoxeterGroup):
        self.group = group
        self._inv = group.inv_table
        self._conj = _longest_conjugation(group)  # None when the identity
        # the largest len(y) with |W| 3^len(y) < 2^(K - 1)
        self._max_len = -1
        while group.order * 3 ** (self._max_len + 1) < _Q_BOUND:
            self._max_len += 1
        self._products: dict = {}  # (x, y) -> t -> q^len(t) c_t, a q-column
        # y -> (support masks, entries, totals), lists over x
        self._columns: dict = {}
        self._reach: dict = {}  # (y, w) -> mask of the x whose support meets down(w)

    def product(self, x: int, y: int) -> Mapping:
        """T_x T_{y^{-1}} as a read-only mapping t -> c_t, each coefficient
        decoded from the stored entry when it is read."""
        return _Product(self._lifted(x, y), self.group.lengths)

    def _lifted(self, x: int, y: int) -> dict:
        """The stored entry of T_x T_{y^{-1}}, t -> q^len(t) c_t as a
        q-column from q^0; memoized, read only."""
        products = self._products
        prod = products.get((x, y))
        if prod is not None:
            return prod
        g = self.group
        if g.lengths[y] > self._max_len:
            raise RuntimeError(
                f"T_x T_y^-1 at y={g.word_str(y)} may have L1 norm "
                f"3^{g.lengths[y]}: {g.order} of them overflow the q-column slots"
            )
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
        # loop, not recursion, so a cold entry of (x, w0) stays shallow
        words, lmult = g.words, g.lmult
        pending = []
        while prod is None:
            if y == g.identity_idx:
                prod = products[(x, y)] = {x: 1 << _Q_BITS * g.lengths[x]}
                break
            i = words[y][0]
            pending.append((y, i))
            y = lmult[y][i]
            prod = products.get((x, y))
        for y, i in reversed(pending):
            prod = products[(x, y)] = _rmul_gen(g, prod, i)
        return prod

    def _column(self, y: int) -> tuple:
        """(support masks, entries, totals) of y, each a list indexed by x:
        the support of T_x T_{y^{-1}} as a bit mask, its stored entry and
        the sum of the entry's lifted terms; built once per y."""
        column = self._columns.get(y)
        if column is None:
            prods = [self._lifted(x, y) for x in range(self.group.order)]
            supports = []
            for prod in prods:
                supp = 0
                for t in prod:
                    supp |= 1 << t
                supports.append(supp)
            totals = [sum(prod.values()) for prod in prods]
            column = self._columns[y] = (supports, prods, totals)
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
        supports, prods, totals = self._columns.get(y) or self._column(y)
        down = self.group.down_masks[w]
        col = 0
        while xs:  # the bits x of xs, lowest first, as _bits yields them
            low = xs & -xs
            xs ^= low
            x = low.bit_length() - 1
            supp = supports[x]
            part = supp & down
            col += totals[x] if part == supp else _sum_at(prods[x], part)
        return col

    def theta_groups(self, x: int, y: int, ws: int) -> list:
        """[(a bit mask of w, theta(x, y, w) as a q-column from q^0 for
        every w of the mask)], the masks splitting ws. theta reads w only
        through the part of the support of T_x T_{y^{-1}} below it: the w
        above the whole support (ws AND the up masks over it) share the
        stored total, and the others share one sum per part. Nothing is
        kept after the call."""
        supports, prods, totals = self._columns.get(y) or self._column(y)
        supp, prod = supports[x], prods[x]
        up = self.group.up_masks
        above = ws
        for t in prod:
            above &= up[t]
        out = []
        if above:
            out.append((above, totals[x]))
        parts: dict = {}  # part of the support -> mask of its w
        down_masks = self.group.down_masks
        for w in _bits(ws & ~above):
            part = supp & down_masks[w]
            parts[part] = parts.get(part, 0) | 1 << w
        out.extend((mask, _sum_at(prod, part)) for part, mask in parts.items())
        return out

    def theta_idx(self, x: int, y: int, w: int) -> LaurentPoly:
        """theta(x, y, w): the ``theta_sum`` of x alone, decoded."""
        return _q_poly(self.theta_sum(1 << x, y, w), 0)

    def theta(self, x: Element, y: Element, w: Element) -> LaurentPoly:
        return self.theta_idx(*self.group.indices(x, y, w))
