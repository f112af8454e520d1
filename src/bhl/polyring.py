"""
Exact sparse arithmetic in Z[q, q^-1, x_1, x_1^-1, ..., x_r, x_r^-1], plus
rational functions whose denominators are products of binomials 1 - x^beta.

Representation conventions:

- An exponent vector is a tuple ``(q_deg, x1_deg, ..., xr_deg)`` of ints; the
  number ``r`` of x-variables is the *arity* and is fixed per polynomial.
  Arity 0 means a Laurent polynomial in q alone (keys are 1-tuples).
- A ``LaurentPoly`` stores a dict from exponent tuples to nonzero integer
  coefficients. The zero polynomial has an empty dict. Coefficients are
  arbitrary-precision ints, so all arithmetic is exact.
- A ``RationalFn`` is a ``LaurentPoly`` numerator over a multiset of x-degree
  vectors, each standing for one factor ``1 - x^beta``. In applications beta
  ranges over positive roots written in simple-root coordinates, so beta is a
  nonzero vector of nonnegative ints. Only ``reduced()`` cancels factors
  that divide the numerator; printing goes through it.
- ``_pack`` and ``_unpack`` turn an exponent tuple into one int of signed
  base-2^20 digits (q-degree lowest) and back, so that multiplying
  monomials is one int addition; ``_times_binomial`` multiplies a packed
  numerator by one factor 1 - x^beta. ``LaurentPoly`` keys are always
  tuples.
- A q-column packs the q-polynomial that multiplies one x-monomial into
  one int: ``_encode_q`` substitutes q -> 2^K (Kronecker substitution,
  K = ``_Q_BITS``) after shifting the lowest allowed q-degree to slot 0,
  and ``_decode_q`` reads the slots back as balanced signed K-bit digits.
  The substitution is a ring homomorphism Z[q] -> Z, so sums, products
  with other columns and shifts by whole slots (``col >> K`` is q^-1 when
  slot 0 is empty) are exact on the ints. Only reading a column back needs
  a bound: every coefficient c must have |c| < 2^(K - 1), and then a
  column is 0 exactly when its polynomial is. The callers guarantee it by
  an L1 bound (the sum of |c|, which bounds every coefficient and every
  partial sum), carried along and checked against ``_Q_BOUND`` at run
  time; ``rpoly`` states the bound of the r fill, ``sigma`` that of
  sigma and ``hecke`` that of theta. Under such a bound "the column is a
  single q^k" is an int test, ``_is_q_power``. The bar r table of
  ``rpoly`` stores each numerator as a dict from packed x-keys (q-digit 0)
  to columns, and sigma accumulates on them, reading that table as it is.
  ``_times_binomial`` and ``_divide_packed`` run unchanged on such a dict:
  they only add, subtract and zero-test coefficients, which columns do
  exactly.
- ``_deferred_columns`` constructs a *column-backed* ``RationalFn``: it
  keeps the packed form (``_Packed``: x-keys -> columns from q^low, the
  set of packed (0, beta) den keys, the digit count n of a key, an L1
  bound below 2^(K - 1), ``span``, a bound on every |x-digit| of the keys
  and den keys, and optionally a point value) and decodes ``num`` and
  ``den`` on their first read, caching them. Its columns are built by a
  zero-argument function it keeps, on the first read of ``_Packed.cols``;
  a caller that has them already passes ``lambda: cols``. The den keys,
  low, n, L1 bound, span and point value are there at once. Reads that
  build the columns: ``num`` and ``den``, ``is_zero`` unless the value is
  nonzero at its point, ``==`` unless both sides carry different values at
  one point, the build of a product made from it (sigma's GK right-hand
  side) and the divisibility test of the ``poles`` suite. ``arity`` and a
  settled ``==`` or ``is_zero`` build nothing.
- A point value is (a point, the value there mod p); ``sigma`` owns the
  point and states why a value there is a ring homomorphism's image.
  Values at one point, compared by identity, that differ prove two values
  different (``__eq__`` returns False), and a nonzero one proves a value
  nonzero; equal ones prove nothing, and the comparison goes on as
  below.
- ``RationalFn.__eq__`` cross-multiplies. When both sides are
  column-backed it does so on the columns (``_columns_equal``): each side
  is multiplied by the den factors it lacks, one ``_times_binomial`` step
  each, the side with the higher low is shifted up by whole slots, and the
  nonzero columns are compared. This needs
  L1(a) 2^|den_b - den_a| + L1(b) 2^|den_a - den_b| < 2^(K - 1), which
  bounds every coefficient of the difference of the two sides, so the
  difference is 0 exactly when its columns are; and it needs
  span_a + |den_b - den_a| span_b < 2^19 and its mirror, so that every
  key of either side keeps its digits inside the packed bound and stands
  for one monomial. Both are checked on every call. Otherwise, and
  whenever a side is not column-backed, both sides are decoded and each
  numerator is multiplied by ``binomial(...)`` of every factor it lacks,
  with the ring's own ``*``, which is exact at any size; ``__add__``
  brings both sides to one den the same way.
- Exact division by 1 - x^beta runs on packed keys, in
  ``_divide_packed``, and has one route: ``reduced()`` and
  ``binomial_divide`` (one factor) both go through ``_reduce``. Its first
  phase, the coset sums of ``_cosets``, is also the divisibility test
  ``_divides_packed`` that the ``poles`` suite of ``verify`` runs on stored
  columns (``_packed_of`` packs a value that has none), building no
  quotient.
  A term's coset of Z*beta is pinned by one digit, the top nonzero digit
  of beta, read with a shift and a mask. Division therefore needs every
  degree of the numerator and of beta inside (-2^19, 2^19); one outside
  raises ``ValueError`` naming its exponent. It also needs each coset
  representative inside that bound: with j the last coordinate of beta's
  support and m_i the largest |x_i-degree| of the numerator, every i < j
  must have m_i + ceil(m_j / beta_j) * beta_i < 2^19, or ``ValueError`` is
  raised. Either way a wrong quotient is never returned.

Canonical string form sorts monomials by ``(x_degrees, q_degree)`` ascending,
and denominator factors by their degree vectors, e.g.::

    >>> r = RationalFn(LaurentPoly(1, {(0, 0): 1, (-1, 1): -1}), ((1,),))
    >>> str(r)
    '(1 - q^-1*x1) / (1 - x1)'

All values are immutable after construction and safe to share across
threads: a column-backed value's first decode, or a deferred value's first
build, writes only the cache of the value it decodes or builds, and two
threads that race on it write equal values.
"""

from __future__ import annotations

from collections import Counter
from math import prod
from operator import add
from typing import Iterable, Optional

__all__ = [
    "LaurentPoly",
    "RationalFn",
    "binomial",
    "binomial_divide",
]


def _normalized(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c}


_DIGIT_BITS = 20
_DIGIT_BOUND = 1 << (_DIGIT_BITS - 1)  # every digit d has |d| < 2^19
_DIGIT_MASK = (1 << _DIGIT_BITS) - 1


def _pack(e: tuple) -> int:
    """The exponent tuple e as one int, sum of e[i] * 2^(20 i): signed base
    2^20 digits with the q-degree lowest. Adding keys multiplies monomials,
    as long as every digit of the sum stays inside the bound."""
    key = 0
    for d in reversed(e):
        if not -_DIGIT_BOUND < d < _DIGIT_BOUND:
            raise ValueError(f"exponent {e} has a degree outside (-2^19, 2^19)")
        key = (key << _DIGIT_BITS) + d
    return key


def _unpack(key: int, n: int) -> tuple:
    """The n-digit exponent tuple packed into key, by balanced digit
    extraction (the inverse of ``_pack``)."""
    out = []
    for _ in range(n):
        d = ((key + _DIGIT_BOUND) & _DIGIT_MASK) - _DIGIT_BOUND
        out.append(d)
        key = (key - d) >> _DIGIT_BITS
    return tuple(out)


# The format of q-columns (module docstring). K is a constant: the L1 bounds
# that rpoly and sigma check at run time stay far below 2^(K - 1) on every
# group measured (the largest, 44 bits, is the reduction of D4's bar r).
_Q_BITS = 64  # K, the width of one q-slot of a column
_Q_BOUND = 1 << (_Q_BITS - 1)  # every slot c must have |c| < 2^(K - 1)
_Q_MASK = (1 << _Q_BITS) - 1


def _encode_q(coeffs: Iterable, low: int) -> int:
    """The q-polynomial sum c q^d over the (d, c) of coeffs as one column,
    sum c * 2^(K (d - low)); every d must be >= low and every |c| below
    2^(K - 1), or ValueError is raised."""
    col = 0
    for d, c in coeffs:
        if d < low or not -_Q_BOUND < c < _Q_BOUND:
            raise ValueError(
                f"q^{d} with coefficient {c} does not fit a column from q^{low} "
                f"with {_Q_BITS}-bit slots"
            )
        col += c << (_Q_BITS * (d - low))
    return col


def _decode_q(col: int, low: int) -> list:
    """The (d, c) with c != 0 of the column col, lowest d first (the inverse
    of ``_encode_q``). The empty slots below the lowest occupied one are
    skipped at once, since the lowest set bit of col lies in that slot; the
    rest are read as balanced digits one slot at a time."""
    out = []
    if col:
        skip = ((col & -col).bit_length() - 1) // _Q_BITS
        col >>= _Q_BITS * skip
        low += skip
    while col:
        c = col & _Q_MASK
        if c >= _Q_BOUND:
            c -= _Q_MASK + 1
        if c:
            out.append((low, c))
            col -= c
        col >>= _Q_BITS
        low += 1
    return out


def _is_q_power(col: int) -> bool:
    """True when the column col holds a single q^k with coefficient 1: col
    is a power of 2 whose exponent is a whole number of slots. Exact while
    every coefficient is below 2^(K - 1) in magnitude."""
    return col > 0 and not col & (col - 1) and (col.bit_length() - 1) % _Q_BITS == 0


def _times_binomial(num: dict, b: int) -> dict:
    """num * (1 - X^b) on packed keys, X^b the monomial packed as b; may
    leave zero coefficients. The coefficients may be ints or q-columns."""
    out = num.copy()
    get = out.get
    for k, c in num.items():
        k += b
        out[k] = get(k, 0) - c
    return out


class LaurentPoly:
    """A sparse integer Laurent polynomial in q and x_1..x_r."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms: Optional[dict] = None):
        self.arity = arity
        terms = _normalized(terms) if terms else {}
        for e in terms:
            if len(e) != arity + 1:
                raise ValueError(f"exponent {e} has wrong length for arity {arity}")
        self.terms = terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "LaurentPoly":
        return cls(arity)

    @classmethod
    def one(cls, arity: int) -> "LaurentPoly":
        return cls(arity, {(0,) * (arity + 1): 1})

    @classmethod
    def q_power(cls, arity: int, k: int) -> "LaurentPoly":
        return cls(arity, {(k,) + (0,) * arity: 1})

    @classmethod
    def monomial(cls, q_deg: int, x_degs: Iterable[int]) -> "LaurentPoly":
        x_degs = tuple(x_degs)
        return cls(len(x_degs), {(q_deg,) + x_degs: 1})

    # -- ring operations ---------------------------------------------------

    def _check(self, other: "LaurentPoly") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            nc = t.get(e, 0) + c
            if nc:
                t[e] = nc
            else:
                t.pop(e, None)
        return _new(self.arity, t)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check(other)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        t: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                nc = t.get(e, 0) + c1 * c2
                if nc:
                    t[e] = nc
                else:
                    del t[e]
        return _new(self.arity, t)

    def shift_q(self, k: int) -> "LaurentPoly":
        """Multiply by q^k."""
        return _new(self.arity, {(e[0] + k,) + e[1:]: c for e, c in self.terms.items()})

    def bar_q(self) -> "LaurentPoly":
        """Replace q by q^-1 (negate every q-degree; x-degrees untouched)."""
        return _new(self.arity, {(-e[0],) + e[1:]: c for e, c in self.terms.items()})

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.arity == other.arity
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.terms.items())))

    def embed(self, arity: int) -> "LaurentPoly":
        """Reinterpret in a larger ring by padding x-degrees with zeros."""
        if arity < self.arity:
            raise ValueError("cannot embed into smaller arity")
        if arity == self.arity:
            return self
        pad = (0,) * (arity - self.arity)
        return LaurentPoly(arity, {e + pad: c for e, c in self.terms.items()})

    def is_q_only(self) -> bool:
        return all(not any(e[1:]) for e in self.terms)

    def q_only(self) -> "LaurentPoly":
        """Project onto arity 0; raises if any x-variable actually occurs."""
        if not self.is_q_only():
            raise ValueError(f"polynomial depends on x-variables: {self}")
        return LaurentPoly(0, {(e[0],): c for e, c in self.terms.items()})

    def q_min_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return min(e[0] for e in self.terms)

    def q_max_degree(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no degree")
        return max(e[0] for e in self.terms)

    def coefficients(self) -> Iterable[int]:
        return self.terms.values()

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for e in sorted(self.terms, key=lambda e: (e[1:], e[0])):
            c = self.terms[e]
            mono = _monomial_str(e)
            mag = abs(c)
            if mono and mag == 1:
                body = mono
            elif mono:
                body = f"{mag}*{mono}"
            else:
                body = str(mag)
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(pieces)

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _new(arity: int, terms: dict) -> LaurentPoly:
    """A LaurentPoly owning terms as given: no copy, no zero or length
    check, for callers whose terms are already normalized."""
    out = LaurentPoly.__new__(LaurentPoly)
    out.arity = arity
    out.terms = terms
    return out


def _q_poly(col: int, low: int) -> LaurentPoly:
    """The q-polynomial of the column col from q^low, decoded."""
    return _new(0, {(d,): c for d, c in _decode_q(col, low)})


def _monomial_str(e: tuple) -> str:
    parts = []
    if e[0]:
        parts.append("q" if e[0] == 1 else f"q^{e[0]}")
    for i, d in enumerate(e[1:], start=1):
        if d:
            parts.append(f"x{i}" if d == 1 else f"x{i}^{d}")
    return "*".join(parts)


def binomial(arity: int, beta: tuple) -> LaurentPoly:
    """The factor 1 - x^beta for an x-degree vector beta."""
    if len(beta) != arity:
        raise ValueError("beta has wrong length")
    one = (0,) * (arity + 1)
    return LaurentPoly(arity, {one: 1, (0,) + tuple(beta): -1})


def _spans(p: LaurentPoly) -> tuple:
    """The largest |degree| of p's terms in each coordinate, q first; empty
    for p = 0."""
    return tuple(max(map(abs, col)) for col in zip(*p.terms))


def _packed_factor(beta: tuple, arity: int, spans: tuple) -> int:
    """
    The factor 1 - x^beta as the packed key of x^beta, after checking that
    beta is a nonzero vector of nonnegative x-degrees of this arity, and
    that ``_divide_packed`` can divide by it a numerator whose largest
    |degree| per coordinate is spans.

    That kernel subtracts t*beta from a key with |t| up to
    ceil(spans_j / beta_j), j the last coordinate of beta's support, so the
    coset representative has |x_i-degree| up to spans_i + that*beta_i for
    i < j. Past the digit bound that digit would carry into the next one and
    two cosets could share a key, so such a numerator raises instead.
    """
    beta = tuple(beta)
    if len(beta) != arity:
        raise ValueError("beta has wrong length")
    if sum(beta) <= 0 or any(b < 0 for b in beta):
        raise ValueError("beta must be a nonzero nonnegative vector")
    b = _pack((0,) + beta)
    if spans:
        j = max(i for i, d in enumerate(beta) if d)
        turns = -(-spans[j + 1] // beta[j])
        for i in range(j):
            if spans[i + 1] + turns * beta[i] >= _DIGIT_BOUND:
                raise ValueError(
                    f"cannot divide by 1 - x^{beta}: x{i + 1}-degrees up to "
                    f"{spans[i + 1]} and x{j + 1}-degrees up to {spans[j + 1]} "
                    "put a coset representative outside (-2^19, 2^19)"
                )
    return b


def _cosets(num: dict, b: int) -> dict:
    """
    The terms of num grouped into cosets of the shift lattice Z*b, b the
    packed key of a nonzero nonnegative x-degree vector beta: rep -> the
    (t, c) of each term c X^(rep + t*b).

    One digit pins the coset: with j the top nonzero digit of b (found from
    b's bit length, as no digit of b is negative), a key with digit d
    there has t = floor(d / beta_j) and representative k - t*b, whose
    digit j lies in [0, beta_j). Digit j is read by one shift and mask after
    adding 2^19 to every digit up to j, which makes them all nonnegative.
    Every representative must keep its digits inside the bound, or it
    would carry into the next digit and two cosets could share a key;
    ``_packed_factor`` checks that for num.
    """
    j = (b.bit_length() - 1) // _DIGIT_BITS
    shift = _DIGIT_BITS * j
    step = b >> shift
    offset = _DIGIT_BOUND * sum(1 << (_DIGIT_BITS * i) for i in range(j + 1))
    classes: dict = {}
    for k, c in num.items():
        t = ((((k + offset) >> shift) & _DIGIT_MASK) - _DIGIT_BOUND) // step
        rep = k - t * b
        items = classes.get(rep)
        if items is None:
            classes[rep] = [(t, c)]
        else:
            items.append((t, c))
    return classes


def _sums_vanish(classes: dict) -> bool:
    """Whether every coset of ``_cosets`` sums to zero: on q-columns, exact
    while the L1 norm of the numerator is below 2^(K - 1)."""
    for items in classes.values():
        total = 0
        for _, c in items:
            total += c
        if total:
            return False
    return True


def _divides_packed(num: dict, b: int) -> bool:
    """Whether 1 - X^b divides num exactly, b as for ``_divide_packed``:
    its first phase, which builds no quotient."""
    return _sums_vanish(_cosets(num, b))


def _divide_packed(num: dict, b: int) -> Optional[dict]:
    """
    Exact quotient num / (1 - X^b) on packed keys, or None when the division
    leaves a remainder; b packs a nonzero nonnegative x-degree vector beta.

    Group the terms into cosets of the shift lattice Z*b (``_cosets``):
    divisibility by 1 - X^b means exactly that every coset sums to zero
    (set X^b = 1), and on a coset with coefficients c_t at X^(rep + t*b)
    the quotient has the running prefix sums as coefficients, because
    multiplying sum_t g_t X^(rep + t*b) by 1 - X^b yields first differences.
    Every coset sum is tested before any quotient term is made, and a prefix
    sum is written only where it is nonzero, so the work is linear in the
    terms of num and of the quotient however far apart those terms lie.
    Keys of the quotient lie between terms of their coset, digit by digit,
    so their digits stay inside the bound as well.
    """
    classes = _cosets(num, b)
    if not _sums_vanish(classes):
        return None
    quot: dict = {}
    for rep, items in classes.items():
        items.sort()
        running = 0
        for (t, c), (t_next, _) in zip(items, items[1:]):
            running += c
            if running:
                for s in range(t, t_next):
                    quot[rep + s * b] = running
    return quot


def binomial_divide(p: LaurentPoly, beta: tuple) -> Optional[LaurentPoly]:
    """
    Exact quotient p / (1 - x^beta), or None when the division leaves a
    remainder: ``_reduce`` with the one factor beta. beta must be a nonzero
    vector of nonnegative x-degrees, and every degree of p and beta must lie
    in (-2^19, 2^19); so must the coset representatives, as
    ``_packed_factor`` states, or ValueError is raised.
    """
    num, kept = _reduce(p, (tuple(beta),))
    return None if kept else num


class RationalFn:
    """
    num / prod of (1 - x^beta) factors, as built: only ``reduced()`` cancels.

    ``den`` is a sorted tuple of x-degree vectors with multiplicity. Equality
    is decided by cross-multiplying numerators against the other side's
    denominator factors, never by comparing shapes, unless both sides
    carry different values at one point. A value built by
    ``_deferred_columns`` is column-backed: it keeps
    its packed form and decodes ``num`` and ``den`` on their first read
    (module docstring).
    """

    __slots__ = ("_num", "_den", "_packed")

    def __init__(self, num: LaurentPoly, den: Iterable[tuple] = (), reduce: bool = False):
        den = tuple(sorted(tuple(b) for b in den))
        for b in den:
            if len(b) != num.arity:
                raise ValueError("denominator factor has wrong arity")
        if num.is_zero():
            den = ()
        elif reduce and den:
            num, den = _reduce(num, den)
        self._num = num
        self._den = den
        self._packed = None

    @classmethod
    def zero(cls, arity: int) -> "RationalFn":
        return cls(LaurentPoly.zero(arity))

    @classmethod
    def one(cls, arity: int) -> "RationalFn":
        return cls(LaurentPoly.one(arity))

    @property
    def num(self) -> LaurentPoly:
        if self._num is None:
            self._decode()
        return self._num

    @property
    def den(self) -> tuple:
        if self._num is None:
            self._decode()
        return self._den

    def _decode(self) -> None:
        """Decode the packed form once."""
        p = self._packed
        n = p.n
        num = {
            _unpack(key + d, n): c
            for key, col in p.cols.items()
            for d, c in _decode_q(col, p.low)
        }
        self._den = tuple(sorted(_unpack(b, n)[1:] for b in p.den)) if num else ()
        self._num = _new(n - 1, num)

    @property
    def arity(self) -> int:
        if self._num is None:
            return self._packed.n - 1
        return self._num.arity

    def is_zero(self) -> bool:
        if self._num is None:
            packed = self._packed
            if packed.point is not None and packed.point[1]:
                return False  # nonzero at a point, so nonzero
            return not any(packed.cols.values())
        return self._num.is_zero()

    def _check(self, other: "RationalFn") -> None:
        if self.arity != other.arity:
            raise ValueError(f"arity mismatch: {self.arity} vs {other.arity}")

    def __add__(self, other: "RationalFn") -> "RationalFn":
        self._check(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        ca, cb = Counter(self.den), Counter(other.den)
        common = ca | cb  # multiset union: max multiplicity per factor
        arity = self.arity
        na = prod((binomial(arity, b) for b in (common - ca).elements()), start=self.num)
        nb = prod((binomial(arity, b) for b in (common - cb).elements()), start=other.num)
        return RationalFn(na + nb, tuple(common.elements()))

    def bar_q(self) -> "RationalFn":
        """Replace q by q^-1 in the numerator; the factors carry no q."""
        return RationalFn(self.num.bar_q(), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        self._check(other)
        a, b = self._packed, other._packed
        if a is not None and b is not None:
            pa, pb = a.point, b.point
            if pa is not None and pb is not None and pa[0] is pb[0] and pa[1] != pb[1]:
                return False  # different values at one point
            same = _columns_equal(a, b)
            if same is not None:
                return same
        ca, cb = Counter(self.den), Counter(other.den)
        shared = ca & cb
        arity = self.arity
        left = prod((binomial(arity, b) for b in (cb - shared).elements()), start=self.num)
        right = prod((binomial(arity, b) for b in (ca - shared).elements()), start=other.num)
        return left == right

    def reduced(self) -> "RationalFn":
        """The same value with every factor that divides ``num`` cancelled."""
        return RationalFn(self.num, self.den, reduce=True)

    def __str__(self) -> str:
        r = self.reduced()
        num_s = str(r.num)
        if not r.den:
            return num_s
        factors = "*".join(f"({binomial(self.arity, b)})" for b in r.den)
        return f"({num_s}) / {factors}"

    def __repr__(self) -> str:
        return f"RationalFn({self})"


def _reduce_packed(terms: dict, den: tuple, arity: int, spans: tuple) -> tuple:
    """(quotient, kept factors): the packed numerator terms with every
    factor of den that divides it exactly cancelled, each tried in turn by
    ``_divide_packed``. One pass suffices: a factor that does not divide the
    numerator cannot divide a quotient of it either, since the numerator is
    a multiple of that quotient. spans must bound the numerator's largest
    |degree| per coordinate; they bound every quotient's too, whose keys lie
    between terms of the numerator, so they serve every check of
    ``_packed_factor``."""
    kept = []
    for beta in den:
        quot = _divide_packed(terms, _packed_factor(beta, arity, spans))
        if quot is None:
            kept.append(beta)
        else:
            terms = quot
    return terms, tuple(kept)


def _reduce(num: LaurentPoly, den: tuple) -> tuple:
    """Cancel every denominator factor that divides the numerator exactly,
    on packed keys: the numerator is packed once, reduced by
    ``_reduce_packed`` with its own spans and unpacked once."""
    packed = {_pack(e): c for e, c in num.terms.items()}
    terms, kept = _reduce_packed(packed, den, num.arity, _spans(num))
    if len(kept) == len(den):  # nothing cancelled: skip the unpack
        return num, den
    n = num.arity + 1
    return _new(num.arity, {_unpack(k, n): c for k, c in terms.items()}), kept


class _Packed:
    """The packed form of a column-backed RationalFn: packed x-keys
    (q-digit 0) -> q-columns from q^low, the frozenset of packed (0, beta)
    den keys, n, the number of digits of a key (the arity plus one), an L1
    bound of the numerator below 2^(K - 1), span, a bound on |d| for every
    x-digit of every key and den key, and point, None or (a point, the
    value there). The columns are what the zero-argument ``build`` returns
    on the first read of ``cols``; every other field is there from the
    start."""

    __slots__ = ("_cols", "_build", "den", "low", "n", "l1", "span", "point")

    def __init__(self, build, den, low, n, l1, span, point):
        self._cols = None
        self._build = build
        self.den = den
        self.low = low
        self.n = n
        self.l1 = l1
        self.span = span
        self.point = point

    @property
    def cols(self) -> dict:
        cols = self._cols
        if cols is None:  # two threads may both build: equal dicts
            cols = self._cols = self._build()
        return cols


def _deferred_columns(
    build, den: Iterable[int], low: int, n: int, l1: int, span: int,
    point: Optional[tuple] = None,
) -> RationalFn:
    """The column-backed RationalFn of a numerator stored as packed x-keys
    (q-digit 0) of n digits with q-columns from q^low, over the distinct
    packed (0, beta) keys of den, carrying point: the columns are what the
    zero-argument build returns on their first read. l1 must bound the L1
    norm of the numerator below 2^(K - 1), and span every |x-digit| of its
    keys and of den. The columns are kept as built and never written to."""
    if l1 >= _Q_BOUND:
        raise ValueError(f"L1 bound {l1} is past the {_Q_BITS}-bit q-slots")
    out = RationalFn.__new__(RationalFn)
    out._num = out._den = None
    out._packed = _Packed(build, frozenset(den), low, n, l1, span, point)
    return out


def _packed_of(val: RationalFn) -> _Packed:
    """The packed form of val: its own when val is column-backed, else its
    numerator packed once into x-keys -> q-columns from its lowest q-degree,
    over the packed keys of its den, with its L1 norm and its largest
    |x-degree| as span. A den that repeats a factor raises ``ValueError``,
    since a packed den is a set; so does an L1 norm of 2^(K - 1) or more."""
    packed = val._packed
    if packed is not None:
        return packed
    num, den = val.num, val.den
    if len(set(den)) < len(den):
        raise ValueError(f"den {den} repeats a factor; a packed den holds distinct ones")
    low = min((e[0] for e in num.terms), default=0)
    cols: dict = {}
    for e, c in num.terms.items():
        key = _pack((0,) + e[1:])
        cols[key] = cols.get(key, 0) + (c << _Q_BITS * (e[0] - low))
    degrees = [abs(d) for e in num.terms for d in e[1:]] + [d for b in den for d in b]
    span = max(degrees, default=0)
    l1 = sum(abs(c) for c in num.terms.values())
    keys = [_pack((0,) + b) for b in den]
    return _deferred_columns(lambda: cols, keys, low, num.arity + 1, l1, span)._packed


def _nonzero_shifted(cols: dict, shift: int) -> dict:
    """The nonzero columns of cols, each moved up by shift bits."""
    return {key: col << shift for key, col in cols.items() if col}


def _columns_equal(a: _Packed, b: _Packed) -> Optional[bool]:
    """Whether two column-backed values are equal, by cross-multiplying on
    the columns, or None when the bounds of the column path do not hold
    (module docstring): each side is multiplied by the den factors it
    lacks, one ``_times_binomial`` step each, the lower low is taken by
    shifting the other side up by whole slots, and the nonzero columns are
    compared."""
    a_lacks = b.den - a.den
    b_lacks = a.den - b.den
    if (a.l1 << len(a_lacks)) + (b.l1 << len(b_lacks)) >= _Q_BOUND:
        return None
    if max(a.span + len(a_lacks) * b.span, b.span + len(b_lacks) * a.span) >= _DIGIT_BOUND:
        return None
    left, right = a.cols, b.cols
    for beta in a_lacks:
        left = _times_binomial(left, beta)
    for beta in b_lacks:
        right = _times_binomial(right, beta)
    return _nonzero_shifted(left, _Q_BITS * max(a.low - b.low, 0)) == _nonzero_shifted(
        right, _Q_BITS * max(b.low - a.low, 0)
    )
