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
  that divide the numerator; printing and evaluation go through it.
- ``_pack`` and ``_unpack`` turn an exponent tuple into one int of signed
  base-2^20 digits (q-degree lowest) and back, so that multiplying
  monomials is one int addition. Only sigma's accumulation uses them;
  ``LaurentPoly`` keys are always tuples.

Canonical string form sorts monomials by ``(x_degrees, q_degree)`` ascending,
and denominator factors by their degree vectors, e.g.::

    >>> r = RationalFn(LaurentPoly(1, {(0, 0): 1, (-1, 1): -1}), ((1,),))
    >>> str(r)
    '(1 - q^-1*x1) / (1 - x1)'

All values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
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
                e = tuple(i + j for i, j in zip(e1, e2))
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

    def is_q_monomial(self) -> bool:
        """True when the value is exactly q^k for some k."""
        if len(self.terms) != 1:
            return False
        ((e, c),) = self.terms.items()
        return c == 1 and not any(e[1:])

    def coefficients(self) -> Iterable[int]:
        return self.terms.values()

    def evaluate(self, q, xs: tuple = ()) -> Fraction:
        """Exact evaluation; q and xs may be Fractions or ints."""
        if len(xs) != self.arity:
            raise ValueError("wrong number of x-values")
        total = Fraction(0)
        for e, c in self.terms.items():
            v = Fraction(c) * Fraction(q) ** e[0]
            for xi, d in zip(xs, e[1:]):
                v *= Fraction(xi) ** d
            total += v
        return total

    def subs_q(self, q) -> "LaurentPoly":
        """Substitute a numeric value for q, leaving the x-variables."""
        t: dict = {}
        for e, c in self.terms.items():
            k = (0,) + e[1:]
            nc = t.get(k, 0) + c * q ** e[0]
            if nc:
                t[k] = nc
            else:
                t.pop(k, None)
        return LaurentPoly(self.arity, t)

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


def binomial_divide(p: LaurentPoly, beta: tuple) -> Optional[LaurentPoly]:
    """
    Exact quotient p / (1 - x^beta), or None when the division leaves a
    remainder. beta must be a nonzero vector of nonnegative x-degrees.

    Group the terms of p into cosets of the shift lattice Z*beta: divisibility
    by 1 - x^beta means exactly that every coset sums to zero (set x^beta = 1),
    and on a coset with coefficients c_t at x^(rep + t*beta) the quotient has
    the running prefix sums as coefficients, because multiplying
    sum_t g_t x^(rep + t*beta) by 1 - x^beta yields first differences.
    """
    beta = tuple(beta)
    if len(beta) != p.arity:
        raise ValueError("beta has wrong length")
    if sum(beta) <= 0 or any(b < 0 for b in beta):
        raise ValueError("beta must be a nonzero nonnegative vector")
    if not p.terms:
        return LaurentPoly.zero(p.arity)
    support = [j for j, b in enumerate(beta) if b > 0]
    classes: dict = {}
    for e, c in p.terms.items():
        t = min(e[j + 1] // beta[j] for j in support)
        rep = (e[0],) + tuple(e[j + 1] - t * beta[j] for j in range(p.arity))
        classes.setdefault(rep, []).append((t, c))
    quot: dict = {}
    for rep, items in classes.items():
        items.sort()
        pos = 0
        running = 0
        t_last = items[-1][0]
        for t in range(items[0][0], t_last):
            if pos < len(items) and items[pos][0] == t:
                running += items[pos][1]
                pos += 1
            if running:
                e = (rep[0],) + tuple(
                    rep[j + 1] + t * beta[j] for j in range(p.arity)
                )
                quot[e] = running
        if running + items[-1][1]:
            return None
    return LaurentPoly(p.arity, quot)


class RationalFn:
    """
    num / prod of (1 - x^beta) factors, as built: only ``reduced()`` cancels.

    ``den`` is a sorted tuple of x-degree vectors with multiplicity. Equality
    is decided by cross-multiplying numerators against the other side's
    denominator factors, never by comparing shapes.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: Iterable[tuple] = (), reduce: bool = False):
        den = tuple(sorted(tuple(b) for b in den))
        for b in den:
            if len(b) != num.arity:
                raise ValueError("denominator factor has wrong arity")
        if num.is_zero():
            den = ()
        elif reduce and den:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den

    @classmethod
    def zero(cls, arity: int) -> "RationalFn":
        return cls(LaurentPoly.zero(arity))

    @classmethod
    def one(cls, arity: int) -> "RationalFn":
        return cls(LaurentPoly.one(arity))

    @property
    def arity(self) -> int:
        return self.num.arity

    def is_zero(self) -> bool:
        return self.num.is_zero()

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
        na = _scale_by_factors(self.num, common - ca)
        nb = _scale_by_factors(other.num, common - cb)
        return RationalFn(na + nb, tuple(common.elements()))

    def __mul__(self, other: "RationalFn") -> "RationalFn":
        self._check(other)
        if self.is_zero() or other.is_zero():
            return RationalFn.zero(self.arity)
        return RationalFn(self.num * other.num, self.den + other.den)

    def mul_poly(self, p: LaurentPoly) -> "RationalFn":
        if p.is_zero():
            return RationalFn.zero(self.arity)
        return RationalFn(self.num * p, self.den)

    def bar_q(self) -> "RationalFn":
        """Replace q by q^-1 in the numerator; the factors carry no q."""
        return RationalFn(self.num.bar_q(), self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalFn):
            return NotImplemented
        self._check(other)
        ca, cb = Counter(self.den), Counter(other.den)
        shared = ca & cb
        left = _scale_by_factors(self.num, cb - shared)
        right = _scale_by_factors(other.num, ca - shared)
        return left == right

    def __hash__(self):
        raise TypeError("RationalFn is unhashable; compare with ==")

    def reduced(self) -> "RationalFn":
        """The same value with every factor that divides ``num`` cancelled."""
        return RationalFn(self.num, self.den, reduce=True)

    def evaluate(self, q, xs: tuple = ()) -> Fraction:
        r = self.reduced()
        val = r.num.evaluate(q, xs)
        for b in r.den:
            d = Fraction(1)
            for xi, deg in zip(xs, b):
                d *= Fraction(xi) ** deg
            val /= 1 - d
        return val

    def __str__(self) -> str:
        r = self.reduced()
        num_s = str(r.num)
        if not r.den:
            return num_s
        factors = "*".join(f"({binomial(self.arity, b)})" for b in r.den)
        return f"({num_s}) / {factors}"

    def __repr__(self) -> str:
        return f"RationalFn({self})"


def _scale_by_factors(num: LaurentPoly, factors: Counter) -> LaurentPoly:
    for b, mult in factors.items():
        f = binomial(num.arity, b)
        for _ in range(mult):
            num = num * f
    return num


def _reduce(num: LaurentPoly, den: tuple) -> tuple:
    """Cancel every denominator factor that divides the numerator exactly.
    One pass suffices: a factor that does not divide num cannot divide a
    quotient num / b either, since num is a multiple of that quotient."""
    kept = []
    for b in den:
        q = binomial_divide(num, b)
        if q is None:
            kept.append(b)
        else:
            num = q
    return num, tuple(kept)
