"""
Root systems and fully enumerated finite Weyl groups.

A group element is identified by the tuple of images of the simple roots
under the reflection representation, with every root written in simple-root
coordinates. Elements are indexed 0..|W|-1 in breadth-first discovery order
from the identity, so indices are sorted by length. All group structure
(lengths, descents, generator multiplication, inverses, canonical reduced
words, the Bruhat order as a bit-matrix) is precomputed at build time and
immutable afterwards. Two read-only memos are built on first use instead,
so that a group build does not pay for them: the canonical word strings
(``word_str``) and, per v, the reflections r_alpha with v r_alpha < v
(``reflections_below``). Threads that race to fill one store equal values.

Bruhat rows are built by the lifting recursion: if s is a left descent of w
then {u : u <= w} = {u : u <= sw} union s*{u : u <= sw}.

Element text format: "e" for the identity, otherwise the canonical reduced
word as a digit string ("121" = s1 s2 s1) for ranks up to 9, or
comma-separated indices ("1,2,1"), which is accepted for all ranks.
"""

from __future__ import annotations

from math import factorial
from typing import Iterator, NamedTuple, Optional, Sequence

from .polyring import LaurentPoly

__all__ = [
    "CartanType",
    "CoxeterGroup",
    "Element",
    "GroupMismatchError",
    "OrderCapError",
    "UnsupportedTypeError",
    "WordError",
    "build_group",
    "DEFAULT_MAX_ORDER",
]

DEFAULT_MAX_ORDER = 50_000


class UnsupportedTypeError(ValueError):
    """Cartan type outside the supported families/ranks."""


class OrderCapError(ValueError):
    """The group order exceeds the configured cap."""


class GroupMismatchError(ValueError):
    """Two elements from different groups were combined."""


class WordError(ValueError):
    """An element word failed to parse."""


# Ranks of more digits are refused before int() reads them (a long enough
# digit string makes it raise): from rank 1 000 on, the group's order has
# over 2 500 digits, far past any group that can be enumerated.
_MAX_RANK_DIGITS = 3


# An order or cap of more digits is named by its digit count in messages
_MAX_SHOWN_DIGITS = 30


def _number_str(n: int) -> str:
    """n in decimal, or "of N digits" when it has more than
    ``_MAX_SHOWN_DIGITS``, so that an error line stays short."""
    text = str(n)
    return text if len(text) <= _MAX_SHOWN_DIGITS else f"of {len(text)} digits"


def _is_ascii_number(text: str) -> bool:
    """True when text is one or more of the ASCII digits 0-9; str.isdigit
    alone also takes digits such as '²' or '٣'."""
    return text.isascii() and text.isdigit()


class CartanType(NamedTuple):
    """A finite Weyl group family label: A, B, C, D or G, plus a rank."""

    family: str
    rank: int

    @classmethod
    def parse(cls, text: str) -> "CartanType":
        text = text.strip()
        if len(text) < 2 or not _is_ascii_number(text[1:]):
            raise UnsupportedTypeError(f"cannot parse Cartan type {text!r}")
        if len(text[1:].lstrip("0")) > _MAX_RANK_DIGITS:
            raise UnsupportedTypeError(f"unsupported Cartan type {text}")
        t = cls(text[0].upper(), int(text[1:]))
        t.validate()
        return t

    def validate(self) -> None:
        fam, r = self.family, self.rank
        ok = (
            (fam == "A" and r >= 1)
            or (fam in ("B", "C") and r >= 2)
            or (fam == "D" and r >= 3)
            or (fam == "G" and r == 2)
        )
        if not ok:
            raise UnsupportedTypeError(f"unsupported Cartan type {fam}{r}")

    def order(self) -> int:
        r = self.rank
        if self.family == "A":
            return factorial(r + 1)
        if self.family in ("B", "C"):
            return 2**r * factorial(r)
        if self.family == "D":
            return 2 ** (r - 1) * factorial(r)
        return 12

    def num_positive_roots(self) -> int:
        r = self.rank
        if self.family == "A":
            return r * (r + 1) // 2
        if self.family in ("B", "C"):
            return r * r
        if self.family == "D":
            return r * (r - 1)
        return 6

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


def _cartan_matrix(t: CartanType) -> list[list[int]]:
    """Cartan matrix C with s_i(a_j) = a_j - C[i][j] a_i."""
    r = t.rank
    C = [[2 if i == j else 0 for j in range(r)] for i in range(r)]

    def link(i, j, cij=-1, cji=-1):
        C[i][j] = cij
        C[j][i] = cji

    if t.family == "A":
        for i in range(r - 1):
            link(i, i + 1)
    elif t.family == "B":
        # last simple root short
        for i in range(r - 2):
            link(i, i + 1)
        link(r - 2, r - 1, -1, -2)
    elif t.family == "C":
        # last simple root long
        for i in range(r - 2):
            link(i, i + 1)
        link(r - 2, r - 1, -2, -1)
    elif t.family == "D":
        for i in range(r - 2):
            link(i, i + 1)
        link(r - 3, r - 1)
    else:  # G2, first simple root short
        link(0, 1, -3, -1)
    return C


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Element:
    """A handle into a CoxeterGroup; all structure lives in the group.
    Immutable. Equality and hash are over (group, index): the group
    compares by identity, as CoxeterGroup defines no __eq__. Not a tuple,
    so that + and int * do not act on an element as on a pair."""

    __slots__ = ("group", "index")

    def __init__(self, group: "CoxeterGroup", index: int):
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "index", index)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Element, (self.group, self.index)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.group is other.group and self.index == other.index

    def __hash__(self) -> int:
        return hash((self.group, self.index))

    def length(self) -> int:
        return self.group.lengths[self.index]

    def inverse(self) -> "Element":
        return Element(self.group, self.group.inv_table[self.index])

    def __mul__(self, other: "Element") -> "Element":
        g = self.group
        return Element(g, g.mul_idx(*g.indices(self, other)))

    def word(self) -> str:
        return self.group.word_str(self.index)

    def __repr__(self) -> str:
        return f"<{self.group.cartan_type} {self.word()}>"


class CoxeterGroup:
    """A fully enumerated finite Weyl group of a given Cartan type."""

    def __init__(self, cartan_type: CartanType, max_order: Optional[int] = None):
        cartan_type.validate()
        cap = DEFAULT_MAX_ORDER if max_order is None else max_order
        expected = cartan_type.order()
        if expected > cap:
            raise OrderCapError(
                f"group {cartan_type} has order {_number_str(expected)}, "
                f"above the cap {_number_str(cap)}"
            )
        self.cartan_type = cartan_type
        self.rank = cartan_type.rank
        self.cartan = _cartan_matrix(cartan_type)
        self._build_roots()
        self._build_elements(expected)
        self._build_words_and_inverses()
        self._build_bruhat()
        self._build_reflections()
        self._word_strs: list | None = None
        self._below: dict = {}

    # -- construction ------------------------------------------------------

    def _simple_reflect(self, i: int, v: tuple) -> tuple:
        c = sum(self.cartan[i][k] * v[k] for k in range(self.rank))
        return v[:i] + (v[i] - c,) + v[i + 1 :]

    def _build_roots(self) -> None:
        r = self.rank
        simples = [tuple(1 if j == i else 0 for j in range(r)) for i in range(r)]
        roots = set(simples)
        frontier = list(simples)
        while frontier:
            nxt = []
            for v in frontier:
                for i in range(r):
                    w = self._simple_reflect(i, v)
                    if w not in roots:
                        roots.add(w)
                        nxt.append(w)
            frontier = nxt
        # sort by height, then earliest-support first, so the simple roots
        # come out as alpha_1, ..., alpha_r
        pos = sorted(
            (v for v in roots if all(c >= 0 for c in v)),
            key=lambda v: (sum(v), tuple(-c for c in v)),
        )
        assert len(pos) == self.cartan_type.num_positive_roots()
        assert len(roots) == 2 * len(pos)
        self.positive_roots: list[tuple] = pos
        self._pos_index = {v: a for a, v in enumerate(pos)}

    def _build_elements(self, expected: int) -> None:
        r = self.rank
        id_cols = tuple(
            tuple(1 if j == i else 0 for j in range(r)) for i in range(r)
        )
        index_of: dict = {id_cols: 0}
        cols_list = [id_cols]
        lengths = [0]
        rmult: list[list[int]] = []
        frontier = [0]
        # frontier layers come out in ascending index order, so processing
        # order equals index order and rmult rows can simply be appended
        while frontier:
            nxt = []
            for w in frontier:
                cols = cols_list[w]
                row = [0] * r
                for i in range(r):
                    # w*s_i sends a_j to w(a_j) - C[i][j] w(a_i)
                    ci = cols[i]
                    new = tuple(
                        tuple(
                            cols[j][k] - self.cartan[i][j] * ci[k]
                            for k in range(r)
                        )
                        for j in range(r)
                    )
                    idx = index_of.get(new)
                    if idx is None:
                        idx = len(cols_list)
                        index_of[new] = idx
                        cols_list.append(new)
                        lengths.append(lengths[w] + 1)
                        nxt.append(idx)
                    row[i] = idx
                assert len(rmult) == w
                rmult.append(row)
            frontier = nxt
        assert len(cols_list) == expected, (len(cols_list), expected)
        self.order = len(cols_list)
        self.cols = cols_list
        self.lengths = lengths
        self.rmult = rmult

        # left multiplication: apply s_i to every column
        lmult: list[list[int]] = []
        for cols in cols_list:
            row = []
            for i in range(self.rank):
                new = tuple(self._simple_reflect(i, col) for col in cols)
                row.append(index_of[new])
            lmult.append(row)
        self.lmult = lmult

        n_pos = len(self.positive_roots)
        self.identity_idx = 0
        self.longest_idx = lengths.index(n_pos)
        self.left_desc_masks = [
            sum(1 << i for i in range(self.rank) if lengths[lmult[w][i]] < lengths[w])
            for w in range(self.order)
        ]

    def _build_words_and_inverses(self) -> None:
        # canonical word = lex smallest reduced word, by greedy smallest
        # left descent; indices are length-sorted so lmult targets are ready
        words: list[tuple] = [()] * self.order
        for w in range(1, self.order):
            i = (self.left_desc_masks[w] & -self.left_desc_masks[w]).bit_length() - 1
            words[w] = (i,) + words[self.lmult[w][i]]
        self.words = words
        inv = [0] * self.order
        for w in range(self.order):
            x = 0
            for i in reversed(words[w]):
                x = self.rmult[x][i]
            inv[w] = x
        self.inv_table = inv

    def _build_bruhat(self) -> None:
        down = [0] * self.order
        down[0] = 1
        for w in range(1, self.order):
            i = (self.left_desc_masks[w] & -self.left_desc_masks[w]).bit_length() - 1
            base = down[self.lmult[w][i]]
            shifted = 0
            lm = self.lmult
            for u in _bits(base):
                shifted |= 1 << lm[u][i]
            down[w] = base | shifted
        self.down_masks = down
        up = [0] * self.order
        for w in range(self.order):
            bit = 1 << w
            for u in _bits(down[w]):
                up[u] |= bit
        self.up_masks = up

    def _build_reflections(self) -> None:
        # a root beta = w(a_i) has reflection w s_i w^-1; take the first
        # such (w, i) in index order
        n_pos = len(self.positive_roots)
        refl: dict = {}
        for w, cols in enumerate(self.cols):
            for i, col in enumerate(cols):
                a = self._pos_index.get(col)
                if a is not None and a not in refl:
                    refl[a] = self.mul_idx(self.rmult[w][i], self.inv_table[w])
            if len(refl) == n_pos:
                break
        self.reflection_of_root = [refl[a] for a in range(n_pos)]

    # -- index-level operations (used by sibling modules) -------------------

    def mul_idx(self, u: int, v: int) -> int:
        for i in self.words[v]:
            u = self.rmult[u][i]
        return u

    def leq_idx(self, u: int, w: int) -> bool:
        return bool(self.down_masks[w] >> u & 1)

    def weak_leq_right_idx(self, u: int, w: int) -> bool:
        lu = self.lengths[u]
        return lu + self.lengths[self.mul_idx(self.inv_table[u], w)] == self.lengths[w]

    def weak_leq_left_idx(self, u: int, w: int) -> bool:
        lu = self.lengths[u]
        return lu + self.lengths[self.mul_idx(w, self.inv_table[u])] == self.lengths[w]

    def interval_mask(self, u: int, w: int) -> int:
        return self.up_masks[u] & self.down_masks[w]

    def poincare_idx(self, u: int, w: int) -> LaurentPoly:
        terms: dict = {}
        for x in _bits(self.interval_mask(u, w)):
            k = (self.lengths[x],)
            terms[k] = terms.get(k, 0) + 1
        return LaurentPoly(0, terms)

    def reflections_below(self, v: int) -> tuple:
        """The (alpha, v r_alpha) with v r_alpha < v, alpha the index of a
        positive root and r_alpha its reflection; memoized per v."""
        below = self._below.get(v)
        if below is None:
            lengths, lv = self.lengths, self.lengths[v]
            products = (
                (a, self.mul_idx(v, refl)) for a, refl in enumerate(self.reflection_of_root)
            )
            below = self._below[v] = tuple((a, vr) for a, vr in products if lengths[vr] < lv)
        return below

    def word_str(self, w: int) -> str:
        """The canonical word of w; all of them are spelled on the first
        call."""
        strs = self._word_strs
        if strs is None:
            sep = "" if self.rank <= 9 else ","
            strs = self._word_strs = ["e"] + [
                sep.join(str(i + 1) for i in self.words[x]) for x in range(1, self.order)
            ]
        return strs[w]

    def parse_word_idx(self, text: str) -> int:
        text = text.strip()
        if text == "e":
            return 0
        if "," in text:
            parts = [p.strip() for p in text.split(",")]
        else:
            parts = list(text)
        if not parts or not all(map(_is_ascii_number, parts)):
            raise WordError(f"malformed element word {text!r}")
        w = 0
        for p in parts:
            # a letter longer than the rank is refused before int() reads it
            digits = p.lstrip("0") or "0"
            i = int(digits) if len(digits) <= len(str(self.rank)) else None
            if i is None or not 1 <= i <= self.rank:
                raise WordError(
                    f"letter {digits} out of range 1..{self.rank} in word {text!r}"
                )
            w = self.rmult[w][i - 1]
        return w

    # -- Element-level API ---------------------------------------------------

    def check_same(self, other: "CoxeterGroup") -> None:
        if self is not other:
            raise GroupMismatchError("elements belong to different groups")

    def indices(self, *elements: Element) -> tuple:
        """The index of each element, in order, after checking that each
        belongs to this group (``GroupMismatchError`` if one does not)."""
        for el in elements:
            self.check_same(el.group)
        return tuple(el.index for el in elements)

    def element(self, index: int) -> Element:
        if not 0 <= index < self.order:
            raise ValueError(f"element index {index} out of range")
        return Element(self, index)

    def elements(self) -> Iterator[Element]:
        return (Element(self, i) for i in range(self.order))

    def identity(self) -> Element:
        return Element(self, self.identity_idx)

    def longest(self) -> Element:
        return Element(self, self.longest_idx)

    def simple(self, i: int) -> Element:
        if not 1 <= i <= self.rank:
            raise ValueError(f"no simple reflection s{i} in rank {self.rank}")
        return Element(self, self.rmult[0][i - 1])

    def from_word(self, text: str) -> Element:
        return Element(self, self.parse_word_idx(text))

    def bruhat_leq(self, u: Element, w: Element) -> bool:
        return self.leq_idx(*self.indices(u, w))

    def weak_leq_right(self, u: Element, w: Element) -> bool:
        return self.weak_leq_right_idx(*self.indices(u, w))

    def interval(self, u: Element, w: Element) -> list:
        mask = self.interval_mask(*self.indices(u, w))
        return [Element(self, x) for x in _bits(mask)]

    def poincare(self, u: Element, w: Element) -> LaurentPoly:
        """Sum of q^len(x) over the Bruhat interval [u, w]."""
        return self.poincare_idx(*self.indices(u, w))

    def positive_root_index(self, vec: Sequence[int]) -> int:
        a = self._pos_index.get(tuple(vec))
        if a is None:
            raise ValueError(f"{tuple(vec)} is not a positive root")
        return a

    def reflection(self, root) -> Element:
        """The reflection attached to a positive root (index or coordinates)."""
        a = root if isinstance(root, int) else self.positive_root_index(root)
        return Element(self, self.reflection_of_root[a])

    def length_histogram(self) -> list[int]:
        hist = [0] * (len(self.positive_roots) + 1)
        for l in self.lengths:
            hist[l] += 1
        return hist

    def random_reduced_word(self, w: Element, rng) -> tuple:
        """A reduced word for w, peeling a random left descent each step."""
        (x,) = self.indices(w)
        out = []
        while x != 0:
            i = rng.choice(list(_bits(self.left_desc_masks[x])))
            out.append(i + 1)
            x = self.lmult[x][i]
        return tuple(out)

    def __repr__(self) -> str:
        return f"CoxeterGroup({self.cartan_type}, order={self.order})"


def build_group(cartan_type, max_order: Optional[int] = None) -> CoxeterGroup:
    """Build the Weyl group for a Cartan type given as a string or CartanType."""
    if isinstance(cartan_type, str):
        cartan_type = CartanType.parse(cartan_type)
    return CoxeterGroup(cartan_type, max_order=max_order)
