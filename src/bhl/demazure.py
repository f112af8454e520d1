"""
The 0-Hecke (Demazure) monoid acting on a finite Weyl group.

The monoid basis U_w multiplies by U_s U_w = U_{sw} if sw > w, else U_w.
Four derived actions on W are provided, each obtained by folding the
canonical reduced word of w through a one-step operation:

- up_left(w, x)    = U_w up-arrow x      (left monoid action, raising)
- down_left(w, x)  = U_w down-arrow x    (left monoid action, lowering)
- up_right(x, w)   = x up-arrow U_w      (right monoid action, raising)
- down_right(x, w) = x down-arrow U_w    (right monoid action, lowering)

For a left action the last letter of w acts first; for a right action the
first letter acts first. One kernel, ``_fold``, runs all four, and
``fold_word_idx`` runs it on any given word. The result is independent of
the chosen reduced word because the one-step maps satisfy the braid and
idempotent relations; the ``demazure`` suite checks that on random reduced
words through ``fold_word_idx``, so it covers the kernel of every fold.

The Demazure product is u o v = U_u up-arrow v, and the mixed meet of u and
w (the unique Bruhat-greatest element m with m <=_R u and m <= w) is
m = u * (u^{-1} down-arrow U_w). Its companion v_min(u, w) = U_{w^{-1}}
down-arrow u = m^{-1} u.
"""

from __future__ import annotations

from .coxeter import CoxeterGroup, Element

__all__ = [
    "circ",
    "up_left",
    "down_left",
    "up_right",
    "down_right",
    "mixed_meet",
    "v_min",
]


# -- index-level folds (hot paths used by the enumeration engines) ----------

def _fold(g: CoxeterGroup, letters, x: int, left: bool, raising: bool) -> int:
    """Fold the 0-based letters through the one-step action on x: right to
    left for a left action, left to right for a right one; a step moves x
    when it raises (or, if not raising, lowers) the length."""
    mult = g.lmult if left else g.rmult
    lengths = g.lengths
    for i in reversed(letters) if left else letters:
        y = mult[x][i]
        if (lengths[y] > lengths[x]) == raising:
            x = y
    return x


def up_left_idx(g: CoxeterGroup, w: int, x: int) -> int:
    return _fold(g, g.words[w], x, True, True)


def down_left_idx(g: CoxeterGroup, w: int, x: int) -> int:
    return _fold(g, g.words[w], x, True, False)


def up_right_idx(g: CoxeterGroup, x: int, w: int) -> int:
    return _fold(g, g.words[w], x, False, True)


def down_right_idx(g: CoxeterGroup, x: int, w: int) -> int:
    return _fold(g, g.words[w], x, False, False)


def circ_idx(g: CoxeterGroup, u: int, v: int) -> int:
    return up_left_idx(g, u, v)


def mixed_meet_idx(g: CoxeterGroup, u: int, w: int) -> int:
    return g.mul_idx(u, down_right_idx(g, g.inv_table[u], w))


def v_min_idx(g: CoxeterGroup, u: int, w: int) -> int:
    return down_left_idx(g, g.inv_table[w], u)


def fold_word_idx(g: CoxeterGroup, letters, x: int, step: str) -> int:
    """Fold an explicit word (1-based letters) through a one-step action.

    ``step`` is one of "up_left", "down_left", "up_right", "down_right";
    the word goes through the kernel of the four named folds.
    """
    letters = [i - 1 for i in letters]
    return _fold(g, letters, x, step.endswith("left"), step.startswith("up"))


# -- Element-level API -------------------------------------------------------

def _lift(op, a: Element, b: Element) -> Element:
    """The index-level op of a and b, as an element of their group."""
    g = a.group
    return Element(g, op(g, *g.indices(a, b)))


def circ(u: Element, v: Element) -> Element:
    """The Demazure product u o v."""
    return _lift(circ_idx, u, v)


def up_left(w: Element, x: Element) -> Element:
    return _lift(up_left_idx, w, x)


def down_left(w: Element, x: Element) -> Element:
    return _lift(down_left_idx, w, x)


def up_right(x: Element, w: Element) -> Element:
    return _lift(up_right_idx, x, w)


def down_right(x: Element, w: Element) -> Element:
    return _lift(down_right_idx, x, w)


def mixed_meet(u: Element, w: Element) -> Element:
    """The unique Bruhat-maximal m with m <=_R u and m <= w."""
    return _lift(mixed_meet_idx, u, w)


def v_min(u: Element, w: Element) -> Element:
    """U_{w^{-1}} down-arrow u, the least v with nonvanishing pairing."""
    return _lift(v_min_idx, u, w)
