"""
Whole-group checks that only the test suite runs: recursion pivot
independence of r, the defining identity of the Kazhdan-Lusztig table, the
root count under a trivial inverse KL polynomial, and the classical limit of
r. Each returns how many cases it compared and raises AssertionError at the
first failure. Beside them, the classical R by its own recursion (the
oracle for R read off the bar r table), exact evaluation of a
``LaurentPoly`` and of a ``RationalFn``, products of ``RationalFn`` values
on their decoded numerators (the oracles for the column products of
``sigma``), the adjoint-involution and smoothness checks of a classify
report, S(u, v) by a scan of every positive root (the oracle for
``rpoly.s_set_idx``), and two predicates only tests ask: "exactly q^k" on
a ``LaurentPoly`` and the image of a root under an element.

Also the tuple-key division by 1 - x^beta, the reference that the packed
kernel behind ``binomial_divide`` and ``RationalFn.reduced()`` is compared
against; the full reduction of a stored bar r entry (``reduced_den``) and
the ``LaurentPoly`` recursion for the Kazhdan-Lusztig P
(``kl_p_by_recursion``), the oracles of the ``poles`` suite and of the
q-column route of ``KLTable``; the mu route to sigma: the Hecke product
carried out before the functional is applied, in ``RationalFn``
arithmetic, independent of the packed q-column kernel of
``SigmaEngine.sigma_idx``; and sigma0 read off the built sigma at v_min
(``sigma0_via_built_sigma``), the reference for ``SigmaEngine._sigma0``,
which reads it off the xi row.

And the Hecke oracles: T-basis elements and their products walked word by
word with no memo (``t_mul``), one generator step at a time on
``LaurentPoly`` values by a step of their own (``_rmul_gen``), which
shares no code with the lifted int step of ``ThetaTable``; the functional
lambda_w summed on ``LaurentPoly`` dicts (``theta_from_product``); and
theta(x, y, w) built from those two, the reference for the int sums of
``ThetaTable``.

Last, ``code_lines``, the line count that CHANGES.md and ROADMAP.md quote
for ``src/bhl``. Run as a script, ``PYTHONPATH=src python3 tests/checks.py
src/bhl`` prints it for each file under the path and then the total.
"""

import ast
import io
import sys
import tokenize
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from bhl.coxeter import CoxeterGroup, Element, _bits
from bhl.demazure import v_min_idx
from bhl.kl import KLTable
from bhl import polyring
from bhl.polyring import LaurentPoly, RationalFn, _reduce_packed, _unpack
from bhl.rpoly import RPolyTable, s_set_idx
from bhl.sigma import SigmaEngine, _Sigma0


def r_idx_with_pivot(rtable: RPolyTable, u: int, v: int, i: int) -> RationalFn:
    """r(u, v) by one top-level recursion step on the left descent i of v."""
    g = rtable.group
    if u == v:
        return RationalFn.one(g.rank)
    if not g.leq_idx(u, v):
        return RationalFn.zero(g.rank)
    if not g.left_desc_masks[v] >> i & 1:
        raise ValueError(f"s{i + 1} is not a left descent of the target")
    return rtable._rational(rtable._step(u, v, i, rtable._pivot_root(v, i))).bar_q()


def check_r_descent_independence(g: CoxeterGroup, rtable: RPolyTable | None = None) -> int:
    """Every left-descent pivot of v gives the same r(u, v); returns how many
    (u, v, pivot) combinations were compared."""
    if rtable is None:
        rtable = RPolyTable(g)
    compared = 0
    for v in range(g.order):
        pivots = list(_bits(g.left_desc_masks[v]))
        if len(pivots) < 2:
            continue
        for u in _bits(g.down_masks[v]):
            base = rtable.r_idx(u, v)
            for i in pivots:
                if r_idx_with_pivot(rtable, u, v, i) != base:
                    raise AssertionError(
                        f"pivot {i + 1} changes r at u={g.word_str(u)}, v={g.word_str(v)}"
                    )
                compared += 1
    return compared


def check_kl_defining_identity(g: CoxeterGroup, kl: KLTable | None = None) -> int:
    """q^(len v - len u) bar P(u, v) = sum over [u, v] of R(u, z) P(z, v)."""
    if kl is None:
        kl = KLTable(g)
    rt = kl.rtable
    checked = 0
    for v in range(g.order):
        for u in _bits(g.down_masks[v]):
            lhs = kl.p_idx(u, v).bar_q().shift_q(g.lengths[v] - g.lengths[u])
            rhs = LaurentPoly.zero(0)
            for z in _bits(g.interval_mask(u, v)):
                rhs = rhs + rt.classical_idx(u, z) * kl.p_idx(z, v)
            if lhs != rhs:
                raise AssertionError(
                    f"defining identity fails at u={g.word_str(u)}, v={g.word_str(v)}"
                )
            checked += 1
    return checked


def check_deodhar_under_q1(g: CoxeterGroup, kl: KLTable | None = None) -> int:
    """|S(u, v)| >= len(v) - len(u) whenever the inverse KL polynomial is 1,
    with equality (the refined count) checked as well."""
    if kl is None:
        kl = KLTable(g)
    one = LaurentPoly.one(0)
    checked = 0
    for v in range(g.order):
        for u in _bits(g.down_masks[v]):
            if kl.q_idx(u, v) != one:
                continue
            size = len(s_set_idx(g, u, v))
            gap = g.lengths[v] - g.lengths[u]
            if size < gap:
                raise AssertionError(
                    f"root count below length gap at u={g.word_str(u)}, v={g.word_str(v)}"
                )
            if size != gap:
                raise AssertionError(
                    f"root count exceeds length gap at u={g.word_str(u)}, v={g.word_str(v)}"
                )
            checked += 1
    return checked


def check_r_numerical_limit(
    g: CoxeterGroup,
    rtable: RPolyTable | None = None,
    pairs=None,
    base: int = 10**6,
    tolerance=1e-3,
) -> int:
    """Evaluating r(u, v) at q = 7/3 and x_i = base^(3^i) approaches the
    classical R-polynomial at q = 7/3, within the relative tolerance.

    The torus point makes every x^alpha enormous while staying exact, so the
    comparison is a rational-arithmetic statement about the limit, not a
    float experiment.
    """
    if rtable is None:
        rtable = RPolyTable(g)
    q = Fraction(7, 3)
    xs = tuple(Fraction(base) ** (3**i) for i in range(1, g.rank + 1))
    if pairs is None:
        pairs = [
            (u, v)
            for v in range(g.order)
            for u in _bits(g.down_masks[v])
        ]
    checked = 0
    for u, v in pairs:
        approx = evaluate(rtable.r_idx(u, v), q, xs)
        exact = evaluate_poly(rtable.classical_idx(u, v), q)
        if exact == 0:
            if approx != 0:
                raise AssertionError(f"limit mismatch at {u},{v}")
        elif abs(approx - exact) / abs(exact) >= tolerance:
            raise AssertionError(
                f"limit off by {float(abs(approx - exact) / abs(exact))} at {u},{v}"
            )
        checked += 1
    return checked


def classical_r_by_recursion(g: CoxeterGroup) -> dict:
    """(u, v) -> the classical R(u, v) over every pair u <= v, by its own
    recursion on LaurentPoly, pivoting on the smallest-index left descent
    of v: R(u, v) = R(su, sv) if su < u, (q - 1) R(u, sv) + q R(su, sv)
    if su > u. The oracle for ``RPolyTable.classical_idx``, which reads R
    off the bar r table instead."""
    q_minus_1 = LaurentPoly(0, {(1,): 1, (0,): -1})
    zero = LaurentPoly.zero(0)
    table: dict = {}
    for v in range(g.order):  # indices are sorted by length
        mask = g.left_desc_masks[v]
        for u in _bits(g.down_masks[v]):
            if u == v:
                table[u, v] = LaurentPoly.one(0)
                continue
            i = (mask & -mask).bit_length() - 1
            sv, su = g.lmult[v][i], g.lmult[u][i]
            if g.lengths[su] < g.lengths[u]:
                table[u, v] = table.get((su, sv), zero)
            else:
                table[u, v] = q_minus_1 * table.get((u, sv), zero) + table.get(
                    (su, sv), zero
                ).shift_q(1)
    return table


def evaluate_poly(p: LaurentPoly, q, xs: tuple = ()) -> Fraction:
    """p at q and the torus point xs, exactly; q and xs may be Fractions or
    ints."""
    if len(xs) != p.arity:
        raise ValueError("wrong number of x-values")
    total = Fraction(0)
    for e, c in p.terms.items():
        v = Fraction(c) * Fraction(q) ** e[0]
        for xi, d in zip(xs, e[1:]):
            v *= Fraction(xi) ** d
        total += v
    return total


def evaluate(f: RationalFn, q, xs: tuple = ()) -> Fraction:
    """f at q and the torus point xs, exactly; q and xs may be Fractions or
    ints. The reduced form is evaluated, so a den factor that cancels may
    vanish at xs."""
    r = f.reduced()
    val = evaluate_poly(r.num, q, xs)
    for b in r.den:
        d = Fraction(1)
        for xi, deg in zip(xs, b):
            d *= Fraction(xi) ** deg
        val /= 1 - d
    return val


def rf_mul(a: RationalFn, b: RationalFn) -> RationalFn:
    """a times b: the product of the decoded numerators over both dens."""
    return RationalFn(a.num * b.num, a.den + b.den)


def rf_mul_poly(f: RationalFn, p: LaurentPoly) -> RationalFn:
    """f times the polynomial p, on the decoded numerator: the oracle for
    the column product of ``SigmaEngine._gk_rhs``."""
    return RationalFn(f.num * p, f.den)


def s_set_by_scan(g: CoxeterGroup, u: int, v: int) -> frozenset:
    """S(u, v), the indices of the positive roots alpha with
    u <= v r_alpha < v, by one product and one length lookup per positive
    root: the oracle for ``rpoly.s_set_idx``."""
    lv = g.lengths[v]
    out = []
    for a, refl in enumerate(g.reflection_of_root):
        vr = g.mul_idx(v, refl)
        if g.lengths[vr] < lv and g.leq_idx(u, vr):
            out.append(a)
    return frozenset(out)


def is_q_monomial(p: LaurentPoly) -> bool:
    """True when p is exactly q^k for some k."""
    if len(p.terms) != 1:
        return False
    ((e, c),) = p.terms.items()
    return c == 1 and not any(e[1:])


def root_action(g: CoxeterGroup, w: Element, root) -> tuple:
    """Image of a root under w, in simple-root coordinates; the root may be
    given as a positive-root index or a coordinate tuple."""
    vec = g.positive_roots[root] if isinstance(root, int) else tuple(root)
    cols = g.cols[g.indices(w)[0]]
    return tuple(sum(vec[j] * cols[j][k] for j in range(g.rank)) for k in range(g.rank))


def adjoint_mismatches(g: CoxeterGroup, rows) -> list:
    """The (u, v, w, is_gk) of the report rows, words as printed, whose
    image under the adjoint involution tau(u, v, w) = (w0 w, v^-1, w0 u) is
    not a row with the same is_gk. tau is an involution, so an empty list
    means it maps the nonzero triples onto themselves and keeps every
    flag. A wrong flag on a triple that tau fixes, or on both triples of
    one pair, passes."""
    w0, parse = g.longest_idx, g.parse_word_idx
    keyed = [
        ((parse(u), parse(v), parse(w)), (u, v, w, flag))
        for u, v, w, flag, *_ in rows
    ]
    flags = {key: row[3] for key, row in keyed}
    return [
        row
        for (u, v, w), row in keyed
        if flags.get((g.mul_idx(w0, w), g.inv_table[v], g.mul_idx(w0, u))) != row[3]
    ]


def smoothness_mismatches(g: CoxeterGroup, rows) -> list:
    """The (u, v, w, is_gk) of the report rows flagged GK, words as
    printed, with |S(v_min, v)| != len(v) - len(v_min), v_min = v_min(u, w).
    |S(v_min, v)| is the degree of v in the Bruhat graph of [v_min, v], so
    equality is the rational-smoothness condition of Carrell and Peterson
    at v. Every GK row of every report checked meets it; it is only
    necessary, so a wrong flag on a non-GK row that also meets it
    passes."""
    parse = g.parse_word_idx
    out = []
    for u, v, w, flag, *_ in rows:
        if flag:
            vi = parse(v)
            vm = v_min_idx(g, parse(u), parse(w))
            if len(s_set_idx(g, vm, vi)) != g.lengths[vi] - g.lengths[vm]:
                out.append((u, v, w, flag))
    return out


def binomial_divide_tuples(p: LaurentPoly, beta: tuple) -> LaurentPoly | None:
    """p / (1 - x^beta) on tuple keys, or None on a remainder: terms are
    grouped into cosets of Z*beta, represented by their lowest point over
    every coordinate of beta's support, and each coset must sum to zero,
    with its running prefix sums as the quotient. Runs of zero prefix sums
    are skipped, so terms far apart cost no walk between them."""
    beta = tuple(beta)
    if not p.terms:
        return LaurentPoly.zero(p.arity)
    support = [j for j, b in enumerate(beta) if b > 0]
    classes: dict = {}
    for e, c in p.terms.items():
        t = min(e[j + 1] // beta[j] for j in support)
        rep = (e[0],) + tuple(e[j + 1] - t * beta[j] for j in range(p.arity))
        classes.setdefault(rep, []).append((t, c))
    if any(sum(c for _, c in items) for items in classes.values()):
        return None
    quot: dict = {}
    for rep, items in classes.items():
        items.sort()
        running = 0
        for (t, c), (t_next, _) in zip(items, items[1:]):
            running += c
            if not running:
                continue
            for s in range(t, t_next):
                e = (rep[0],) + tuple(
                    rep[j + 1] + s * beta[j] for j in range(p.arity)
                )
                quot[e] = running
    return LaurentPoly(p.arity, quot)


def reduced_tuples(f: RationalFn) -> tuple:
    """(num, den) of f with every den factor that divides num cancelled, one
    pass in den order through ``binomial_divide_tuples``."""
    num = f.num
    kept = []
    for beta in f.den:
        quot = binomial_divide_tuples(num, beta)
        if quot is None:
            kept.append(beta)
        else:
            num = quot
    return num, tuple(kept)


def reduced_den(rtable: RPolyTable, u: int, v: int) -> tuple:
    """The den of ``rtable.bar_r_idx(u, v).reduced()``, reduced on the
    stored columns by ``polyring._reduce_packed`` with no decode of the
    numerator: the full-reduction oracle for the ``poles`` suite, which
    divides nothing. ``max_digit`` bounds every degree of the entry, so it
    stands in for the entry's spans in the carry check.

    Each division tests coset sums and prefix sums for zero, which is
    exact while the L1 norm of the numerator it divides is below
    2^(K - 1). The entry's own is at most its bound B, and an exact
    quotient has at most M = ``max_digit`` terms per coset, each a prefix
    sum of the coset it came from, so each one multiplies the L1 norm by at
    most M. After s exact divisions every numerator divided had L1 norm at
    most B * M^s; if that is not below 2^(K - 1), a zero test may have
    misread and ``ValueError`` is raised."""
    den, cols, l1 = rtable.bar_r_packed_idx(u, v)
    n = rtable.group.rank
    den = tuple(sorted(_unpack(b, n + 1)[1:] for b in den))
    kept = _reduce_packed(cols, den, n, (rtable.max_digit,) * (n + 1))[1]
    if l1 * rtable.max_digit ** (len(den) - len(kept)) >= polyring._Q_BOUND:
        g = rtable.group
        raise ValueError(
            f"cannot reduce bar r(u={g.word_str(u)}, v={g.word_str(v)}) "
            f"of {g.cartan_type} on {polyring._Q_BITS}-bit q-slots: its "
            "quotients may pass them"
        )
    return kept


def kl_p_by_recursion(g: CoxeterGroup, rtable: RPolyTable) -> dict:
    """(u, v) -> P(u, v) over every pair u <= v, by the truncated recursion
    on ``LaurentPoly`` terms: minus the terms of degree at most
    (len(v) - len(u) - 1)/2 of the sum over u < z <= v of R(u, z) P(z, v),
    only the products of terms within that cut formed. The oracle for the
    q-column route of ``KLTable``."""
    table: dict = {}
    for v in range(g.order):
        for u in sorted(_bits(g.down_masks[v]), key=g.lengths.__getitem__, reverse=True):
            if u == v:
                table[u, v] = LaurentPoly.one(0)
                continue
            cut = (g.lengths[v] - g.lengths[u] - 1) // 2
            acc: dict = {}
            for z in _bits(g.interval_mask(u, v)):
                if z == u:
                    continue
                p_terms = table[z, v].terms
                for (a,), r in rtable.classical_idx(u, z).terms.items():
                    if a > cut:
                        continue
                    for (b,), c in p_terms.items():
                        if a + b <= cut:
                            acc[a + b] = acc.get(a + b, 0) + r * c
            table[u, v] = LaurentPoly(0, {(d,): -c for d, c in acc.items()})
    return table


def mu_idx(engine: SigmaEngine, v: int) -> dict:
    """y -> q^(-len(y)) * bar r(y, v) over y <= v."""
    g = engine.group
    return {
        y: rf_mul_poly(
            engine.rtable.bar_r_idx(y, v), LaurentPoly.q_power(g.rank, -g.lengths[y])
        )
        for y in _bits(g.down_masks[v])
    }


def mu_element(engine: SigmaEngine, v: Element) -> dict:
    """The Hecke coefficients of the intertwining image of the identity:
    maps y^{-1} to q^(-len(y)) * bar r(y, v)."""
    g = engine.group
    g.check_same(v.group)
    return {
        Element(g, g.inv_table[y]): rf
        for y, rf in mu_idx(engine, v.index).items()
    }


def sigma_via_mu_idx(engine: SigmaEngine, u: int, v: int, w: int) -> RationalFn:
    """Oracle route: sum over x >= u of lambda_w(T_x * mu(v)), with the
    Hecke product carried out before the functional is applied."""
    g = engine.group
    mu = mu_idx(engine, v)
    total = RationalFn.zero(g.rank)
    for x in _bits(g.up_masks[u]):
        cell: dict = {}
        for y, c in mu.items():
            for s, poly in engine.theta.product(x, y).items():
                add = rf_mul_poly(c, poly.embed(g.rank))
                prev = cell.get(s)
                cell[s] = add if prev is None else prev + add
        val = RationalFn.zero(g.rank)
        for s, rf in cell.items():
            if g.leq_idx(s, w):
                val = val + rf_mul_poly(rf, LaurentPoly.q_power(g.rank, g.lengths[s]))
        total = total + val
    return total


def sigma0_via_built_sigma(engine: SigmaEngine, u: int, w: int, row=None) -> _Sigma0:
    """sigma0(u, w) read off sigma at v_min as ``sigma_idx`` builds it from
    row (by default its single-shot row), with nothing cancelled. It must be
    torus-free: no column but that of the x-key 0 is nonzero, and that one
    is nonzero only over an empty den; else AssertionError is raised. The
    column is moved down to its lowest occupied slot; the L1 bound and the
    point value are sigma's."""
    vm = v_min_idx(engine.group, u, w)
    sig = engine.sigma_idx(u, vm, w, row)
    packed = polyring._packed_of(sig)
    col = packed.cols.get(0, 0)
    if (col and packed.den) or any(c for key, c in packed.cols.items() if key):
        raise AssertionError(f"sigma at v_min kept torus dependence at u={u}, w={w}: {sig}")
    skip = ((col & -col).bit_length() - 1) // polyring._Q_BITS if col else 0
    return _Sigma0(col >> polyring._Q_BITS * skip, packed.low + skip, packed.l1, packed.point)


@dataclass(frozen=True)
class HeckeElem:
    """A sparse Hecke algebra element: element index -> q-Laurent coefficient."""

    group: CoxeterGroup
    coeffs: dict

    def coeff(self, w: Element) -> LaurentPoly:
        self.group.check_same(w.group)
        return self.coeffs.get(w.index, LaurentPoly.zero(0))


def t_basis(w: Element) -> HeckeElem:
    """The basis element T_w."""
    return HeckeElem(w.group, {w.index: LaurentPoly.one(0)})


Q = LaurentPoly(0, {(1,): 1})
Q_MINUS_1 = LaurentPoly(0, {(1,): 1, (0,): -1})


def add_term(coeffs: dict, t: int, add: LaurentPoly) -> None:
    """coeffs[t] += add, in place, dropping a zero sum."""
    cur = coeffs[t] + add if t in coeffs else add
    if cur.is_zero():
        coeffs.pop(t, None)
    else:
        coeffs[t] = cur


def _rmul_gen(g: CoxeterGroup, coeffs: dict, i: int) -> dict:
    """coeffs times T_{s_i} on the right, on LaurentPoly values:
    T_t T_s = T_{ts} if ts > t, else (q - 1) T_t + q T_{ts}."""
    out: dict = {}
    for t, c in coeffs.items():
        ts = g.rmult[t][i]
        if g.lengths[ts] > g.lengths[t]:
            add_term(out, ts, c)
        else:
            add_term(out, t, c * Q_MINUS_1)
            add_term(out, ts, c * Q)
    return out


def _rmul_word(g: CoxeterGroup, coeffs: dict, letters) -> dict:
    for i in letters:
        coeffs = _rmul_gen(g, coeffs, i)
    return coeffs


def t_mul(a: HeckeElem, b: HeckeElem) -> HeckeElem:
    """Exact product in the T-basis."""
    a.group.check_same(b.group)
    g = a.group
    total: dict = {}
    for t, c in b.coeffs.items():
        part = _rmul_word(g, a.coeffs, g.words[t])
        for s, v in part.items():
            add_term(total, s, v * c)
    return HeckeElem(g, total)


def product_coeffs(g: CoxeterGroup, x: int, y: int) -> dict:
    """Coefficients of T_x T_{y^{-1}}, walked along the whole reversed word
    of y, which is reduced for y^{-1}."""
    start = {x: LaurentPoly.one(0)}
    return _rmul_word(g, start, reversed(g.words[y]))


def theta_from_product(g: CoxeterGroup, prod: dict, w: int) -> LaurentPoly:
    """lambda_w of the T-basis coefficients prod: q^len(t) c_t summed over
    the t <= w, on LaurentPoly dicts."""
    mask = g.down_masks[w]
    terms: dict = {}
    for t, c in prod.items():
        if mask >> t & 1:
            shift = g.lengths[t]
            for e, v in c.terms.items():
                k = (e[0] + shift,)
                nv = terms.get(k, 0) + v
                if nv:
                    terms[k] = nv
                else:
                    del terms[k]
    return LaurentPoly(0, terms)


def lambda_w(w: Element, a: HeckeElem) -> LaurentPoly:
    """Apply the functional sending T_y to q^len(y) for y <= w, else 0."""
    w.group.check_same(a.group)
    return theta_from_product(w.group, a.coeffs, w.index)


def theta(x: Element, y: Element, w: Element) -> LaurentPoly:
    """lambda_w(T_x T_{y^{-1}}), a polynomial in q."""
    g = x.group
    g.check_same(y.group)
    g.check_same(w.group)
    return theta_from_product(g, product_coeffs(g, x.index, y.index), w.index)


def code_lines(path) -> int:
    """The lines of code in the Python file path, or in every .py file
    under the directory path: the lines that some token other than a
    comment starts on or spans, less every line of a module, class or
    function docstring. Blank lines, comment lines and docstrings do not
    count; a multi-line string that is not a docstring counts whole."""
    total = 0
    for file in _py_files(path):
        source = file.read_text()
        docstrings = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                first = node.body[0] if node.body else None
                if (
                    isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)
                ):
                    docstrings.update(range(first.lineno, first.end_lineno + 1))
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        total += len(lines - docstrings)
    return total


def _py_files(path) -> list:
    """The Python file path, or every .py file under the directory path."""
    path = Path(path)
    return [path] if path.is_file() else sorted(path.rglob("*.py"))


_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


if __name__ == "__main__":
    # code_lines of each file under the path given, then of the whole path
    root = sys.argv[1]
    for file in _py_files(root):
        print(f"{code_lines(file):6} {file}")
    print(f"{code_lines(root):6} total")
