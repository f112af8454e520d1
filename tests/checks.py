"""
Whole-group checks that only the test suite runs: recursion pivot
independence of r, the defining identity of the Kazhdan-Lusztig table, the
root count under a trivial inverse KL polynomial, and the classical limit of
r. Each returns how many cases it compared and raises AssertionError at the
first failure.

Also the tuple-key division by 1 - x^beta, the reference that the packed
kernel behind ``binomial_divide`` and ``RationalFn.reduced()`` is compared
against, and the mu route to sigma: the Hecke product carried out before
the functional is applied, in ``RationalFn`` arithmetic, independent of the
packed q-column kernel of ``SigmaEngine.sigma_idx``.
"""

from fractions import Fraction

from bhl.coxeter import CoxeterGroup, Element, _bits
from bhl.kl import KLTable
from bhl.polyring import LaurentPoly, RationalFn
from bhl.rpoly import RPolyTable, s_set_idx
from bhl.sigma import SigmaEngine


def r_idx_with_pivot(rtable: RPolyTable, u: int, v: int, i: int) -> RationalFn:
    """r(u, v) by one top-level recursion step on the left descent i of v."""
    g = rtable.group
    if u == v:
        return RationalFn.one(g.rank)
    if not g.leq_idx(u, v):
        return RationalFn.zero(g.rank)
    if not g.left_desc_masks[v] >> i & 1:
        raise ValueError(f"s{i + 1} is not a left descent of the target")
    return rtable._rational(rtable._step(u, v, i)).bar_q()


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
        approx = rtable.r_idx(u, v).evaluate(q, xs)
        exact = rtable.classical_idx(u, v).evaluate(q)
        if exact == 0:
            if approx != 0:
                raise AssertionError(f"limit mismatch at {u},{v}")
        elif abs(approx - exact) / abs(exact) >= tolerance:
            raise AssertionError(
                f"limit off by {float(abs(approx - exact) / abs(exact))} at {u},{v}"
            )
        checked += 1
    return checked


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


def mu_idx(engine: SigmaEngine, v: int) -> dict:
    """y -> q^(-len(y)) * bar r(y, v) over y <= v."""
    g = engine.group
    return {
        y: engine.rtable.bar_r_idx(y, v).mul_poly(
            LaurentPoly.q_power(g.rank, -g.lengths[y])
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
                add = c.mul_poly(poly.embed(g.rank))
                prev = cell.get(s)
                cell[s] = add if prev is None else prev + add
        val = RationalFn.zero(g.rank)
        for s, rf in cell.items():
            if g.leq_idx(s, w):
                val = val + rf.mul_poly(
                    LaurentPoly.q_power(g.rank, g.lengths[s])
                )
        total = total + val
    return total
