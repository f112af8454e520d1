import os
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bhl
from bhl.coxeter import _bits, build_group
from bhl.demazure import v_min_idx
from bhl.polyring import (
    _Q_BITS,
    _Q_BOUND,
    LaurentPoly,
    RationalFn,
    _columns_equal,
    _decode_q,
    _deferred_columns,
    _divide_packed,
    _encode_q,
    _is_q_power,
    _pack,
    _packed_factor,
    _q_poly,
    _spans,
    _times_binomial,
    _unpack,
    binomial,
    binomial_divide,
)
from bhl.rpoly import RPolyTable
from bhl import sigma
from bhl.sigma import SigmaEngine
from checks import (
    binomial_divide_tuples,
    evaluate,
    evaluate_poly,
    is_q_monomial,
    reduced_tuples,
    rf_mul,
    rf_mul_poly,
)


def lp(arity, terms):
    return LaurentPoly(arity, terms)


def test_add_cancellation():
    # (1 - x1*x2) + (x1*x2 - x1) = 1 - x1
    a = lp(2, {(0, 0, 0): 1, (0, 1, 1): -1})
    b = lp(2, {(0, 1, 1): 1, (0, 1, 0): -1})
    assert a + b == lp(2, {(0, 0, 0): 1, (0, 1, 0): -1})


def test_add_identity_and_like_terms():
    p = lp(1, {(2, 1): 3, (-1, 0): 1})
    assert p + LaurentPoly.zero(1) == p
    q = LaurentPoly.q_power(0, 1)
    assert q + q == lp(0, {(1,): 2})


def test_mul_examples():
    one_minus = lp(1, {(0, 0): 1, (0, 1): -1})
    one_plus = lp(1, {(0, 0): 1, (0, 1): 1})
    assert one_minus * one_plus == lp(1, {(0, 0): 1, (0, 2): -1})
    assert LaurentPoly.q_power(0, -1) * LaurentPoly.q_power(0, 1) == LaurentPoly.one(0)
    qm1 = lp(0, {(1,): 1, (0,): -1})
    assert qm1 * qm1 == lp(0, {(2,): 1, (1,): -2, (0,): 1})


def test_arity_mismatch_raises():
    with pytest.raises(ValueError):
        LaurentPoly.one(1) + LaurentPoly.one(2)
    with pytest.raises(ValueError):
        LaurentPoly.one(1) * LaurentPoly.one(2)


def test_bar_q_examples():
    p = lp(0, {(0,): 1, (1,): -1})  # 1 - q
    assert p.bar_q() == lp(0, {(0,): 1, (-1,): -1})
    fixed = lp(0, {(1,): 1, (-1,): 1})  # q + q^-1
    assert fixed.bar_q() == fixed
    mixed = lp(2, {(3, 1, 0): 5, (-2, 0, 4): 7})
    assert mixed.bar_q().bar_q() == mixed


def test_binomial_divide_examples():
    # (x1 - x1*x2) / (1 - x2) = x1
    p = lp(2, {(0, 1, 0): 1, (0, 1, 1): -1})
    assert binomial_divide(p, (0, 1)) == lp(2, {(0, 1, 0): 1})
    # (1 - x1*x2) / (1 - x1*x2) = 1
    p = lp(2, {(0, 0, 0): 1, (0, 1, 1): -1})
    assert binomial_divide(p, (1, 1)) == LaurentPoly.one(2)
    # (1 + x1) is not divisible by (1 - x1): remainder 2 at x1 = 1
    p = lp(1, {(0, 0): 1, (0, 1): 1})
    assert binomial_divide(p, (1,)) is None


def test_rational_add_example():
    # 1 + (1 - q^-1) x1 / (1 - x1) = (1 - q^-1 x1) / (1 - x1)
    one = RationalFn.one(1)
    num = lp(1, {(0, 1): 1, (-1, 1): -1})
    frac = RationalFn(num, ((1,),))
    total = one + frac
    expected = RationalFn(lp(1, {(0, 0): 1, (-1, 1): -1}), ((1,),))
    assert total == expected
    assert str(total) == "(1 - q^-1*x1) / (1 - x1)"


def test_rational_eq_and_zero():
    p = RationalFn(lp(1, {(0, 0): 1, (2, 1): 3}))
    assert p == p
    z = rf_mul(RationalFn.zero(1), RationalFn(lp(1, {(0, 1): 1}), ((1,),)))
    assert z.is_zero() and z.den == ()


def test_rational_eq_ignores_representation():
    # x1(1 - x1) / (1 - x1)^2 equals x1 / (1 - x1) even unreduced
    a = RationalFn(lp(1, {(0, 1): 1, (0, 2): -1}), ((1,), (1,)), reduce=False)
    b = RationalFn(lp(1, {(0, 1): 1}), ((1,),), reduce=False)
    assert a == b


def test_rational_fn_is_unhashable():
    with pytest.raises(TypeError):
        hash(RationalFn.one(1))


def test_string_rendering():
    assert str(LaurentPoly.zero(2)) == "0"
    assert str(lp(0, {(0,): 1, (1,): 2, (2,): 1})) == "1 + 2*q + q^2"
    assert str(lp(1, {(0, 0): 1, (0, 1): -1})) == "1 - x1"
    assert str(lp(2, {(-1, 1, 2): -1})) == "-q^-1*x1*x2^2"
    r = RationalFn(lp(2, {(0, 0, 0): 1}), ((1, 0), (1, 1)))
    assert str(r) == "(1) / (1 - x1)*(1 - x1*x2)"


def test_q_only_projection():
    p = lp(2, {(1, 0, 0): 2, (0, 0, 0): 1})
    assert p.q_only() == lp(0, {(1,): 2, (0,): 1})
    with pytest.raises(ValueError):
        lp(2, {(0, 1, 0): 1}).q_only()


def test_evaluate_exact():
    p = lp(1, {(1, 1): 1, (0, 0): -1})  # q*x1 - 1
    assert evaluate_poly(p, Fraction(1, 2), (Fraction(4),)) == Fraction(1)
    f = RationalFn(lp(1, {(0, 1): 1}), ((1,),))  # x1/(1 - x1)
    assert evaluate(f, 1, (Fraction(1, 2),)) == Fraction(1)


# -- property tests -----------------------------------------------------------

exponents = st.tuples(
    st.integers(-3, 3), st.integers(-2, 3), st.integers(-2, 3)
)
polys = st.dictionaries(exponents, st.integers(-6, 6), max_size=6).map(
    lambda t: LaurentPoly(2, t)
)
betas = st.sampled_from([(1, 0), (0, 1), (1, 1), (1, 2), (2, 1)])


@given(polys, polys, polys)
def test_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@given(polys, polys)
def test_bar_is_ring_involution(a, b):
    assert a.bar_q().bar_q() == a
    assert (a + b).bar_q() == a.bar_q() + b.bar_q()
    assert (a * b).bar_q() == a.bar_q() * b.bar_q()


@settings(max_examples=200)
@given(polys, betas)
def test_binomial_divide_roundtrip(a, beta):
    assert binomial_divide(a * binomial(2, beta), beta) == a


def random_rational(rng):
    terms = {}
    for _ in range(rng.randrange(0, 5)):
        e = (rng.randrange(-2, 3), rng.randrange(0, 3), rng.randrange(0, 3))
        terms[e] = rng.randrange(-4, 5)
    num = LaurentPoly(2, terms)
    den = [
        rng.choice([(1, 0), (0, 1), (1, 1)])
        for _ in range(rng.randrange(0, 3))
    ]
    return RationalFn(num, den)


def test_eq_is_equivalence_and_matches_reduced_form():
    # cross-multiplied equality coincides with equality of the reduced
    # shapes; padded copies stay equal and print identically
    rng = random.Random(2024)
    for _ in range(1000):
        a = random_rational(rng)
        b = random_rational(rng)
        beta = rng.choice([(1, 0), (0, 1), (1, 1)])
        a_pad = RationalFn(a.num * binomial(2, beta), a.den + (beta,))
        assert a == a_pad and a_pad == a
        assert str(a_pad) == str(a)
        ra, rb = a.reduced(), b.reduced()
        assert (a == b) == (ra.num == rb.num and ra.den == rb.den)


def test_eq_transitive_on_padded_copies():
    rng = random.Random(7)
    for _ in range(200):
        a = random_rational(rng)
        b = RationalFn(a.num * binomial(2, (1, 1)), a.den + ((1, 1),))
        c = RationalFn(a.num * binomial(2, (1, 0)), a.den + ((1, 0),))
        assert a == b and b == c and a == c
        assert str(b) == str(c) == str(a)


# -- packed exponent keys -------------------------------------------------------

BOUND = 2**19


# exponent tuples of arity 0 to 7 (1 to 8 digits)
@given(st.lists(st.integers(-BOUND + 1, BOUND - 1), min_size=1, max_size=8).map(tuple))
def test_pack_round_trip(e):
    assert _unpack(_pack(e), len(e)) == e


@st.composite
def exponent_pairs(draw):
    """Two exponent tuples of one length whose sum stays inside the bound."""
    n = draw(st.integers(1, 8))
    half = st.integers(-BOUND // 2 + 1, BOUND // 2 - 1)
    pair = st.lists(half, min_size=n, max_size=n).map(tuple)
    return draw(pair), draw(pair)


@given(exponent_pairs())
def test_pack_is_linear_inside_the_bound(pair):
    a, b = pair
    total = tuple(x + y for x, y in zip(a, b))
    assert _pack(a) + _pack(b) == _pack(total)
    assert _unpack(_pack(a) + _pack(b), len(a)) == total


PACK_OUT_OF_BOUND = """
from bhl.polyring import _pack
for e in [(2**19,), (0, -2**19), (1, 2, 3, 4, 5, 6, 7, 2**19)]:
    try:
        _pack(e)
    except ValueError as exc:
        if str(e) not in str(exc):
            raise SystemExit(f"message does not name {e}: {exc}")
    else:
        raise SystemExit(f"no ValueError for {e}")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_pack_rejects_digit_at_the_bound(flags):
    """A raise, not an assert: it must hold under python -O too."""
    src = os.path.dirname(os.path.dirname(bhl.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", PACK_OUT_OF_BOUND],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


# -- packed division against the tuple-key oracle --------------------------------


def _terms(p):
    return None if p is None else p.terms


def assert_division_matches_oracle(f: RationalFn) -> None:
    """binomial_divide by each den factor, and reduced(), equal the tuple-key
    route term for term."""
    for beta in f.den:
        assert _terms(binomial_divide(f.num, beta)) == _terms(
            binomial_divide_tuples(f.num, beta)
        ), beta
    got = f.reduced()
    num, den = reduced_tuples(f)
    assert (got.num.terms, sorted(got.den)) == (num.terms, sorted(den))


def _in_bound(p: LaurentPoly) -> bool:
    return all(-BOUND < d < BOUND for e in p.terms for d in e)


@st.composite
def division_cases(
    draw, degrees=st.integers(-3, 3), coeffs=st.integers(-5, 5).filter(bool), shifts=(0,)
):
    """A numerator of arity 1 to 7, with degrees drawn from degrees, over 1
    to 3 den factors, which it is a multiple of some of, plus optionally a
    term-wise perturbation that usually leaves a remainder; then every
    exponent is moved by one shift per coordinate, drawn from shifts."""
    n = draw(st.integers(1, 7))
    exps = st.tuples(*[degrees] * (n + 1))
    polys = st.dictionaries(exps, coeffs, min_size=1, max_size=6).map(
        lambda t: LaurentPoly(n, t)
    )
    beta = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple).filter(any)
    betas = draw(st.lists(beta, min_size=1, max_size=3))
    num = draw(polys)
    for b in betas[: draw(st.integers(0, len(betas)))]:
        num = num * binomial(n, b)
    if draw(st.booleans()):
        num = num + draw(polys)
    shift = draw(st.lists(st.sampled_from(shifts), min_size=n + 1, max_size=n + 1))
    terms = {tuple(d + s for d, s in zip(e, shift)): c for e, c in num.terms.items()}
    return RationalFn(LaurentPoly(n, terms), betas)


@settings(max_examples=300, deadline=None)
@given(division_cases())
def test_packed_division_matches_oracle(f):
    assert_division_matches_oracle(f)


# -- q-columns --------------------------------------------------------------------

SLOT_EDGE = 2 ** (_Q_BITS - 1) - 1  # the largest |c| a slot holds
SLOT_COEFFS = st.one_of(
    st.sampled_from([SLOT_EDGE, -SLOT_EDGE, 1, -1]),
    st.integers(-SLOT_EDGE, SLOT_EDGE).filter(bool),
)


@given(st.dictionaries(st.integers(0, 24), SLOT_COEFFS, max_size=25), st.integers(-30, 5))
def test_q_column_round_trip(slots, low):
    pairs = sorted((low + s, c) for s, c in slots.items())
    assert _decode_q(_encode_q(pairs, low), low) == pairs


@pytest.mark.parametrize("slot", range(13))
@pytest.mark.parametrize("c", [SLOT_EDGE, -SLOT_EDGE])
def test_q_column_round_trip_at_every_slot_and_edge(slot, c):
    """The extreme coefficient alone in one slot, and between neighbours
    holding the opposite extreme, reads back unchanged."""
    low = -12
    alone = [(low + slot, c)]
    assert _decode_q(_encode_q(alone, low), low) == alone
    crowded = [(low + s, c if s == slot else -c) for s in range(13)]
    assert _decode_q(_encode_q(crowded, low), low) == crowded


@pytest.mark.parametrize("c", [SLOT_EDGE + 1, -SLOT_EDGE - 1])
def test_q_column_refuses_what_its_slots_cannot_hold(c):
    """A coefficient one bit too wide (2^(K - 1) would read back as
    -2^(K - 1)), or a degree below the lowest slot, is refused."""
    with pytest.raises(ValueError, match="does not fit a column"):
        _encode_q([(0, c)], 0)
    with pytest.raises(ValueError, match="does not fit a column"):
        _encode_q([(-1, 1)], 0)


@pytest.mark.parametrize("low", [0, -5])
@pytest.mark.parametrize("k", [0, 1, 7])
def test_q_power_test_on_columns_agrees_with_is_q_monomial(k, low):
    """The int test of "a single q^k with coefficient 1" says what
    ``checks.is_q_monomial`` says, on 0, q^k, 2q^k, -q^k, q^k + q^j and
    2^62 q^k, for columns from q^0 and from a lower degree."""
    polys = [
        {},
        {k: 1},
        {k: 2},
        {k: -1},
        {k: 1, k + 3: 1},
        {k: 2**62},
    ]
    for terms in polys:
        poly = LaurentPoly(0, {(d,): c for d, c in terms.items()})
        col = _encode_q(sorted(terms.items()), low)
        assert _is_q_power(col) == is_q_monomial(poly), terms
    assert [_is_q_power(_encode_q(sorted(t.items()), low)) for t in polys] == [
        False, True, False, False, False, False,
    ]


def _columns(p: LaurentPoly, low: int) -> dict:
    """p as packed x-keys (q-digit 0) to q-columns from q^low."""
    by_x: dict = {}
    for e, c in p.terms.items():
        by_x.setdefault(_pack((0,) + e[1:]), []).append((e[0], c))
    return {k: _encode_q(pairs, low) for k, pairs in by_x.items()}


@settings(max_examples=300, deadline=None)
@given(division_cases())
def test_column_division_matches_oracle(f):
    """_divide_packed on q-columns, decoded, is the tuple-key quotient:
    the division only adds and zero-tests coefficients."""
    n = f.arity
    low = min((e[0] for e in f.num.terms), default=0)
    cols = _columns(f.num, low)
    for beta in f.den:
        quot = _divide_packed(cols, _packed_factor(beta, n, _spans(f.num)))
        want = binomial_divide_tuples(f.num, beta)
        if want is None:
            assert quot is None, beta
        else:
            got = {
                _unpack(k + d, n + 1): c
                for k, col in quot.items()
                for d, c in _decode_q(col, low)
            }
            assert got == want.terms, beta


def _representatives_in_bound(p: LaurentPoly, beta: tuple) -> bool:
    """The documented domain of packed division by 1 - x^beta: with j the
    last coordinate of beta's support and m_i the largest |x_i-degree| of p,
    m_i + ceil(m_j / beta_j) * beta_i < 2^19 for every i < j."""
    if not p.terms:
        return True
    m = [max(abs(e[i + 1]) for e in p.terms) for i in range(p.arity)]
    j = max(i for i, d in enumerate(beta) if d)
    turns = -(-m[j] // beta[j])
    return all(m[i] + turns * beta[i] < BOUND for i in range(j))


def assert_division_matches_oracle_or_refuses(f: RationalFn) -> None:
    """Inside the documented domain the quotient is the oracle's; a degree on
    or past the bound, or a coset representative past it, raises and never
    yields a quotient."""
    if not _in_bound(f.num):
        for beta in f.den:
            with pytest.raises(ValueError, match=r"has a degree outside"):
                binomial_divide(f.num, beta)
        with pytest.raises(ValueError, match=r"has a degree outside"):
            f.reduced()
        return
    fits = [_representatives_in_bound(f.num, beta) for beta in f.den]
    if all(fits):
        assert_division_matches_oracle(f)
        return
    for beta, fit in zip(f.den, fits):
        if fit:
            assert _terms(binomial_divide(f.num, beta)) == _terms(
                binomial_divide_tuples(f.num, beta)
            ), beta
        else:
            with pytest.raises(ValueError, match="coset representative outside"):
                binomial_divide(f.num, beta)
    with pytest.raises(ValueError, match="coset representative outside"):
        f.reduced()


@settings(max_examples=300, deadline=None)
@given(division_cases(shifts=(BOUND - 6, -BOUND + 2, 0)))
def test_packed_division_near_the_digit_bound(f):
    """Every term of a coordinate moved next to the bound."""
    assert_division_matches_oracle_or_refuses(f)


WIDE_DEGREES = st.one_of(
    st.integers(-3, 3),
    st.integers(-BOUND + 1, -BOUND + 8),
    st.integers(BOUND - 14, BOUND - 8),
)


@settings(max_examples=300, deadline=None)
@given(division_cases(degrees=WIDE_DEGREES, coeffs=st.integers(1, 5)))
def test_packed_division_across_the_digit_range(f):
    """Terms of one coordinate near both ends of the bound at once, where a
    coset representative can leave it. The drawn coefficients are positive,
    so no quotient is a run of some 2^20 terms: the oracle would walk it."""
    assert_division_matches_oracle_or_refuses(f)


@pytest.mark.parametrize(
    "terms, beta",
    [
        ({(0, BOUND - 1, 0): 1, (0, -BOUND + 1, 5): -1}, (1, 2)),
        ({(0, BOUND - 1, 0): 1, (0, -BOUND + 1, 3): -1}, (2, 2)),
    ],
)
def test_carrying_representative_is_refused(terms, beta):
    """Two cosets whose representatives would share a key once the x1-digit
    carries: refused, where a shared key would give a wrong quotient."""
    p = lp(2, terms)
    assert binomial_divide_tuples(p, beta) is None
    for call in (lambda: binomial_divide(p, beta), lambda: RationalFn(p, [beta]).reduced()):
        with pytest.raises(ValueError, match=re.escape(f"1 - x^{beta}")):
            call()


def test_out_of_bound_degree_is_named():
    e = (0, BOUND)
    p = lp(1, {(0, 0): 1, e: -1})
    for call in (lambda: binomial_divide(p, (1,)), lambda: RationalFn(p, [(1,)]).reduced()):
        with pytest.raises(ValueError, match=re.escape(str(e))):
            call()
    # a factor past the bound is refused the same way
    with pytest.raises(ValueError, match=re.escape(str((0, BOUND)))):
        binomial_divide(lp(1, {(0, 0): 1}), (BOUND,))


@pytest.mark.parametrize(
    "beta, message",
    [
        ((0, 0), "beta must be a nonzero nonnegative vector"),
        ((2, -1), "beta must be a nonzero nonnegative vector"),
        ((-1, -1), "beta must be a nonzero nonnegative vector"),
        ((1,), "beta has wrong length"),
        ((1, 0, 0), "beta has wrong length"),
    ],
)
def test_bad_factor_raises(beta, message):
    p = lp(2, {(0, 0, 0): 1, (0, 1, 0): -1})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        binomial_divide(p, beta)
    if len(beta) != p.arity:
        message = "denominator factor has wrong arity"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        RationalFn(p, [beta]).reduced()


@pytest.mark.parametrize("cartan_type", ["A2", "B2", "G2", "A3", "B3", "C3"])
def test_bar_r_division_matches_oracle(cartan_type):
    g = build_group(cartan_type)
    rtable = RPolyTable(g)
    for v in range(g.order):
        for u in _bits(g.down_masks[v]):
            assert_division_matches_oracle(rtable.bar_r_idx(u, v))


def test_sigma_division_matches_oracle_on_b3(b3, engine_b3):
    rng = random.Random(10)
    compared = 0
    while compared < 40:
        u, v, w = (rng.randrange(b3.order) for _ in range(3))
        if not b3.leq_idx(v_min_idx(b3, u, w), v):
            continue
        assert_division_matches_oracle(engine_b3.sigma_idx(u, v, w))
        compared += 1


def test_columns_past_the_l1_limit_compare_on_the_eager_path(monkeypatch):
    """Two column-backed values whose cross-multiplied L1 bounds reach
    2^(K - 1) are compared by the eager cross-multiplication of their
    decoded numerators, one ``LaurentPoly`` comparison per ``==``, and
    still correctly; inside the bound the columns decide. a is
    2^60 (1 + q x1) / (1 - x1), b is a with 1 - x2 on both sides and c is
    a with one coefficient negated."""
    n = 3
    x1, x2 = _pack((0, 1, 0)), _pack((0, 0, 1))
    big = 1 << 60
    cols = {0: big, x1: big << _Q_BITS}
    a = _deferred_columns(lambda: cols, {x1}, 0, n, 2 * big, 2)
    b = _deferred_columns(lambda: _times_binomial(cols, x2), {x1, x2}, 0, n, 4 * big, 2)
    c = _deferred_columns(lambda: {0: big, x1: -big << _Q_BITS}, {x1}, 0, n, 2 * big, 2)
    assert (2 * big << 1) + 4 * big >= _Q_BOUND
    assert _columns_equal(a._packed, b._packed) is None
    assert _columns_equal(b._packed, c._packed) is None
    assert _columns_equal(a._packed, c._packed) is False
    eager = []
    original = LaurentPoly.__eq__

    def counting(left, right):
        eager.append(right)
        return original(left, right)

    monkeypatch.setattr(LaurentPoly, "__eq__", counting)
    assert a == b and b == a
    assert not b == c and not c == b
    assert len(eager) == 4
    for x, y in ((a, b), (b, c), (a, c)):
        assert (x == y) == (RationalFn(x.num, x.den) == RationalFn(y.num, y.den))


def test_column_backed_form_refuses_an_l1_bound_past_the_slots():
    with pytest.raises(ValueError, match="q-slots"):
        _deferred_columns(lambda: {0: 1}, (), 0, 1, _Q_BOUND, 0)


def _gk_sigma0(point, terms, low, l1):
    """The ``_Sigma0`` whose column holds the q-polynomial terms from q^low,
    with L1 bound l1 and point value 7."""
    return sigma._Sigma0(_encode_q(terms, low), low, l1, (point, 7))


def test_times_q_column_at_and_past_the_l1_limit():
    """For every set S of positive roots of A2, the GK right-hand side is
    each column of the GK factor times the column of sigma0, deferred,
    carrying sigma0's point value times the factor's, while L1(sigma0) 2^|S|
    is below 2^(K - 1), and then equals the oracle product term for term;
    one past that bound it raises. With S empty the bound is sigma0's own,
    which no column-backed sigma0 reaches."""
    g = build_group("A2")
    eng = SigmaEngine(g)
    point = sigma._Point(eng)
    n = len(g.positive_roots)
    for roots in (frozenset(r for r in range(n) if m >> r & 1) for m in range(1 << n)):
        gk = eng.gk_factor(roots)
        edge = _Q_BOUND >> len(roots)
        for l1, fits in ((edge - 1, True), (edge, False))[: 2 if roots else 1]:
            sigma0 = _gk_sigma0(point, [(-1, l1 - 1), (3, -1)], -1, l1)
            if not fits:
                with pytest.raises(RuntimeError, match="past the q-column slots"):
                    eng._gk_rhs(roots, sigma0)
                continue
            got = eng._gk_rhs(roots, sigma0)
            assert got._packed._cols is None
            assert got._packed.point == (point, point.gk(roots) * 7 % sigma._P)
            want = rf_mul_poly(gk, _q_poly(sigma0.col, sigma0.low).embed(g.rank))
            assert (got.num, got.den) == (want.num, want.den)


def test_gk_rhs_past_the_l1_limit_raises():
    """From the bound L1(sigma0) 2^|S| >= 2^(K - 1) on, the GK right-hand
    side raises RuntimeError, as sigma_idx does, and builds nothing: there
    is no decoded fallback product."""
    g = build_group("A2")
    eng = SigmaEngine(g)
    point = sigma._Point(eng)
    roots = frozenset(range(len(g.positive_roots)))  # L1 bound 2^3
    for l1 in (_Q_BOUND // 8, _Q_BOUND // 2, _Q_BOUND - 1):
        sigma0 = _gk_sigma0(point, [(2, l1 - 1), (4, -1)], 2, l1)
        with pytest.raises(RuntimeError, match="over 3 roots has L1 bound"):
            eng._gk_rhs(roots, sigma0)


def test_deferred_values_build_on_read():
    """A deferred value builds its columns on the first read that needs
    them, once: not for its arity, den, L1 bound or a point value that
    settles is_zero or ==."""
    n = 2
    x1 = _pack((0, 1))
    builds = []

    def build():
        builds.append(1)
        return {0: 3, x1: -(1 << _Q_BITS)}

    point = object()
    val = _deferred_columns(build, {x1}, -1, n, 4, 1, (point, 5))
    other = _deferred_columns(build, {x1}, -1, n, 4, 1, (point, 6))
    assert val.arity == 1 and not val.is_zero() and not val == other
    assert builds == []
    twin = _deferred_columns(build, {x1}, -1, n, 4, 1, (point, 5))
    assert val == twin and len(builds) == 2
    assert val == _deferred_columns(build, {x1}, -1, n, 4, 1)
    assert len(builds) == 3
