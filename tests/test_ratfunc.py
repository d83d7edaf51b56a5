"""Rational function field: normalization, field axioms, derivatives."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intrec import exprs
from intrec import poly as P
from intrec.errors import ZeroDenominator
from intrec.poly import Poly
from intrec.ratfunc import RatFunc

from test_poly import nonzero_poly, rand_frac, rand_poly


def rand_ratfunc(rng, maxdeg=3, span=5):
    return RatFunc(rand_poly(rng, maxdeg=maxdeg, span=span),
                   nonzero_poly(rng, maxdeg=maxdeg, span=span))


def test_normalize_worked_examples():
    r = RatFunc(Poly("x", [-2, 0, 2]), Poly("x", [-2, 2]))
    assert r.num == Poly("x", [1, 1])
    assert r.den == Poly("x", [1])
    z = RatFunc(Poly("x", []), Poly("x", [5, 0, 0, 1]))
    assert z.is_zero()
    assert z.den == Poly("x", [1])


def test_normalize_idempotent_and_scale_invariant():
    rng = random.Random(313)
    for _ in range(120):
        r = rand_ratfunc(rng)
        again = RatFunc(r.num, r.den)
        assert again.num == r.num and again.den == r.den
        c = rand_frac(rng) or Fraction(2)
        scaled = RatFunc(P.scale_poly(r.num, c), P.scale_poly(r.den, c))
        assert scaled.num == r.num and scaled.den == r.den
        m = nonzero_poly(rng, maxdeg=2)
        blown = RatFunc(r.num * m, r.den * m)
        assert blown.num == r.num and blown.den == r.den


def test_numerator_denominator_coprime():
    rng = random.Random(414)
    for _ in range(100):
        r = rand_ratfunc(rng)
        if r.is_zero():
            continue
        g = P.gcd(r.num, r.den)
        assert g.is_constant() or g.degree() == 0


fractions = st.fractions(min_value=-20, max_value=20, max_denominator=6)
x_polys = st.lists(fractions, max_size=4).map(lambda cs: Poly("x", cs))
t_polys = st.lists(x_polys, max_size=3).map(lambda cs: Poly("t", cs))


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.tuples(x_polys, x_polys, x_polys), st.tuples(t_polys, t_polys, t_polys)))
def test_common_factor_cancels_to_canonical_form(polys):
    n, d, g = polys
    if d.is_zero() or g.is_zero():
        return
    r = RatFunc(n * g, d * g)
    assert r == RatFunc(n, d)
    assert P.rational_content(r.den) == 1 and P.leading_sign(r.den) == 1
    if not r.is_zero():
        # lowest terms: numerator and denominator share no factor
        assert P.gcd(r.num, r.den) == Poly(r.num.var, [1])
        assert r.num * d == r.den * n


def test_field_axioms():
    rng = random.Random(515)
    for _ in range(150):
        a, b, c = (rand_ratfunc(rng, maxdeg=2, span=4) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        if not b.is_zero():
            assert (a / b) * b == a


def test_chebyshev_pair_already_reduced():
    r = exprs.parse_ratfunc("(1-x*t)/(1-2*x*t+t^2)", ("x", "t"), "t")
    assert exprs.fmt_ratfunc(r) == "(1-x*t)/(1-2*x*t+t^2)"


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RatFunc(Poly("x", [1]), Poly("x", []))


def test_t_free_quotient_has_one_form():
    # x·(1−t)/(1−t) reduces to x: the same structure, and repr, as RatFunc(x)
    x = Poly.variable("x")
    r = RatFunc(Poly("t", [x, -x]), Poly("t", [1, -1]))
    assert repr(r) == repr(RatFunc(x)) == "RatFunc(Poly('x', [0, 1]), Poly('x', [1]))"
    q = RatFunc(Poly("t", [x * x + 1, -x * x - 1]), Poly("t", [x - 3, 3 - x]))
    assert repr(q) == repr(RatFunc(x * x + 1, x - 3))
