"""Expression grammar: parsing, precedence, printing, and fuzz totality."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intrec import exprs
from intrec.errors import DivisionByZeroExpr, ParseError, UnknownVariable
from intrec.poly import Poly
from intrec.ratfunc import RatFunc

from test_ratfunc import rand_ratfunc

X = ("x",)
XT = ("x", "t")


def rf(text, allowed=X, default="x"):
    return exprs.parse_ratfunc(text, allowed, default)


def test_worked_parses():
    assert rf("2*x^2-1") == RatFunc(Poly("x", [-1, 0, 2]))
    div = rf("x/(1-x^2)")
    assert div == RatFunc(Poly("x", [0, 1]), Poly("x", [1, 0, -1]))
    from intrec.poly import leading_sign
    assert leading_sign(div.den) == 1
    assert rf("-1/2*t^3+t", ("t",), "t") == RatFunc(
        Poly("t", [0, 1, 0, Fraction(-1, 2)])
    )


def test_precedence_and_associativity():
    assert rf("2*x^2") == rf("2*(x^2)")
    assert rf("-x^2") == rf("-(x^2)")
    assert rf("2-3-4") == RatFunc(Poly("x", [-5]))
    assert rf("12/4/3") == RatFunc(Poly("x", [1]))
    assert rf("x^2*x^3") == rf("x^5")
    assert rf("x^2^3") == rf("x^8")
    assert rf("2*x+3*x") == rf("5*x")
    assert rf("(1-x)*(1+x)") == rf("1-x^2")
    assert rf("x-t*t", XT, "t") == rf("x - t^2", XT, "t")


def test_exponent_limit():
    top = exprs.MAX_DEGREE
    assert rf("x^%d" % top) == RatFunc(Poly("x", [0] * top + [1]))
    assert rf("x^3^2^2") == rf("x^81")
    for text in ("x^%d" % (top + 1), "x^2^10", "x^9^9^9", "2^9^9^9^9", "1^9^9^9",
                 "x^1" + "0" * 400, "x^2^1" + "0" * 400):
        with pytest.raises(ParseError) as exc:
            rf(text)
        assert "exponent" in str(exc.value)


def test_degree_limit():
    top = exprs.MAX_DEGREE
    half = top // 2
    assert rf("(x^%d)^2" % half) == rf("x^%d" % top)
    assert rf("x^%d*x^%d+1" % (half, half)) == rf("x^%d+1" % top)
    assert rf("x^%d+x^%d" % (top, top)) == rf("2*x^%d" % top)
    assert rf("x^%d/(1+x)" % top).den == Poly("x", [1, 1])
    assert rf("(x*t)^%d" % half, XT, "t").num.degree() == half
    for text, pos in (("((1+x)^100)^30", 11),
                      ("x^%d*x^%d" % (half, half + 1), len(str(half)) + 2),
                      ("1/x^%d+1/x" % top, len(str(top)) + 4),
                      ("(1+x)/x^%d-x" % top, len(str(top)) + 8),
                      ("(x*t)^%d" % top, 5)):
        with pytest.raises(ParseError) as exc:
            rf(text, XT, "t")
        assert "degree exceeds" in str(exc.value)
        assert exc.value.position == pos, text


def test_high_power_quotient_parses_quickly():
    # normalising the quotient takes one gcd of two degree-200 polynomials
    start = time.perf_counter()
    r = rf("(1+x)^200/(2+x)^200")
    assert time.perf_counter() - start < 3.0
    assert r.num == Poly("x", [1, 1]) ** 200 and r.den == Poly("x", [2, 1]) ** 200
    assert rf("(1+x)^200/((2+x)^100*(1+x)^100)") == RatFunc(Poly("x", [1, 1]) ** 100,
                                                              Poly("x", [2, 1]) ** 100)


def test_nesting_limit():
    top = exprs.MAX_NESTING
    # the deepest accepted input of each shape parses without RecursionError,
    # also in a shape that costs the most frames per level
    assert rf("(" * top + "x" + ")" * top) == rf("x")
    assert rf("-" * top + "x") == rf("x")
    assert rf("(1+2*" * top + "x" + ")^1" * top) == rf("2^%d*x+2^%d-1" % (top, top))
    assert rf("-(" * (top // 2) + "x" + ")" * (top // 2)) == rf("x")
    for text in ("(" * (top + 1) + "x" + ")" * (top + 1), "-" * (top + 1) + "x",
                 "-(" * (top // 2) + "-x" + ")" * (top // 2)):
        with pytest.raises(ParseError) as exc:
            rf(text)
        assert "nesting exceeds" in str(exc.value)
        assert exc.value.position == top


def test_flat_chains_lower_without_recursion():
    assert rf("+".join(["x"] * 1000)) == rf("1000*x")
    assert rf("-".join(["x"] * 1000)) == rf("-998*x")
    assert rf("*".join(["x"] * 1000)) == rf("x^1000")
    assert rf("/".join(["x"] * 1000)) == rf("1/x^998")


def test_normalization_through_lowering():
    assert rf("(x^2-1)/(x-1)") == RatFunc(Poly("x", [1, 1]))


def test_chebyshev_weight_log_derivative():
    from intrec.telescope import chebyshev_weight
    assert rf("x/(1-x^2)") == chebyshev_weight().logderiv


def test_coefficient_bits_limit():
    top = exprs.MAX_BITS
    k = int(top / math.log2(9))
    assert rf("9^%d" % k) == RatFunc(Poly.const("x", 9**k))
    assert rf("(1+x)^1000").num.coeff(500) == math.comb(1000, 500)
    assert rf(str(2**top - 1)) == RatFunc(Poly.const("x", 2**top - 1))
    for text, pos in (("9^%d" % (k + 1), 1),
                      ("9^%d+9^%d" % (k, k), len(str(k)) + 2),
                      ("((9^100)^100)^100", 8),
                      ("(9^1000*x+1)^300", 2),
                      ("(9^600*x+1)^300", 11)):
        with pytest.raises(ParseError) as exc:
            rf(text)
        assert "coefficients exceed" in str(exc.value)
        assert exc.value.position == pos, text
    for text in (str(2**top), "x+" + "7" * 5000):
        with pytest.raises(ParseError) as exc:
            rf(text)
        assert "integer literal exceeds" in str(exc.value)


def test_division_by_zero_expression():
    with pytest.raises(DivisionByZeroExpr):
        rf("1/0")
    with pytest.raises(DivisionByZeroExpr):
        rf("x/(x-x)")


def test_unknown_variable_position():
    with pytest.raises(UnknownVariable) as exc:
        exprs.parse("2*y", X)
    assert exc.value.name == "y"
    assert exc.value.position == 2


def test_syntax_errors_are_positioned():
    for text in ("2x", "", "1+", "((1)", "x^-2", "x^t", "3..5", "*x"):
        with pytest.raises(ParseError) as exc:
            exprs.parse_ratfunc(text, XT, "t")
        assert isinstance(exc.value.position, int)
        assert 0 <= exc.value.position <= len(text)


def test_format_golden_strings():
    p = Poly("x", [0, 5, 0, -20, 0, 16])
    assert exprs.fmt_poly(p) == "16*x^5-20*x^3+5*x"
    r = rf("(1-x*t)/(1-2*x*t+t^2)", XT, "t")
    assert exprs.fmt_ratfunc(r) == "(1-x*t)/(1-2*x*t+t^2)"
    assert exprs.fmt_rational(Fraction(-1, 2)) == "-1/2"


def test_print_parse_round_trip():
    rng = random.Random(929)
    for _ in range(300):
        r = rand_ratfunc(rng)
        text = exprs.fmt_ratfunc(r)
        assert exprs.parse_ratfunc(text, X, "x") == r


coeffs = (st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
          | st.integers(-2**200, 2**200).map(Fraction))


def polys(var):
    return st.lists(coeffs, max_size=5).map(lambda cs: Poly(var, cs))


# (ring, allowed variables, default variable): Q[x], Q[n] and Q[x][t]
RINGS = [
    (polys("x"), X, "x"),
    (polys("n"), ("n",), "n"),
    (st.lists(polys("x"), max_size=4).map(lambda cs: Poly("t", cs)), XT, "t"),
]


@st.composite
def ratfuncs(draw):
    ring, allowed, default = draw(st.sampled_from(RINGS))
    den = draw(ring.filter(lambda p: not p.is_zero()))
    return RatFunc(draw(ring), den), allowed, default


@settings(max_examples=300, deadline=None)
@given(ratfuncs())
# a denominator that is a lone t^0 coefficient
@example((RatFunc(Poly.variable("t"), Poly("t", [Poly("x", [1, 1])])), XT, "t"))
def test_printed_ratfunc_parses_back(case):
    r, allowed, default = case
    text = exprs.fmt_ratfunc(r)
    again = exprs.parse_ratfunc(text, allowed, default)
    assert again == r
    assert exprs.fmt_ratfunc(again) == text


def test_byte_fuzz_never_panics():
    rng = random.Random(1331)
    alphabet = "xtn0123456789+-*/^() ."
    for _ in range(1500):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        try:
            exprs.parse_ratfunc(text, XT, "t")
        except (ParseError, UnknownVariable, DivisionByZeroExpr):
            pass
    for _ in range(500):
        blob = bytes(rng.randrange(256) for _ in range(rng.randint(0, 10)))
        try:
            exprs.parse_ratfunc(blob.decode("latin-1"), XT, "t")
        except (ParseError, UnknownVariable, DivisionByZeroExpr):
            pass


def test_lone_t0_coefficient_prints_without_parentheses():
    xp1 = Poly("x", [1, 1])
    assert exprs.fmt_poly(Poly("t", [xp1])) == "x+1"
    r = RatFunc(Poly.variable("t"), Poly("t", [xp1]))
    assert exprs.fmt_ratfunc(r) == "t/(x+1)"
