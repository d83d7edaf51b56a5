"""Ground-truth integral values: exact power rule and tanh-sinh quadrature."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from intrec import cfinite as cf
from intrec import oracle
from intrec.errors import ExactOracleUnavailable, QuadratureFailed, UnsupportedKernel
from intrec.oracle import IntegralProblem
from intrec.poly import Poly
from intrec.ratfunc import RatFunc
from intrec.telescope import Kernel, chebyshev_weight, trivial_kernel

T = cf.BUILTINS["chebyshev_T"]


def plain_problem(seq=T, alpha=Fraction(-1), beta=Fraction(1)):
    return IntegralProblem(seq, trivial_kernel(), alpha, beta)


def test_exact_worked_examples():
    prob = plain_problem()
    assert oracle.exact_term(prob, 2) == Fraction(-2, 3)
    for n in (1, 3, 5, 7):
        assert oracle.exact_term(prob, n) == 0
    powers = cf.CFiniteSeq((Poly("x", [0, 1]),), (Poly("x", [1]),))
    pp = plain_problem(powers, Fraction(0), Fraction(1))
    for n in range(11):
        assert oracle.exact_term(pp, n) == Fraction(1, n + 1)


def test_exact_requires_polynomial_kernel():
    prob = IntegralProblem(T, chebyshev_weight(), Fraction(-1), Fraction(1))
    with pytest.raises(ExactOracleUnavailable):
        oracle.exact_term(prob, 0)
    frac_kernel = Kernel(
        RatFunc(Poly("x", [1]), Poly("x", [1, 0, 1])),
        RatFunc(Poly("x", []), Poly("x", [1])),
    )
    with pytest.raises(ExactOracleUnavailable):
        oracle.exact_term(IntegralProblem(T, frac_kernel, Fraction(0), Fraction(1)), 0)


def test_numeric_matches_exact():
    prob = plain_problem()
    with mp.workdps(30):
        for n in range(21):
            got = oracle.numeric_term(prob, n, 15)
            assert abs(got - float_free(oracle.exact_term(prob, n))) < mp.mpf("1e-12")


def float_free(q):
    return mp.mpf(q.numerator) / q.denominator


def test_chebyshev_weight_values():
    prob = IntegralProblem(T, chebyshev_weight(), Fraction(-1), Fraction(1))
    with mp.workdps(30):
        assert abs(oracle.numeric_term(prob, 0, 10) - mp.pi) < mp.mpf("1e-10")
        assert abs(oracle.numeric_term(prob, 3, 10)) < mp.mpf("1e-10")


def test_exact_term_is_linear():
    rng = random.Random(771)
    for _ in range(20):
        p1 = Poly("x", [rng.randint(-3, 3) for _ in range(3)])
        p2 = Poly("x", [rng.randint(-3, 3) for _ in range(3)])
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        zero = RatFunc(Poly("x", []), Poly("x", [1]))
        k1 = Kernel(RatFunc(p1), zero)
        k2 = Kernel(RatFunc(p2), zero)
        kc = Kernel(RatFunc(Poly("x", [c]) * p1 + p2), zero)
        n = rng.randint(0, 6)
        args = (Fraction(-1), Fraction(2))
        t1 = oracle.exact_term(IntegralProblem(T, k1, *args), n)
        t2 = oracle.exact_term(IntegralProblem(T, k2, *args), n)
        tc = oracle.exact_term(IntegralProblem(T, kc, *args), n)
        assert tc == c * t1 + t2
        # scaling every initial polynomial scales each term of the sequence
        scaled = cf.CFiniteSeq(T.coeffs, tuple(q * Poly("x", [c]) for q in T.init))
        ts = oracle.exact_term(IntegralProblem(scaled, k1, *args), n)
        assert ts == c * t1


def test_quadrature_precision_cap():
    # |x-1|^(-3/4) at the endpoint 1: the error estimate stalls near 1e-9
    # under the subdivision cap, even at the pipeline's 12 digits
    kern = Kernel(
        RatFunc(Poly("x", [1])),
        RatFunc(Poly("x", [Fraction(-3, 4)]), Poly("x", [-1, 1])),
    )
    assert oracle.recognized_form(kern) == "linear_power"
    prob = IntegralProblem(T, kern, Fraction(-1), Fraction(1))
    with pytest.raises(QuadratureFailed):
        oracle.numeric_term(prob, 0, 12)


def test_chebyshev_weight_quadrature_reaches_40_digits():
    prob = IntegralProblem(T, chebyshev_weight(), Fraction(-1), Fraction(1))
    with mp.workdps(50):
        assert abs(oracle.numeric_term(prob, 0, 40) - mp.pi) < mp.mpf(10) ** -40
    # a sub-interval maps to [acos beta, acos alpha]: int_0^1 x/sqrt(1-x^2) dx = 1
    half = IntegralProblem(T, chebyshev_weight(), Fraction(0), Fraction(1))
    with mp.workdps(40):
        assert abs(oracle.numeric_term(half, 1, 30) - 1) < mp.mpf(10) ** -30


def test_quadrature_digits_cap_only_kernels_integrated_in_x():
    cheb = IntegralProblem(T, chebyshev_weight(), Fraction(0), Fraction(1))
    assert oracle.quadrature_digits(cheb, 40) == 40
    assert oracle.quadrature_digits(cheb, 40, evaluator=lambda x: 1) == 12
    assert oracle.quadrature_digits(plain_problem(), 40) == 12
    assert oracle.quadrature_digits(plain_problem(), 8) == 8


def test_chebyshev_weight_outside_unit_interval_unsupported():
    prob = IntegralProblem(T, chebyshev_weight(), Fraction(0), Fraction(2))
    with pytest.raises(UnsupportedKernel):
        oracle.numeric_term(prob, 0, 12)


def test_pi_parts_worked_values():
    prob = IntegralProblem(cf.power(T, 2), chebyshev_weight(), Fraction(-1), Fraction(1))
    assert oracle.pi_parts(prob, 5) == [1] + [Fraction(1, 2)] * 4
    # prefactor x^2: int x^2 T_n(x)/sqrt(1-x^2) dx = pi*(1/2, 0, 1/4, 0, 0)
    x2 = Kernel(RatFunc(Poly("x", [0, 0, 1])), chebyshev_weight().logderiv)
    prob = IntegralProblem(T, x2, Fraction(-1), Fraction(1))
    assert oracle.pi_parts(prob, 5) == [Fraction(1, 2), 0, Fraction(1, 4), 0, 0]


def test_pi_parts_needs_unit_interval_and_polynomial_prefactor():
    sub = IntegralProblem(T, chebyshev_weight(), Fraction(0), Fraction(1))
    assert not oracle.has_pi_parts(sub)
    with pytest.raises(ExactOracleUnavailable):
        oracle.pi_parts(sub, 3)
    frac = Kernel(RatFunc(Poly("x", [1]), Poly("x", [2, -1])), chebyshev_weight().logderiv)
    assert not oracle.has_pi_parts(IntegralProblem(T, frac, Fraction(-1), Fraction(1)))
    assert not oracle.has_pi_parts(plain_problem())


small = st.integers(-2, 2)
lin_polys = st.lists(small, min_size=1, max_size=2).map(lambda cs: Poly("x", cs))


@st.composite
def sequences(draw):
    order = draw(st.integers(1, 2))
    coeffs = draw(st.lists(lin_polys, min_size=order, max_size=order))
    if coeffs[-1].is_zero():
        coeffs[-1] = Poly("x", [1])
    init = draw(st.lists(lin_polys, min_size=order, max_size=order))
    return cf.CFiniteSeq(tuple(coeffs), tuple(init))


@settings(max_examples=25, deadline=None)
@given(sequences(), st.lists(small, min_size=1, max_size=3), st.integers(0, 5))
def test_pi_parts_match_quadrature(seq, pre, n):
    kern = Kernel(RatFunc(Poly("x", pre) if any(pre) else Poly("x", [1])),
                  chebyshev_weight().logderiv)
    prob = IntegralProblem(seq, kern, Fraction(-1), Fraction(1))
    q = oracle.pi_parts(prob, n + 1)[n]
    with mp.workdps(40):
        got = oracle.numeric_term(prob, n, 30)
        assert abs(mp.pi * float_free(Fraction(q)) - got) < mp.mpf(10) ** -29


def test_numeric_unroll_harmonic():
    coeffs = [Poly("n", [-1, -1]), Poly("n", [2, 1])]
    with mp.workdps(40):
        vals = oracle.numeric_unroll(coeffs, [mp.mpf(1)], 6)
        for n, v in enumerate(vals):
            assert abs(v - float_free(Fraction(1, n + 1))) < mp.mpf("1e-20")


def test_recognized_form_all_outcomes():
    assert oracle.recognized_form(trivial_kernel()) == "rational"
    assert oracle.recognized_form(chebyshev_weight()) == "chebyshev_weight"
    linear = Kernel(
        RatFunc(Poly("x", [1])),
        RatFunc(Poly("x", [Fraction(1, 2)]), Poly("x", [-2, 1])),
    )
    assert oracle.recognized_form(linear) == "linear_power"
    odd = Kernel(
        RatFunc(Poly("x", [1])),
        RatFunc(Poly("x", [1]), Poly("x", [1, 0, 1])),
    )
    assert oracle.recognized_form(odd) is None
