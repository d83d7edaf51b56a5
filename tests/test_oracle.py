"""Ground-truth integral values: exact moment sums, the Gauss–Chebyshev rule and
tanh-sinh quadrature."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp

from intrec import cfinite as cf
from intrec import exprs, oracle
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
    # the Chebyshev weight has exact values a(n) = pi·q_n on [-1, 1] only
    prob = IntegralProblem(T, chebyshev_weight(), Fraction(-1), Fraction(1))
    assert prob.factor == "pi" and oracle.exact_term(prob, 0) == 1
    half = IntegralProblem(T, chebyshev_weight(), Fraction(0), Fraction(1))
    with pytest.raises(ExactOracleUnavailable):
        oracle.exact_term(half, 0)
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
    assert kern.form == "linear_power"
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
    assert oracle.quadrature_digits(plain_problem(), 40) == 12
    assert oracle.quadrature_digits(plain_problem(), 8) == 8


def test_chebyshev_weight_outside_unit_interval_unsupported():
    prob = IntegralProblem(T, chebyshev_weight(), Fraction(0), Fraction(2))
    with pytest.raises(UnsupportedKernel):
        oracle.numeric_term(prob, 0, 12)


ZERO = RatFunc(Poly("x", []), Poly("x", [1]))
# 1/(2-x) and |x-1|^(1/2) on [-1, 1], and the Chebyshev weight on [-1/2, 1/3]:
# (kernel, interval, the kernel as a function for the reference integral)
PASS_KERNELS = {
    "rational": (Kernel(RatFunc(Poly("x", [1]), Poly("x", [2, -1])), ZERO),
                 (Fraction(-1), Fraction(1)), lambda x: 1 / (2 - x)),
    "linear_power": (Kernel(RatFunc(Poly("x", [1])),
                            RatFunc(Poly("x", [Fraction(1, 2)]), Poly("x", [-1, 1]))),
                     (Fraction(-1), Fraction(1)), lambda x: mp.sqrt(1 - x)),
    "chebyshev_sub_interval": (chebyshev_weight(), (Fraction(-1, 2), Fraction(1, 3)),
                               lambda x: 1 / mp.sqrt(1 - x * x)),
}


def reference_values(seq, ns, kernel_at, interval):
    """∫ P_n(x)·kernel(x) dx for each n in ns: P_n exactly by a sliding window,
    Horner's rule and mp.quad at 60 digits, so rounding stays far below 1e-30."""
    out = []
    with mp.workdps(60):
        a, b = (float_free(e) for e in interval)
        for n in ns:
            cs = [float_free(Fraction(c)) for c in reversed(reference_term(seq, n).coeffs)]
            out.append(mp.quad(lambda x: mp.polyval(cs, x) * kernel_at(x), [a, b]))
    return out


@pytest.mark.parametrize("digits", [12, 30])
@pytest.mark.parametrize("name", sorted(PASS_KERNELS))
def test_numeric_terms_match_a_reference(name, digits):
    kern, interval, kernel_at = PASS_KERNELS[name]
    seq = cf.product(T, cf.BUILTINS["chebyshev_U"])
    got = oracle.numeric_terms(IntegralProblem(seq, kern, *interval), 12, digits)
    want = reference_values(seq, range(12), kernel_at, interval)
    with mp.workdps(60):
        assert max(abs(g - w) for g, w in zip(got, want)) < mp.mpf(10) ** -digits


def test_numeric_terms_hold_where_horner_cancels():
    # T_n^3 has coefficients near 2^(3n): Horner's rule on them lost 1e-13 by
    # n = 18 at 12 digits and made quadrature miss soon after
    kern, interval, kernel_at = PASS_KERNELS["rational"]
    seq = cf.power(T, 3)
    got = oracle.numeric_terms(IntegralProblem(seq, kern, *interval), 30, 12)
    want = reference_values(seq, range(18, 30), kernel_at, interval)
    with mp.workdps(60):
        assert max(abs(g - w) for g, w in zip(got[18:], want)) < mp.mpf("1e-12")


def test_numeric_terms_of_a_subdominant_solution():
    # P_n = x^n solves P_n = 11x·P_(n-1) - 10x^2·P_(n-2), whose other solution
    # (10x)^n amplifies each rounding error by 10^n: without bits for that
    # growth, term 21 is off by 5e-12
    kern, interval, kernel_at = PASS_KERNELS["rational"]
    seq = cf.CFiniteSeq((Poly("x", [0, 11]), Poly("x", [0, 0, -10])),
                        (Poly("x", [1]), Poly("x", [0, 1])))
    got = oracle.numeric_terms(IntegralProblem(seq, kern, *interval), 30, 12)
    want = reference_values(seq, range(30), kernel_at, interval)
    with mp.workdps(60):
        assert max(abs(g - w) for g, w in zip(got, want)) < mp.mpf("1e-12")


@pytest.mark.parametrize("name", ["rational", "chebyshev_sub_interval", "pi"])
def test_numeric_terms_are_numeric_term(name, monkeypatch):
    if name == "pi":
        prob = IntegralProblem(T, chebyshev_weight(), Fraction(-1), Fraction(1))
    else:
        kern, interval, _ = PASS_KERNELS[name]
        prob = IntegralProblem(T, kern, *interval)
    degrees = []
    real = oracle._RULE.get_nodes

    def get_nodes(a, b, degree, prec):
        degrees.append(degree)
        return real(a, b, degree, prec)

    monkeypatch.setattr(oracle._RULE, "get_nodes", get_nodes)
    values = oracle.numeric_terms(prob, 8, 20)
    # one pass: each degree's nodes are fetched once for all eight terms
    assert len(degrees) == len(set(degrees)) <= oracle._MAXDEGREE
    assert (name == "pi") == (not degrees)
    assert values == [oracle.numeric_term(prob, n, 20) for n in range(8)]


def test_numeric_terms_raise_when_a_later_term_misses():
    # |x-1|^(-3/4): P_0 = (x-1)^2 tames the singularity, P_1 = 1 does not
    kern = Kernel(RatFunc(Poly("x", [1])),
                  RatFunc(Poly("x", [Fraction(-3, 4)]), Poly("x", [-1, 1])))
    seq = cf.CFiniteSeq((Poly("x", [0, 2]), Poly("x", [-1])),
                        (Poly("x", [1, -2, 1]), Poly("x", [1])))
    prob = IntegralProblem(seq, kern, Fraction(-1), Fraction(1))
    oracle.numeric_term(prob, 0, 12)
    with pytest.raises(QuadratureFailed) as alone:
        oracle.numeric_term(prob, 1, 12)
    with pytest.raises(QuadratureFailed) as joint:
        oracle.numeric_terms(prob, 3, 12)
    assert str(joint.value) == str(alone.value)
    assert str(alone.value).startswith(
        "quadrature did not reach 10^-12 within its limit of tanh-sinh degree 12"
        " (error estimate ")


def test_kernel_infinite_at_a_node_is_a_quadrature_failure():
    # |x|^(-3/4) on [-1, 1] (a job refuses this pole inside the interval):
    # degree 1 has a node at x = 0
    kern = Kernel(RatFunc(Poly("x", [1])),
                  RatFunc(Poly("x", [Fraction(-3, 4)]), Poly("x", [0, 1])))
    prob = IntegralProblem(T, kern, Fraction(-1), Fraction(1))
    with pytest.raises(QuadratureFailed, match="kernel is not finite at the node x = 0.0"):
        oracle.numeric_terms(prob, 3, 12)


def test_pi_parts_worked_values():
    prob = IntegralProblem(cf.power(T, 2), chebyshev_weight(), Fraction(-1), Fraction(1))
    assert oracle.exact_terms(prob, 5) == [1] + [Fraction(1, 2)] * 4
    # prefactor x^2: int x^2 T_n(x)/sqrt(1-x^2) dx = pi*(1/2, 0, 1/4, 0, 0)
    x2 = Kernel(RatFunc(Poly("x", [0, 0, 1])), chebyshev_weight().logderiv)
    prob = IntegralProblem(T, x2, Fraction(-1), Fraction(1))
    assert oracle.exact_terms(prob, 5) == [Fraction(1, 2), 0, Fraction(1, 4), 0, 0]


def test_pi_parts_needs_unit_interval_and_polynomial_prefactor():
    sub = IntegralProblem(T, chebyshev_weight(), Fraction(0), Fraction(1))
    frac = Kernel(RatFunc(Poly("x", [1]), Poly("x", [2, -1])), chebyshev_weight().logderiv)
    for prob in (sub, IntegralProblem(T, frac, Fraction(-1), Fraction(1))):
        assert prob.factor is None
        with pytest.raises(ExactOracleUnavailable):
            oracle.exact_term(prob, 0)
        with pytest.raises(ExactOracleUnavailable):
            oracle.exact_terms(prob, 3)
    assert plain_problem().factor == "1"


def kernel_of(prefactor, logderiv):
    parse = lambda e: exprs.parse_ratfunc(e, ("x",))
    return Kernel(parse(prefactor), parse(logderiv))


# kernel class, kernel, interval, form, factor
KERNEL_CLASSES = [
    ("polynomial", kernel_of("x^2+1", "0"), (-1, 2), "rational", "1"),
    ("rational", kernel_of("1/(2-x)", "0"), (-1, 1), "rational", None),
    ("chebyshev_unit", kernel_of("x^2", "x/(1-x^2)"), (-1, 1), "chebyshev_weight", "pi"),
    ("chebyshev_sub", kernel_of("1", "x/(1-x^2)"), (Fraction(-1, 2), 1),
     "chebyshev_weight", None),
    ("chebyshev_rational_prefactor", kernel_of("1/(2-x)", "x/(1-x^2)"), (-1, 1),
     "chebyshev_weight", None),
    ("linear_power", kernel_of("1", "(1/2)/(x-1)"), (-1, 1), "linear_power", None),
    ("unrecognized", kernel_of("1", "1/(x^2+1)"), (-1, 1), None, None),
]


@pytest.mark.parametrize("kern,interval,form,factor", [k[1:] for k in KERNEL_CLASSES],
                         ids=[k[0] for k in KERNEL_CLASSES])
def test_problem_classifies_kernel(kern, interval, form, factor):
    prob = IntegralProblem(T, kern, *interval)
    assert (prob.kernel.form, prob.factor) == (form, factor)


def test_exact_terms_grow_one_cached_prefix(monkeypatch):
    prob = plain_problem()
    calls = []
    real = oracle.exact_term
    monkeypatch.setattr(oracle, "exact_term", lambda p, n: calls.append(n) or real(p, n))
    assert oracle.exact_terms(prob, 3) == [2, 0, Fraction(-2, 3)]
    assert oracle.exact_terms(prob, 5) == [real(prob, n) for n in range(5)]
    assert oracle.exact_terms(prob, 2) == [2, 0]
    assert calls == [0, 1, 2, 3, 4]


small = st.integers(-2, 2)
# sequence data: integers and fractions, so P_n has rational coefficients
small_rationals = small | st.fractions(min_value=-2, max_value=2, max_denominator=3)
lin_polys = st.lists(small_rationals, min_size=1, max_size=2).map(lambda cs: Poly("x", cs))
int_polys = st.lists(small, min_size=1, max_size=2).map(lambda cs: Poly("x", cs))


@st.composite
def sequences(draw, polys=lin_polys):
    order = draw(st.integers(1, 2))
    coeffs = draw(st.lists(polys, min_size=order, max_size=order))
    if coeffs[-1].is_zero():
        coeffs[-1] = Poly("x", [1])
    init = draw(st.lists(polys, min_size=order, max_size=order))
    return cf.CFiniteSeq(tuple(coeffs), tuple(init))


@settings(max_examples=25, deadline=None)
@given(sequences(), st.lists(small, min_size=1, max_size=3), st.integers(0, 5))
def test_pi_parts_match_quadrature(seq, pre, n):
    kern = Kernel(RatFunc(Poly("x", pre) if any(pre) else Poly("x", [1])),
                  chebyshev_weight().logderiv)
    prob = IntegralProblem(seq, kern, Fraction(-1), Fraction(1))
    q = oracle.exact_terms(prob, n + 1)[n]
    with mp.workdps(40):
        got = oracle.numeric_term(prob, n, 30)
        assert abs(mp.pi * float_free(Fraction(q)) - got) < mp.mpf(10) ** -29


@pytest.mark.parametrize("parity", [0, 1], ids=["even_degree", "odd_degree"])
@settings(max_examples=30, deadline=None)
@given(sequences(int_polys), st.lists(small, min_size=1, max_size=3), st.integers(0, 12))
def test_gauss_chebyshev_rule_is_exact(parity, seq, pre, n):
    # M = D//2 + 1 nodes for D = deg(P_n·prefactor): even D = 2M-2, and odd
    # D = 2M-1, the largest degree that M nodes integrate exactly
    prefactor = Poly("x", pre) if any(pre) else Poly("x", [1])
    p = reference_term(seq, n)
    assume(p)
    if (p.degree() + prefactor.degree()) % 2 != parity:
        prefactor = prefactor * Poly("x", [0, 1])
    prob = IntegralProblem(seq, Kernel(RatFunc(prefactor), chebyshev_weight().logderiv),
                           Fraction(-1), Fraction(1))
    got = oracle.numeric_term(prob, n, 30)
    with mp.workdps(60):
        want = mp.pi * float_free(Fraction(oracle.exact_term(prob, n)))
        assert abs(got - want) < mp.mpf(10) ** -30


def reference_term(seq, n):
    """P_n by a sliding window over the recurrence, independent of cfinite."""
    window = list(seq.init)
    for _ in range(n):
        nxt = Poly("x", [])
        for i, p in enumerate(seq.coeffs):
            nxt = nxt + p * window[-1 - i]
        window = window[1:] + [nxt]
    return window[0]


def antiderivative_at(p, point):
    return sum((Fraction(c) * point ** (k + 1) / (k + 1) for k, c in enumerate(p.coeffs)),
               Fraction(0))


endpoints = st.fractions(min_value=-3, max_value=3, max_denominator=6)
rational_prefactors = st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3),
                               min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(sequences(), rational_prefactors, endpoints,
       st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6),
       st.lists(st.integers(0, 39), min_size=1, max_size=6))
def test_exact_term_matches_power_rule(seq, pre, alpha, width, ns):
    kern = Kernel(RatFunc(Poly("x", pre)), RatFunc(Poly("x", [])))
    beta = alpha + width
    prob = IntegralProblem(seq, kern, alpha, beta)
    # one problem, indices in any order: the cached moments only ever grow
    for n in ns:
        integrand = reference_term(seq, n) * Poly("x", pre)
        want = antiderivative_at(integrand, beta) - antiderivative_at(integrand, alpha)
        assert oracle.exact_term(prob, n) == want


@settings(max_examples=40, deadline=None)
@given(sequences(), st.lists(small, min_size=1, max_size=3), st.integers(1, 30))
def test_pi_parts_match_moment_sum(seq, pre, count):
    prefactor = Poly("x", pre) if any(pre) else Poly("x", [1])
    prob = IntegralProblem(seq, Kernel(RatFunc(prefactor), chebyshev_weight().logderiv),
                           Fraction(-1), Fraction(1))
    want = []
    for n in range(count):
        p = reference_term(seq, n) * prefactor
        # int x^k/sqrt(1-x^2) over [-1, 1] = pi*C(k, k/2)/2^k for even k, 0 for odd k
        want.append(sum((Fraction(c) * math.comb(k, k // 2) / 2**k
                         for k, c in enumerate(p.coeffs) if k % 2 == 0), Fraction(0)))
    assert oracle.exact_terms(prob, count) == want


def reference_moment_sum(prob, p):
    """Σ_j c_j Σ_i a_i m_(i+j) over P_n's coefficients c_j, the prefactor's
    a_i and the problem's raw moments m_k: a double sum, one dot product per
    prefactor coefficient."""
    ws = [Fraction(a) for a in prob.kernel.prefactor.num.coeffs]
    count = len(p.coeffs) + len(ws) - 1
    oracle._moments(prob, len(p.coeffs))
    ms = [Fraction(m, prob._den) for m in prob._nums[:count]]
    return sum((a * sum((Fraction(c) * m for c, m in zip(p.coeffs, ms[i:])), Fraction(0))
                for i, a in enumerate(ws)), Fraction(0))


@settings(max_examples=60, deadline=None)
@given(sequences(), rational_prefactors, endpoints,
       st.fractions(min_value=Fraction(1, 6), max_value=3, max_denominator=6),
       st.booleans(), st.lists(st.integers(0, 39), min_size=1, max_size=6))
def test_weighted_moments_match_the_double_sum(seq, pre, alpha, width, cheb, ns):
    # the moments weighted by the prefactor grow with the raw ones, over
    # their denominator, whatever order the terms are asked for in
    if cheb:
        kern, alpha, beta = Kernel(RatFunc(Poly("x", pre)), chebyshev_weight().logderiv), -1, 1
    else:
        kern, beta = Kernel(RatFunc(Poly("x", pre)), RatFunc(Poly("x", []))), alpha + width
    prob = IntegralProblem(seq, kern, alpha, beta)
    for n in ns:
        p = reference_term(seq, n)
        assert oracle._moment_sum(prob, p) == reference_moment_sum(prob, p)
