"""Exact coefficient arithmetic: ring axioms, gcd, and the two-variable layout."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from intrec import _kernels as K
from intrec import poly as P
from intrec.poly import Poly


def rand_frac(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def rand_poly(rng, var="x", maxdeg=4, span=9):
    return Poly(var, [rand_frac(rng, span) for _ in range(rng.randint(0, maxdeg) + 1)])


def nonzero_poly(rng, var="x", maxdeg=4, span=9):
    while True:
        p = rand_poly(rng, var, maxdeg, span)
        if not p.is_zero():
            return p


def canonical_unit(p):
    """p divided by its signed rational content: integer-primitive, positive
    lead; the reference that the gcd tests compare with."""
    if p.is_zero():
        return p
    c = P.rational_content(p) * P.leading_sign(p)
    return P.scale_poly(p, Fraction(1, 1) / c)


def rand_bivar(rng, maxdeg_t=3, maxdeg_x=2, span=5):
    coeffs = [rand_poly(rng, "x", maxdeg_x, span)
              for _ in range(rng.randint(0, maxdeg_t) + 1)]
    return Poly("t", coeffs)


def nonzero_bivar(rng, maxdeg_t=2, maxdeg_x=2, span=4):
    while True:
        p = rand_bivar(rng, maxdeg_t, maxdeg_x, span)
        if not p.is_zero():
            return p


def test_rational_field_axioms():
    rng = random.Random(101)
    for _ in range(1000):
        a, b, c = (P.as_num(rand_frac(rng)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == 0
        if b:
            assert P.num_div(a, b) * b == a
    assert P.as_num(Fraction(4, 2)) == 2 and type(P.as_num(Fraction(4, 2))) is int
    with pytest.raises(ZeroDivisionError):
        P.num_div(Fraction(1), Fraction(0))


def test_polynomial_ring_axioms():
    rng = random.Random(202)
    for _ in range(300):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == Poly("x", [])
        v = rand_frac(rng)
        assert (a * b).eval(v) == a.eval(v) * b.eval(v)
        assert (a + b).eval(v) == a.eval(v) + b.eval(v)
        if not (a.is_zero() or b.is_zero()):
            assert (a * b).degree() == a.degree() + b.degree()


def test_derivative_product_rule():
    rng = random.Random(303)
    for _ in range(150):
        a, b = rand_poly(rng), rand_poly(rng)
        assert (a * b).deriv() == a.deriv() * b + a * b.deriv()


def divmod_reference(a, b):
    """(q, r) with a = q·b + r and deg r < deg b, for univariate a and b:
    schoolbook long division over Q in Fractions, the reference for
    `P.exact_div`."""
    r = [Fraction(c) for c in a.coeffs]
    db, lb = b.degree(), Fraction(b.lc())
    q = [Fraction(0)] * max(len(r) - db, 0)
    for s in range(len(r) - 1 - db, -1, -1):
        q[s] = r[s + db] / lb
        for i, c in enumerate(b.coeffs):
            r[s + i] -= q[s] * c
    return Poly(a.var, q), Poly(a.var, r[:db])


def test_exact_div_inverts_product():
    rng = random.Random(505)
    for _ in range(120):
        a, b = rand_poly(rng), nonzero_poly(rng)
        assert P.exact_div(a * b, b) == a


def frac_polys(min_size):
    coeffs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
    return st.lists(coeffs, min_size=min_size, max_size=6).map(lambda cs: Poly("x", cs))


@settings(max_examples=300, deadline=None)
@given(frac_polys(0), frac_polys(2), frac_polys(0),
       st.fractions(min_value=-30, max_value=30, max_denominator=30).filter(bool))
def test_exact_div_matches_long_division(q, b, r, content):
    # content is a rational of either sign: b gets a nontrivial content and,
    # half the time, a negative leading coefficient
    b = b * content
    assume(b.degree() >= 1)
    r = Poly("x", r.coeffs[:b.degree()])
    a = q * b + r
    ref_q, ref_r = divmod_reference(a, b)
    assert ref_q == q and ref_r == r
    if r:
        with pytest.raises(ArithmeticError):
            P.exact_div(a, b)
    else:
        assert P.exact_div(a, b) == q
    assert P.exact_div(a, Poly("x", [content])) == P.scale_poly(a, 1 / content)
    with pytest.raises(ValueError):
        P.exact_div(a, Poly("t", b.coeffs))
    with pytest.raises(ValueError):
        P.exact_div(Poly("t", [a, 1]), b)


def test_kernel_api_surface():
    # the benchmark's meta line reports the kernels by this name
    assert K.BACKEND_NAME == "pure"
    assert K.exactdiv_int([2, 3, 1], [1, 1]) == [2, 1]
    with pytest.raises(ArithmeticError):
        K.exactdiv_int([1, 1, 1], [2])


def test_gcd_worked_examples():
    x2m1 = Poly("x", [-1, 0, 1])
    assert P.gcd(x2m1, Poly("x", [1, -2, 1])) == Poly("x", [-1, 1])
    a = Poly("x", [-2, 0, 2])
    zero = Poly("x", [])
    assert P.gcd(a, zero) == a.monic()
    assert P.gcd(zero, a) == a.monic()
    assert P.gcd(zero, zero).is_zero()


def test_gcd_with_a_rational_constant_is_one(monkeypatch):
    # a nonzero rational constant shares no factor with anything: no gcd runs
    def no_gcd(*args):
        raise AssertionError("gcd ran for a constant argument")

    monkeypatch.setattr(K, "gcd_int", no_gcd)
    monkeypatch.setattr(P, "_gcd_bivariate", no_gcd)
    x = Poly.variable("x")
    biv = Poly("t", [x + 1, x * x, 3])
    t_const_biv = Poly("t", [x + 2])  # t-free, but not a rational constant
    for c in (Poly.const("x", 3), Poly.const("t", Fraction(-2, 5)), Poly.const("n", 7)):
        for p, var in ((x * x + 1, "x"), (Poly("t", [1, 2]), "t"), (biv, "t")):
            for g in (P.gcd(p, c), P.gcd(c, p)):
                assert g.coeffs == [1] and g.var == var
        assert P.gcd(c, Poly.const("x", Fraction(1, 2))).var == "x"
        assert P.gcd(t_const_biv, c).coeffs == [1]
        assert P.gcd(c, Poly(c.var, [])) == Poly(c.var, [1])


def test_gcd_divides_both_inputs():
    rng = random.Random(606)
    for _ in range(200):
        a, b = nonzero_poly(rng), nonzero_poly(rng)
        g = P.gcd(a, b)
        assert P.exact_div(a, g) * g == a and P.exact_div(b, g) * g == b


def test_gcd_cofactors_multiply_back():
    rng = random.Random(505)
    zero_x, zero_t = Poly("x", []), Poly("t", [])
    cases = [(nonzero_poly(rng), nonzero_poly(rng)) for _ in range(60)]
    cases += [(nonzero_bivar(rng), nonzero_bivar(rng)) for _ in range(30)]
    g = Poly("x", [1, Fraction(2, 5)])  # primitive part 2x + 5, not monic
    cases += [(g * nonzero_poly(rng), g * nonzero_poly(rng)) for _ in range(20)]
    cases += [(nonzero_poly(rng), zero_x), (zero_t, nonzero_bivar(rng)),
              (Poly.const("x", Fraction(2, 3)), nonzero_poly(rng)),
              (Poly("t", [Poly("x", [1, 1])]), Poly("t", [Fraction(1, 2), 3]))]
    for a, b in cases:
        for u, v in ((a, b), (b, a)):
            g, cu, cv = P.gcd(u, v, cofactors=True)
            assert g == P.gcd(u, v)
            assert g * cu == u and g * cv == v


def test_gcd_recovers_planted_factor():
    rng = random.Random(707)
    for _ in range(150):
        g = nonzero_poly(rng, maxdeg=2)
        u, v = nonzero_poly(rng, maxdeg=2), nonzero_poly(rng, maxdeg=2)
        d = P.gcd(g * u, g * v)
        assert P.exact_div(d, g) * g == d


ROOTS = sorted({Fraction(k, p) for k in range(-30, 31) for p in (1, 2, 3, 5)})


def _coprime_factors(rng, count, make):
    """`count` linear factors with distinct roots, split in two lists."""
    keys = rng.sample(ROOTS, count)
    factors = [make(rng, k) for k in keys]
    cut = rng.randint(0, count)
    return factors[:cut], factors[cut:]


def _product(factors, one):
    out = one
    for f in factors:
        out = out * f
    return out


def test_gcd_is_the_planted_factor_univariate():
    # u and v are products of linear factors with distinct roots, so gcd(u, v)
    # is an integer and gcd(g·u, g·v) is exactly g up to its content
    rng = random.Random(1717)
    one = Poly("x", [1])
    for _ in range(150):
        g = Poly("x", [rng.randint(-10**rng.randint(0, 12), 10**rng.randint(0, 12))
                       for _ in range(rng.randint(1, 6))])
        if g.is_zero():
            continue
        us, vs = _coprime_factors(rng, rng.randint(0, 6),
                                  lambda r, k: Poly("x", [-k.numerator, k.denominator]))
        u = _product(us, one) * rng.randint(1, 6)
        v = _product(vs, one) * rng.randint(1, 6)
        a, b = (g * u).coeffs, (g * v).coeffs
        h, qa, qb = K.gcd_int(a, b)
        assert h == K.primitive(g.coeffs, False)[1]
        assert K.pmul(h, qa) == a and K.pmul(h, qb) == b
        assert P.gcd(g * u, g * v) == g.monic()


def test_gcd_is_the_planted_factor_bivariate():
    # u and v are products of distinct irreducibles t - c·x - k and x - k,
    # so they are coprime in Q[x][t] and gcd(g·u, g·v) is exactly g
    rng = random.Random(1818)
    x = Poly.variable("x")
    one = Poly("t", [1])

    def t_factor(r, k):
        return Poly("t", [-(r.choice([0, 1, -2]) * x) - k, 1])

    for _ in range(60):
        g = rand_bivar(rng, maxdeg_t=2, maxdeg_x=2, span=rng.choice([3, 1000]))
        if g.is_zero():
            continue
        ut, vt = _coprime_factors(rng, rng.randint(0, 4), t_factor)
        ux, vx = _coprime_factors(rng, rng.randint(0, 3), lambda r, k: Poly("t", [x - k]))
        u = _product(ut + ux, one) * Fraction(rng.randint(1, 6), rng.randint(1, 6))
        v = _product(vt + vx, one) * rng.randint(1, 6)
        assert P.gcd(g * u, g * v) == canonical_unit(g)
        (ra, _), (rb, _) = P.int_rows(g * u), P.int_rows(g * v)
        rows, qa, qb = K.gcd_int(ra, rb)
        assert P.from_rows(rows) == canonical_unit(g)
        assert K.rmul(rows, qa) == ra and K.rmul(rows, qb) == rb


def _euclid_over_q(a, b):
    """Monic gcd of two int lists by the Euclidean algorithm over Q."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        while len(a) >= len(b):
            q = a[-1] / b[-1]
            s = len(a) - len(b)
            a = [c - q * b[i - s] if i >= s else c for i, c in enumerate(a)][:-1]
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return [c / a[-1] for c in a] if a else []


int_lists = st.lists(st.integers(-60, 60), max_size=6)


@settings(max_examples=300, deadline=None)
@given(int_lists, int_lists, int_lists)
def test_gcd_int_matches_euclid_over_q(g, u, v):
    a, b = K.pmul(g, u), K.pmul(g, v)
    if not (a or b):
        return
    h, qa, qb = K.gcd_int(a, b)
    assert [Fraction(c, h[-1]) for c in h] == _euclid_over_q(a, b)
    assert K.pmul(h, qa) == K.strip(a) and K.pmul(h, qb) == K.strip(b)
    assert h[-1] > 0 and math.gcd(*h) == 1


def test_gcd_int_retries_after_an_unlucky_point(monkeypatch):
    # at the first point xi = 2·1 + 29 = 31 the image gcd is 961 = 31^2, whose
    # digits spell x^2, which does not divide 13x^3 + 16x^2 + 31x
    passes = []
    interpolate = K._interpolate

    def counted(g, xi, nested):
        passes.append(xi)
        return interpolate(g, xi, nested)

    monkeypatch.setattr(K, "_interpolate", counted)
    assert K.gcd_int([0, 0, 1], [0, 31, 16, 13]) == ([0, 1], [0, 1], [31, 16, 13])
    assert passes[0] == 31 and len(passes) >= 2


def test_bivariate_gcd_common_factor():
    rng = random.Random(909)
    for _ in range(40):
        g = nonzero_bivar(rng, maxdeg_t=1, maxdeg_x=1)
        u = nonzero_bivar(rng, maxdeg_t=1, maxdeg_x=1)
        v = nonzero_bivar(rng, maxdeg_t=1, maxdeg_x=1)
        d, cu, cv = P.gcd(g * u, g * v, cofactors=True)
        # d divides both products and the planted factor divides d
        assert d * cu == g * u and d * cv == g * v
        h, cd, cg = P.gcd(d, g, cofactors=True)
        assert h * cd == d and h * cg == g
        assert cg.is_constant() and not cg.is_bivariate()


def test_chebyshev_denominator_is_squarefree():
    den = Poly("t", [Poly("x", [1]), Poly("x", [0, -2]), Poly("x", [1])])
    g = P.gcd(den, den.deriv())
    assert g.is_constant() or (g.degree() == 0 and P.x_degree(g) == 0)


def test_canonical_unit_properties():
    rng = random.Random(111)
    for _ in range(100):
        p = nonzero_poly(rng)
        q = rand_frac(rng)
        if not q:
            q = Fraction(3)
        assert canonical_unit(P.scale_poly(p, q)) == canonical_unit(p)
        c = canonical_unit(p)
        assert P.leading_sign(c) == 1
        assert P.rational_content(c) == 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-50, 50) | st.fractions(min_value=-50, max_value=50,
                                                    max_denominator=12), max_size=6))
@example([])
@example([3, -4, 0])
@example([2, Fraction(-3, 4), Fraction(5, 6), -1])
@example([Fraction(-1, 2), Fraction(-1, 3)])
def test_cleared_matches_fraction_reference(values):
    ints, L = P.cleared(values)
    want = math.lcm(*(Fraction(v).denominator for v in values))
    assert L == want and all(type(v) is int for v in ints)
    assert ints == [int(Fraction(v) * want) for v in values]


def test_int_rows_round_trip():
    bp = Poly("t", [Poly("x", [Fraction(1, 2), 2]), Poly("x", [0, 3])])
    assert P.int_rows(bp) == ([[1, 4], [0, 6]], 2)
    assert P.from_rows([[1, 4], [0, 6]], 2) == bp
    assert P.int_rows(Poly("x", [Fraction(1, 3), 1])) == ([[1, 3]], 3)
    assert P.int_rows(Poly("t", [0, 5])) == ([[], [5]], 1)
    assert P.int_rows(Poly("t", [])) == ([], 1)
    rng = random.Random(222)
    for _ in range(60):
        p = rand_bivar(rng)
        rows, den = P.int_rows(p)
        assert all(type(v) is int for r in rows for v in r)
        assert P.from_rows(rows, den) == p


def test_cross_variable_product_stays_flat():
    # a rational x-polynomial times a t-constant wrapper must not nest
    r = Poly("x", [0, Fraction(1, 2)]) * Poly("t", [Poly("x", [0, 2])])
    assert r.var == "x"
    assert r == Poly("x", [0, 0, 1])
    s = Poly("x", [0, 1]) * Poly("t", [0, 1])
    assert s.var == "t"
    assert s == Poly("t", [0, Poly("x", [0, 1])])


def test_eval_bivariate_worked():
    bp = Poly("t", [Poly("x", [1, 2]), Poly("x", [0, 3])])
    assert bp.eval(Fraction(5)).eval(Fraction(2)) == 35


small_fracs = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(small_fracs, st.integers(1, 3)), min_size=0, max_size=4),
       small_fracs, small_fracs, st.fractions(min_value=-3, max_value=3))
@example([(Fraction(1, 2), 2), (Fraction(-1), 1)], Fraction(-1), Fraction(1, 2), Fraction(1))
def test_sturm_counts_distinct_roots_in_half_open_interval(planted, a, b, lead):
    # linear factors with rational, possibly repeated, roots, times x^2 + 1,
    # which has no real root
    assume(a != b and lead)
    lo, hi = min(a, b), max(a, b)
    p = Poly("x", [1, 0, 1]) * lead
    for root, mult in planted:
        p = p * Poly("x", [-root, 1]) ** mult
    q, variations = P.sturm(p)
    # q is squarefree: one linear factor per distinct root, times x^2 + 1
    assert len(q) - 1 == len({r for r, _ in planted}) + 2
    assert all(not K.peval(q, r) for r, _ in planted)
    assert variations(lo) - variations(hi) == len({r for r, _ in planted if lo < r <= hi})
