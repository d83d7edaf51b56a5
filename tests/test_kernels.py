"""Integer-row kernels: Kronecker products, row calculus, gcd cofactors."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from intrec import _kernels as K
from intrec import poly as P
from intrec.poly import Poly

from test_telescope import dx

# coefficients at the edges of the byte-sized slots as well as arbitrary ones
EDGES = [s * (2**k + d) for k in (7, 8, 15, 16, 31, 32, 63, 64) for d in (-1, 0, 1)
         for s in (1, -1)]
coeffs = st.one_of(st.integers(-3, 3), st.integers(-2**80, 2**80), st.sampled_from(EDGES))


def canonical(rows):
    """Strip trailing zeros inside every row and trailing empty rows."""
    return K._rstrip([K.strip(list(r)) for r in rows])


int_rows = st.lists(st.lists(coeffs, max_size=4), max_size=4).map(canonical)


def schoolbook(a, b):
    out = []
    for i, ra in enumerate(a):
        for j, rb in enumerate(b):
            while len(out) <= i + j:
                out.append([])
            out[i + j] = K.padd(out[i + j], K.pmul(ra, rb))
    return canonical(out)


def swapped(p):
    """p(x, t) with x and t exchanged, built from Poly coefficients."""
    def coeff(i, k):
        c = p.coeff(i)
        return c.coeff(k) if isinstance(c, Poly) else (c if k == 0 else 0)

    return Poly("t", [Poly("x", [coeff(i, k) for i in range(len(p.coeffs))])
                      for k in range(P.x_degree(p) + 1)])


@settings(max_examples=300, deadline=None)
@given(int_rows, int_rows)
def test_kronecker_product_matches_schoolbook(a, b):
    assert K.rmul(a, b) == schoolbook(a, b)
    assert K.rproducts_equal(a, b, b, a)
    c = K.radd(b, [[1]])
    assert K.rproducts_equal(a, b, a, c) == (not a)
    # sides of different sizes share one layout, set by the larger
    big = K.rscale(K.radd(b, [[], [0, 1]]), 2**90)
    assert K.rproducts_equal(a, big, big, a)
    assert K.rproducts_equal(a, b, a, big) == (not a)
    assert K.rproducts_equal(a, big, a, b) == (not a)


def test_kronecker_product_at_the_slot_bound():
    # every coefficient ±M with equal signs: the middle coefficient of the
    # product is exactly the bound that sets the slot width
    for k in range(1, 70):
        for n in (1, 2, 3):
            for sa, sb in ((1, 1), (-1, 1), (-1, -1)):
                a = [[sa * 2**k] * n] * n
                b = [[sb * (2**k - 1)] * n] * n
                assert K.rmul(a, b) == schoolbook(a, b)
                assert K.rmul(a, b)[n - 1][n - 1] == sa * sb * n * n * 2**k * (2**k - 1)
    assert K.rmul([], [[1]]) == K.rmul([[1]], []) == []
    assert K.rmul([[], [2]], [[], [], [3]]) == [[], [], [], [6]]


@settings(max_examples=200, deadline=None)
@given(int_rows, int_rows, st.integers(0, 3), st.integers(-5, 5))
def test_row_arithmetic_matches_poly(a, b, k, c):
    pa, pb = P.from_rows(a), P.from_rows(b)
    assert P.from_rows(K.radd(a, b)) == pa + pb
    assert P.from_rows(K.rsub(a, b)) == pa - pb
    assert P.from_rows(K.rscale(a, c)) == pa * c
    assert P.from_rows(K.rdx(a)) == dx(pa)
    assert P.from_rows(K.rdt(a)) == pa.deriv()
    assert P.from_rows(K.transpose([[]] * k + K.transpose(a))) == pa * Poly("x", [0] * k + [1])
    assert P.from_rows(K.transpose(a)) == swapped(pa)
    assert K.transpose(K.transpose(a)) == a
    assert P.int_rows(pa) == (a, 1)


small = st.lists(st.integers(-20, 20), max_size=4).map(K.strip)
small_rows = st.lists(small, max_size=3).map(canonical)


@settings(max_examples=200, deadline=None)
@given(small, small, small)
def test_gcd_cofactors_reproduce_the_inputs(g, u, v):
    a, b = K.pmul(g, u), K.pmul(g, v)
    h, qa, qb = K.gcd_int(a, b)
    assert K.pmul(h, qa) == a and K.pmul(h, qb) == b


@settings(max_examples=100, deadline=None)
@given(small_rows, small_rows, small_rows)
def test_gcd_cofactors_reproduce_the_inputs_on_rows(g, u, v):
    a, b = K.rmul(g, u), K.rmul(g, v)
    h, qa, qb = K.gcd_int(a, b)
    assert K.rmul(h, qa) == a and K.rmul(h, qb) == b


@settings(max_examples=200)
@given(st.lists(coeffs, max_size=8), st.fractions(max_denominator=2**70))
def test_peval_at_is_the_scaled_value(cs, v):
    # q^(len − 1)·c(p/q), the value Fraction Horner gives, scaled to an integer
    p, q = v.numerator, v.denominator
    want = K.peval([Fraction(c) for c in cs], v) * q ** max(len(cs) - 1, 0)
    got = K.peval_at(cs, p, q)
    assert type(got) is int and got == want
