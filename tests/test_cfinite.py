"""Constant-recurrence polynomial sequences and their closure operations."""

import random
from fractions import Fraction

import pytest

from intrec import cfinite as cf
from intrec import exprs
from intrec.errors import ReverseUnsupportedDegreeProfile
from intrec.poly import Poly

T = cf.BUILTINS["chebyshev_T"]
U = cf.BUILTINS["chebyshev_U"]


def xpoly(text):
    r = exprs.parse_ratfunc(text, ("x",))
    assert r.den == Poly("x", [1])
    return r.num


def rand_seq(rng, max_order=2, maxdeg=1, span=3):
    order = rng.randint(1, max_order)
    coeffs = [Poly("x", [rng.randint(-span, span) for _ in range(maxdeg + 1)])
              for _ in range(order)]
    while coeffs[-1].is_zero():
        coeffs[-1] = Poly("x", [rng.randint(-span, span) for _ in range(maxdeg + 1)])
    init = [Poly("x", [rng.randint(-span, span) for _ in range(maxdeg + 1)])
            for _ in range(order)]
    return cf.CFiniteSeq(tuple(coeffs), tuple(init))


def test_chebyshev_terms_worked():
    assert cf.term(T, 0) == Poly("x", [1])
    assert cf.term(T, 2) == xpoly("2*x^2-1")
    assert cf.term(T, 5) == xpoly("16*x^5-20*x^3+5*x")
    for n in range(21):
        assert cf.term(T, n).eval(Fraction(1)) == 1


def test_chebyshev_u_matches_reference_recurrence():
    # independent three-term evaluation at fixed rational points
    for pt in (Fraction(1, 2), Fraction(3, 2)):
        a, b = Fraction(1), 2 * pt
        vals = [a, b]
        for _ in range(14):
            a, b = b, 2 * pt * b - a
            vals.append(b)
        for n, v in enumerate(vals):
            assert cf.term(U, n).eval(pt) == v


def test_terms_prefix():
    assert cf.terms(T, 3) == [cf.term(T, n) for n in range(3)]


@pytest.mark.parametrize("seed", range(4))
def test_terms_cost_one_recurrence_step_each(monkeypatch, seed):
    # a recurrence step is L products of coefficient lists, one per p_i
    rng = random.Random(seed)
    seq = rand_seq(rng, max_order=3)
    calls = []
    mul = cf.K.pmul

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(cf.K, "pmul", counted)
    N, L = 30, seq.order
    first = [cf.term(seq, n) for n in range(N)]
    assert len(calls) == (N - L) * L
    calls.clear()
    assert [cf.term(seq, n) for n in range(N)] == first
    assert cf.terms(seq, N) == first
    assert calls == []
    monkeypatch.undo()
    assert first == reference_terms(seq, N)


def reference_terms(seq, count):
    """P_0, ..., P_{count-1} by a plain sliding-window recurrence."""
    window = list(seq.init)
    out = []
    for _ in range(count):
        out.append(window[0])
        nxt = sum((p * window[-1 - i] for i, p in enumerate(seq.coeffs)), Poly("x", []))
        window = window[1:] + [nxt]
    return out


def test_invalid_sequences_rejected():
    with pytest.raises(ValueError):
        cf.CFiniteSeq((), ())
    with pytest.raises(ValueError):
        cf.CFiniteSeq((Poly("x", []),), (Poly("x", [1]),))
    with pytest.raises(ValueError):
        cf.CFiniteSeq((Poly("x", [1]),), (Poly("x", [1]), Poly("x", [1])))


def test_product_chebyshev_squared():
    prod = cf.product(T, T)
    assert len(prod.coeffs) <= 4
    squares = [cf.term(T, n) * cf.term(T, n) for n in range(21)]
    assert cf.terms(prod, 21) == squares


def test_product_with_constant_one():
    ones = cf.CFiniteSeq((Poly("x", [1]),), (Poly("x", [1]),))
    prod = cf.product(ones, T)
    for n in range(21):
        assert cf.term(prod, n) == cf.term(T, n)


def test_power_examples():
    p1 = cf.power(T, 1)
    for n in range(10):
        assert cf.term(p1, n) == cf.term(T, n)
    p2 = cf.power(T, 2)
    assert cf.term(p2, 2) == xpoly("(2*x^2-1)^2")
    p3 = cf.power(T, 3)
    assert len(p3.coeffs) <= 8
    cubes = [cf.term(T, n) ** 3 for n in range(31)]
    assert cf.terms(p3, 31) == cubes
    p0 = cf.power(T, 0)
    for n in range(5):
        assert cf.term(p0, n) == Poly("x", [1])


def test_reverse_chebyshev():
    rev = cf.reverse(T)
    assert list(rev.coeffs) == [Poly("x", [2]), Poly("x", [0, 0, -1])]
    assert list(rev.init) == [Poly("x", [1]), Poly("x", [1])]
    assert cf.term(rev, 2) == xpoly("2-x^2")
    for n in range(7):
        # reversal writes the coefficient list of a degree-n term backwards
        cs = list(cf.term(T, n).coeffs)
        assert cf.term(rev, n) == Poly("x", cs[::-1])
    # the reversed initials are constants, so the profile is lost
    with pytest.raises(ReverseUnsupportedDegreeProfile):
        cf.reverse(rev)


def test_reverse_is_an_involution_on_stable_profiles():
    # initials with nonzero ends keep deg q_j = j under reversal
    seq = cf.CFiniteSeq(
        (Poly("x", [0, 2]), Poly("x", [-1])),
        (Poly("x", [1]), Poly("x", [1, 1])),
    )
    back = cf.reverse(cf.reverse(seq))
    for n in range(21):
        assert cf.term(back, n) == cf.term(seq, n)


def test_reverse_rejects_bad_profile():
    with pytest.raises(ReverseUnsupportedDegreeProfile):
        cf.reverse(cf.CFiniteSeq((Poly("x", [0, 0, 1]),), (Poly("x", [1]),)))
    with pytest.raises(ReverseUnsupportedDegreeProfile):
        cf.reverse(cf.CFiniteSeq((Poly("x", [0, 1]),), (Poly("x", [0, 1]),)))


def test_random_product_term_property():
    rng = random.Random(4242)
    for _ in range(8):
        a, b = rand_seq(rng), rand_seq(rng)
        prod = cf.product(a, b)
        assert len(prod.coeffs) <= len(a.coeffs) * len(b.coeffs)
        for n in range(21):
            assert cf.term(prod, n) == cf.term(a, n) * cf.term(b, n)


def test_closure_outputs_self_verify():
    for out, base, r in ((cf.product(T, U), None, None), (cf.power(U, 2), U, 2)):
        horizon = len(out.coeffs) + 12
        if base is None:
            direct = [cf.term(T, n) * cf.term(U, n) for n in range(horizon + 1)]
        else:
            direct = [cf.term(base, n) ** r for n in range(horizon + 1)]
        assert cf.terms(out, horizon + 1) == direct


# -- the closure is the characteristic polynomial itself ------------------------


def frac_det(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def companion_at(seq, x0):
    L = seq.order
    A = [[Fraction(0)] * L for _ in range(L)]
    for i in range(L - 1):
        A[i][i + 1] = Fraction(1)
    for i, p in enumerate(seq.coeffs):
        A[L - 1][L - 1 - i] = Fraction(p.eval(x0))
    return A


def kron(A, B):
    return [[a * b for a in ra for b in rb] for ra in A for rb in B]


def char_value(seq, x0, t0):
    """t0^M - p_1(x0) t0^(M-1) - ... - p_M(x0) for the recurrence of seq."""
    M = seq.order
    return t0**M - sum(p.eval(x0) * t0 ** (M - 1 - i) for i, p in enumerate(seq.coeffs))


def rat_seq(rng, order):
    def rpoly():
        return Poly("x", [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)])

    coeffs = [rpoly() for _ in range(order)]
    while coeffs[-1].is_zero():
        coeffs[-1] = rpoly()
    return cf.CFiniteSeq(tuple(coeffs), tuple(rpoly() for _ in range(order)))


POINTS = [(Fraction(0), Fraction(2)), (Fraction(1, 3), Fraction(-1, 2)),
          (Fraction(-2), Fraction(5, 3)), (Fraction(3, 2), Fraction(0))]


def test_product_is_the_kronecker_characteristic_polynomial():
    # annihilating the products is not enough: any multiple of the
    # characteristic polynomial does that too
    rng = random.Random(1303)
    pairs = [(rat_seq(rng, rng.randint(1, 3)), rat_seq(rng, rng.randint(1, 3)))
             for _ in range(12)]
    a, b, c = (rat_seq(rng, 2) for _ in range(3))
    pairs.append((a, cf.product(b, c)))  # order 8
    for a, b in pairs:
        prod = cf.product(a, b)
        M = a.order * b.order
        assert prod.order == M
        for x0, t0 in POINTS:
            kp = kron(companion_at(a, x0), companion_at(b, x0))
            shifted = [[(t0 if i == j else 0) - e for j, e in enumerate(row)]
                       for i, row in enumerate(kp)]
            assert char_value(prod, x0, t0) == frac_det(shifted)
        assert cf.terms(prod, M + 3) == [u * v for u, v in zip(cf.terms(a, M + 3),
                                                               cf.terms(b, M + 3))]


def test_power_is_chained_products():
    rng = random.Random(1304)
    for order in (1, 2, 3, 2):
        s = rat_seq(rng, order)
        chained = [cf.CFiniteSeq((Poly("x", [1]),), (Poly("x", [1]),))]
        for _ in range(3):
            chained.append(cf.product(chained[-1], s))
        for r, want in enumerate(chained):
            got = cf.power(s, r)
            assert (got.coeffs, got.init) == (want.coeffs, want.init)
