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
    rng = random.Random(seed)
    seq = rand_seq(rng, max_order=3)
    calls = []
    mul = Poly.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
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
    assert cf.verify_annihilation(prod, squares)


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
    assert cf.verify_annihilation(p3, cubes)
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


def test_verify_annihilation():
    own = cf.terms(T, 10)
    assert cf.verify_annihilation(T, own)
    corrupted = list(own)
    corrupted[7] = corrupted[7] + Poly("x", [1])
    assert not cf.verify_annihilation(T, corrupted)
    with pytest.raises(ValueError):
        cf.verify_annihilation(T, own[:2])


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
        assert cf.verify_annihilation(out, direct)
