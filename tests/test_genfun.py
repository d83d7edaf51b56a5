"""Generating functions of C-finite sequences and series re-expansion."""

import random

import pytest

from intrec import cfinite as cf
from intrec import exprs
from intrec.errors import NotExpandable
from intrec.genfun import generating_function, taylor_coeffs
from intrec.poly import Poly
from intrec.ratfunc import RatFunc

from test_cfinite import rand_seq

T = cf.BUILTINS["chebyshev_T"]


def rf(text):
    return exprs.parse_ratfunc(text, ("x", "t"), "t")


def test_chebyshev_closed_form():
    assert generating_function(T) == rf("(1-x*t)/(1-2*x*t+t^2)")


def test_constant_sequence_closed_form():
    ones = cf.CFiniteSeq((Poly("x", [1]),), (Poly("x", [1]),))
    assert generating_function(ones) == rf("1/(1-t)")


def test_fibonacci_polynomial_closed_form():
    seq = cf.CFiniteSeq(
        (Poly("x", [0, 1]), Poly("x", [1])),
        (Poly("x", []), Poly("x", [1])),
    )
    assert generating_function(seq) == rf("t/(1-x*t-t^2)")


def test_taylor_worked_examples():
    geo = rf("1/(1-t)")
    assert taylor_coeffs(geo, 4) == [Poly("x", [1])] * 4
    cheb = rf("(1-x*t)/(1-2*x*t+t^2)")
    assert taylor_coeffs(cheb, 3) == [Poly("x", [1]), Poly("x", [0, 1]),
                                      Poly("x", [-1, 0, 2])]


def test_not_expandable():
    bad = RatFunc(Poly("t", [1]), Poly("t", [0, 1]))
    with pytest.raises(NotExpandable):
        taylor_coeffs(bad, 1)


def test_round_trip_builtins():
    for seq in cf.BUILTINS.values():
        n = 2 * len(seq.coeffs) + 10
        assert taylor_coeffs(generating_function(seq), n) == cf.terms(seq, n)


def test_round_trip_random_sequences():
    rng = random.Random(5151)
    for _ in range(30):
        seq = rand_seq(rng)
        n = 2 * len(seq.coeffs) + 10
        assert taylor_coeffs(generating_function(seq), n) == cf.terms(seq, n)
