"""Creative telescoping: operator search, certificate checks, boundary values."""

import random
from fractions import Fraction

import pytest

from intrec import cfinite as cf
from intrec import exprs
from intrec import ode2rec as o2r
from intrec import oracle
from intrec.errors import BoundaryNotEvaluable, NoTelescoperFound
from intrec.genfun import generating_function
from intrec.poly import Poly
from intrec.ratfunc import RatFunc
from intrec.telescope import (
    Kernel,
    Telescoper,
    _endpoint_contribution,
    _vanish_order,
    boundary_rhs,
    chebyshev_weight,
    telescope,
    trivial_kernel,
    verify_certificate,
)

from test_cfinite import rand_seq

T = cf.BUILTINS["chebyshev_T"]


def power_sequence():
    # P_n(x) = x^n
    return cf.CFiniteSeq((Poly("x", [0, 1]),), (Poly("x", [1]),))


def ones_sequence():
    return cf.CFiniteSeq((Poly("x", [1]),), (Poly("x", [1]),))


def series_of_ratfunc(r, count):
    """Taylor coefficients at t=0 by the denominator-driven recursion."""
    num = [Fraction(c) for c in r.num.coeffs]
    den = [Fraction(c) for c in r.den.coeffs]
    assert den and den[0]
    out = []
    for n in range(count):
        acc = num[n] if n < len(num) else Fraction(0)
        for k in range(1, min(n, len(den) - 1) + 1):
            acc -= den[k] * out[n - k]
        out.append(acc / den[0])
    return out


def apply_operator(opcoeffs, series, count):
    """Series coefficients of sum_i a_i(t) (d/dt)^i f, valid up to `count`."""
    out = [Fraction(0)] * count
    for i, a in enumerate(opcoeffs):
        for k, ck in enumerate(a.coeffs):
            for m in range(count):
                idx = m - k + i
                if 0 <= idx < len(series):
                    ff = 1
                    for j in range(i):
                        ff *= idx - j
                    out[m] += Fraction(ck) * ff * series[idx]
    return out


def test_power_sequence_worked_example():
    gf = generating_function(power_sequence())
    kern = trivial_kernel()
    tel = telescope(gf, kern, 6)
    assert tel.order == 1
    # proportional to (1-t) + t(1-t) d/dt over the rational functions of t
    ref_a0, ref_a1 = Poly("t", [1, -1]), Poly("t", [0, 1, -1])
    assert tel.opcoeffs[0] * ref_a1 == tel.opcoeffs[1] * ref_a0
    assert verify_certificate(gf, kern, tel)
    rhs = boundary_rhs(gf, kern, tel, Fraction(0), Fraction(1))
    rec = o2r.attach_initials(
        o2r.ode_to_recurrence(tel.opcoeffs, rhs), [Fraction(1), Fraction(1, 2)]
    )
    assert o2r.unroll(rec, 8) == [Fraction(1, n + 1) for n in range(8)]


def test_x_free_integrand():
    gf = generating_function(ones_sequence())
    tel = telescope(gf, trivial_kernel(), 6)
    assert tel.order <= 1
    assert verify_certificate(gf, trivial_kernel(), tel)


def test_zero_certificate_verifies():
    # (1-t) f' - f = 0 for f = 1/(1-t), so the certificate can be zero
    gf = generating_function(ones_sequence())
    tel = Telescoper(
        (Poly("t", [-1]), Poly("t", [1, -1])),
        RatFunc(Poly("t", []), Poly("t", [1])),
    )
    assert verify_certificate(gf, trivial_kernel(), tel)
    assert boundary_rhs(gf, trivial_kernel(), tel, Fraction(0), Fraction(1, 2)).is_zero()


def test_perturbed_certificate_fails():
    gf = generating_function(power_sequence())
    kern = trivial_kernel()
    tel = telescope(gf, kern, 6)
    bad = Telescoper(tel.opcoeffs, tel.certificate + 1)
    assert not verify_certificate(gf, kern, bad)


def test_constructed_pole_raises():
    gf = generating_function(ones_sequence())
    tel = Telescoper(
        (Poly("t", [1]),),
        RatFunc(Poly("x", [1]), Poly("x", [1, -1])),
    )
    with pytest.raises(BoundaryNotEvaluable):
        boundary_rhs(gf, trivial_kernel(), tel, Fraction(0), Fraction(1))


def test_vanish_order_past_64():
    x = Poly.variable("x")
    wd = Poly("t", [(x - 1) ** 70 * (x + 2), (x - 1) ** 71])
    assert _vanish_order(wd, 1) == 70
    # |x-1|^(131/2) against a certificate with a pole of order 70 at x = 1:
    # the limit is infinite, so the boundary must not be reported as zero
    kern = Kernel(
        RatFunc(Poly("x", [1])),
        RatFunc(Poly("x", [Fraction(131, 2)]), Poly("x", [-1, 1])),
    )
    w = RatFunc(Poly("x", [1]), (x - 1) ** 70)
    with pytest.raises(BoundaryNotEvaluable):
        _endpoint_contribution(w, kern, Fraction(1))


def test_order_minimality_rerun():
    gf = generating_function(T)
    tel = telescope(gf, trivial_kernel(), 6)
    assert 1 <= tel.order <= 2
    with pytest.raises(NoTelescoperFound) as exc:
        telescope(gf, trivial_kernel(), tel.order - 1)
    assert exc.value.max_order == tel.order - 1


def test_chebyshev_recurrence_annihilates_oracle_terms():
    gf = generating_function(T)
    kern = trivial_kernel()
    tel = telescope(gf, kern, 6)
    assert verify_certificate(gf, kern, tel)
    rhs = boundary_rhs(gf, kern, tel, Fraction(-1), Fraction(1))
    rec = o2r.ode_to_recurrence(tel.opcoeffs, rhs)
    prob = oracle.IntegralProblem(T, kern, Fraction(-1), Fraction(1))
    terms = [oracle.exact_term(prob, n) for n in range(21)]
    r = len(rec.coeffs) - 1
    for n in range(rec.threshold, 21 - r):
        acc = Fraction(0)
        for i, c in enumerate(rec.coeffs):
            acc += Fraction(c.eval(n)) * terms[n + i]
        assert acc == 0


def test_chebyshev_weight_kernel_telescopes():
    kern = chebyshev_weight()
    assert kern.logderiv == exprs.parse_ratfunc("x/(1-x^2)", ("x",))
    gf = generating_function(T)
    tel = telescope(gf, kern, 6)
    assert verify_certificate(gf, kern, tel)


def test_fuzz_certificate_and_boundary_series():
    rng = random.Random(86420)
    telescoped = boundary_checked = 0
    for _ in range(20):
        seq = rand_seq(rng, max_order=2, maxdeg=1, span=3)
        gf = generating_function(seq)
        kern = trivial_kernel()
        try:
            tel = telescope(gf, kern, 6)
        except NoTelescoperFound:
            continue
        telescoped += 1
        assert verify_certificate(gf, kern, tel)
        try:
            rhs = boundary_rhs(gf, kern, tel, Fraction(0), Fraction(1))
        except BoundaryNotEvaluable:
            continue
        boundary_checked += 1
        prob = oracle.IntegralProblem(seq, kern, Fraction(0), Fraction(1))
        horizon = 16 + tel.order
        series = [oracle.exact_term(prob, n) for n in range(horizon)]
        lhs = apply_operator(tel.opcoeffs, series, 16)
        assert lhs == series_of_ratfunc(rhs, 16)
    assert telescoped >= 10
    assert boundary_checked >= 5
