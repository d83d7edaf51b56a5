"""Differential operator to recurrence conversion and exact unrolling."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from intrec import ode2rec as o2r
from intrec import pipeline
from intrec import poly as P
from intrec.errors import (
    RecurrenceRefuted,
    SingularLeadingCoefficient,
    ZeroOperator,
)
from intrec.poly import Poly
from intrec.ratfunc import RatFunc

ONE = RatFunc(Poly("t", [1]))
ZERO = RatFunc(Poly("t", []), Poly("t", [1]))


def harmonic_recurrence():
    # t(1-t) f' + (1-t) f = 1 for f = sum t^n/(n+1)
    return o2r.ode_to_recurrence(
        [Poly("t", [1, -1]), Poly("t", [0, 1, -1])], ONE
    )


def test_harmonic_worked_example():
    rec = harmonic_recurrence()
    assert list(rec.coeffs) == [Poly("n", [-1, -1]), Poly("n", [2, 1])]
    assert rec.threshold == 0
    assert rec.exceptional == ((((0, 1),), 1),)
    full = o2r.attach_initials(
        rec, [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)]
    )
    assert o2r.unroll(full, 6) == [Fraction(1, n + 1) for n in range(6)]


def test_harmonic_corrupted_term_refuted():
    rec = harmonic_recurrence()
    with pytest.raises(RecurrenceRefuted):
        o2r.attach_initials(
            rec, [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(1, 5)]
        )


def test_low_index_equation_refutes_wrong_start():
    # the inhomogeneous part forces a(0) = 1
    rec = harmonic_recurrence()
    with pytest.raises(RecurrenceRefuted):
        o2r.attach_initials(rec, [Fraction(2), Fraction(1)])


def constant_recurrence(threshold=0, exceptional=()):
    # a(n+1) - a(n) = 0 for n >= threshold
    return o2r.Recurrence((Poly("n", [-1]), Poly("n", [1])), threshold, None, exceptional)


def test_first_failure_ignores_windows_below_threshold():
    terms = [5, 7, 1, 1, 1]
    assert o2r.first_failure(constant_recurrence(threshold=2), terms) is None
    assert o2r.first_failure(constant_recurrence(threshold=1), terms) == (
        "window at n = 1 fails exactly")


def test_first_failure_skips_equations_past_the_terms():
    rec = constant_recurrence(exceptional=((((0, 1), (3, 1)), 99),))
    assert o2r.first_failure(rec, [1, 1, 1]) is None
    assert o2r.first_failure(rec, [1, 1, 1, 1]) == "low-index equation fails exactly"


def test_first_failure_names_the_failing_window():
    assert o2r.first_failure(constant_recurrence(), [2, 2, 2, 3, 3]) == (
        "window at n = 2 fails exactly")


def test_first_failure_reports_a_low_index_equation():
    # 2*a(0) = 4 below the threshold; the window at n = 0 is not checked
    rec = constant_recurrence(threshold=1, exceptional=((((0, 2),), 4),))
    assert o2r.first_failure(rec, [Fraction(2), Fraction(5)]) is None
    assert o2r.first_failure(rec, [Fraction(1), Fraction(5)]) == (
        "low-index equation fails exactly")


def reference_first_failure(rec, terms):
    """first_failure with every window summed in Fraction arithmetic."""
    r = rec.order
    for n in range(rec.threshold, len(terms) - r):
        if sum(c.eval(n) * terms[n + i] for i, c in enumerate(rec.coeffs)):
            return "window at n = %d fails exactly" % n
    for pairs, rhs_u in rec.exceptional:
        if any(idx >= len(terms) for idx, _ in pairs):
            continue
        if sum(w * terms[idx] for idx, w in pairs) != rhs_u:
            return "low-index equation fails exactly"
    return None


RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
NONZERO = RATIONALS.filter(bool)


@st.composite
def checked_recurrences(draw):
    """A recurrence with rational coefficients in n, a threshold above 0 and
    up to three exceptional equations, and terms it annihilates from the
    threshold on, perturbed at one chosen window or not at all."""
    r, deg = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    coeffs = [Poly("n", draw(st.lists(RATIONALS, min_size=1, max_size=deg + 1)))
              for _ in range(r + 1)]
    threshold, count = draw(st.integers(1, 4)), draw(st.integers(0, 16))
    terms = draw(st.lists(RATIONALS, min_size=min(count, threshold + r),
                          max_size=min(count, threshold + r)))
    while len(terms) < count:
        n = len(terms) - r
        lead = coeffs[-1].eval(n)
        acc = sum(coeffs[i].eval(n) * terms[n + i] for i in range(r))
        # a vanishing leading coefficient leaves the next term free
        terms.append(-Fraction(acc) / lead if lead else draw(RATIONALS))
    if count > threshold + r and draw(st.booleans()):
        n = draw(st.integers(threshold, count - r - 1))
        terms[n + draw(st.integers(0, r))] += draw(NONZERO)
    exceptional = []
    for _ in range(draw(st.integers(0, 3))):
        idxs = draw(st.lists(st.integers(0, count + 1), min_size=1, max_size=3, unique=True))
        pairs = tuple(sorted((i, draw(NONZERO)) for i in idxs))
        if all(i < count for i in idxs) and draw(st.booleans()):
            rhs = sum(w * terms[i] for i, w in pairs)
        else:
            rhs = draw(RATIONALS)
        exceptional.append((pairs, P.as_num(rhs)))
    rec = o2r.Recurrence(tuple(coeffs), threshold, None, tuple(exceptional))
    return rec, [P.as_num(Fraction(v)) for v in terms]


@settings(max_examples=300, deadline=None)
@given(checked_recurrences())
def test_first_failure_matches_fraction_reference(case):
    rec, terms = case
    assert o2r.first_failure(rec, terms) == reference_first_failure(rec, terms)


@settings(max_examples=200, deadline=None)
@given(checked_recurrences())
def test_equations_are_the_covered_windows_then_exceptional(case):
    rec, terms = case
    eqs = list(o2r.equations(rec, len(terms)))
    windows = range(rec.threshold, len(terms) - rec.order)
    assert [label for label, _, _ in eqs[:len(windows)]] == [
        "window at n = %d" % n for n in windows]
    for n, (_, pairs, rhs) in zip(windows, eqs):
        assert [idx for idx, _ in pairs] == list(range(n, n + rec.order + 1)) and rhs == 0
        # the weights are a positive multiple of (c_0(n), ..., c_r(n))
        cs = [c.eval(n) for c in rec.coeffs]
        ws = [w for _, w in pairs]
        scale = next((Fraction(w, c) for w, c in zip(ws, cs) if c), 1)
        assert scale > 0 and ws == [scale * c for c in cs]
    assert eqs[len(windows):] == [
        ("low-index equation", pairs, rhs) for pairs, rhs in rec.exceptional
        if all(idx < len(terms) for idx, _ in pairs)]
    if reference_first_failure(rec, terms) is None:
        with mp.workdps(30):
            vals = [mp.mpf(v.numerator) / v.denominator for v in terms]
            assert pipeline._max_residual(rec, vals) < mp.mpf(10) ** -25


def test_exponential_operator():
    rec = o2r.ode_to_recurrence([Poly("t", [-1]), Poly("t", [1])], ZERO)
    assert list(rec.coeffs) == [Poly("n", [-1]), Poly("n", [1, 1])]
    assert rec.threshold == 0 and rec.exceptional == ()
    full = o2r.attach_initials(rec, [Fraction(1)])
    want = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]
    assert o2r.unroll(full, 5) == want


def test_geometric_operator_reduces_to_constant():
    rec = o2r.ode_to_recurrence([Poly("t", [-1]), Poly("t", [1, -1])], ZERO)
    assert list(rec.coeffs) == [Poly("n", [-1]), Poly("n", [1])]
    assert rec.threshold == 0
    full = o2r.attach_initials(rec, [Fraction(2)])
    assert o2r.unroll(full, 3) == [Fraction(2)] * 3


def test_zero_operator_rejected():
    with pytest.raises(ZeroOperator):
        o2r.ode_to_recurrence([Poly("t", [])], ZERO)
    with pytest.raises(ZeroOperator):
        o2r.ode_to_recurrence([], ZERO)


def test_zero_sequence_always_accepted():
    rec = harmonic_recurrence()
    # homogeneous windows hold; the exceptional equation a(0) = 1 does not
    hom = o2r.Recurrence(rec.coeffs, rec.threshold)
    full = o2r.attach_initials(hom, [Fraction(0)] * 5)
    assert o2r.unroll(full, 8) == [Fraction(0)] * 8


def test_conversion_is_linear():
    rng = random.Random(6006)
    for _ in range(30):
        width = rng.randint(1, 3)
        deg = rng.randint(0, 2)
        shape = [[rng.randint(1, 4) for _ in range(deg + 1)] for _ in range(width)]
        p1 = [Poly("t", [c * rng.randint(1, 3) for c in row]) for row in shape]
        p2 = [Poly("t", [c * rng.randint(1, 3) for c in row]) for row in shape]
        both = [a + b for a, b in zip(p1, p2)]
        c1, t1, e1 = o2r.convert_raw(p1, ZERO)
        c2, t2, e2 = o2r.convert_raw(p2, ZERO)
        cs, ts, es = o2r.convert_raw(both, ZERO)
        assert t1 == t2 == ts
        assert cs == [a + b for a, b in zip(c1, c2)]
        # low-index equations add weight-by-weight as well
        assert len(e1) == len(e2) == len(es)
        for (pa, ra), (pb, rb), (ps, rs) in zip(e1, e2, es):
            assert [i for i, _ in pa] == [i for i, _ in pb] == [i for i, _ in ps]
            assert [w for _, w in ps] == [
                wa + wb for (_, wa), (_, wb) in zip(pa, pb)
            ]
            assert rs == ra + rb


def test_required_initials_and_singular_unroll():
    # (n-5) a(n) + (n-5) a(n+1) = 0: alternation with a free value at n = 6
    rec = o2r.Recurrence((Poly("n", [-5, 1]), Poly("n", [-5, 1])), 0)
    assert o2r.singular_indices(rec) == [5]
    assert o2r.required_initials(rec) == 7
    terms = [Fraction((-1) ** n) for n in range(6)] + [Fraction(17)]
    full = o2r.attach_initials(rec, terms)
    out = o2r.unroll(full, 9)
    assert out[:7] == terms
    assert out[7:] == [Fraction(-17), Fraction(17)]

    short = o2r.Recurrence(rec.coeffs, 0, tuple(terms[:2]))
    with pytest.raises(SingularLeadingCoefficient):
        o2r.unroll(short, 9)


def reference_unroll(rec, count):
    """unroll with every window summed in Fraction arithmetic; None where a
    leading coefficient vanishes."""
    terms = list(rec.initial_terms)
    r = rec.order
    while len(terms) < count:
        n = len(terms) - r
        cr = rec.coeffs[-1].eval(n)
        if not cr:
            return None
        acc = sum(rec.coeffs[i].eval(n) * terms[n + i] for i in range(r))
        terms.append(P.num_div(-acc, cr))
    return terms[:count]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.data())
def test_unroll_matches_fraction_reference(r, data):
    coeffs = [Poly("n", data.draw(st.lists(RATIONALS, min_size=1, max_size=3)))
              for _ in range(r + 1)]
    if coeffs[-1].is_zero():
        coeffs[-1] = Poly("n", [1])
    init = data.draw(st.lists(RATIONALS, min_size=r, max_size=r))
    rec = o2r.Recurrence(tuple(coeffs), 0, tuple(P.as_num(v) for v in init))
    count = data.draw(st.integers(r, 14))
    expected = reference_unroll(rec, count)
    if expected is None:
        with pytest.raises(SingularLeadingCoefficient):
            o2r.unroll(rec, count)
    else:
        assert o2r.unroll(rec, count) == expected


def test_integer_roots_far_out():
    n = Poly.variable("n")
    p = (n * n - 10**20) * (2 * n + 1) * (n - 3) ** 2 * n
    start = time.perf_counter()
    assert o2r._integer_roots(p) == {-(10**10), 0, 3, 10**10}
    assert time.perf_counter() - start < 0.5


def test_integer_roots_match_brute_force():
    rng = random.Random(4242)
    n = Poly.variable("n")
    for _ in range(100):
        p = Poly("n", [rng.choice((1, -2, 3))])
        for _ in range(rng.randint(0, 4)):
            p = p * (n - rng.randint(-20, 20))
        p = p * Poly("n", [rng.randint(-5, 5), rng.randint(-3, 3), rng.randint(1, 3)])
        # integer roots: the linear factors' in [-20, 20], the quadratic's in [-5, 5]
        assert o2r._integer_roots(p) == {v for v in range(-30, 31) if p.eval(v) == 0}


def test_attach_requires_enough_terms():
    rec = harmonic_recurrence()
    with pytest.raises(ValueError):
        o2r.attach_initials(rec, [])
