"""Recurrence guessing from exact terms with held-out verification."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from intrec import cfinite as cf
from intrec import guess as G
from intrec import linalg
from intrec.guess import guess_precursive
from intrec.pipeline import Options, _guess_term_count
from intrec.poly import Poly

T = cf.BUILTINS["chebyshev_T"]


def integral_terms(count):
    """a(n) = integral of T_n over [-1, 1], by the power rule."""
    out = []
    for n in range(count):
        acc = Fraction(0)
        for k, c in enumerate(cf.term(T, n).coeffs):
            acc += Fraction(c) * (1 - Fraction(-1) ** (k + 1)) / (k + 1)
        out.append(acc)
    return out


def windows_hold(rec, terms):
    r = len(rec.coeffs) - 1
    for n in range(rec.threshold, len(terms) - r):
        acc = Fraction(0)
        for i, c in enumerate(rec.coeffs):
            acc += Fraction(c.eval(n)) * terms[n + i]
        if acc:
            return False
    return True


def test_chebyshev_integral_guess():
    terms = integral_terms(30)
    assert terms[:9] == [
        Fraction(2), 0, Fraction(-2, 3), 0, Fraction(-2, 15), 0,
        Fraction(-2, 35), 0, Fraction(-2, 63),
    ]
    rec = guess_precursive(terms, 4, 4)
    assert rec is not None
    assert list(rec.coeffs) == [Poly("n", [1, -1]), Poly("n", []), Poly("n", [3, 1])]
    assert rec.threshold == 0
    assert windows_hold(rec, terms)
    # the stated cell is minimal in the (order, degree) lexicographic search
    assert guess_precursive(terms, 1, 4) is None
    assert guess_precursive(terms, 2, 0) is None


def test_fibonacci_terms():
    terms = [Fraction(v) for v in (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)]
    rec = guess_precursive(terms, 4, 4)
    assert list(rec.coeffs) == [Poly("n", [-1]), Poly("n", [-1]), Poly("n", [1])]
    assert windows_hold(rec, terms)


def test_factorial_has_no_low_order_fit():
    terms = [Fraction(math.factorial(n)) for n in range(10)]
    assert guess_precursive(terms, 1, 0) is None


def test_constant_coefficient_examples():
    assert guess_precursive([Fraction(1)] * 7, 3, 0, margin=4).coeffs == (
        Poly("n", [-1]), Poly("n", [1]),
    )
    doubling = [Fraction(2) ** n for n in range(7)]
    assert guess_precursive(doubling, 3, 0, margin=4).coeffs == (
        Poly("n", [-2]), Poly("n", [1]),
    )
    # seven terms cannot clear the default eight-term held-out margin
    assert guess_precursive([Fraction(1)] * 7, 3, 0, margin=G.MARGIN) is None


def test_precursive_sequence_is_not_cfinite():
    assert guess_precursive(integral_terms(20), 3, 0, margin=G.MARGIN) is None


def test_held_out_corruption_blocks_candidates():
    terms = [Fraction(2) ** n for n in range(20)]
    terms[-1] += 1
    assert guess_precursive(terms, 2, 0, margin=G.MARGIN) is None


def test_too_few_terms_is_absence_not_error():
    assert guess_precursive([Fraction(1), Fraction(2), Fraction(3)], 2, 2) is None


# -- the modular screen ------------------------------------------------------

rationals = (st.fractions(min_value=-50, max_value=50, max_denominator=12)
             | st.integers(-2**40, 2**40).map(Fraction))


@st.composite
def matrices(draw):
    """Random rational matrices, some with a column planted as a combination of others."""
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(max(1, ncols - 1), ncols + 3))
    rows = [[draw(rationals) for _ in range(ncols)] for _ in range(nrows)]
    planted = ncols > 1 and draw(st.booleans())
    if planted:
        j = draw(st.integers(0, ncols - 1))
        mix = [draw(rationals) for _ in range(ncols)]
        for row in rows:
            row[j] = sum((m * v for k, (m, v) in enumerate(zip(mix, row)) if k != j), Fraction(0))
    return rows, ncols, planted


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_screen_full_rank_means_trivial_nullspace(case):
    rows, ncols, planted = case
    res = [G._residues(row) for row in rows]
    assert all(r is not None for r in res)
    screened = G._full_rank_mod_p(res, ncols)
    if screened:
        assert linalg.nullspace(rows, ncols) == []
    if planted:
        assert not screened


def guess_without_screen(terms, max_order, max_degree, margin=G.MARGIN):
    """guess_precursive with every cell sent to the exact path."""
    terms = [Fraction(v) for v in terms]
    for r in range(max_order + 1):
        train = len(terms) - r - margin
        if train < 1:
            continue
        for d in range(max_degree + 1):
            coeffs = G._cell(terms, r, d, train)
            if coeffs is not None:
                coeffs = linalg.canonical_vector(coeffs)
                if coeffs[-1].lc() < 0:
                    coeffs = [-c for c in coeffs]
                return tuple(coeffs)
    return None


def count_nullspace_calls(monkeypatch):
    calls = []
    exact = G.nullspace

    def counted(rows, ncols):
        calls.append(ncols)
        return exact(rows, ncols)

    monkeypatch.setattr(G, "nullspace", counted)
    return calls


def test_prime_in_a_denominator_takes_the_exact_path(monkeypatch):
    # a(n) = 1/(n + p): only a(0) has p in its denominator; (n+p+1) a(n+1) = (n+p) a(n)
    terms = [Fraction(1, n + G.PRIME) for n in range(20)]
    assert G._residues(terms) is None
    calls = count_nullspace_calls(monkeypatch)
    rec = guess_precursive(terms, 3, 4)
    # every cell up to the hit at (1, 1) was solved exactly: five at order 0, two at order 1
    assert len(calls) == 7
    assert rec.coeffs == (Poly("n", [-G.PRIME, -1]), Poly("n", [G.PRIME + 1, 1]))
    assert rec.coeffs == guess_without_screen(terms, 3, 4)


def test_screen_keeps_every_guess():
    cases = [
        integral_terms(40),
        [Fraction(v) for v in (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)],
        [Fraction(math.factorial(n)) for n in range(20)],
        [Fraction(2) ** n + n for n in range(20)],
    ]
    for terms in cases:
        rec = guess_precursive(terms, 3, 2)
        assert (rec.coeffs if rec else None) == guess_without_screen(terms, 3, 2)


def test_chebyshev_integral_needs_one_exact_solve(monkeypatch):
    opts = Options()
    terms = integral_terms(_guess_term_count(opts))
    calls = count_nullspace_calls(monkeypatch)
    rec = guess_precursive(terms, opts.max_order, opts.max_degree, opts.margin)
    assert list(rec.coeffs) == [Poly("n", [1, -1]), Poly("n", []), Poly("n", [3, 1])]
    # only the hit at (order 2, degree 1) reaches the exact solver
    assert calls == [6]
