"""Recurrence guessing from exact terms with held-out verification."""

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from intrec import cfinite as cf
from intrec import guess as G
from intrec import linalg
from intrec.guess import guess_precursive
from intrec.ode2rec import Recurrence, first_failure
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


def test_only_the_held_out_windows_are_summed_again(monkeypatch):
    # the solver has checked every training window n < train exactly, so the
    # candidate's window check starts at train
    terms = integral_terms(30)
    thresholds = []

    def spied(rec, terms):
        thresholds.append(rec.threshold)
        return first_failure(rec, terms)

    monkeypatch.setattr(G, "first_failure", spied)
    rec = guess_precursive(terms, 4, 4)
    assert rec.order == 2 and rec.threshold == 0
    assert thresholds == [len(terms) - rec.order - G.MARGIN]


def test_too_few_terms_is_absence_not_error():
    assert guess_precursive([Fraction(1), Fraction(2), Fraction(3)], 2, 2) is None


# -- one exact solve per cell -------------------------------------------------


def _cell(terms, r, d, train):
    """Best canonical recurrence of order r, coefficient degree ≤ d, or None,
    from the cell's rows built as Fractions."""
    ncols = (r + 1) * (d + 1)
    rows = []
    for n in range(train):
        row = []
        for i in range(r + 1):
            npow = Fraction(1)
            for _ in range(d + 1):
                row.append(npow * terms[n + i])
                npow *= n
        rows.append(row)
    for vec in linalg.nullspace(rows, ncols):
        coeffs = [Poly("n", vec[i * (d + 1) : (i + 1) * (d + 1)]) for i in range(r + 1)]
        if coeffs[-1].is_zero():
            continue
        if first_failure(Recurrence(tuple(coeffs), 0), terms) is None:
            return coeffs
    return None


def reference_guess(terms, max_order, max_degree, margin=G.MARGIN):
    """guess_precursive with each cell's rows built and cleared separately."""
    terms = [Fraction(v) for v in terms]
    for r in range(max_order + 1):
        train = len(terms) - r - margin
        if train < 1:
            continue
        for d in range(max_degree + 1):
            coeffs = _cell(terms, r, d, train)
            if coeffs is not None:
                coeffs = linalg.canonical_vector(coeffs)
                if coeffs[-1].lc() < 0:
                    coeffs = [-c for c in coeffs]
                return tuple(coeffs)
    return None


@st.composite
def guess_inputs(draw):
    """Terms of a random order-1 or order-2 P-recursive sequence with small
    polynomial coefficients, or a random list, with bounds up to (3, 2)."""
    r, deg = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    max_order, max_degree = draw(st.integers(r - 1, 3)), draw(st.integers(max(deg - 1, 0), 2))
    count = max_order + G.MARGIN + (max_order + 1) * (max_degree + 1) + draw(st.integers(-2, 4))
    if draw(st.integers(0, 3)) == 0:
        return draw(st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
                             min_size=count, max_size=count)), max_order, max_degree
    coeffs = [draw(st.lists(st.integers(-3, 3), min_size=1, max_size=deg + 1)) for _ in range(r)]
    # the leading coefficient c + k·n has no root at n >= 0
    c, k = draw(st.integers(1, 4)), draw(st.integers(0, min(deg, 1) * 2))
    terms = [Fraction(v) for v in draw(st.lists(st.integers(1, 3), min_size=r, max_size=r))]
    for n in range(count - r):
        acc = sum(Poly("n", cs).eval(n) * terms[n + i] for i, cs in enumerate(coeffs))
        terms.append(-acc / (c + k * n))
    return terms, max_order, max_degree


@settings(max_examples=150, deadline=None)
@given(guess_inputs())
def test_screen_matches_the_cell_by_cell_guess(case):
    terms, max_order, max_degree = case
    rec = guess_precursive(terms, max_order, max_degree)
    assert (rec.coeffs if rec else None) == reference_guess(terms, max_order, max_degree)


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
    p = linalg.PRIME
    terms = [Fraction(1, n + p) for n in range(20)]
    calls = count_nullspace_calls(monkeypatch)
    rec = guess_precursive(terms, 3, 4)
    # a(0) has no residue mod p, so the screen takes the next prime, which
    # divides no denominator.  It rules out all of order 0 and cell (1, 0):
    # only the hit at (1, 1) is solved exactly
    assert calls == [4]
    assert rec.coeffs == (Poly("n", [-p, -1]), Poly("n", [p + 1, 1]))
    assert rec.coeffs == reference_guess(terms, 3, 4)


def test_screen_keeps_every_guess():
    cases = [
        integral_terms(40),
        [Fraction(v) for v in (0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89)],
        [Fraction(math.factorial(n)) for n in range(20)],
        [Fraction(2) ** n + n for n in range(20)],
    ]
    for terms in cases:
        rec = guess_precursive(terms, 3, 2)
        assert (rec.coeffs if rec else None) == reference_guess(terms, 3, 2)


def test_chebyshev_integral_needs_one_exact_solve(monkeypatch):
    opts = Options()
    terms = integral_terms(_guess_term_count(opts))
    calls = count_nullspace_calls(monkeypatch)
    rec = guess_precursive(terms, opts.max_order, opts.max_degree, opts.margin)
    assert list(rec.coeffs) == [Poly("n", [1, -1]), Poly("n", []), Poly("n", [3, 1])]
    # the screen rules out every cell before the hit at (order 2, degree 1),
    # the only one solved exactly
    assert calls == [6]


def integer_rows(terms, r, max_degree, train):
    """The integer rows n^j·L_n·a(n+i) at column j·(r+1) + i, n < train, built
    from Fractions."""
    rows = []
    for n in range(train):
        window = [Fraction(v) for v in terms[n : n + r + 1]]
        L = math.lcm(*(a.denominator for a in window))
        rows.append([int(a * L) * n**j for j in range(max_degree + 1) for a in window])
    return rows


def integer_row_pivots(rows, ncols, p):
    """The pivot columns of the integer rows mod p: the reference screen, whose
    rows are the residue screen's times the units L_n."""
    return sorted(e[0] for e in linalg.echelon_mod_p(([x % p for x in r] for r in rows), ncols, p))


SECOND_PRIME = list(itertools.islice(linalg._primes(), 2))[1]


@st.composite
def screened_terms(draw):
    """Terms from guess_inputs with some denominators multiplied by PRIME, or
    by PRIME and the prime after it: all of them, which keeps a recurrence,
    or a random few."""
    terms, max_order, max_degree = draw(guess_inputs())
    factor = draw(st.sampled_from([1, linalg.PRIME, linalg.PRIME * SECOND_PRIME]))
    if draw(st.booleans()):
        return [a / factor for a in terms], max_order, max_degree
    hit = draw(st.sets(st.integers(0, len(terms) - 1), max_size=3))
    return [a / factor if n in hit else a for n, a in enumerate(terms)], max_order, max_degree


@settings(max_examples=60, deadline=None)
@given(screened_terms())
def test_residue_screen_has_the_integer_row_pivots(case):
    terms, max_order, max_degree = case
    fracs = [Fraction(v) for v in terms]
    dens = [a.denominator for a in fracs]
    p, res = G._residues([a.numerator for a in fracs], dens)
    assert all(b % p for b in dens)
    # the integer-row screen's own prime wherever it divides no denominator
    assert (p == linalg.PRIME) == all(b % linalg.PRIME for b in dens)
    for r in range(max_order + 1):
        train = len(terms) - r - G.MARGIN
        if train < 1:
            continue
        ncols = (r + 1) * (max_degree + 1)
        got = sorted(e[0] for e in linalg.echelon_mod_p(
            G._residue_rows(res, p, r, max_degree, train), ncols, p))
        assert got == integer_row_pivots(integer_rows(terms, r, max_degree, train), ncols, p)


def test_only_the_solved_order_builds_exact_rows(monkeypatch):
    opts = Options()
    terms = integral_terms(_guess_term_count(opts))
    rows_of = G._training_rows
    built = {}

    def counted(nums, dens, r, max_degree, train):
        built[r] = rows_of(nums, dens, r, max_degree, train)
        return built[r]

    monkeypatch.setattr(G, "_training_rows", counted)
    residue_rows_of = G._residue_rows
    read = {}

    def pulled(res, p, r, max_degree, train):
        read[r] = 0
        for row in residue_rows_of(res, p, r, max_degree, train):
            read[r] += 1
            yield row

    monkeypatch.setattr(G, "_residue_rows", pulled)
    solved = []
    exact = G.nullspace

    def recorded(rows, ncols):
        solved.append(rows)
        return exact(rows, ncols)

    monkeypatch.setattr(G, "nullspace", recorded)
    rec = guess_precursive(terms, opts.max_order, opts.max_degree, opts.margin)
    assert rec.order == 2
    # orders 0 and 1 screen to full rank: the scan stops reading their
    # residue rows soon after their column count, and they build no exact
    # rows; the solved order builds all of its train rows
    for r in (0, 1):
        assert (r + 1) * (opts.max_degree + 1) <= read[r] < len(terms) - r - opts.margin
    train = len(terms) - 2 - opts.margin
    assert list(built) == [2] and len(built[2]) == train
    # the system solved is the hit cell of the integer rows
    full = integer_rows(terms, 2, opts.max_degree, train)
    cols = [j * 3 + i for i in range(3) for j in range(2)]
    assert solved == [[[row[c] for c in cols] for row in full]]
