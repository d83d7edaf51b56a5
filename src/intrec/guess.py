"""Recurrence guessing from exact terms, with held-out verification.

Fits sum_{i<=r} sum_{j<=d} g_ij n^j a(n+i) = 0 against the supplied terms,
scanning (r, d) cells in lexicographic order and solving each cell's linear
system on a training prefix only.  A candidate is returned solely when it
annihilates every full window of the input, including a suffix of terms the
solver never saw.  Everything is exact rational arithmetic; there is no
tolerance to tune and near-fits cannot slip through.
"""

from fractions import Fraction

from .linalg import canonical_vector, nullspace
from .ode2rec import Recurrence, first_failure
from . import poly as P
from .poly import Poly

MARGIN = 8


def _cell(terms, r, d, train):
    """Best canonical recurrence of order r, coefficient degree ≤ d, or None."""
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
    for vec in nullspace(rows, ncols):
        coeffs = []
        for i in range(r + 1):
            block = vec[i * (d + 1) : (i + 1) * (d + 1)]
            coeffs.append(Poly("n", block))
        if coeffs[-1].is_zero():
            continue
        if first_failure(Recurrence(tuple(coeffs), 0), terms) is None:
            return coeffs
    return None


def guess_precursive(terms, max_order, max_degree, margin=MARGIN):
    """Lexicographically minimal (order, degree) recurrence fitting the terms.

    Returns None when no cell within the bounds admits a recurrence that
    survives full verification.  Cells whose training window would be empty
    are skipped.
    """
    terms = [P.as_num(Fraction(v)) for v in terms]
    for r in range(max_order + 1):
        train = len(terms) - r - margin
        if train < 1:
            continue
        for d in range(max_degree + 1):
            coeffs = _cell(terms, r, d, train)
            if coeffs is None:
                continue
            coeffs = canonical_vector(coeffs)
            if P.leading_sign(coeffs[-1]) < 0:
                coeffs = [-c for c in coeffs]
            return Recurrence(tuple(coeffs), 0, tuple(terms))
    return None


def guess_cfinite(terms, max_order, margin=MARGIN):
    """Constant-coefficient special case."""
    return guess_precursive(terms, max_order, 0, margin=margin)
