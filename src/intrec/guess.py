"""Recurrence guessing from exact terms, with held-out verification.

Fits sum_{i<=r} sum_{j<=d} g_ij n^j a(n+i) = 0 against the supplied terms,
scanning (r, d) cells in lexicographic order and solving each cell's linear
system on a training prefix only.  A candidate is returned solely when it
annihilates every full window of the input, including a suffix of terms the
solver never saw.  Everything is exact rational arithmetic; there is no
tolerance to tune and near-fits cannot slip through.

For each order r the training rows are built once, as integers, at the
largest degree: row n is scaled by the lcm L_n of the denominators of
a(n), …, a(n+r), so its entries are n^j·L_n·a(n+i).  Cell (r, d) takes the
first d + 1 entries of each of the r + 1 blocks.  Each cell costs one
elimination modulo a word-size prime inside `linalg.nullspace`: most cells
hold no recurrence, and when their rows have full column rank mod p the
nullspace is trivial and the solve ends there.  Otherwise the same
elimination starts the p-adic lifting, and each basis vector is checked
exactly against every row; the held-out terms then gate the candidate
recurrence.
"""

from fractions import Fraction
from math import lcm

from .linalg import nullspace
from .ode2rec import Recurrence, canonical_coeffs, first_failure
from . import poly as P
from .poly import Poly

MARGIN = 8


def _training_rows(terms, r, max_degree, train):
    """Integer rows for order r: row n holds n^j·L_n·a(n+i), block i, j ≤ max_degree."""
    rows = []
    for n in range(train):
        window = terms[n : n + r + 1]
        den = lcm(*(a.denominator for a in window))
        row = []
        for a in window:
            v = a.numerator * (den // a.denominator)
            for _ in range(max_degree + 1):
                row.append(v)
                v *= n
        rows.append(row)
    return rows


def _cell(terms, rows, r, d, max_degree):
    """Best canonical recurrence of order r, coefficient degree ≤ d, or None."""
    stride = max_degree + 1
    cols = [i * stride + j for i in range(r + 1) for j in range(d + 1)]
    for vec in nullspace([[row[c] for c in cols] for row in rows], len(cols)):
        coeffs = [Poly("n", vec[i * (d + 1) : (i + 1) * (d + 1)]) for i in range(r + 1)]
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
        rows = _training_rows(terms, r, max_degree, train)
        for d in range(max_degree + 1):
            coeffs = _cell(terms, rows, r, d, max_degree)
            if coeffs is None:
                continue
            return Recurrence(tuple(canonical_coeffs(coeffs)), 0, tuple(terms))
    return None
