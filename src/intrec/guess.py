"""Recurrence guessing from exact terms, with held-out verification.

Fits sum_{i<=r} sum_{j<=d} g_ij n^j a(n+i) = 0 against the supplied terms,
scanning (r, d) cells in lexicographic order and solving each cell's linear
system on a training prefix only.  A candidate is returned solely when it
annihilates every full window of the input, including a suffix of terms the
solver never saw.  Everything is exact rational arithmetic; there is no
tolerance to tune and near-fits cannot slip through.

For each order r the training rows are integers at the largest degree: row
n is scaled by the lcm L_n of the denominators of a(n), …, a(n+r), so its
entries are n^j·L_n·a(n+i).  Columns run degree-major, so cell (r, d) is the
first (d + 1)(r + 1) of them.  One elimination of the whole order modulo a
word-size prime (`linalg.rank_profile`) screens every degree at once: while
the leading columns are independent mod p, they are independent over Q, and
the cells within them hold no recurrence.  The rows are built as the screen
reads them, and it stops reading once every column is a pivot, which is how
most orders end.  Only the cells from the first dependent column on go to
`linalg.nullspace`, in practice just the cell that holds the recurrence; that
order gets the rest of its rows, its own elimination starts p-adic lifting,
and each basis vector is checked exactly against every row, which is the
exact check of each training window n < train scaled by L_n.  The held-out
windows n ≥ train then gate the candidate recurrence.
"""

from fractions import Fraction
from math import lcm

from .linalg import nullspace, rank_profile
from .ode2rec import Recurrence, canonical_coeffs, first_failure
from . import poly as P
from .poly import Poly

MARGIN = 8


def _training_rows(nums, dens, r, max_degree, train):
    """Integer rows for order r, degree-major: n^j·L_n·a(n+i) at column j·(r+1) + i.

    nums and dens are the numerators and denominators of the terms.  The
    rows are generated one at a time, so a reader that stops early builds
    no more of them than it reads.
    """
    for n in range(train):
        ds = dens[n : n + r + 1]
        den = lcm(*ds)
        v = [a * (den // b) for a, b in zip(nums[n : n + r + 1], ds)]
        row = v
        for _ in range(max_degree):
            v = [x * n for x in v]
            row += v
        yield row


def _kept(rows, source):
    """The rows of source, each appended to rows as it is read."""
    for row in source:
        rows.append(row)
        yield row


def _cell(terms, rows, r, d, train):
    """Best canonical recurrence of order r, coefficient degree ≤ d, or None.

    The cell's columns are the first (d + 1)(r + 1) of the rows, passed to
    the solver block by block: coefficient i's degrees 0..d at i·(d + 1) + j.
    The solver has checked each vector exactly on the training windows
    n < train, so `first_failure` sums only the windows from train on.
    """
    cols = [j * (r + 1) + i for i in range(r + 1) for j in range(d + 1)]
    for vec in nullspace([[row[c] for c in cols] for row in rows], len(cols)):
        coeffs = [Poly("n", vec[i * (d + 1) : (i + 1) * (d + 1)]) for i in range(r + 1)]
        if coeffs[-1].is_zero():
            continue
        if first_failure(Recurrence(tuple(coeffs), train), terms) is None:
            return coeffs
    return None


def guess_precursive(terms, max_order, max_degree, margin=MARGIN):
    """Lexicographically minimal (order, degree) recurrence fitting the terms.

    Returns None when no cell within the bounds admits a recurrence that
    survives full verification.  Cells whose training window would be empty
    are skipped.
    """
    terms = [P.as_num(Fraction(v)) for v in terms]
    nums = [a.numerator for a in terms]
    dens = [a.denominator for a in terms]
    for r in range(max_order + 1):
        train = len(terms) - r - margin
        if train < 1:
            continue
        source = _training_rows(nums, dens, r, max_degree, train)
        rows = []
        # cell (r, d) is the first (d + 1)(r + 1) columns: those within the
        # leading run of independent columns have full rank, hence no
        # recurrence.  The screen stops reading once every column is a
        # pivot; an order with a cell left to solve gets the rest of its rows
        pivots = rank_profile(_kept(rows, source), (r + 1) * (max_degree + 1))
        lead = next((q for q, c in enumerate(pivots) if q != c), len(pivots))
        if lead // (r + 1) <= max_degree:
            rows.extend(source)
        for d in range(lead // (r + 1), max_degree + 1):
            coeffs = _cell(terms, rows, r, d, train)
            if coeffs is None:
                continue
            return Recurrence(tuple(canonical_coeffs(coeffs)), 0, tuple(terms))
    return None
