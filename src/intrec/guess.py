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
first (d + 1)(r + 1) of them.  One elimination modulo a word-size prime p,
the first of `linalg._primes` that divides no denominator, screens every
degree at once.  It reads the rows n^j·r_{n+i}, r_n the residue of a(n): row
n of the integer rows divided by the unit L_n, so both have the same pivots
mod p.  While the leading columns are independent mod p, they are
independent over Q, and the cells within them hold no recurrence.  The scan
stops once every column is a pivot, which is how most orders end.  Only an
order with a cell left builds its integer rows, and only the cells from the
first dependent column on go to `linalg.nullspace`, in practice just the
cell that holds the recurrence.  Each basis vector it returns is checked
exactly against every row, which is the exact check of each training window
n < train scaled by L_n.  The held-out windows n ≥ train then gate the
candidate recurrence.
"""

from fractions import Fraction
from math import lcm

from .linalg import _primes, echelon_mod_p, nullspace
from .ode2rec import Recurrence, canonical_coeffs, first_failure
from . import poly as P
from .poly import Poly

MARGIN = 8


def _row(v, n, max_degree):
    """v, n·v, …, n^max_degree·v: one training row, degree-major."""
    row = v
    for _ in range(max_degree):
        v = [x * n for x in v]
        row += v
    return row


def _training_rows(nums, dens, r, max_degree, train):
    """Integer rows for order r, n^j·L_n·a(n+i) at column j·(r+1) + i, from
    the numerators and denominators of the terms."""
    rows = []
    for n in range(train):
        ds = dens[n : n + r + 1]
        den = lcm(*ds)
        rows.append(_row([a * (den // b) for a, b in zip(nums[n : n + r + 1], ds)], n, max_degree))
    return rows


def _residues(nums, dens):
    """(p, the terms mod p), p the first prime of `_primes` dividing no denominator."""
    p = next(q for q in _primes() if all(b % q for b in dens))
    return p, [a * pow(b, -1, p) % p for a, b in zip(nums, dens)]


def _residue_rows(res, p, r, max_degree, train):
    """The training rows of order r divided by L_n, mod p, one at a time."""
    for n in range(train):
        yield [x % p for x in _row(res[n : n + r + 1], n, max_degree)]


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
    p, res = _residues(nums, dens)
    for r in range(max_order + 1):
        train = len(terms) - r - margin
        if train < 1:
            continue
        # cell (r, d) is the first (d + 1)(r + 1) columns: those within the
        # leading run of independent columns have full rank, hence no
        # recurrence; an order whose columns are all independent builds no
        # integer rows
        ncols = (r + 1) * (max_degree + 1)
        pivots = {e[0] for e in echelon_mod_p(_residue_rows(res, p, r, max_degree, train), ncols, p)}
        if len(pivots) == ncols:
            continue
        rows = _training_rows(nums, dens, r, max_degree, train)
        for d in range(min(set(range(ncols)) - pivots) // (r + 1), max_degree + 1):
            coeffs = _cell(terms, rows, r, d, train)
            if coeffs is None:
                continue
            return Recurrence(tuple(canonical_coeffs(coeffs)), 0, tuple(terms))
    return None
