"""Recurrence guessing from exact terms, with held-out verification.

Fits sum_{i<=r} sum_{j<=d} g_ij n^j a(n+i) = 0 against the supplied terms,
scanning (r, d) cells in lexicographic order and solving each cell's linear
system on a training prefix only.  A candidate is returned solely when it
annihilates every full window of the input, including a suffix of terms the
solver never saw.  Everything is exact rational arithmetic; there is no
tolerance to tune and near-fits cannot slip through.

Most cells hold no recurrence, so each cell is first screened modulo the
word-size prime PRIME (after Kauers' Guessing Handbook, RISC report 09-07):
the terms are reduced once, and a plain Gaussian elimination mod p runs on
the rows the exact solver would build.  If those rows have full column rank
mod p, some maximal minor is nonzero mod p, hence nonzero over Q, so the
exact nullspace is trivial and the cell is skipped.  The screen gives no
verdict when PRIME divides a term's denominator or when the rank mod p falls
short of the column count, so it only ever skips cells with no solution.
Every other cell goes to `linalg.nullspace`, which solves it by p-adic
lifting and checks each basis vector exactly against every row; the held-out
terms then gate the candidate recurrence.
"""

from fractions import Fraction

from .linalg import PRIME, canonical_vector, echelon_mod_p, nullspace
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


def _residues(values):
    """The values modulo PRIME, or None when PRIME divides a denominator."""
    out = []
    for v in values:
        f = Fraction(v)
        if f.denominator % PRIME == 0:
            return None
        out.append(f.numerator * pow(f.denominator, -1, PRIME) % PRIME)
    return out


def _full_rank_mod_p(rows, ncols):
    """True when the residue rows (an iterable) have rank ncols modulo PRIME."""
    return len(echelon_mod_p(rows, ncols, PRIME)) == ncols


def _cell_rows_mod_p(res, r, d, train):
    """The rows `_cell` builds for (r, d), reduced modulo PRIME."""
    for n in range(train):
        row = []
        for i in range(r + 1):
            v = res[n + i]
            for _ in range(d + 1):
                row.append(v)
                v = v * n % PRIME
        yield row


def guess_precursive(terms, max_order, max_degree, margin=MARGIN):
    """Lexicographically minimal (order, degree) recurrence fitting the terms.

    Returns None when no cell within the bounds admits a recurrence that
    survives full verification.  Cells whose training window would be empty
    are skipped, and so are cells whose system has full rank modulo PRIME.
    """
    terms = [P.as_num(Fraction(v)) for v in terms]
    res = _residues(terms)
    for r in range(max_order + 1):
        train = len(terms) - r - margin
        if train < 1:
            continue
        for d in range(max_degree + 1):
            ncols = (r + 1) * (d + 1)
            if res is not None and _full_rank_mod_p(_cell_rows_mod_p(res, r, d, train), ncols):
                continue
            coeffs = _cell(terms, r, d, train)
            if coeffs is None:
                continue
            coeffs = canonical_vector(coeffs)
            if P.leading_sign(coeffs[-1]) < 0:
                coeffs = [-c for c in coeffs]
            return Recurrence(tuple(coeffs), 0, tuple(terms))
    return None
