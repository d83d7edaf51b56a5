"""Exact linear algebra: nullspaces and determinants, cross-checked."""

import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from intrec import linalg
from intrec.poly import Poly


def frac_rank(rows, ncols):
    """Independent rank via plain Gaussian elimination over Fraction."""
    m = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [v * inv for v in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def frac_det(rows):
    m = [[Fraction(v) for v in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if m[i][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for i in range(col + 1, n):
            if m[i][col]:
                f = m[i][col] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def test_identity_nullspace_empty():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert linalg.nullspace(rows, 2) == []


def test_rank_one_kernel():
    rows = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
    assert linalg.nullspace(rows, 2) == [[1, -1]]


def test_planted_rank_vector_count():
    rng = random.Random(137)
    for _ in range(25):
        b = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(5)]
        c = [[rng.randint(-4, 4) for _ in range(7)] for _ in range(3)]
        a = [[Fraction(sum(b[i][k] * c[k][j] for k in range(3)))
              for j in range(7)] for i in range(5)]
        rank = frac_rank(a, 7)
        ns = linalg.nullspace(a, 7)
        assert len(ns) == 7 - rank
        for v in ns:
            for row in a:
                assert sum(row[j] * Fraction(v[j]) for j in range(7)) == 0
            assert linalg.canonical_vector(list(v)) == list(v)


def test_polynomial_entry_nullspace_residuals():
    rng = random.Random(248)
    for _ in range(15):
        rows = [[Poly("t", [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
                 for _ in range(5)] for _ in range(3)]
        for v in linalg.nullspace(rows, 5):
            for row in rows:
                acc = Poly("t", [])
                for rv, vv in zip(row, v):
                    acc = acc + rv * vv
                assert acc.is_zero()


def test_canonical_vector_normalization():
    assert linalg.canonical_vector([Fraction(2), Fraction(-2)]) == [1, -1]
    assert linalg.canonical_vector(
        [Poly("t", [0, -2]), Poly("t", [4])]
    ) == [Poly("t", [0, 1]), Poly("t", [-2])]


def test_bareiss_det_matches_elimination():
    rng = random.Random(359)
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2), Fraction(5, 2)]
    for _ in range(25):
        n = rng.randint(2, 3)
        mat = [[Poly("t", [rng.randint(-3, 3), rng.randint(-2, 2)])
                for _ in range(n)] for _ in range(n)]
        det = linalg.bareiss_det(mat, "t")
        for pt in points:
            plain = frac_det([[e.eval(pt) for e in row] for row in mat])
            assert det.eval(pt) == plain


def test_singular_matrix_det_zero():
    mat = [[Poly("t", [1]), Poly("t", [0, 1])],
           [Poly("t", [2]), Poly("t", [0, 2])]]
    assert linalg.bareiss_det(mat, "t").is_zero()


# -- the rational solver: p-adic lifting against a Gauss-Jordan reference -----


def rref_basis(rows, ncols):
    """Reduced-row-echelon nullspace basis over Fraction, scaled canonically:
    integer entries with gcd 1, first nonzero entry positive."""
    m = [[Fraction(v) for v in row] for row in rows]
    pivots = []
    for col in range(ncols):
        piv = next((i for i in range(len(pivots), len(m)) if m[i][col]), None)
        if piv is None:
            continue
        k = len(pivots)
        m[k], m[piv] = m[piv], m[k]
        m[k] = [v / m[k][col] for v in m[k]]
        for i in range(len(m)):
            if i != k and m[i][col]:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        pivots.append(col)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for k, c in enumerate(pivots):
            v[c] = -m[k][f]
        den = math.lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = math.gcd(*ints)
        sign = 1 if next(x for x in ints if x) > 0 else -1
        basis.append([sign * x // g for x in ints])
    return basis


big_rationals = st.builds(Fraction, st.integers(-2**300, 2**300), st.integers(1, 2**60))
small_rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


@st.composite
def planted_matrices(draw):
    """Rational matrices with up to three columns planted as combinations of the others."""
    ncols = draw(st.integers(1, 7))
    nrows = draw(st.integers(1, 8))
    entries = draw(st.sampled_from([big_rationals, small_rationals]))
    rows = [[draw(entries) for _ in range(ncols)] for _ in range(nrows)]
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=3, unique=True)):
        mix = [draw(small_rationals | big_rationals) for _ in range(ncols)]
        for row in rows:
            row[j] = sum((m * v for k, (m, v) in enumerate(zip(mix, row)) if k != j), Fraction(0))
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(planted_matrices())
def test_nullspace_matches_rref_reference(case):
    rows, ncols = case
    assert linalg.nullspace(rows, ncols) == rref_basis(rows, ncols)


def test_rank_drop_mod_prime_moves_to_the_next_prime(monkeypatch):
    p = linalg.PRIME
    primes = []
    solve = linalg._rref_basis

    def counted(mat, ncols, prime):
        primes.append(prime)
        return solve(mat, ncols, prime)

    monkeypatch.setattr(linalg, "_rref_basis", counted)
    # column 1 is independent over Q but a multiple of column 0 mod p: the
    # vector lifted for column 1 holds on every row yet leans on the later
    # pivot 2, so its basis differs from the reduced row echelon one over Q
    rows = [[Fraction(1), Fraction(1), Fraction(0), Fraction(1)],
            [Fraction(0), Fraction(p), Fraction(1), Fraction(1)]]
    assert [e[0] for e in linalg.echelon_mod_p([[int(v) % p for v in r] for r in rows], 4, p)] == [0, 2]
    assert linalg.nullspace(rows, 4) == rref_basis(rows, 4) == [[1, -1, p, 0], [p - 1, 1, 0, -p]]
    assert primes[0] == p and len(primes) == 2
    # full rank over Q, rank 1 mod p: the lifted vector fails the second row
    primes.clear()
    rows = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1 + p)]]
    assert linalg.nullspace(rows, 2) == []
    assert len(primes) == 2


def test_prime_in_a_row_denominator():
    p = linalg.PRIME
    rows = [[Fraction(1, p), Fraction(2, p), Fraction(3)],
            [Fraction(1, 3 * p), Fraction(2, 3 * p), Fraction(1, p)]]
    assert linalg.nullspace(rows, 3) == rref_basis(rows, 3) == [[2, -1, 0]]


def test_zero_and_full_rank_matrices():
    zero = [[Fraction(0)] * 3 for _ in range(2)]
    assert linalg.nullspace(zero, 3) == rref_basis(zero, 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linalg.nullspace([], 2) == [[1, 0], [0, 1]]
    full = [[Fraction(2**200 + 1), Fraction(3, 7), Fraction(-5)],
            [Fraction(1), Fraction(1), Fraction(1)],
            [Fraction(0), Fraction(11, 13), Fraction(2**100)],
            [Fraction(4), Fraction(4), Fraction(4)]]
    assert linalg.nullspace(full, 3) == rref_basis(full, 3) == []
