"""Exact linear algebra: nullspaces, cross-checked."""

import itertools
import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from intrec import linalg
from intrec import poly as P
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


def poly_gcd_all(entries):
    g = Poly("t", [])
    for e in entries:
        g = P.gcd(g, e)
    return g


def qt_rref_basis(rows, ncols):
    """Reduced-row-echelon nullspace basis over Q(t), scaled canonically: entries
    in Z[t] with no common factor, the first nonzero entry's leading coefficient
    positive.  Gauss-Jordan stays in Q[t]: rows are cross-multiplied, and each
    new row is divided by the gcd of its entries."""
    zero = Poly("t", [])
    m = [[e if isinstance(e, Poly) else Poly("t", [e]) for e in row] for row in rows]
    pivots = []
    for col in range(ncols):
        piv = next((i for i in range(len(pivots), len(m)) if m[i][col]), None)
        if piv is None:
            continue
        k = len(pivots)
        m[k], m[piv] = m[piv], m[k]
        for i in range(len(m)):
            if i != k and m[i][col]:
                a, b = m[k][col], m[i][col]
                new = [a * x - b * y for x, y in zip(m[i], m[k])]
                g = poly_gcd_all(new)
                m[i] = [P.exact_div(e, g) if g else e for e in new]
        pivots.append(col)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        # row k reads m[k][c]·v[c] + (sum over free g of m[k][g]·v[g]) = 0, c = pivots[k]
        den = Poly("t", [1])
        for k, c in enumerate(pivots):
            den = den * m[k][c]
        v = [zero] * ncols
        v[f] = den
        for k, c in enumerate(pivots):
            v[c] = -P.exact_div(m[k][f] * den, m[k][c])
        g = poly_gcd_all(v)
        v = [P.exact_div(e, g) for e in v]
        coeffs = [Fraction(c) for e in v for c in e.coeffs]
        scale = Fraction(math.lcm(*(c.denominator for c in coeffs)),
                         math.gcd(*(c.numerator for c in coeffs)))
        if next(e for e in v if e).lc() < 0:
            scale = -scale
        basis.append([P.scale_poly(e, scale) for e in v])
    return basis


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
        basis = linalg.nullspace(rows, 5)
        assert basis == qt_rref_basis(rows, 5)
        for v in basis:
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


scalars = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 6))
inner_polys = st.lists(scalars, max_size=3).map(lambda cs: Poly("x", cs))
entries = st.one_of(
    scalars,
    st.integers(-50, 50),
    st.lists(scalars, max_size=4).map(lambda cs: Poly("t", cs)),
    st.lists(st.one_of(scalars, inner_polys), max_size=3).map(lambda cs: Poly("t", cs)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(entries, max_size=5))
def test_canonical_vector_matches_fraction_scaling(vec):
    # integer division by the signed gcd gives the vector that scaling every
    # coefficient by the Fraction canonical_scale gives, type for type
    f = linalg.canonical_scale(vec)
    got = linalg.canonical_vector(vec)
    if f is None:
        assert got == list(vec)
        return
    want = [P.scale_poly(e, f) if isinstance(e, Poly) else P.as_num(e * f) for e in vec]
    assert repr(got) == repr(want)
    assert all(type(v) is int for e in got for v in (P.leaves(e) if isinstance(e, Poly) else [e]))


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


def fraction(bound, max_den):
    """Fractions n/d with |n/d| <= bound and d <= max_den, from a cheap integer pair."""
    return st.tuples(st.integers(-bound * max_den, bound * max_den), st.integers(1, max_den)).map(
        lambda ud: Fraction(ud[0] * ud[1] // max_den, ud[1]))


big_rationals = st.builds(Fraction, st.integers(-2**300, 2**300), st.integers(1, 2**60))
small_rationals = fraction(9, 5)


def row_of(entries, ncols):
    """One draw for a whole row."""
    return st.lists(entries, min_size=ncols, max_size=ncols)


@st.composite
def planted_matrices(draw):
    """Rational matrices with up to three columns planted as combinations of the others."""
    ncols = draw(st.integers(1, 7))
    nrows = draw(st.integers(1, 8))
    entries = draw(st.sampled_from([big_rationals, small_rationals]))
    rows = [draw(row_of(entries, ncols)) for _ in range(nrows)]
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=3, unique=True)):
        mix = draw(row_of(small_rationals | big_rationals, ncols))
        for row in rows:
            row[j] = sum((m * v for k, (m, v) in enumerate(zip(mix, row)) if k != j), Fraction(0))
    return rows, ncols


@settings(max_examples=200, deadline=None)
@given(planted_matrices())
def test_nullspace_matches_rref_reference(case):
    rows, ncols = case
    expected = rref_basis(rows, ncols)
    assert linalg.nullspace(rows, ncols) == expected
    # rows of ints go to the solver as they are
    ints = []
    for row in rows:
        den = math.lcm(*(v.denominator for v in row))
        ints.append([int(v * den) for v in row])
    assert linalg.nullspace(ints, ncols) == expected


# -- packed elimination mod p against a list-based reference -------------------


def list_echelon_mod_p(rows, ncols, p):
    """echelon_mod_p with each row kept as a list of residues, reduced mod p
    at every step."""
    echelon, at = [], {}
    for i, row in enumerate(rows):
        row = list(row)
        steps = [0] * len(echelon)
        for c in range(ncols):
            v = row[c]
            if not v:
                continue
            hit = at.get(c)
            if hit is None:
                inv = pow(v, -1, p)
                reduced = [x * inv % p for x in row]
                at[c] = len(echelon), reduced
                echelon.append((c, i, reduced, steps, inv))
                if len(echelon) == ncols:
                    return echelon
                break
            k, b = hit
            steps[k] = v
            row[c:] = [(x - v * y) % p for x, y in zip(row[c:], b[c:])]
    return echelon


@st.composite
def residue_matrices(draw):
    """(rows, ncols, p): random or rank-deficient (A·B mod p) residue rows,
    with zero and repeated rows, biased towards the entries 0, 1 and p − 1."""
    p = draw(st.sampled_from([2, 3, 65537, linalg.PRIME]))
    ncols = draw(st.integers(1, 40))
    nrows = draw(st.integers(0, 45))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def entry():
        return rng.choice((0, 1, p - 1)) if rng.random() < 0.3 else rng.randrange(p)

    if draw(st.booleans()):
        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    else:
        k = draw(st.integers(0, ncols))
        a = [[entry() for _ in range(k)] for _ in range(nrows)]
        b = [[entry() for _ in range(ncols)] for _ in range(k)]
        rows = [[sum(x * bt[j] for x, bt in zip(r, b)) % p for j in range(ncols)] for r in a]
    for _ in range(draw(st.integers(0, 3))):
        row = rng.choice(rows) if rows and rng.random() < 0.5 else [0] * ncols
        rows.insert(rng.randrange(len(rows) + 1), list(row))
    return rows, ncols, p


@settings(max_examples=200, deadline=None)
@given(residue_matrices())
def test_packed_echelon_matches_list_echelon(case):
    rows, ncols, p = case
    pulled = []

    def pull():
        for i, row in enumerate(rows):
            pulled.append(i)
            yield row

    echelon = linalg.echelon_mod_p(pull(), ncols, p)
    assert echelon == list_echelon_mod_p(rows, ncols, p)
    # a generator is read no further than the row that brings the ncols-th pivot
    assert len(pulled) == (echelon[-1][1] + 1 if len(echelon) == ncols else len(rows))


def test_echelon_pivots_list_the_independent_columns():
    def pivots(rows, ncols):
        p = linalg.PRIME
        return sorted(e[0] for e in linalg.echelon_mod_p([[x % p for x in r] for r in rows], ncols, p))

    # column 2 is 3·column 0 − column 1
    rows = [[1, 2, 1, 5], [4, -1, 13, 0], [0, 7, -7, 2], [2, 2, 4, 1]]
    assert pivots(rows, 4) == [0, 1, 3]
    full = [[2, 0, 1], [0, 3, 1], [1, 1, 10**40], [5, 5, 5]]
    assert pivots(full, 3) == [0, 1, 2]
    assert pivots([[0] * 3] * 4, 3) == []
    # the rank is taken mod PRIME: these rows are independent over Q
    assert pivots([[1, 1], [1, 1 + linalg.PRIME]], 2) == [0]


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


# -- the Q[t] solver: t-adic lifting against a Gauss-Jordan reference over Q(t) --


def tpoly(*cs):
    return Poly("t", list(cs))


small_tpolys = st.lists(fraction(5, 3), max_size=3).map(lambda cs: Poly("t", cs))
big_tpolys = st.lists(st.integers(-2**70, 2**70), max_size=3).map(lambda cs: Poly("t", cs))


@st.composite
def planted_poly_matrices(draw):
    """Q[t] matrices with up to three columns planted as Q[t]-combinations of the others."""
    ncols = draw(st.integers(1, 6))
    nrows = draw(st.integers(1, 6))
    entries = draw(st.sampled_from([small_tpolys, big_tpolys]))
    rows = [draw(row_of(entries, ncols)) for _ in range(nrows)]
    for j in draw(st.lists(st.integers(0, ncols - 1), max_size=3, unique=True)):
        mix = draw(row_of(small_tpolys, ncols))
        for row in rows:
            acc = Poly("t", [])
            for k, (a, e) in enumerate(zip(mix, row)):
                if k != j:
                    acc = acc + a * e
            row[j] = acc
    return rows, ncols


@settings(max_examples=150, deadline=None)
@given(planted_poly_matrices())
def test_poly_nullspace_matches_qt_reference(case):
    rows, ncols = case
    assert linalg.nullspace(rows, ncols) == qt_rref_basis(rows, ncols)


def recorded_pairs(monkeypatch):
    """Patch _basis_mod_p to record each (prime, point) and whether it was lucky."""
    pairs = []
    solve = linalg._basis_mod_p

    def recorded(mat, ncols, p, t0):
        got = solve(mat, ncols, p, t0)
        pairs.append((p, t0, got is not None))
        return got

    monkeypatch.setattr(linalg, "_basis_mod_p", recorded)
    return pairs


def test_unlucky_shift_point_moves_to_the_next_point(monkeypatch):
    pairs = recorded_pairs(monkeypatch)
    points = linalg._points
    monkeypatch.setattr(linalg, "_points", lambda: itertools.chain([5], points()))
    # column 0 is (t - 5)·column 1, so column 1 is free over Q(t); at t = 5 the
    # leading minor t - 5 vanishes, column 0 drops out and column 1 becomes a pivot
    rows = [[tpoly(-5, 1), tpoly(1), tpoly(0, 1)],
            [tpoly(-10, 2), tpoly(2), tpoly(1)]]
    assert linalg.nullspace(rows, 3) == qt_rref_basis(rows, 3) == [[tpoly(1), tpoly(5, -1), tpoly()]]
    first = linalg.T0_STEP % linalg.PRIME
    assert pairs[:2] == [(linalg.PRIME, 5, False), (linalg.PRIME, first, True)]
    # full rank over Q(t), rank 1 at t = 5 with the same first pivot: the
    # vector lifted there leans on no later pivot but fails the other row
    pairs.clear()
    rows = [[tpoly(1), tpoly()], [tpoly(), tpoly(-5, 1)]]
    assert linalg.nullspace(rows, 2) == []
    assert [ok for _, _, ok in pairs] == [False, True]


def test_prime_dividing_a_leading_coefficient(monkeypatch):
    pairs = recorded_pairs(monkeypatch)
    p = linalg.PRIME
    # the basis vector (t + 2, -(p·t + 1)) drops a degree mod PRIME; the next
    # primes' images sort higher and replace it
    rows = [[tpoly(1, p), tpoly(2, 1)]]
    assert linalg.nullspace(rows, 2) == qt_rref_basis(rows, 2) == [[tpoly(2, 1), tpoly(-1, -p)]]
    assert pairs[0][0] == p and len(pairs) >= 3
    rows = [[tpoly(1, p), tpoly(2, 1), tpoly(0, 0, Fraction(1, p))],
            [tpoly(3), tpoly(0, p, 1), tpoly(1, 1)]]
    assert linalg.nullspace(rows, 3) == qt_rref_basis(rows, 3)


def test_full_column_rank_at_the_first_point(monkeypatch):
    pairs = recorded_pairs(monkeypatch)
    monkeypatch.setattr(linalg, "_lift_series", None)  # no lifting may run
    rows = [[tpoly(0, 1), tpoly(1), tpoly(2, 3)],
            [tpoly(1), tpoly(0, 1), tpoly(5)],
            [tpoly(1, 1, 1), tpoly(-1), tpoly(0, 0, 7)]]
    assert linalg.nullspace(rows, 3) == qt_rref_basis(rows, 3) == []
    assert len(pairs) == 1


def test_certificate_only_nullspace():
    # shaped like a telescoper system: two certificate columns, then the
    # operator columns a_0, a_1; the one solution has a zero operator part
    rows = [[tpoly(1), tpoly(0, -1), tpoly(0, 1), tpoly(1, 1)],
            [tpoly(0, 1), tpoly(0, 0, -1), tpoly(1), tpoly(0, 0, 1)],
            [tpoly(), tpoly(), tpoly(2, 1), tpoly(1, 0, 3)],
            [tpoly(), tpoly(), tpoly(1), tpoly(0, 1)]]
    basis = linalg.nullspace(rows, 4)
    assert basis == qt_rref_basis(rows, 4) == [[tpoly(0, 1), tpoly(1), tpoly(), tpoly()]]


def test_primes_are_found_once():
    def is_prime(n):
        return n % 2 and all(n % d for d in range(3, math.isqrt(n) + 1, 2))

    expected = [n for n in range(linalg.PRIME, linalg.PRIME - 100, -1) if is_prime(n)][:3]
    assert list(itertools.islice(linalg._primes(), 3)) == expected
    assert linalg._PRIMES[:3] == expected
    assert list(itertools.islice(linalg._primes(), 3)) == expected


def test_pade_starts_at_2d_plus_1_and_returns_only_certified_candidates(monkeypatch):
    # below 2·d + 1 coefficients Padé could certify only a solution of degree
    # below d, so no attempt is made there; a candidate whose degree k leaves
    # n <= d + k is not certified and lifting goes on (returning it sends the
    # second matrix below into an endless search over primes), with the next
    # attempt at d + k + 1 coefficients at the latest.  Every lift, at every
    # prime, starts alike: nothing of another prime's image guides it.
    from intrec import cfinite as cf
    from intrec.genfun import generating_function
    from intrec.ratfunc import RatFunc
    from intrec.telescope import Kernel, telescope, trivial_kernel

    pade, lift = linalg._pade, linalg._lift_series
    lifts = []

    def checked_lift(block, cols, solve, d, p):
        calls, steps = [], []

        def recorded_pade(series, n, p):
            cand = pade(series, n, p)
            calls.append((n, None if cand is None else max(map(len, cand[0] + [cand[1]])) - 1))
            return cand

        def counted_solve(b):
            steps.append(b)
            return solve(b)

        monkeypatch.setattr(linalg, "_pade", recorded_pade)
        nums, den = lift(block, cols, counted_solve, d, p)
        a, b = max(max(map(len, nums)) - 1, 0), len(den) - 1
        assert calls[0][0] == min(2 * d + 1, 2 * len(block) * d + 1)
        # a candidate that is not returned came too early, and the next
        # attempt comes by the first count that can certify it
        for (n, k), (later, _) in zip(calls, calls[1:]):
            if k is not None:
                assert n <= d + k and later <= d + k + 1
        # one solve per coefficient: the candidate returned was certified
        assert len(steps) > d + max(a, b)
        lifts.append(p)
        return nums, den

    monkeypatch.setattr(linalg, "_lift_series", checked_lift)
    telescope(generating_function(cf.power(cf.BUILTINS["chebyshev_T"], 2)), trivial_kernel(), 6)
    # against exp(-x^2/2) a degree-10 candidate of a d = 8 system turns up at
    # 17 coefficients, too early to certify: Padé is tried again at 19
    gauss = Kernel(RatFunc(Poly("x", [1])), RatFunc(Poly("x", [0, -1])))
    telescope(generating_function(cf.BUILTINS["chebyshev_U"]), gauss, 2)
    rows = [[tpoly(0, -1), tpoly(), tpoly(), tpoly(), tpoly(-1), tpoly()],
            [tpoly(-1), tpoly(), tpoly(), tpoly(), tpoly(), tpoly(0, -1)]]
    assert linalg.nullspace(rows, 6) == qt_rref_basis(rows, 6)
    assert len(lifts) > 4
    # entries near 10^25 need several primes, each lifted on its own
    lifts.clear()
    big = 10**25 + 7
    rows = [[tpoly(1, big), tpoly(2, 3, big), tpoly(0, 5)],
            [tpoly(big, 1), tpoly(1, 0, 2), tpoly(big, 0, 1)]]
    assert linalg.nullspace(rows, 3) == qt_rref_basis(rows, 3)
    assert len(set(lifts)) >= 2
