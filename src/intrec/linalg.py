"""Exact nullspace and determinant computations.

Both nullspace solvers return the canonical basis: one vector per free column
of the reduced row echelon form over Q, in column order, each jointly
integer-primitive with the first nonzero entry positive.  That makes solver
output reproducible across runs.

Polynomial entries (`_nullspace_poly`) stay fraction-free: rows are cleared
to Z[t], eliminated with the gcd cross-multiplication trick with row contents
stripped as it goes, and back-substituted without leaving Z[t].

Rational entries (`_nullspace_frac`) are solved by p-adic lifting (Dixon,
Numer. Math. 1982).  Rows are cleared to integers and eliminated modulo the
prime PRIME, which gives the pivot columns and an invertible pivot block.
For each free column the block system is lifted one p-adic digit at a time,
and rational reconstruction (Wang's bounds, one shared denominator) is tried
whenever the digit count has grown by a fixed factor; past the Hadamard bound
the reconstruction is exact, so the lifting ends.  A vector is returned only
when it annihilates every row exactly and leans on no pivot column after its
own, which makes it the reduced row echelon vector over Q.  When a row fails,
the rank dropped modulo the prime: the solve restarts at the next smaller
prime.  Only the finitely many primes dividing the minors involved can fail,
so the loop ends.
"""

from fractions import Fraction
from math import gcd as _igcd, isqrt, lcm as _ilcm
from operator import mul

from . import _kernels as K
from . import poly as P
from .poly import Poly

PRIME = 1073741789  # the largest prime below 2**30


def canonical_scale(entries):
    """The rational f that canonical_vector scales by; None for a zero vector."""
    content = Fraction(0)
    sign = 0
    for e in entries:
        c = P.rational_content(e) if isinstance(e, Poly) else abs(Fraction(e))
        if not c:
            continue
        if sign == 0:
            sign = P.leading_sign(e) if isinstance(e, Poly) else (1 if e > 0 else -1)
        g = _igcd(content.numerator, c.numerator)
        l = _ilcm(content.denominator, c.denominator)
        content = Fraction(g, l)
    return Fraction(1, 1) / (content * sign) if sign else None


def canonical_vector(entries):
    """Scale a rational/poly vector to joint primitive form, first nonzero positive."""
    f = canonical_scale(entries)
    if f is None:
        return list(entries)
    return [P.scale_poly(e, f) if isinstance(e, Poly) else P.as_num(Fraction(e) * f)
            for e in entries]


def _primes():
    """PRIME, then the primes below it in descending order."""
    yield PRIME
    p = PRIME - 2
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p -= 2


def echelon_mod_p(rows, ncols, p):
    """Row echelon form modulo p of residue rows (an iterable).

    Returns one entry per pivot, in the order found: (pivot column, index of
    the row that brought it, that row reduced with a leading 1, the
    multipliers of the earlier entries subtracted from it, the inverse of its
    leading entry).  Rows are reduced one at a time against the entries so
    far, so the scan stops as soon as ncols pivots are found.  The pivot
    columns are those of the reduced row echelon form.
    """
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


def _solver_mod_p(echelon, p):
    """x ↦ the solution mod p of B·x = b, B the pivot rows on the pivot columns.

    b is indexed like the echelon entries, x by pivot column in ascending
    order.  The recorded steps carry b to the echelon rows, and
    back-substitution through their unit upper-triangular part gives x.
    """
    order = sorted(range(len(echelon)), key=lambda k: echelon[k][0])
    pcols = [echelon[k][0] for k in order]
    # back-substitution from the last pivot column: the rows above the
    # diagonal, read right to left
    upper = [(k, [echelon[k][2][c] for c in reversed(pcols[s + 1:])])
             for s, k in reversed(list(enumerate(order)))]

    def solve(b):
        y = []
        for (_, _, _, steps, inv), v in zip(echelon, b):
            y.append((v - sum(map(mul, steps, y))) * inv % p)
        x = []
        for k, row in upper:
            x.append((y[k] - sum(map(mul, row, x))) % p)
        x.reverse()
        return x

    return solve


def _ratrecon(u, m, bound_n, bound_d):
    """(a, b) with a ≡ u·b mod m, |a| ≤ bound_n, 0 < b ≤ bound_d, or None (Wang)."""
    r0, r1, t0, t1 = m, u, 0, 1
    while r1 > bound_n:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not t1 or abs(t1) > bound_d:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _reconstruct(xs, m):
    """Integers (nums, den) with nums ≡ den·xs mod m, or None.

    Entries share one denominator: each is multiplied by the denominator found
    so far before its own reconstruction, whose denominator bound shrinks to
    match, so den stays within Wang's bound isqrt(m // 2).
    """
    bound = isqrt(m // 2)
    nums, den = [], 1
    for x in xs:
        ab = _ratrecon(x * den % m, m, bound, bound // den)
        if ab is None:
            return None
        a, b = ab
        if b != 1:
            nums = [n * b for n in nums]
            den *= b
        nums.append(a)
    return nums, den


def _lift(block, solve, rhs, p):
    """Candidate solutions (nums, den) of block·nums = den·rhs, by p-adic lifting.

    block is square and `solve` solves it mod p.  Each step adds one p-adic
    digit to the solution; a candidate is reconstructed whenever the digit
    count has grown by a factor 5/4.  The last candidate comes once p^k
    exceeds 2·H², H the Hadamard bound on the Cramer numerators and the
    denominator, and is the exact solution.
    """
    h2 = max(1, sum(v * v for v in rhs))
    for c in range(len(block)):
        h2 *= sum(row[c] * row[c] for row in block)
    xs = [0] * len(block)
    res = list(rhs)
    m, k, check = 1, 0, 1
    while True:
        if any(res):
            digit = solve([v % p for v in res])
            res = [(v - sum(map(mul, row, digit))) // p for v, row in zip(res, block)]
            xs = [x + m * d for x, d in zip(xs, digit)]
        m *= p
        k += 1
        last = m > 2 * h2
        if k >= check or last:
            check = k + (k + 3) // 4
            cand = _reconstruct(xs, m)
            if cand is not None:
                yield cand
        if last:
            return


def _rref_basis(mat, ncols, p):
    """The canonical nullspace basis of the integer rows, or None when p is unlucky.

    Elimination mod p gives the pivot columns P and the pivot rows R.  For
    each other column f, A[R][P]·x = −A[R][f] is solved by p-adic lifting.
    A vector is kept only if A·v = 0 holds exactly on every row and its
    support lies in f and the pivots before f; it is then the reduced row
    echelon vector of f over Q.  Otherwise the rank of some leading block of
    columns dropped mod p, and the caller moves to the next prime.  Only
    finitely many primes divide the minors involved.
    """
    echelon = echelon_mod_p(([x % p for x in r] for r in mat), ncols, p)
    if len(echelon) == ncols:
        return []
    pcols = sorted(e[0] for e in echelon)
    block = [[mat[e[1]][c] for c in pcols] for e in echelon]
    kept = set(e[1] for e in echelon)
    others = [r for i, r in enumerate(mat) if i not in kept]
    solve = _solver_mod_p(echelon, p)
    out = []
    for f in range(ncols):
        if f in pcols:
            continue
        rhs = [-mat[e[1]][f] for e in echelon]
        for nums, den in _lift(block, solve, rhs, p):
            if all(sum(map(mul, row, nums)) == den * v for row, v in zip(block, rhs)):
                break
        else:
            raise ArithmeticError("p-adic lifting passed the Hadamard bound")
        v = [0] * ncols
        v[f] = den
        for c, x in zip(pcols, nums):
            v[c] = x
        if any(v[c] for c in pcols if c > f) or any(sum(map(mul, r, v)) for r in others):
            return None
        out.append(canonical_vector(v))
    return out


def _nullspace_frac(rows, ncols):
    mat = []
    for row in rows:
        den = _ilcm(*(e.denominator for e in row))
        r = [e.numerator * (den // e.denominator) for e in row]
        if any(r):
            mat.append(r)
    for p in _primes():
        basis = _rref_basis(mat, ncols, p)
        if basis is not None:
            return basis


def _nullspace_poly(rows, ncols, var):
    # rows of int-coefficient lists, scaled per row to clear rational parts
    mat = []
    for row in rows:
        den = 1
        entries = []
        for e in row:
            cs = e.coeffs if isinstance(e, Poly) else ([P.as_num(e)] if e else [])
            entries.append(cs)
            for c in cs:
                den = _ilcm(den, Fraction(c).denominator)
        r = [[int(c * den) for c in cs] for cs in entries]
        if any(cs for cs in r):
            mat.append(r)
    used = [False] * len(mat)
    pivots = []
    for col in range(ncols):
        best = None
        for i, r in enumerate(mat):
            if used[i] or not r[col]:
                continue
            e = r[col]
            key = (len(e), sum(1 for c in e if c))
            if best is None or key < best[0]:
                best = (key, i)
        if best is None:
            continue
        i = best[1]
        used[i] = True
        pivots.append((i, col))
        piv = mat[i][col]
        for j, r in enumerate(mat):
            if j == i or not r[col]:
                continue
            g = K.gcd_int(piv, r[col])
            if len(g) > 1 or g[0] != 1:
                pg = K.exactdiv_int(piv, g)
                eg = K.exactdiv_int(r[col], g)
            else:
                pg, eg = piv, r[col]
            new = [K.psub(K.pmul(pg, r[k]), K.pmul(eg, mat[i][k])) for k in range(ncols)]
            c = 0
            for cs in new:
                for v in cs:
                    if v:
                        c = _igcd(c, v)
                if c == 1:
                    break
            if c > 1:
                new = [[v // c for v in cs] for cs in new]
            mat[j] = new
    pivot_of = dict((c, i) for i, c in pivots)
    basis = []
    zero = Poly(var, [])
    for f in range(ncols):
        if f in pivot_of:
            continue
        # row i is clean outside its pivot and the free columns: scale e_f by
        # the lcm L of the pivots m_ic of the rows touching column f, so that
        # v[c] = -m_if·L/m_ic is exact over Z[t]
        touching = [(mat[i][f], mat[i][c], c) for i, c in pivots if mat[i][f]]
        L = [1]
        for _, piv, _ in touching:
            L = piv if L == [1] else K.pmul(L, K.exactdiv_int(piv, K.gcd_int(L, piv)))
        vals = {f: L}
        for m_if, m_ic, c in touching:
            vals[c] = K.pneg(K.pmul(m_if, K.exactdiv_int(L, m_ic)))
        g = []
        for cs in vals.values():
            g = K.gcd_int(g, cs)
            if g == [1]:
                break
        vec = [Poly(var, K.exactdiv_int(vals[k], g)) if k in vals else zero for k in range(ncols)]
        basis.append(canonical_vector(vec))
    return basis


def nullspace(rows, ncols):
    """Canonical basis of the right nullspace of a rational or Q[t]-entry matrix."""
    var = None
    for row in rows:
        for e in row:
            if isinstance(e, Poly):
                var = e.var
                if not e.is_constant():
                    break
        else:
            continue
        break
    if var is None:
        return _nullspace_frac(rows, ncols)
    return _nullspace_poly(rows, ncols, var)


def bareiss_det(mat, var):
    """Exact determinant over a polynomial ring by two-step fraction-free elimination."""
    n = len(mat)
    if n == 0:
        return Poly(var, [1])
    M = [[e if isinstance(e, Poly) else Poly.const(var, e) for e in row] for row in mat]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not M[k][k]:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return Poly(var, [])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = M[i][j] * M[k][k] - M[i][k] * M[k][j]
                M[i][j] = P.exact_div(num, prev) if prev is not None else num
            M[i][k] = Poly(var, [])
        prev = M[k][k]
    d = M[n - 1][n - 1]
    return -d if sign < 0 else d
