"""Exact nullspace computations.

Both nullspace solvers return the canonical basis: one vector per free column
of the reduced row echelon form over Q or Q(t), in column order, each jointly
primitive over Z or Z[t] with the first nonzero entry (its leading
coefficient) positive.  That makes solver output reproducible across runs.

Rational entries (`_nullspace_frac`) are solved by p-adic lifting (Dixon,
Numer. Math. 1982).  Rows are cleared to integers (a row of ints is used as
it is) and eliminated modulo the prime PRIME, which gives the pivot columns
and an invertible pivot block; if the rows have full column rank mod PRIME,
they have it over Q, and the basis is empty.
For each free column the block system is lifted one p-adic digit at a time,
and rational reconstruction (Wang's bounds, one shared denominator) is tried
whenever the digit count has grown by a fixed factor; past the Hadamard bound
the reconstruction is exact, so the lifting ends.  A vector is returned only
when it annihilates every row exactly and leans on no pivot column after its
own, which makes it the reduced row echelon vector over Q.  When a row fails,
the rank dropped modulo the prime: the solve restarts at the next smaller
prime.  Only the finitely many primes dividing the minors involved can fail,
so the loop ends.

Polynomial entries (`_nullspace_tadic`) are solved by the same idea in t:
t-adic lifting modulo primes.  Rows are cleared to Z[t] and reduced mod p.
At a point t0 from a fixed sequence (t0 = 0 is often degenerate here),
elimination gives the pivot columns and an invertible pivot block; if the
rows at t0 have full column rank, so do the rows over Q(t), and the basis is
empty.  Otherwise each free column's block system is lifted as a power
series in t − t0, one coefficient per triangular solve, and a Padé
approximant (extended Euclid, one shared denominator) is tried first at
twice the degree of the system plus one coefficients, below which it could
certify only solutions of lower degree, and then whenever the count has
grown by a fixed factor, or sooner, at the first count that can certify a
candidate found too early; Cramer's rule bounds the count needed.  Each
prime's image depends only on that prime and its shift point.  Shifted back
to t, the images of successive primes are combined by CRT and rational
reconstruction.  A basis is returned only when it annihilates every row
exactly over Z[t] and leans on no pivot column after its own.  Only
finitely many pairs (p, t0) fail, so the loop ends.

Both solvers eliminate mod p with `echelon_mod_p`, which takes residues in
[0, p) and keeps each row packed in one integer, a slot of w bits per
column: clearing a column is one multiply-add and one shift of that
integer, and a slot is reduced mod p only when read.  w leaves room for
ncols·p² + p, more than a slot can gain, so slots never carry into each
other.  The guesser screens each order's rows of term residues with it.
"""

from fractions import Fraction
from itertools import accumulate, count
from math import comb, gcd as _igcd, isqrt
from operator import mul

from . import _kernels as K
from . import poly as P
from .poly import Poly

PRIME = 1073741789  # the largest prime below 2**30


def _signed_content(entries):
    """(ints, L, g) with ints/L the entries' coefficients, flattened by
    `poly.leaves`, and g the gcd of ints signed like the first nonzero
    entry; None for a zero vector."""
    vals, sign = [], 0
    for e in entries:
        if isinstance(e, Poly):
            vals += P.leaves(e)
        else:
            vals.append(e)
        if not sign and e:
            sign = P.leading_sign(e) if isinstance(e, Poly) else (1 if e > 0 else -1)
    if not sign:
        return None
    ints, L = P.cleared(vals)
    return ints, L, sign * _igcd(*ints)


def canonical_scale(entries):
    """The rational f that canonical_vector scales by; None for a zero vector.

    1/f is the gcd of the entries' cleared coefficients over their common
    denominator, signed like the first nonzero entry.
    """
    got = _signed_content(entries)
    return None if got is None else Fraction(got[1], got[2])


def canonical_vector(entries):
    """Scale a rational/poly vector to joint primitive form, first nonzero positive.

    The result is integral: each cleared coefficient divided exactly by the
    signed gcd, refilled into the entries' shapes, with no Fraction built.
    """
    got = _signed_content(entries)
    if got is None:
        return list(entries)
    ints, _, g = got
    it = iter([v // g for v in ints])

    def refill(e):
        if not isinstance(e, Poly):
            return next(it)
        return Poly(e.var, [Poly(c.var, [next(it) for _ in c.coeffs])
                            if isinstance(c, Poly) else next(it) for c in e.coeffs])

    return [refill(e) for e in entries]


_PRIMES = [PRIME]  # the primes _primes() has found so far


def _primes():
    """PRIME, then the primes below it in descending order.

    Each prime is found by trial division once and kept in _PRIMES.
    """
    for i in count():
        if i == len(_PRIMES):
            p = _PRIMES[-1] - 2
            while not all(p % q for q in range(3, isqrt(p) + 1, 2)):
                p -= 2
            _PRIMES.append(p)
        yield _PRIMES[i]


def echelon_mod_p(rows, ncols, p):
    """Row echelon form modulo p of residue rows (an iterable).

    Entries must be residues in [0, p).  Returns one entry per pivot, in the
    order found: (pivot column, index of the row that brought it, that row
    reduced with a leading 1, the multipliers of the earlier entries
    subtracted from it, the inverse of its leading entry).  Rows are reduced
    one at a time against the entries so far, so the scan stops as soon as
    ncols pivots are found.  The pivot columns are those of the reduced row
    echelon form.

    A row is kept packed in one integer, a slot of w bits per column, read
    from its current column on.  Clearing column c, whose slot is v mod p,
    against the pivot row b, packed from c on with a leading 1, adds
    (p − v)·b, which makes the slot ≡ 0, and shifts that slot out.  Slots
    are reduced mod p only when read: each clearing adds less than p² to a
    slot, so a slot stays below ncols·p² + p, which w holds with a bit to
    spare, and never carries into the next.
    """
    w = (ncols * p * p + p).bit_length() + 1
    mask = (1 << w) - 1
    echelon, at = [], [None] * ncols
    for i, row in enumerate(rows):
        tail = 0
        for x in reversed(row):
            tail = tail << w | x
        steps = [0] * len(echelon)
        for c in range(ncols):
            v = (tail & mask) % p
            if v:
                hit = at[c]
                if hit is None:
                    inv = pow(v, -1, p)
                    reduced = [0] * c
                    b = shift = 0
                    for _ in range(c, ncols):
                        x = (tail & mask) * inv % p
                        reduced.append(x)
                        b |= x << shift
                        shift += w
                        tail >>= w
                    at[c] = len(echelon), b
                    echelon.append((c, i, reduced, steps, inv))
                    if len(echelon) == ncols:
                        return echelon
                    break
                k, b = hit
                steps[k] = v
                tail = (tail + (p - v) * b) >> w
            elif tail:
                tail >>= w
            else:
                break
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
        row = P.cleared(row)[0]
        if any(row):
            mat.append(row)
    for p in _primes():
        basis = _rref_basis(mat, ncols, p)
        if basis is not None:
            return basis


# -- Q[t] entries: t-adic lifting modulo primes --------------------------------

T0_STEP = 2654435761  # a prime above PRIME


def _points():
    """The shift points tried for each prime, in order: T0_STEP·j for j = 1, 2, …

    For a prime p below T0_STEP the first p − 1 of them are distinct and
    nonzero mod p.
    """
    return count(T0_STEP, T0_STEP)


def _pmul_mod(a, b, p, n=None):
    """a·b mod p for coefficient lists, truncated below t^n when n is given."""
    if not a or not b:
        return []
    lb = len(b)
    rb = b[::-1]
    top = len(a) + lb - 1 if n is None else min(n, len(a) + lb - 1)
    head = [sum(map(mul, a, rb[lb - 1 - k:])) % p for k in range(min(lb - 1, top))]
    return K.strip(head + [sum(map(mul, a[k - lb + 1:k + 1], rb)) % p for k in range(lb - 1, top)])


def _shifter(t0, d, p):
    """cs ↦ the coefficients mod p of a(t + t0), a of degree ≤ d with coefficients cs."""
    pw = [pow(t0, j, p) for j in range(d + 1)]
    # coefficient k of a(t + t0) is the sum over j ≥ k of a_j·C(j, k)·t0^(j−k)
    taylor = [[comb(j, k) * pw[j - k] % p for j in range(k, d + 1)] for k in range(d + 1)]
    return lambda cs: K.strip([sum(map(mul, cs[k:], w)) % p
                               for k, w in enumerate(taylor[:len(cs)])])


def _divmod_mod(a, b, p):
    """Quotient and remainder of a by b (nonzero) modulo p."""
    r = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - db)
    for i in range(len(a) - 1, db - 1, -1):
        c = r[i] * inv % p
        if c:
            q[i - db] = c
            r[i - db:i] = [(x - c * y) % p for x, y in zip(r[i - db:i], b)]
    return K.strip(q), K.strip(r[:db])


def _ratrecon_series(u, n, bound_n, bound_d, p):
    """(a, b) with a ≡ u·b mod t^n, deg a ≤ bound_n, deg b ≤ bound_d, b(0) = 1, or None.

    The extended Euclidean algorithm on t^n and u, stopped at the first
    remainder of degree at most bound_n.
    """
    r0, r1, s0, s1 = [0] * n + [1], u, [], [1]
    while len(r1) > bound_n + 1:
        q, r = _divmod_mod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, K.strip([x % p for x in K.psub(s0, _pmul_mod(q, s1, p))])
    if len(s1) > bound_d + 1 or not s1[0]:
        return None
    c = pow(s1[0], -1, p)
    return [x * c % p for x in r1], [x * c % p for x in s1]


def _pade(series, n, p):
    """Polynomials (nums, den) mod p with den·s ≡ num mod t^n for each series s, or None.

    The Padé analogue of _reconstruct: entries share one denominator, with
    den(0) = 1.  Each entry is multiplied by the denominator found so far
    before its own reconstruction, whose denominator bound shrinks to match,
    so numerators stay within degree bound_n = (n − 1)//2 and den within
    bound_d, the rest of n − 1.  As bound_n + bound_d < n, a solution within
    those bounds is the one found.
    """
    bound_n, bound_d = (n - 1) // 2, n - 1 - (n - 1) // 2
    nums, den = [], [1]
    for s in series:
        u = _pmul_mod(s, den, p, n) if len(den) > 1 else K.strip(list(s))
        ab = _ratrecon_series(u, n, bound_n, bound_d + 1 - len(den), p)
        if ab is None:
            return None
        a, b = ab
        if len(b) > 1:
            nums = [_pmul_mod(x, b, p) for x in nums]
            den = _pmul_mod(den, b, p)
        nums.append(a)
    return nums, den


def _lift_series(block, cols, solve, d, p):
    """(nums, den) over F_p[t] with block·nums = −den·cols, by t-adic lifting.

    block is an r×r matrix of coefficient lists whose constant term is
    invertible and solved by `solve`; d bounds the degrees of block and cols.
    Each step adds one coefficient of the power series solution.  A
    candidate of degree k that matches n > d + k coefficients is exact,
    because block·nums + den·cols then has degree at most d + k and vanishes
    mod t^n.  Padé at n coefficients aims at numerators of degree (n − 1)/2,
    so below 2·d + 1 coefficients it could certify only a solution of degree
    below d: it is tried first at 2·d + 1, then whenever the count has grown
    by 5/4, or at d + k + 1 after a candidate of degree k came too early to
    certify.  By Cramer's rule the solution has degree at most r·d, so by
    2·r·d + 1 coefficients it is found and certified.
    """
    r = len(block)
    # the last coefficients of the solution, column by column, newest first,
    # as many as the column's degree in the block: `hist`, laid out like
    # each row's `flats` entry, which holds its coefficients of t^1, t^2, …
    widths = [max((len(row[s]) for row in block), default=1) - 1 for s in range(r)]
    spans = [(s, o, w) for s, o, w in zip(range(r), accumulate([0] + widths), widths) if w]
    flats = [[row[s][j] if j < len(row[s]) else 0 for s, _, w in spans for j in range(1, w + 1)]
             for row in block]
    hist = [0] * sum(widths)
    xs = []
    n, check, last = 0, 2 * d + 1, 2 * r * d + 1
    while True:
        x = solve([(-(g[n] if n < len(g) else 0) - sum(map(mul, fl, hist))) % p
                   for fl, g in zip(flats, cols)])
        xs.append(x)
        hist = [v for s, o, w in spans for v in (x[s], *hist[o:o + w - 1])]
        n += 1
        if n >= check or n >= last:
            check = n + (n + 3) // 4
            cand = _pade(list(zip(*xs)), n, p)
            if cand is not None:
                top = max(map(len, cand[0] + [cand[1]])) - 1
                if n > d + top:
                    return cand
                check = min(check, d + top + 1)
            if n >= last:
                raise ArithmeticError("t-adic lifting passed the Cramer bound")


def _vanishes_mod(row, vec, p):
    """Whether the sum of row[c]·vec[c] is the zero polynomial mod p."""
    acc = []
    for a, e in zip(row, vec):
        acc = K.padd(acc, _pmul_mod(a, e, p))
    return not any(c % p for c in acc)


def _basis_mod_p(mat, ncols, p, t0):
    """(pivot columns, basis) of the nullspace over F_p(t), or None when t0 is unlucky.

    The basis has one vector per free column f of the reduced row echelon
    form over F_p(t), as coefficient lists mod p, scaled to be primitive
    over F_p[t] with a monic entry f.  Elimination of the rows at t = t0
    gives the pivot columns P and rows R; for each free column f the block
    system A[R][P]·x = −A[R][f] is lifted in powers of t − t0.  If the
    rows at t0 have full column rank, so do the rows over Q(t), and the
    basis is empty.  A vector must hold on every row mod p and lean on no
    pivot after f; otherwise the rank of a leading block of columns dropped
    at t0, which happens at finitely many points for each prime.
    """
    d = max((len(e) for r in mat for e in r), default=1) - 1
    pw = [pow(t0, j, p) for j in range(d + 1)]
    echelon = echelon_mod_p(([sum(map(mul, e, pw)) % p for e in r] for r in mat), ncols, p)
    pcols = sorted(e[0] for e in echelon)
    if len(pcols) == ncols:
        return pcols, []
    shift = _shifter(t0, d, p)
    sh = [[shift(e) for e in r] for r in mat]
    block = [sh[e[1]] for e in echelon]
    kept = set(e[1] for e in echelon)
    others = [r for i, r in enumerate(sh) if i not in kept]
    pblock = [[r[c] for c in pcols] for r in block]
    db = max((len(e) for r in pblock for e in r), default=1) - 1
    solve = _solver_mod_p(echelon, p)
    basis = []
    for f in range(ncols):
        if f in pcols:
            continue
        cols = [r[f] for r in block]
        deg = max(db, max(map(len, cols), default=1) - 1)
        nums, den = _lift_series(pblock, cols, solve, deg, p)
        v = [[] for _ in range(ncols)]
        v[f] = den
        for c, x in zip(pcols, nums):
            v[c] = x
        if any(v[c] for c in pcols if c > f) or not all(_vanishes_mod(r, v, p) for r in others):
            return None
        back = _shifter(-t0 % p, max(map(len, v)) - 1, p)
        v = [back(e) for e in v]
        inv = pow(v[f][-1], -1, p)
        basis.append([[x * inv % p for x in e] for e in v])
    return pcols, basis


def _annihilates(mat, vecs):
    """Whether mat·v = 0 over Z[t] for every integer vector v in vecs."""
    for row in mat:
        for v in vecs:
            acc = []
            for a, e in zip(row, v):
                acc = K.padd(acc, K.pmul(a, e))
            if acc:
                return False
    return True


def _shape_key(shape, ncols):
    """Sort key of an image shape: weight of the pivots, then total entry length."""
    pcols, lens = shape
    return sum(ncols - c for c in pcols), sum(map(sum, lens))


def _nullspace_tadic(rows, ncols, var):
    """The canonical nullspace basis over Q(t) of rows with Q[t] entries.

    Each prime p in turn gives the basis over F_p(t) (_basis_mod_p, at the
    first lucky shift point).  Images of equal shape, meaning equal pivot
    columns and entry degrees, are combined by CRT and rebuilt by rational
    reconstruction, one shared denominator per vector.  An image whose shape
    sorts higher (_shape_key) replaces those kept: where the Q(t) basis
    reduces badly mod p, pivots move later or degrees drop, so the true shape
    sorts above every other.  A rebuilt basis is returned only if every
    vector annihilates every row exactly over Z[t] and has a nonzero entry
    at its free column; its support lies in that column and the pivots
    before it by construction.  As in _rref_basis, that makes it the reduced
    row echelon basis over Q(t); since the degrees of the shape are those of
    a primitive vector mod p, the vectors share no factor in t, so
    canonical_vector makes them canonical.  Only finitely many primes reduce
    the basis badly, so the loop ends.
    """
    mat = []
    for row in rows:
        r = P.cleared_rows([e.coeffs if isinstance(e, Poly) else ([e] if e else [])
                            for e in row])[0]
        if any(r):
            mat.append(r)
    shape, images, m = None, None, 1
    for p in _primes():
        for t0 in _points():
            got = _basis_mod_p(mat, ncols, p, t0 % p)
            if got is not None:
                break
        pcols, basis = got
        if not basis:
            return []  # full column rank at t0, hence over Q(t)
        new = (pcols, [[len(e) for e in v] for v in basis])
        flat = [[x for e in v for x in e] for v in basis]
        if new == shape:
            inv = pow(m, -1, p)
            images = [[a + m * ((b - a) * inv % p) for a, b in zip(xs, ys)]
                      for xs, ys in zip(images, flat)]
            m *= p
        elif shape is None or _shape_key(new, ncols) >= _shape_key(shape, ncols):
            shape, images, m = new, flat, p
        else:
            continue
        vecs = []
        for lens, xs in zip(shape[1], images):
            got = _reconstruct(xs, m)
            if got is None:
                break
            nums = iter(got[0])
            vecs.append([[next(nums) for _ in range(k)] for k in lens])
        else:
            free = [f for f in range(ncols) if f not in shape[0]]
            if all(v[f] for v, f in zip(vecs, free)) and _annihilates(mat, vecs):
                return [canonical_vector([Poly(var, e) for e in v]) for v in vecs]


def nullspace(rows, ncols):
    """Canonical basis of the right nullspace of a rational or Q[t]-entry matrix."""
    var = next((e.var for row in rows for e in row if isinstance(e, Poly)), None)
    if var is None:
        return _nullspace_frac(rows, ncols)
    return _nullspace_tadic(rows, ncols, var)
