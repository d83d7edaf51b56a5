"""Exact nullspace and determinant computations, fraction-free throughout.

The nullspace solver clears every row to integer (or integer-polynomial)
entries, eliminates with the gcd cross-multiplication trick, strips row
contents as it goes, then back-substitutes (for polynomial entries without
leaving Z[t]).  Basis vectors come back canonical: jointly integer-primitive
with the first nonzero entry positive, one vector per free column, in column
order.  That makes solver output reproducible across runs.
"""

from fractions import Fraction
from math import gcd as _igcd, lcm as _ilcm

from . import _kernels as K
from . import poly as P
from .poly import Poly


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


def _nullspace_frac(rows, ncols):
    mat = []
    for row in rows:
        den = 1
        for e in row:
            den = _ilcm(den, Fraction(e).denominator)
        r = [int(Fraction(e) * den) for e in row]
        if any(r):
            mat.append(r)
    used = [False] * len(mat)
    pivots = []
    for col in range(ncols):
        best = None
        for i, r in enumerate(mat):
            if used[i] or not r[col]:
                continue
            key = abs(r[col]).bit_length()
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
            g = _igcd(piv, r[col])
            pg, eg = piv // g, r[col] // g
            new = [pg * r[k] - eg * mat[i][k] for k in range(ncols)]
            c = 0
            for v in new:
                if v:
                    c = _igcd(c, v)
                    if c == 1:
                        break
            if c > 1:
                new = [v // c for v in new]
            mat[j] = new
    pivot_of = dict((c, i) for i, c in pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_of:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, c in pivots:
            # row i is clean outside its pivot and the free columns
            v[c] = Fraction(-mat[i][f], mat[i][c])
        basis.append(canonical_vector(v))
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
