"""Coefficient kernels: the hot loops under `poly`, `linalg` and `telescope`.

Dense univariate polynomial arithmetic on plain lists, lowest degree first.
Coefficients are arbitrary ring elements (int, Fraction, or Poly objects for
nested bivariate work); `gcd_int` and friends are specialised to int lists,
which is where almost all gcd time goes after denominators are cleared.

Integer rows are the denominator-cleared form of a polynomial in Z[x][t]: a
t-list of Z[x] int lists, both lowest degree first, the outer list without
trailing empty rows.  `rmul` multiplies two of them by Kronecker
substitution: each factor is packed into one integer, with a slot of B bits
per coefficient and as many slots per power of t as the product has powers
of x, and the product of the two integers is read back by balanced digits.
B is one more than the bit length of the coefficient bound |a|·|b|·
min(t-lengths)·min(x-lengths), rounded up to whole bytes, where |.| is the
largest absolute coefficient; every product coefficient then lies strictly
inside (−2^(B−1), 2^(B−1)), so its digit spells it exactly.
`radd`, `rsub`, `rscale`, `rdx`, `rdt` and `transpose` are the rest of the
row arithmetic; on transposed rows (x-columns), x^k times a polynomial is a
prefix of k empty columns.

Division is exact and over Z only: `exactdiv_int` on Z[x] int lists, which
`poly.exact_div` runs on primitive parts, and its row form inside the gcd.

`gcd_int` is the one polynomial gcd: a heuristic gcd (GCDHEU) over Z[x] and,
on integer rows, over Z[x][t].  A candidate counts only after exact division
shows it divides both inputs; see its docstring for why that makes it the
gcd and why its loop ends.  The two quotients of that division are returned
with it as cofactors, so callers reducing a fraction need no second
division.

`BACKEND_NAME` names this implementation in benchmark output.
"""

from math import gcd as _igcd, isqrt

BACKEND_NAME = "pure"


def strip(cs):
    """Drop trailing zero coefficients (canonical dense form)."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    return cs[:n] if n != len(cs) else cs


def padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i in range(len(b)):
        out[i] = out[i] + b[i]
    return strip(out)


def psub(a, b):
    la, lb = len(a), len(b)
    n = la if la > lb else lb
    out = []
    for i in range(n):
        if i < la and i < lb:
            out.append(a[i] - b[i])
        elif i < la:
            out.append(a[i])
        else:
            out.append(-b[i])
    return strip(out)


def pneg(a):
    return [-c for c in a]


def pscale(a, c):
    if not c:
        return []
    return strip([ci * c for ci in a])


def pmul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = out[i + j] + ai * bj
    return strip(out)


# -- integer rows: Z[x][t] as a t-list of Z[x] int lists ----------------------


def _rstrip(rows):
    n = len(rows)
    while n and not rows[n - 1]:
        n -= 1
    return rows[:n] if n != len(rows) else rows


def radd(a, b):
    if len(a) < len(b):
        a, b = b, a
    return _rstrip([padd(r, b[i]) if i < len(b) else r for i, r in enumerate(a)])


def rsub(a, b):
    n = max(len(a), len(b))
    return _rstrip([psub(a[i] if i < len(a) else [], b[i] if i < len(b) else [])
                    for i in range(n)])


def rscale(a, c):
    if not c:
        return []
    return [[v * c for v in r] for r in a]


def rdx(a):
    """d/dx of integer rows."""
    return _rstrip([[k * r[k] for k in range(1, len(r))] for r in a])


def rdt(a):
    """d/dt of integer rows."""
    return [[i * v for v in a[i]] for i in range(1, len(a))]


def transpose(a):
    """Swap the two variables: the x-columns of integer rows, as integer rows."""
    depth = max(map(len, a), default=0)
    return _rstrip([strip([r[k] if k < len(r) else 0 for r in a]) for k in range(depth)])


def _pack(rows, slots, w):
    """The integer sum of rows[i][j]·2^(8w·(i·slots + j)), via offset bytes."""
    half = 1 << (8 * w - 1)
    pad = half.to_bytes(w, "little")
    parts = []
    for r in rows:
        parts.extend((c + half).to_bytes(w, "little") for c in r)
        parts.append(pad * (slots - len(r)))
    return (int.from_bytes(b"".join(parts), "little")
            - int.from_bytes(pad * (len(rows) * slots), "little"))


def _unpack(v, nrows, slots, w):
    """Inverse of _pack: balanced base-2^(8w) digits, every one in (−2^(8w−1), 2^(8w−1))."""
    half = 1 << (8 * w - 1)
    pad = half.to_bytes(w, "little")
    size = nrows * slots * w
    buf = (v + int.from_bytes(pad * (nrows * slots), "little")).to_bytes(size, "little")
    step = slots * w
    return _rstrip([strip([int.from_bytes(buf[k:k + w], "little") - half
                           for k in range(i, i + step, w)])
                    for i in range(0, size, step)])


def _layout(a, b):
    """(x-length, coefficient bound) of the product of two nonzero integer rows."""
    xa, xb = max(map(len, a)), max(map(len, b))
    norm = max(abs(v) for r in a for v in r) * max(abs(v) for r in b for v in r)
    return xa + xb - 1, norm * min(len(a), len(b)) * min(xa, xb)


def _width(bound):
    """Bytes per slot for coefficients of absolute value at most bound."""
    return (bound.bit_length() + 8) // 8


def rmul(a, b):
    """Product of two integer rows, by Kronecker substitution (module docstring)."""
    if not a or not b:
        return []
    slots, bound = _layout(a, b)
    w = _width(bound)
    return _unpack(_pack(a, slots, w) * _pack(b, slots, w), len(a) + len(b) - 1, slots, w)


def rproducts_equal(a, b, c, d):
    """Whether a·b == c·d for integer rows: one packed product on each side.

    Both sides are packed with the same slot width and slots per power of t,
    set by the larger product, so equal integers mean equal polynomials.
    """
    if not (a and b) or not (c and d):
        return not (a and b) and not (c and d)
    (s1, b1), (s2, b2) = _layout(a, b), _layout(c, d)
    slots, w = max(s1, s2), _width(max(b1, b2))
    return _pack(a, slots, w) * _pack(b, slots, w) == _pack(c, slots, w) * _pack(d, slots, w)


def peval(cs, v):
    """Horner evaluation; returns the coefficient ring's zero (int 0) if empty."""
    acc = 0
    for c in reversed(cs):
        acc = acc * v + c
    return acc


def peval_at(cs, p, q):
    """q^(len(cs) − 1)·c(p/q) for an int list c, of c(p/q)'s sign for q > 0:
    the one exact evaluation at a rational point, by Horner in integers."""
    acc, w = 0, 1
    for c in reversed(cs):
        acc, w = acc * p + c * w, w * q
    return acc


def exactdiv_int(a, b):
    """Exact division of int polynomials; raises if not divisible."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = strip(a)
    if not a:
        return []
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * (len(a) - db)
    while len(r) > db:
        r = strip(r)
        if len(r) <= db:
            break
        lead, rem = divmod(r[-1], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        s = len(r) - 1 - db
        q[s] = lead
        for i in range(db + 1):
            r[s + i] = r[s + i] - lead * b[i]
        del r[-1]
    if strip(r):
        raise ArithmeticError("inexact polynomial division")
    return strip(q)


def _exactdiv_rows(a, b):
    """Exact division of t-lists of Z[x] rows; raises if not divisible."""
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    q = [[]] * (len(a) - db) if len(a) > db else []
    while len(r) > db:
        if r[-1]:
            lead = exactdiv_int(r[-1], lb)
            s = len(r) - 1 - db
            q[s] = lead
            for i in range(db + 1):
                r[s + i] = psub(r[s + i], pmul(lead, b[i]))
        del r[-1]
    if any(r):
        raise ArithmeticError("inexact polynomial division")
    return q


# -- the heuristic gcd: helpers for the two shapes it takes ------------------
# Each takes `nested`: False for a Z[x] int list, True for a t-list of Z[x]
# rows (the outer variable is x in the first case and t in the second).


def primitive(a, nested):
    """(c, a/c), c the integer content of a signed to make a/c lead positive."""
    if not nested:
        a = strip(a)
        g = _igcd(*a)
        if a and a[-1] < 0:
            g = -g
        return g, (a if g in (0, 1) else [v // g for v in a])
    g = 0
    for r in a:
        g = _igcd(g, *r)
    if a and a[-1][-1] < 0:
        g = -g
    return g, (a if g in (0, 1) else [[v // g for v in r] for r in a])


def _norm(a, nested):
    rows = a if nested else (a,)
    return max(abs(v) for r in rows for v in r)


def _eval(a, xi, nested):
    """a at outer variable = xi: an int, or a Z[x] list for rows."""
    if not nested:
        return peval(a, xi)
    acc = []
    for r in reversed(a):
        acc = padd(pscale(acc, xi), r)
    return acc


def _digits(c, xi):
    """Balanced xi-adic digits of the int c, each in (-xi/2, xi/2], lowest first."""
    half = xi // 2
    out = []
    while c:
        d = c % xi
        if d > half:
            d -= xi
        out.append(d)
        c = (c - d) // xi
    return out


def _interpolate(g, xi, nested):
    """The polynomial in the outer variable whose value at xi is g, by digits."""
    if not nested:
        return _digits(g, xi)
    cols = [_digits(c, xi) for c in g]
    depth = max(map(len, cols), default=0)
    return [strip([col[j] if j < len(col) else 0 for col in cols]) for j in range(depth)]


def _quotient(a, h, nested):
    """a / h if h divides a exactly, else None."""
    try:
        return (_exactdiv_rows if nested else exactdiv_int)(a, h)
    except ArithmeticError:
        return None


def gcd_int(a, b):
    """(g, a/g, b/g): g the primitive gcd of two Z[x] int lists, or of two
    t-lists of Z[x] rows, with its two cofactors.

    Heuristic gcd (GCDHEU; Char, Geddes and Gonnet, J. Symbolic Comput.
    1989) with exact division as the gate.  After the integer contents are
    stripped, each pass evaluates the outer variable at an integer xi,
    takes the gcd of the two images (`math.gcd` for Z[x]; for rows, this
    routine one level down on the Z[x] images, times the gcd of their
    integer contents), rebuilds a candidate from the balanced xi-adic digits
    of that gcd and takes its primitive part.  The candidate is accepted
    only if it divides both inputs exactly; otherwise xi grows by
    xi^(1/4)·73794/27011 and the pass repeats.

    Why an accepted candidate h is the gcd: xi starts at 2·min(|a|, |b|) +
    29, where |.| is the largest absolute coefficient, and only grows.  Write
    the gcd as h·d.  The image gcd is k·h(xi), with k the integer content of
    the rebuilt polynomial, so |k| <= xi/2; as (h·d)(xi) divides it, d(xi)
    divides k.  d divides both inputs, so by Cauchy's bound every root of d,
    and for rows every root of its leading x-coefficient, lies below
    1 + min(|a|, |b|) < xi/2 in absolute value.  For rows, that makes d(x, xi)
    an integer only if d has x-degree 0.  A d of positive degree in the outer
    variable would then have |d(xi)| > xi/2 >= |k|.  So d = ±1.

    Why the loop ends: write a = g·u and b = g·v with u, v coprime.  The
    image gcd is g(xi)·h_xi, where h_xi divides the resultant of u and v
    (in t over Z[x] for rows).  A factor of positive x-degree of that
    resultant divides the images of both u and v at only finitely many xi,
    so past a bound set by the inputs h_xi is an integer of bounded size.
    Once xi is also above twice the largest coefficient of h_xi·g, the
    digits spell h_xi·g exactly, its primitive part is g, and the gate
    passes.  xi grows like xi^(5/4), so it passes that bound after a few
    passes; no retry cap or fallback is needed.

    The cofactors are the quotients of that exact division, times the
    contents stripped at the start.  g has a positive leading integer
    coefficient; it is [] only when both inputs are zero, and then so are
    the cofactors.
    """
    nested = bool(a or b) and type((a or b)[0]) is list
    (ca, a), (cb, b) = primitive(a, nested), primitive(b, nested)
    if not a or not b:
        h = a or b
        one = [[1]] if nested else [1]
        qa, qb = (one if a else [], one if b else [])
    else:
        xi = 2 * min(_norm(a, nested), _norm(b, nested)) + 29
        while True:
            ia, ib = _eval(a, xi, nested), _eval(b, xi, nested)
            if nested:
                g = pscale(gcd_int(ia, ib)[0], _igcd(*ia, *ib))
            else:
                g = _igcd(ia, ib)
            h = primitive(_interpolate(g, xi, nested), nested)[1]
            if h:
                qa = _quotient(a, h, nested)
                qb = None if qa is None else _quotient(b, h, nested)
                if qb is not None:
                    break
            xi = xi * isqrt(isqrt(xi)) * 73794 // 27011
    if nested:
        return h, rscale(qa, ca), rscale(qb, cb)
    return h, pscale(qa, ca), pscale(qb, cb)
