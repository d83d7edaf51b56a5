"""Coefficient kernels: the hot loops under `poly` and `linalg`.

Dense univariate polynomial arithmetic on plain lists, lowest degree first.
Coefficients are arbitrary ring elements (int, Fraction, or Poly objects for
nested bivariate work); `gcd_int` and friends are specialised to int lists,
which is where almost all gcd time goes after denominators are cleared.

`gcd_int` is the one polynomial gcd: a heuristic gcd (GCDHEU) over Z[x] and,
on t-lists of Z[x] rows, over Z[x][t].  A candidate counts only after exact
division shows it divides both inputs; see its docstring for why that makes
it the gcd and why its loop ends.

`BACKEND_NAME` names this implementation in benchmark output.
"""

from fractions import Fraction
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


def peval(cs, v):
    """Horner evaluation; returns the coefficient ring's zero (int 0) if empty."""
    acc = 0
    for c in reversed(cs):
        acc = acc * v + c
    return acc


def pdivmod_q(a, b):
    """Quotient and remainder over the rationals (coefficients int/Fraction)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    q = [0] * (len(a) - db) if len(a) > db else []
    while len(r) > db:
        r = strip(r)
        if len(r) <= db:
            break
        lead = Fraction(r[-1], 1) / Fraction(lb, 1)
        s = len(r) - 1 - db
        q[s] = lead
        for i in range(db + 1):
            r[s + i] = r[s + i] - lead * b[i]
        del r[-1]
    return strip(q), strip(r)


def content_int(a):
    g = 0
    for c in a:
        if c:
            g = _igcd(g, c if c >= 0 else -c)
            if g == 1:
                return 1
    return g


def primitive_int(a):
    """Integer-primitive form with positive leading coefficient."""
    a = strip(a)
    if not a:
        return []
    g = content_int(a)
    if a[-1] < 0:
        g = -g
    if g == 1:
        return a
    return [c // g for c in a]


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


def _primitive(a, nested):
    """a divided by its integer content, with a positive leading coefficient."""
    if not nested:
        return primitive_int(a)
    g = 0
    for r in a:
        g = _igcd(g, content_int(r))
    if a and a[-1][-1] < 0:
        g = -g
    return a if g in (0, 1) else [[v // g for v in r] for r in a]


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


def _divides(h, a, nested):
    try:
        (_exactdiv_rows if nested else exactdiv_int)(a, h)
    except ArithmeticError:
        return False
    return True


def gcd_int(a, b):
    """Primitive gcd of two Z[x] int lists, or of two t-lists of Z[x] rows.

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

    Returns the gcd with a positive leading integer coefficient ([] only
    when both inputs are zero).
    """
    nested = bool(a or b) and type((a or b)[0]) is list
    a, b = _primitive(a, nested), _primitive(b, nested)
    if not a or not b:
        h = a or b
    else:
        xi = 2 * min(_norm(a, nested), _norm(b, nested)) + 29
        while True:
            ia, ib = _eval(a, xi, nested), _eval(b, xi, nested)
            if nested:
                g = pscale(gcd_int(ia, ib), _igcd(content_int(ia), content_int(ib)))
            else:
                g = _igcd(ia, ib)
            h = _primitive(_interpolate(g, xi, nested), nested)
            if h and _divides(h, a, nested) and _divides(h, b, nested):
                break
            xi = xi * isqrt(isqrt(xi)) * 73794 // 27011
    return h
