"""Coefficient kernels: the hot loops under `poly` and `linalg`.

Dense univariate polynomial arithmetic on plain lists, lowest degree first.
Coefficients are arbitrary ring elements (int, Fraction, or Poly objects for
nested bivariate work); `gcd_int` and friends are specialised to int lists,
which is where almost all gcd time goes after denominators are cleared.

`BACKEND_NAME` names this implementation in benchmark output.
"""

from fractions import Fraction
from math import gcd as _igcd

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


def _prem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b, over int lists."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    steps = 0
    while len(r) - 1 >= db and r:
        lead = r[-1]
        s = len(r) - 1 - db
        for i in range(len(r)):
            r[i] = r[i] * lb
        for i in range(db + 1):
            r[s + i] = r[s + i] - lead * b[i]
        del r[-1]
        r = strip(r)
        steps += 1
    want = da - db + 1
    if steps < want:
        f = lb ** (want - steps)
        r = [c * f for c in r]
    return r


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


def gcd_int(a, b):
    """Primitive gcd of int polynomials via the subresultant PRS.

    Returns the integer-primitive gcd with positive leading coefficient
    ([] only when both inputs are zero).
    """
    a = primitive_int(a)
    b = primitive_int(b)
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    g = 1
    h = 1
    while True:
        delta = len(a) - len(b)
        r = _prem(a, b)
        if not r:
            break
        if len(r) == 1:
            return [1]
        div = g * h**delta
        a, b = b, [c // div for c in r]
        g = a[-1]
        if delta == 0:
            pass  # h unchanged
        elif delta == 1:
            h = g if g >= 0 else -g
        else:
            h = (g**delta) // (h ** (delta - 1))
            if h < 0:
                h = -h
    return primitive_int(b)
