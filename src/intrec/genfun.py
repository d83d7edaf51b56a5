"""Rational generating functions of C-finite polynomial sequences.

For a sequence with recurrence P_n = sum p_i P_{n-i} the series
R(x,t) = sum P_n(x) t^n collapses to N/D with D = 1 - sum p_i t^i and a
numerator read off the initial terms.  Expansion back out runs the
denominator-driven recursion, so the round trip is exact and cheap.  The
generating function is the normalized `RatFunc` itself; `taylor_coeffs`
raises NotExpandable when its denominator vanishes at t = 0.
"""

from .errors import NotExpandable
from . import poly as P
from .poly import Poly
from .ratfunc import RatFunc


def generating_function(seq):
    """R(x,t) = sum_n P_n(x) t^n as a normalized RatFunc."""
    L = seq.order
    den = Poly("t", [1] + [-p for p in seq.coeffs])
    num_coeffs = []
    for n in range(L):
        c = seq.init[n]
        for i in range(1, n + 1):
            c = c - seq.coeffs[i - 1] * seq.init[n - i]
        num_coeffs.append(c)
    num = Poly("t", num_coeffs)
    return RatFunc(num, den)


def _to_xpoly(v):
    return v if isinstance(v, Poly) else Poly.const("x", v)


def taylor_coeffs(gf, count):
    """First `count` series coefficients at t = 0 of the RatFunc gf, as
    polynomials in x."""
    num, den = gf.num, gf.den
    # a Poly coefficient is never zero: canonical form demotes constants
    d0 = den.coeff(0)
    if not d0:
        raise NotExpandable("denominator vanishes at t = 0")
    out = []
    for n in range(count):
        acc = _to_xpoly(num.coeff(n))
        for k in range(1, min(n, den.degree()) + 1):
            acc = acc - _to_xpoly(den.coeff(k)) * out[n - k]
        if isinstance(d0, Poly):
            try:
                acc = P.exact_div(acc, d0)
            except ArithmeticError:
                raise NotExpandable("series coefficients are not polynomial in x")
        else:
            acc = acc * P.num_div(1, d0)
        out.append(acc)
    return out
