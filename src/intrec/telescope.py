"""Creative telescoping for integrands R(x,t)·K(x) with rational data.

Looks for an operator P = sum a_i(t) (d/dt)^i and a rational multiplier
y(x,t) such that P applied to the integrand equals d/dx of y·(integrand).
Everything stays rational: with F = R·K, each (d/dt)^i F / F is rational
because K is x-only, and (d/dx of y F)/F = y' + y·Lx where Lx is the
rational x-log-derivative of F.  Clearing denominators turns the search
into a nullspace problem over Q[t].  `linalg.nullspace` solves it modulo
primes by t-adic lifting and Padé reconstruction, and returns a basis only
after checking it exactly against every row; when the system has full
column rank at its first evaluation point, the order is rejected after one
elimination mod p.  Each order tries one ansatz for the certificate (see
telescope), so a too-small ansatz can cause a miss.  Callers check a
returned operator against the defining identity with verify_certificate.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import BoundaryNotEvaluable, NoTelescoperFound
from .linalg import canonical_scale, nullspace
from . import poly as P
from .poly import Poly
from .ratfunc import RatFunc


@dataclass(frozen=True)
class Kernel:
    """K(x) = prefactor(x) · exp(∫ρ) with rational prefactor and ρ = K'/K."""

    prefactor: RatFunc
    logderiv: RatFunc

    def is_rational(self):
        return self.logderiv.is_zero()


def trivial_kernel():
    one = RatFunc(Poly.const("x", 1))
    zero = RatFunc(Poly.const("x", 0))
    return Kernel(one, zero)


def chebyshev_weight():
    """K = 1/sqrt(1-x^2): prefactor 1, log-derivative x/(1-x^2)."""
    x = Poly.variable("x")
    one = RatFunc(Poly.const("x", 1))
    return Kernel(one, RatFunc(x, 1 - x * x))


@dataclass(frozen=True)
class Telescoper:
    opcoeffs: tuple  # a_0..a_order, Poly in t, a_order nonzero
    certificate: RatFunc  # multiplier y with C = y·F

    @property
    def order(self):
        return len(self.opcoeffs) - 1


def _bivar(p):
    """Embed a polynomial in x (or a number) as a t-constant bivariate poly."""
    return Poly("t", [p])


def _rf_bivar(r):
    return RatFunc(_bivar(r.num), _bivar(r.den))


def _bivar_part(p):
    """Ensure outer variable t; t-free rational parts normalize to plain Q[x]."""
    return p if p.var == "t" else _bivar(p)


def _xshift(p, k):
    """Multiply a bivariate polynomial by x^k."""
    if k == 0:
        return p

    def shift(c):
        cs = c.coeffs if isinstance(c, Poly) else [c]
        return Poly("x", [0] * k + list(cs))

    return p.map_coeffs(lambda c: shift(c) if c else 0)


def _w_sequence(num, den, upto):
    """Polynomials W_i with (d/dt)^i (N/D) = W_i / D^(i+1)."""
    ws = [num]
    dd = den.deriv()
    for i in range(upto):
        w = ws[-1]
        ws.append(w.deriv() * den - (i + 1) * dd * w)
    return ws


def _log_deriv_x(gf, kernel):
    """(d/dx F)/F for F = R·K, as a bivariate rational function."""
    num, den = gf.value.num, gf.value.den
    r_part = RatFunc(
        P.deriv_inner(num) * den - num * P.deriv_inner(den), num * den
    )
    k_part = kernel.logderiv + _pre_logderiv(kernel)
    return r_part + _rf_bivar(k_part)


def _pre_logderiv(kernel):
    pre = kernel.prefactor
    return RatFunc(
        pre.num.deriv() * pre.den - pre.num * pre.den.deriv(), pre.num * pre.den
    )


def _solve_order(num, den, ws, lx, ell):
    """Try the ansatz at telescoper order ell; (operator, certificate) or None."""
    den_l = _bivar_part(lx.den)
    den_y = den_l * num * den**ell
    h = lx - RatFunc(P.deriv_inner(den_y), den_y)
    den_h, num_h = _bivar_part(h.den), _bivar_part(h.num)

    rhs = [ws[i] * den_l * den ** (ell - i) * den_h for i in range(ell + 1)]
    m = max(P.x_degree(q) for q in rhs) + 2
    mults = []
    for j in range(m + 1):
        mj = _xshift(num_h, j)
        if j:
            mj = mj + j * _xshift(den_h, j - 1)
        mults.append(mj)
    cols = [P.x_coefficients(q) for q in mults] + [P.x_coefficients(-q) for q in rhs]
    zero_t = Poly("t", [])
    depth = max((len(c) for c in cols), default=0)
    rows = [[c[k] if k < len(c) else zero_t for c in cols] for k in range(depth)]
    for vec in nullspace(rows, len(cols)):
        avec = vec[m + 1 :]
        if all(not a for a in avec):
            continue
        while not avec[-1]:
            avec = avec[:-1]
        return list(avec), RatFunc(P.from_x_coefficients(vec[: m + 1], "t"), den_y)
    return None


def telescope(gf, kernel, max_order):
    """Smallest-order telescoper for the integrand, searching orders 0..max_order.

    Each order ell tries one ansatz, with one nullspace solve: the
    certificate is Y/(den_l·N·D^ell), where N/D is the generating function,
    den_l the denominator of the integrand's x-log-derivative, and Y a
    polynomial whose x-degree is at most two above that of the cleared
    right-hand sides.  Raises NoTelescoperFound if that ansatz has only
    trivial solutions at every order up to max_order.
    """
    num, den = gf.value.num, gf.value.den
    if num.is_zero():
        return Telescoper((Poly("t", [1]),), RatFunc(Poly("t", []), Poly("t", [1])))
    lx = _log_deriv_x(gf, kernel)
    ws = _w_sequence(num, den, max_order)
    for ell in range(max_order + 1):
        got = _solve_order(num, den, ws, lx, ell)
        if got is None:
            continue
        avec, y = _reduce_content(*got)
        return Telescoper(tuple(avec), y)
    raise NoTelescoperFound(max_order)


def _reduce_content(avec, y):
    """Divide the operator by the gcd of its coefficients, rescaling y to match."""
    g = None
    for a in avec:
        if not a:
            continue
        g = a if g is None else P.gcd(g, a)
        if g.is_constant():
            break
    if g is not None and not g.is_constant():
        avec = [P.exact_div(a, g) if a else a for a in avec]
        y = RatFunc(y.num, y.den * g)
    f = canonical_scale(avec)
    if f != 1:
        y = y * f
    return [P.scale_poly(a, f) for a in avec], y


def verify_certificate(gf, kernel, tel):
    """Exact check of sum a_i (d/dt)^i F / F = (d/dx (y F)) / F.

    Both sides are cross-multiplied into a single polynomial identity, so
    the check never normalizes an intermediate rational function.
    """
    num, den = gf.value.num, gf.value.den
    if num.is_zero():
        return True
    order = tel.order
    ws = _w_sequence(num, den, order)
    lhs_num = Poly("t", [])
    for i, a in enumerate(tel.opcoeffs):
        lhs_num = lhs_num + a * ws[i] * den ** (order - i)
    lhs_den = num * den**order
    lx = _log_deriv_x(gf, kernel)
    ln, ld = _bivar_part(lx.num), _bivar_part(lx.den)
    ynum = _bivar_part(tel.certificate.num)
    yden = _bivar_part(tel.certificate.den)
    wron = P.deriv_inner(ynum) * yden - ynum * P.deriv_inner(yden)
    rhs_num = wron * ld + ynum * yden * ln
    rhs_den = yden * yden * ld
    return lhs_num * rhs_den == rhs_num * lhs_den


def _subs_zero(p, e):
    s = P.subs_inner(p, e)
    return s.is_zero()


def _div_linear(p, e):
    """Divide a bivariate polynomial by (x - e), assuming it vanishes at x = e."""

    def div(c):
        if not isinstance(c, Poly):
            if c:
                raise ArithmeticError("nonzero constant not divisible by x - e")
            return 0
        q, r = P.divmod_poly(c, Poly("x", [-e, 1]))
        if not r.is_zero():
            raise ArithmeticError("inexact linear division")
        return q

    return p.map_coeffs(div)


def _vanish_order(p, e):
    """Multiplicity of (x - e) in a bivariate polynomial (0 if p(e,·) ≠ 0).

    For nonzero p it cannot exceed the x-degree, so the loop needs no cap.
    """
    k = 0
    while not p.is_zero() and _subs_zero(p, e):
        p = _div_linear(p, e)
        k += 1
    return k


def _endpoint_contribution(w, kernel, e):
    """Limit of y·R·prefactor·exp(∫ρ) at x = e, as a rational function of t."""
    if w.num.is_zero():
        return RatFunc(Poly("t", []), Poly("t", [1]))
    wn, wd = _bivar_part(w.num), _bivar_part(w.den)
    rho = kernel.logderiv
    if rho.is_zero():
        num, den = wn, wd
        while _subs_zero(num, e) and _subs_zero(den, e):
            num, den = _div_linear(num, e), _div_linear(den, e)
        dsub = P.subs_inner(den, e)
        if dsub.is_zero():
            raise BoundaryNotEvaluable("certificate has a pole at x = %s" % (e,))
        return RatFunc(P.subs_inner(num, e), dsub)
    # hyperexponential part present: only a vanishing limit is decidable
    gamma = Fraction(0)
    dr = rho.den
    if dr.eval(e) == 0:
        drp = dr.deriv()
        if drp.eval(e) == 0:
            raise BoundaryNotEvaluable(
                "kernel log-derivative has a higher-order pole at x = %s" % (e,)
            )
        gamma = Fraction(rho.num.eval(e)) / Fraction(drp.eval(e))
    ordw = _vanish_order(wn, e) - _vanish_order(wd, e)
    if ordw + gamma > 0:
        return RatFunc(Poly("t", []), Poly("t", [1]))
    raise BoundaryNotEvaluable(
        "nonzero limit against a non-rational kernel at x = %s" % (e,)
    )


def boundary_rhs(gf, kernel, tel, alpha, beta):
    """C(beta,t) − C(alpha,t) where C = y·F; the recurrence's inhomogeneous side."""
    w = tel.certificate * gf.value * _rf_bivar(kernel.prefactor)
    hi = _endpoint_contribution(w, kernel, beta)
    lo = _endpoint_contribution(w, kernel, alpha)
    return hi - lo
