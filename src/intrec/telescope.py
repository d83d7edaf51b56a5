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

With a rational kernel (zero log-derivative) F is rational, and y0 = 1/F
solves the system with a zero operator: without more, every order would
have nullity at least 1, a miss would always be lifted t-adically, and a
hit would lift that useless vector too.  Whether its certificate part
Y0 = den_y/F is a polynomial in x is decided once per call; where it is,
and fits the ansatz, one unit row pins its leading column to 0.  The
pinned system has full column rank at a miss, which then ends after one
elimination mod p, and it returns the same telescoper at a hit (telescope
says why).

The arithmetic runs on integer rows (`_kernels`: a polynomial in Z[x][t] as
a t-list of Z[x] int lists, products by Kronecker substitution).  Each call
converts its data once: N and D of the generating function R = N/D, cleared
to integers; the kernel's x-log-derivative and prefactor.  The search
builds on rows the W-sequence, each order's h = Lx − (d/dx den_y)/den_y in
lowest terms (one `gcd_int`, whose cofactors are h's numerator and
denominator) and the system's columns; the system differs from the one over
R's own coefficients only by one factor common to every row.
verify_certificate compares the two sides of the cross-multiplied identity
as two packed-integer products, and boundary_rhs takes each endpoint limit
from the multiplicities and values of the integrand's factors there.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import gcd as _igcd

from .errors import BoundaryNotEvaluable, NoTelescoperFound
from .linalg import canonical_scale, nullspace
from . import _kernels as K
from . import poly as P
from .poly import Poly
from .ratfunc import RatFunc


@dataclass(frozen=True)
class Kernel:
    """K(x) = prefactor(x) · exp(∫ρ) with rational prefactor and ρ = K'/K."""

    prefactor: RatFunc
    logderiv: RatFunc


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


def _pre_logderiv(kernel):
    pre = kernel.prefactor
    return RatFunc(
        pre.num.deriv() * pre.den - pre.num * pre.den.deriv(), pre.num * pre.den
    )


def _x_rows(r):
    """A rational function of x alone as integer rows (num, den) of equal value."""
    (n, ln), (d, ld) = P.int_rows(r.num), P.int_rows(r.den)
    return K.rscale(n, ld), K.rscale(d, ln)


def _integrand(gf, kernel):
    """Integer rows of F = (N/D)·K: (N', cN, D', cD, ln, ld).

    N' = cN·N and D' = cD·D clear the denominators of the generating
    function, and ln/ld is its x-log-derivative (dN/dx)/N − (dD/dx)/D + K'/K,
    not reduced.
    """
    (nr, cn), (dr, cd) = P.int_rows(gf.num), P.int_rows(gf.den)
    kn, kd = _x_rows(kernel.logderiv + _pre_logderiv(kernel))
    nd = K.rmul(nr, dr)
    wron = K.rsub(K.rmul(K.rdx(nr), dr), K.rmul(nr, K.rdx(dr)))
    return nr, cn, dr, cd, K.radd(K.rmul(wron, kd), K.rmul(nd, kn)), K.rmul(nd, kd)


def _extend_w(ws, dr, upto):
    """Extend ws = [N', …] to W_0..W_upto, (d/dt)^i (N'/D') = W_i / D'^(i+1)."""
    ddr = K.rdt(dr)
    while len(ws) <= upto:
        i = len(ws) - 1
        ws.append(K.rsub(K.rmul(K.rdt(ws[i]), dr), K.rscale(K.rmul(ddr, ws[i]), i + 1)))
    return ws


def _solve_order(ell, nd, dr, ws, ln, ld, scale, pin):
    """Try the ansatz at telescoper order ell; (operator, certificate) or None.

    nd = N'·D'^ell, and ln/ld is the reduced x-log-derivative.  The
    certificate is Y/den_y with den_y = ld·nd, which is `scale` times the
    den_y built from N, D and ld made primitive.  The certificate columns
    are multiplied by `scale`, so the system is the one over N, D and that
    primitive ld times one factor common to every row, and has the same
    nullspace basis.

    pin is deg_x Y0 for Y0 = den_y/F, the certificate part of the trivial
    solution y0 = 1/F, or None when F is not rational or Y0 is not a
    polynomial in x (see telescope).  When Y0 fits the ansatz (pin <= m),
    one unit row pins column pin of Y to 0.  That removes exactly the
    certificate-only solutions c(t)·Y0 and keeps every operator: a miss
    then has full column rank and ends after one elimination mod p, and a
    hit lifts one free column fewer.  The basis vector the unpinned system
    would return is already 0 there (telescope), so the result is the same.
    """
    den_y = K.rmul(ld, nd)
    # h = Lx − (d/dx den_y)/den_y in lowest terms: its cofactors by one gcd
    _, hn, hd = K.gcd_int(K.rsub(K.rmul(ln, nd), K.rdx(den_y)), den_y)
    # right-hand side i: W_i·D'^(ell−i)·ld·hd
    rhs, lh = [None] * (ell + 1), K.rmul(ld, hd)
    for i in range(ell, -1, -1):
        rhs[i] = K.rmul(ws[i], lh)
        if i:
            lh = K.rmul(lh, dr)
    m = max(len(r) for q in rhs for r in q) + 1
    # column j: coefficients in x of x^j·hn + j·x^(j−1)·hd, as t-lists
    hnx, hdx = K.rscale(K.transpose(hn), scale), K.rscale(K.transpose(hd), scale)
    cols = [hnx] + [K.radd([[]] * j + hnx, K.rscale([[]] * (j - 1) + hdx, j))
                    for j in range(1, m + 1)]
    cols += [K.rscale(K.transpose(q), -1) for q in rhs]
    rows, zero = [], Poly("t", [])
    for k in range(max(map(len, cols))):
        row = [c[k] if k < len(c) else [] for c in cols]
        g = _igcd(*(v for e in row for v in e))
        rows.append([Poly("t", [v // g for v in e] if g > 1 else e) if e else zero
                     for e in row])
    if pin is not None and pin <= m:
        rows.append([Poly("t", [1]) if j == pin else zero for j in range(len(cols))])
    for vec in nullspace(rows, len(cols)):
        avec = vec[m + 1 :]
        if all(not a for a in avec):
            continue
        while not avec[-1]:
            avec = avec[:-1]
        y = K.transpose([e.coeffs for e in vec[: m + 1]])
        return list(avec), RatFunc(P.from_rows(y), P.from_rows(den_y, scale))
    return None


def _trivial_degree(ld, dr, prefactor):
    """deg_x Y0 at order 0, or None when Y0 is not a polynomial in x.

    Y0 = ld·D'·pd/pn up to a constant, with pn/pd the prefactor's integer
    rows.  It is a polynomial in x exactly when the primitive pn divides
    every t-coefficient of ld·D'·pd in Z[x] (Gauss's lemma).
    `RatFunc.is_polynomial` would not do: it tests the outer variable t and
    misses a denominator in x.
    """
    pn, pd = _x_rows(prefactor)
    pn = K.primitive(pn[0], False)[1]
    try:
        y0 = [K.exactdiv_int(r, pn) for r in K.rmul(K.rmul(ld, dr), pd)]
    except ArithmeticError:
        return None
    return max(map(len, y0)) - 1


def telescope(gf, kernel, max_order):
    """Smallest-order telescoper for the integrand, searching orders 0..max_order.

    Each order ell tries one ansatz, with one nullspace solve: the
    certificate is Y/(den_l·N·D^ell), where N/D is the generating function,
    den_l the denominator of the integrand's x-log-derivative, and Y a
    polynomial whose x-degree is at most two above that of the cleared
    right-hand sides.  Raises NoTelescoperFound if that ansatz has only
    trivial solutions at every order up to max_order.

    With a zero log-derivative F is rational, and y0 = 1/F solves the
    system with a zero operator; every certificate-only solution is c(t)·y0.
    Its Y part, Y0 = den_y/F = den_l·D^(ell+1)/prefactor up to a constant,
    lies in the ansatz when it is a polynomial in x of x-degree at most the
    ansatz's.  _trivial_degree decides that once, at order 0; deg_x Y0 then
    grows by deg_x D per order.  Order 0 decides every order when D has no
    factor in x alone, as for every generating function of a sequence
    (D(x, 0) is a constant).  For any other D a later order can hold y0
    unpinned, and _solve_order skips solutions with a zero operator.  Where
    Y0 fits, _solve_order pins column deg_x Y0, its leading one, to 0.  In
    the reduced row echelon basis of the unpinned system that column is
    free and y0 is its vector: a solution supported below it would have a
    zero operator, so it would be c(t)·y0, which is not 0 there.  Every
    other basis vector is 0 at a free column not its own, so the pinned
    basis is the unpinned one without y0, and the returned telescoper is
    unchanged.
    """
    if gf.num.is_zero():
        return Telescoper((Poly("t", [1]),), RatFunc(Poly("t", []), Poly("t", [1])))
    nr, cn, dr, cd, ln, ld = _integrand(gf, kernel)
    _, ln, ld = K.gcd_int(ln, ld)
    base = cn * K.primitive(ld, True)[0]
    pin = _trivial_degree(ld, dr, kernel.prefactor) if kernel.logderiv.is_zero() else None
    step = max(map(len, dr)) - 1
    ws, nd = [nr], nr
    for ell in range(max_order + 1):
        if ell:
            nd = K.rmul(nd, dr)
        got = _solve_order(ell, nd, dr, _extend_w(ws, dr, ell), ln, ld, base * cd**ell,
                           None if pin is None else pin + ell * step)
        if got is None:
            continue
        avec, y = _reduce_content(*got)
        return Telescoper(tuple(avec), y)
    raise NoTelescoperFound(max_order)


def _reduce_content(avec, y):
    """Divide the operator by the gcd of its coefficients, rescaling y to match."""
    g = P.content(avec)
    if g is not None and not g.is_constant():
        avec = [P.exact_div(a, g) if a else a for a in avec]
        y = RatFunc(y.num, y.den * g)
    f = canonical_scale(avec)
    if f != 1:
        y = y * f
    return [P.scale_poly(a, f) for a in avec], y


def verify_certificate(gf, kernel, tel):
    """Exact check of sum a_i (d/dt)^i F / F = (d/dx (y F)) / F.

    Both sides are cross-multiplied into a single polynomial identity on
    integer rows, and its two products are compared as packed integers, so
    the check never normalizes an intermediate rational function.
    """
    if gf.num.is_zero():
        return True
    nr, cn, dr, cd, ln, ld = _integrand(gf, kernel)
    ws = _extend_w([nr], dr, tel.order)
    # lhs: sum a_i W_i D'^(order−i) over N'·D'^order, the a_i cleared by ca
    acs, ca = P.cleared_rows([a.coeffs for a in tel.opcoeffs])
    lhs_num = lhs_den = []
    for a, w in zip(acs, ws):
        a_rows = [[v] if v else [] for v in a]
        lhs_num = K.radd(K.rmul(lhs_num, dr), K.rmul(a_rows, w))
        lhs_den = K.rmul(lhs_den, dr) if lhs_den else nr
    (yn, cyn), (yd, cyd) = P.int_rows(tel.certificate.num), P.int_rows(tel.certificate.den)
    wron = K.rsub(K.rmul(K.rdx(yn), yd), K.rmul(yn, K.rdx(yd)))
    rhs_num = K.radd(K.rmul(wron, ld), K.rmul(K.rmul(yn, yd), ln))
    rhs_den = K.rmul(K.rmul(yd, yd), ld)
    # y = (cyd/cyn)·yn/yd and the lhs is lhs_num/(ca·lhs_den)
    return K.rproducts_equal(K.rscale(lhs_num, cyn), rhs_den,
                             rhs_num, K.rscale(lhs_den, ca * cyd))


def _vanish_order(rows, e):
    """(k, rows/(x − e)^k at x = e): the multiplicity of (x − e) in nonzero
    integer rows and the t-coefficients of what is left, there, as rationals.

    For nonzero rows k cannot exceed the x-degree, so the loop needs no cap.
    """
    e = Fraction(e)
    p, q = e.numerator, e.denominator
    k = 0
    while True:
        at = [K.peval(r, e) for r in rows]
        if any(at):
            return k, at
        rows = [K.exactdiv_int(r, [-p, q]) for r in rows]
        k += 1


def _endpoint_contribution(nums, dens, kernel, e):
    """Limit at x = e of the product of nums over that of dens, times exp(∫ρ),
    as a rational function of t; each factor is nonzero integer rows."""
    ords, vals = [], []
    for factors in (nums, dens):
        k, val = 0, [1]
        for f in factors:
            fk, at = _vanish_order(f, e)
            k, val = k + fk, K.pmul(val, at)
        ords.append(k)
        vals.append(val)
    ordw = ords[0] - ords[1]
    rho = kernel.logderiv
    if rho.is_zero():
        if ordw < 0:
            raise BoundaryNotEvaluable("certificate has a pole at x = %s" % (e,))
        if ordw > 0:
            return RatFunc(Poly("t", []), Poly("t", [1]))
        return RatFunc(Poly("t", vals[0]), Poly("t", vals[1]))
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
    if ordw + gamma > 0:
        return RatFunc(Poly("t", []), Poly("t", [1]))
    raise BoundaryNotEvaluable(
        "nonzero limit against a non-rational kernel at x = %s" % (e,)
    )


def boundary_rhs(gf, kernel, tel, alpha, beta):
    """C(beta,t) − C(alpha,t) where C = y·F; the recurrence's inhomogeneous side.

    C/exp(∫ρ) = y·(N/D)·prefactor is kept as its six integer-row factors, so
    each limit needs only their multiplicities at the endpoint and their
    values there.
    """
    (yn, cyn), (yd, cyd) = P.int_rows(tel.certificate.num), P.int_rows(tel.certificate.den)
    (nr, cn), (dr, cd) = P.int_rows(gf.num), P.int_rows(gf.den)
    pn, pd = _x_rows(kernel.prefactor)
    nums, dens = (yn, nr, pn), (yd, dr, pd)
    if not all(nums):
        return RatFunc(Poly("t", []), Poly("t", [1]))
    hi = _endpoint_contribution(nums, dens, kernel, beta)
    lo = _endpoint_contribution(nums, dens, kernel, alpha)
    return (hi - lo) * Fraction(cyd * cd, cyn * cn)
