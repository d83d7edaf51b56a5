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
telescope), so a too-small ansatz can cause a miss.  The ansatz holds each
pole of K'/K once.  Where K'/K has a pole whose residue is an integer
above 1, a certificate can need that factor more than once, and its order
is missed: T against (x−3)^2·e^x has a telescoper of order 1, and the
search returns one of order 2.  Callers check a returned operator against
the defining identity with verify_certificate.

Where F is rational, y0 = 1/F solves every order's system with a zero
operator, and one pin row excludes it: ahead of the solve for a rational
kernel whose Y0 = den_y/F is a polynomial in x, so that a miss ends after
one elimination mod p, and after it where F is rational through its
log-derivative (telescope says why the telescoper stays the same).

The arithmetic runs on integer rows (`_kernels`: a polynomial in Z[x][t] as
a t-list of Z[x] int lists, products by Kronecker substitution).  It reads
κ = K'/K, prefactor included, off the Kernel (`kappa`, computed once per
kernel).  Each call converts N and D of the generating function R = N/D,
cleared to integers, finds the factor g of the log-derivative's
denominator that the certificate does not need (two `gcd_int` calls or a
few more), and a/b = κ − lq'/lq for the rest lq of it (one more).  The
search builds on rows the W-sequence, each order's h = a/b − (ell + 1)·
D'_x/D' in lowest terms (one `gcd_int`, whose cofactors are h's numerator
and denominator) and the system's columns; the system differs from the
one over R's own coefficients only by one factor common to every row.
verify_certificate compares the two sides of the cross-multiplied identity
as two packed-integer products, and boundary_rhs takes each endpoint limit
from the multiplicities and integer values (`_kernels.peval_at`) of the
integrand's factors there and the kernel's exponent (Kernel.exponent_at).
"""

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import zip_longest
from math import gcd as _igcd

from .errors import BoundaryNotEvaluable, NoTelescoperFound, ZeroDenominator
from .linalg import canonical_scale, nullspace
from . import _kernels as K
from . import poly as P
from .poly import Poly
from .ratfunc import RatFunc


@dataclass(frozen=True)
class Kernel:
    """K(x) = prefactor(x) · exp(∫ρ) with rational prefactor and ρ the
    log-derivative of its exponential part.  Every layer reads the facts
    below off the kernel, each computed once per kernel on first use."""

    prefactor: RatFunc
    logderiv: RatFunc

    @cached_property
    def form(self):
        """Closed-form tag of exp(∫ρ): "rational" for ρ = 0,
        "chebyshev_weight" for 1/sqrt(1 − x²), "linear_power" for |x − a|^c,
        None for any other ρ."""
        return _classify(self.logderiv)

    @cached_property
    def power(self):
        """(a, c) with exp(∫ρ) = |x − a|^c for a linear_power kernel, else None."""
        if self.form == "linear_power":
            a = -Fraction(self.logderiv.den.coeff(0)) / self.logderiv.den.coeff(1)
            return a, self.exponent_at(a)

    @cached_property
    def kappa(self):
        """κ = K'/K = ρ + prefactor'/prefactor as integer rows (num, den) in
        lowest terms."""
        (rn, rd), (pn, pd) = _x_rows(self.logderiv), _x_rows(self.prefactor)
        if not pn:
            raise ZeroDenominator("zero denominator")
        wron = K.rsub(K.rmul(K.rdx(pn), pd), K.rmul(pn, K.rdx(pd)))
        ppd = K.rmul(pn, pd)
        return K.gcd_int(K.radd(K.rmul(rn, ppd), K.rmul(rd, wron)), K.rmul(rd, ppd))[1:]

    def exponent_at(self, e):
        """The residue of ρ at x = e, the c of exp(∫ρ) ~ |x − e|^c there: 0
        where ρ is regular.  Raises BoundaryNotEvaluable at a pole of ρ of
        higher order, where exp(∫ρ) is no power of |x − e|."""
        dr = self.logderiv.den
        if dr.eval(e):
            return Fraction(0)
        drp = dr.deriv()
        if drp.eval(e) == 0:
            raise BoundaryNotEvaluable(
                "kernel log-derivative has a higher-order pole at x = %s" % (e,))
        return Fraction(self.logderiv.num.eval(e)) / Fraction(drp.eval(e))


def _classify(rho):
    """Kernel.form of the log-derivative rho."""
    if rho.is_zero():
        return "rational"
    # x/(1 − x²) as RatFunc normalises it: the denominator leads positive
    if rho.num == Poly("x", [0, -1]) and rho.den == Poly("x", [-1, 0, 1]):
        return "chebyshev_weight"
    if rho.den.degree() == 1 and rho.num.is_constant():
        return "linear_power"
    return None


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


def _x_rows(r):
    """A rational function of x alone as integer rows (num, den) of equal value."""
    (n, ln), (d, ld) = P.int_rows(r.num), P.int_rows(r.den)
    return K.rscale(n, ld), K.rscale(d, ln)


def _integrand(gf, kernel):
    """Integer rows of F = (N/D)·K: (N', cN, D', cD, ln, ld), with N' = cN·N
    and D' = cD·D cleared to integers and ln/ld, not reduced, the
    x-log-derivative (dN/dx)/N − (dD/dx)/D + κ."""
    (nr, cn), (dr, cd) = P.int_rows(gf.num), P.int_rows(gf.den)
    kn, kd = kernel.kappa
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


def _regular_part(ld, nd, kd):
    """(g, ld/g): g the part of gcd(ld, N'·D') at which κ is regular.

    g starts as that gcd, and each pass divides out its gcd with kd, the
    denominator of κ, until that gcd is 1.  A pass that divides lowers
    deg_x g, so the loop ends.
    """
    g, rest, _ = K.gcd_int(ld, nd)
    while True:
        c, q, _ = K.gcd_int(g, kd)
        if c == [[1]]:
            return g, rest
        g, rest = q, K.rmul(rest, c)


def _degree_bound(hn, hd, deg_r):
    """The largest x-degree of a polynomial Y over Q(t) with hd·Y' + hn·Y of
    x-degree at most deg_r; hn and hd are integer rows, hd nonzero.

    A constant Y gives Y·hn, so it fits when deg hn <= deg_r (hn = 0
    included).  For deg Y >= 1 let s = max(deg hn, deg hd − 1).  The
    x^(deg Y + s) coefficient of hd·Y' + hn·Y is lc(Y)·(lc(hn) + deg Y·lc(hd))
    when deg hn = deg hd − 1, and lc(Y) times the one leading coefficient
    otherwise.  So deg Y is at most deg_r − s, unless deg Y = j with
    lc(hn) + j·lc(hd) = 0.  That j has to be a nonnegative integer, so the
    ratio of the two leading coefficients has to be constant in t.  The
    bound is −1, no Y but 0, when none of these allows one.
    """
    dn, dd = max(map(len, hn), default=0) - 1, max(map(len, hd)) - 1
    j = 0 if dn <= deg_r else -1
    if hn and dn == dd - 1:
        # (lc(hn), lc(hd)) at each power of t
        lcs = list(zip_longest([r[dn] if len(r) > dn else 0 for r in hn],
                               [r[dd] if len(r) > dd else 0 for r in hd], fillvalue=0))
        u, v = next(p for p in lcs if p[1])
        q, rem = divmod(-u, v)
        if not rem and q >= 0 and all(u + q * v == 0 for u, v in lcs):
            j = max(j, q)
    return max(deg_r - max(dn, dd - 1), j)


def _solve_order(ell, nd, dr, ws, ab, g, lq, scale, pin):
    """Try the ansatz at telescoper order ell: (size, found).

    size is (rows, columns, t-degree) of the system solved, and found is
    (operator, certificate), or None at a miss.  nd = N'·D'^ell, ab = (a, b)
    with a/b = κ − lq'/lq in lowest terms, and the reduced x-log-derivative
    has denominator g·lq with g from _regular_part.
    The certificate is Y/den_y with den_y = lq·nd, which is `scale` times
    the den_y built from N, D and lq made primitive.  The certificate
    columns are multiplied by `scale`, so the system is the one over N, D
    and that primitive lq times one factor common to every row, and has the
    same nullspace basis.  Y has x-degree at most m from _degree_bound,
    which every solution meets, so the ansatz holds every certificate with
    this denominator.

    pin is deg_x Y0 for Y0 = den_y/F, the certificate part of the trivial
    solution y0 = 1/F, or None when the kernel has a log-derivative or Y0
    is not a polynomial in x.  Y0 solves hd·Y' + hn·Y = 0, so pin <= m, and
    one row sets the coefficient of x^(pin + deg g) in Y·g, y0's leading
    column, to 0: the certificate-only solutions c(t)·Y0 go, every operator
    stays (telescope), and a miss ends after one elimination mod p.  Where
    F is rational through its log-derivative, a basis that holds c(t)·y0
    beside a solution is solved again with that row.
    """
    den_y = K.rmul(lq, nd)
    # h = Lx − (d/dx den_y)/den_y.  With Lx = N'_x/N' − D'_x/D' + κ and
    # den_y = lq·N'·D'^ell, N' cancels: h = a/b − (ell + 1)·D'_x/D', in
    # lowest terms by one gcd, whose cofactors are hn and hd
    a, b = ab
    _, hn, hd = K.gcd_int(K.rsub(K.rmul(a, dr), K.rscale(K.rmul(b, K.rdx(dr)), ell + 1)),
                          K.rmul(b, dr))
    # right-hand side i: W_i·D'^(ell−i)·lq·hd
    rhs, lh = [None] * (ell + 1), K.rmul(lq, hd)
    for i in range(ell, -1, -1):
        rhs[i] = K.rmul(ws[i], lh)
        if i:
            lh = K.rmul(lh, dr)
    m = _degree_bound(hn, hd, max(len(r) for q in rhs for r in q) - 1)
    # column j: coefficients in x of x^j·hn + j·x^(j−1)·hd, as t-lists
    hnx, hdx = K.rscale(K.transpose(hn), scale), K.rscale(K.transpose(hd), scale)
    cols = [K.radd([[]] * j + hnx, K.rscale([[]] * (j - 1) + hdx, j)) for j in range(m + 1)]
    cols += [K.rscale(K.transpose(q), -1) for q in rhs]
    rows, zero = [], Poly("t", [])
    for k in range(max(map(len, cols))):
        row = [c[k] if k < len(c) else [] for c in cols]
        c = _igcd(*(v for e in row for v in e))
        rows.append([Poly("t", [v // c for v in e] if c > 1 else e) if e else zero
                     for e in row])
    if pin is not None:
        rows.append(_pin_row(g, pin, m, len(cols)))
    size = (len(rows), len(cols), max(e.degree() for r in rows for e in r))
    basis = nullspace(rows, len(cols))
    # c(t)·y0 beside a solution where F is rational but nothing was pinned
    y0 = next((v for v in basis if not any(v[m + 1 :])), None)
    if y0 is not None and len(basis) > 1:
        rows.append(_pin_row(g, max(j for j, e in enumerate(y0) if e), m, len(cols)))
        basis = nullspace(rows, len(cols))
    for vec in basis:
        avec = vec[m + 1 :]
        if any(avec):
            while not avec[-1]:
                avec = avec[:-1]
            y = K.transpose([e.coeffs for e in vec[: m + 1]])
            return size, (list(avec), RatFunc(P.from_rows(y), P.from_rows(den_y, scale)))
    return size, None


def _pin_row(g, q, m, width):
    """The row setting the coefficient of x^(q + deg g) in Y·g to 0, over
    the system's `width` columns: the column of x^q in Y, where the ansatz
    Y/(ld·nd) has Y·g, over Y's columns 0..m, and 0 over the operator's."""
    gx, zero = K.transpose(g), Poly("t", [])
    top = q + len(gx) - 1
    return [Poly("t", gx[top - j]) if 0 <= top - j < len(gx) else zero
            for j in range(m + 1)] + [zero] * (width - m - 1)


def _quotient_degree(rows, pn):
    """deg_x of rows/pn for integer rows and a primitive Z[x] list pn, or
    None when pn does not divide them.

    pn is free of t, so it divides rows exactly when it divides every
    t-coefficient in Z[x] (Gauss's lemma).  `RatFunc.is_polynomial` would
    not do: it tests the outer variable t and misses a denominator in x.
    """
    try:
        return max(len(K.exactdiv_int(r, pn)) for r in rows) - 1
    except ArithmeticError:
        return None


def telescope(gf, kernel, max_order):
    """Smallest-order telescoper for the integrand, searching orders 0..max_order.

    Each order ell tries one ansatz, with one nullspace solve: the
    certificate is Y/((L/g)·N·D^ell), where N/D is the generating function,
    L the denominator of the integrand's x-log-derivative, g the part of
    gcd(L, N·D) at which κ = K'/K is regular (_regular_part), and Y a
    polynomial of x-degree at most the bound of _degree_bound.  Raises
    NoTelescoperFound, naming the largest system tried, if that ansatz has
    only trivial solutions at every order up to max_order.

    Why g can go: write the certificate as C = y·F = G·K, so G = y·N/D and
    G' + κG = sum a_i W_i D^(ell−i)/D^(ell+1), with (d/dt)^i (N/D) =
    W_i/D^(i+1).  Wherever κ is regular, a pole of G of order k makes one
    of order k + 1 on the left, so G's pole order is one less than the
    right side's.  At a root of D of multiplicity e that is at most
    e·(ell + 1) − 1, and elsewhere G has no pole.  So y·N·D^ell = G·D^(ell+1)
    has no pole where κ is regular, the roots of g included, and
    y·(L/g)·N·D^ell is a polynomial for every certificate y that the ansatz
    Y/(L·N·D^ell) admits.  The degree bound admits every polynomial
    solution Y.  So this ansatz holds every solution of that one, whose Y
    is Y·g here.  It can hold more, a Y of x-degree j (_degree_bound) above
    that ansatz's bound of two above the right-hand sides, and then find a
    lower order.

    With a zero log-derivative F is rational, and every certificate-only
    solution is c(t)·y0, y0 = 1/F.  Where its Y part Y0 = den_y/F =
    (L/g)·D^(ell+1)/prefactor (up to a constant) is a polynomial in x,
    _solve_order pins the coefficient of x^(deg Y0 + deg g) of Y·g, y0's
    leading column in the coordinates of Y/(L·N·D^ell), to 0.  In the
    reduced row echelon basis of that ansatz unpinned, this column is free
    and y0 is its vector: a solution supported below it would have a zero
    operator, so it would be c(t)·y0, which is not 0 there.  Every other
    basis vector is 0 at a free column not its own, so the pinned basis is
    the unpinned one without y0, and the telescoper is unchanged.  Where F
    is rational through its log-derivative, an order whose unpinned basis
    holds c(t)·y0 beside a solution is solved again with that pin, with the
    same result.
    """
    if gf.num.is_zero():
        return Telescoper((Poly("t", [1]),), RatFunc(Poly("t", []), Poly("t", [1])))
    nr, cn, dr, cd, ln, ld = _integrand(gf, kernel)
    kn, kd = kernel.kappa
    g, lq = _regular_part(K.gcd_int(ln, ld)[2], K.rmul(nr, dr), kd)
    # a/b = κ − lq'/lq, h at every order but for its D' term
    ab = K.gcd_int(K.rsub(K.rmul(kn, lq), K.rmul(kd, K.rdx(lq))), K.rmul(kd, lq))[1:]
    base = cn * K.primitive(lq, True)[0]
    y0 = pn = None
    if kernel.logderiv.is_zero():
        # Y0 = lq·D'^(ell+1)·pd/pn up to a constant, pn/pd the prefactor
        pn, pd = _x_rows(kernel.prefactor)
        pn, y0 = K.primitive(pn[0], False)[1], K.rmul(lq, pd)
    ws, nd, largest = [nr], nr, (0, 0, 0)
    for ell in range(max_order + 1):
        if ell:
            nd = K.rmul(nd, dr)
        pin = None
        if y0 is not None:
            y0 = K.rmul(y0, dr)
            pin = _quotient_degree(y0, pn)
        size, got = _solve_order(ell, nd, dr, _extend_w(ws, dr, ell), ab, g, lq,
                                 base * cd**ell, pin)
        largest = max(largest, size, key=lambda s: s[0] * s[1])
        if got is not None:
            avec, y = _reduce_content(*got)
            return Telescoper(tuple(avec), y)
    raise NoTelescoperFound(max_order, largest)


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


def _vanish_order(rows, e, d):
    """(k, vals): k the multiplicity of (x − e) in nonzero integer rows of
    x-degree at most d, and vals, per power of t, q^d times the value of
    rows/(q·x − p)^k at e = p/q in lowest terms, an integer.  For nonzero
    rows k cannot exceed the x-degree, so the loop needs no cap."""
    p, q = e.numerator, e.denominator
    k = 0
    while True:
        at = [K.peval_at(r, p, q) * q ** (d + 1 - len(r)) for r in rows]
        if any(at):
            return k, at
        rows = [K.exactdiv_int(r, [-p, q]) for r in rows]
        k += 1


def _endpoint_contribution(nums, dens, kernel, e):
    """Limit at x = e of the product of nums over that of dens, times exp(∫ρ),
    as integer t-lists (numerator, denominator).  Each factor is nonzero
    integer rows, and there are as many nums as dens, so the q^d that
    _vanish_order puts on each value cancels, as do the q^k of equal
    multiplicities on the two sides, the only case with a nonzero limit."""
    d = max(len(r) for f in nums + dens for r in f) - 1
    ords, vals = [0, 0], [[1], [1]]
    for i, factors in enumerate((nums, dens)):
        for f in factors:
            k, at = _vanish_order(f, e, d)
            ords[i], vals[i] = ords[i] + k, K.pmul(vals[i], at)
    # the limit is that of vals·|x − e|^power, power = ords[0] − ords[1] + c
    # with c the kernel's exponent, 0 where it is rational
    c = kernel.exponent_at(e)
    if c > ords[1] - ords[0]:
        return [], [1]
    if not kernel.logderiv.is_zero():
        raise BoundaryNotEvaluable("nonzero limit against a non-rational kernel at x = %s" % (e,))
    if c < ords[1] - ords[0]:
        raise BoundaryNotEvaluable("certificate has a pole at x = %s" % (e,))
    return tuple(vals)


def boundary_rhs(gf, kernel, tel, alpha, beta):
    """C(beta,t) − C(alpha,t) where C = y·F; the recurrence's inhomogeneous side.

    C/exp(∫ρ) = y·(N/D)·prefactor is kept as its six integer-row factors, so
    each limit needs only their multiplicities at the endpoint and their
    values there; the difference is taken in integers and normalized once.
    """
    (yn, cyn), (yd, cyd) = P.int_rows(tel.certificate.num), P.int_rows(tel.certificate.den)
    (nr, cn), (dr, cd) = P.int_rows(gf.num), P.int_rows(gf.den)
    pn, pd = _x_rows(kernel.prefactor)
    nums, dens = (yn, nr, pn), (yd, dr, pd)
    if not all(nums):
        return RatFunc(Poly("t", []), Poly("t", [1]))
    (hn, hd), (ln, ld) = (_endpoint_contribution(nums, dens, kernel, e) for e in (beta, alpha))
    num = K.pscale(K.psub(K.pmul(hn, ld), K.pmul(ln, hd)), cyd * cd)
    return RatFunc(Poly("t", num), Poly("t", K.pscale(K.pmul(hd, ld), cyn * cn)))
