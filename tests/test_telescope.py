"""Creative telescoping: operator search, certificate checks, boundary values."""

import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intrec import _kernels as K
from intrec import cfinite as cf
from intrec import exprs
from intrec import linalg
from intrec import ode2rec as o2r
from intrec import oracle
from intrec import poly as P
from intrec import telescope as telescope_module
from intrec.errors import BoundaryNotEvaluable, NoTelescoperFound
from intrec.genfun import generating_function
from intrec.poly import Poly
from intrec.ratfunc import RatFunc
from intrec.telescope import (
    Kernel,
    Telescoper,
    _endpoint_contribution,
    _vanish_order,
    boundary_rhs,
    chebyshev_weight,
    telescope,
    trivial_kernel,
    verify_certificate,
)

from test_cfinite import rand_seq

T = cf.BUILTINS["chebyshev_T"]


def power_sequence():
    # P_n(x) = x^n
    return cf.CFiniteSeq((Poly("x", [0, 1]),), (Poly("x", [1]),))


def ones_sequence():
    return cf.CFiniteSeq((Poly("x", [1]),), (Poly("x", [1]),))


def series_of_ratfunc(r, count):
    """Taylor coefficients at t=0 by the denominator-driven recursion."""
    num = [Fraction(c) for c in r.num.coeffs]
    den = [Fraction(c) for c in r.den.coeffs]
    assert den and den[0]
    out = []
    for n in range(count):
        acc = num[n] if n < len(num) else Fraction(0)
        for k in range(1, min(n, len(den) - 1) + 1):
            acc -= den[k] * out[n - k]
        out.append(acc / den[0])
    return out


def apply_operator(opcoeffs, series, count):
    """Series coefficients of sum_i a_i(t) (d/dt)^i f, valid up to `count`."""
    out = [Fraction(0)] * count
    for i, a in enumerate(opcoeffs):
        for k, ck in enumerate(a.coeffs):
            for m in range(count):
                idx = m - k + i
                if 0 <= idx < len(series):
                    ff = 1
                    for j in range(i):
                        ff *= idx - j
                    out[m] += Fraction(ck) * ff * series[idx]
    return out


def test_power_sequence_worked_example():
    gf = generating_function(power_sequence())
    kern = trivial_kernel()
    tel = telescope(gf, kern, 6)
    assert tel.order == 1
    # proportional to (1-t) + t(1-t) d/dt over the rational functions of t
    ref_a0, ref_a1 = Poly("t", [1, -1]), Poly("t", [0, 1, -1])
    assert tel.opcoeffs[0] * ref_a1 == tel.opcoeffs[1] * ref_a0
    assert verify_certificate(gf, kern, tel)
    rhs = boundary_rhs(gf, kern, tel, Fraction(0), Fraction(1))
    rec = o2r.attach_initials(
        o2r.ode_to_recurrence(tel.opcoeffs, rhs), [Fraction(1), Fraction(1, 2)]
    )
    assert o2r.unroll(rec, 8) == [Fraction(1, n + 1) for n in range(8)]


def test_x_free_integrand():
    gf = generating_function(ones_sequence())
    tel = telescope(gf, trivial_kernel(), 6)
    assert tel.order <= 1
    assert verify_certificate(gf, trivial_kernel(), tel)


def test_zero_certificate_verifies():
    # (1-t) f' - f = 0 for f = 1/(1-t), so the certificate can be zero
    gf = generating_function(ones_sequence())
    tel = Telescoper(
        (Poly("t", [-1]), Poly("t", [1, -1])),
        RatFunc(Poly("t", []), Poly("t", [1])),
    )
    assert verify_certificate(gf, trivial_kernel(), tel)
    assert boundary_rhs(gf, trivial_kernel(), tel, Fraction(0), Fraction(1, 2)).is_zero()


def test_perturbed_certificate_fails():
    gf = generating_function(power_sequence())
    kern = trivial_kernel()
    tel = telescope(gf, kern, 6)
    bad = Telescoper(tel.opcoeffs, tel.certificate + 1)
    assert not verify_certificate(gf, kern, bad)


def test_constructed_pole_raises():
    gf = generating_function(ones_sequence())
    tel = Telescoper(
        (Poly("t", [1]),),
        RatFunc(Poly("x", [1]), Poly("x", [1, -1])),
    )
    with pytest.raises(BoundaryNotEvaluable):
        boundary_rhs(gf, trivial_kernel(), tel, Fraction(0), Fraction(1))


def test_vanish_order_past_64():
    x = Poly.variable("x")
    wd = Poly("t", [(x - 1) ** 70 * (x + 2), (x - 1) ** 71])
    assert _vanish_order(P.int_rows(wd)[0], 1) == (70, [3, 0])
    # |x-1|^(131/2) against a certificate with a pole of order 70 at x = 1:
    # the limit is infinite, so the boundary must not be reported as zero
    kern = Kernel(
        RatFunc(Poly("x", [1])),
        RatFunc(Poly("x", [Fraction(131, 2)]), Poly("x", [-1, 1])),
    )
    with pytest.raises(BoundaryNotEvaluable):
        _endpoint_contribution([[[1]]], [P.int_rows((x - 1) ** 70)[0]], kern, Fraction(1))


@pytest.mark.parametrize("logderiv,e,c", [
    ("(1/2)/(x-1)", 1, Fraction(1, 2)), ("(1/2)/(x-1)", Fraction(1, 3), 0),
    ("x/(1-x^2)", -1, Fraction(-1, 2)), ("1+2/(x-3)", 3, 2), ("0", 1, 0)])
def test_exponent_at_is_the_residue_and_decides_the_limit(logderiv, e, c):
    # exp(∫ρ) behaves as |x - e|^c at e, c the residue of ρ there (0 where
    # ρ is regular).  Against a factor regular and nonzero at e, the limit
    # is 0 when c > 0, the factor's value against a rational kernel, and
    # not evaluable otherwise
    kern, e = kernel(logderiv=logderiv), Fraction(e)
    assert kern.exponent_at(e) == c
    if c > 0:
        assert _endpoint_contribution([[[1]]], [[[2]]], kern, e).is_zero()
    elif logderiv == "0":
        assert _endpoint_contribution([[[1]]], [[[2]]], kern, e) == RatFunc(Poly("t", [1]),
                                                                             Poly("t", [2]))
    else:
        with pytest.raises(BoundaryNotEvaluable, match="nonzero limit"):
            _endpoint_contribution([[[1]]], [[[2]]], kern, e)


def test_exponent_at_a_higher_order_pole_raises():
    with pytest.raises(BoundaryNotEvaluable, match="higher-order pole at x = 1"):
        kernel(logderiv="1/(x-1)^2").exponent_at(Fraction(1))


def test_order_minimality_rerun():
    gf = generating_function(T)
    tel = telescope(gf, trivial_kernel(), 6)
    assert 1 <= tel.order <= 2
    with pytest.raises(NoTelescoperFound) as exc:
        telescope(gf, trivial_kernel(), tel.order - 1)
    assert exc.value.max_order == tel.order - 1
    # the error names the largest system it solved: rows, columns, t-degree
    assert exc.value.largest == (4, 4, 3)
    assert str(exc.value) == "no telescoper up to order 0 (largest system 4x4 at t-degree 3)"


def test_chebyshev_recurrence_annihilates_oracle_terms():
    gf = generating_function(T)
    kern = trivial_kernel()
    tel = telescope(gf, kern, 6)
    assert verify_certificate(gf, kern, tel)
    rhs = boundary_rhs(gf, kern, tel, Fraction(-1), Fraction(1))
    rec = o2r.ode_to_recurrence(tel.opcoeffs, rhs)
    prob = oracle.IntegralProblem(T, kern, Fraction(-1), Fraction(1))
    terms = [oracle.exact_term(prob, n) for n in range(21)]
    r = len(rec.coeffs) - 1
    for n in range(rec.threshold, 21 - r):
        acc = Fraction(0)
        for i, c in enumerate(rec.coeffs):
            acc += Fraction(c.eval(n)) * terms[n + i]
        assert acc == 0


def test_chebyshev_weight_kernel_telescopes():
    kern = chebyshev_weight()
    assert kern.logderiv == exprs.parse_ratfunc("x/(1-x^2)", ("x",))
    gf = generating_function(T)
    tel = telescope(gf, kern, 6)
    assert verify_certificate(gf, kern, tel)


def test_fuzz_certificate_and_boundary_series():
    rng = random.Random(86420)
    telescoped = boundary_checked = 0
    for _ in range(20):
        seq = rand_seq(rng, max_order=2, maxdeg=1, span=3)
        gf = generating_function(seq)
        kern = trivial_kernel()
        try:
            tel = telescope(gf, kern, 6)
        except NoTelescoperFound:
            continue
        telescoped += 1
        assert verify_certificate(gf, kern, tel)
        try:
            rhs = boundary_rhs(gf, kern, tel, Fraction(0), Fraction(1))
        except BoundaryNotEvaluable:
            continue
        boundary_checked += 1
        prob = oracle.IntegralProblem(seq, kern, Fraction(0), Fraction(1))
        horizon = 16 + tel.order
        series = [oracle.exact_term(prob, n) for n in range(horizon)]
        lhs = apply_operator(tel.opcoeffs, series, 16)
        assert lhs == series_of_ratfunc(rhs, 16)
    assert telescoped >= 10
    assert boundary_checked >= 5


def kernel(prefactor="1", logderiv="0"):
    return Kernel(exprs.parse_ratfunc(prefactor, ("x",)), exprs.parse_ratfunc(logderiv, ("x",)))


@pytest.mark.parametrize("kern", [trivial_kernel(), kernel("1/(3-x)"), kernel("x^2+1")],
                         ids=["one", "rational", "polynomial"])
def test_boundary_scales_with_the_sequence(kern):
    # a third of T has a generating function with a fractional numerator, the
    # same telescoper and certificate, and a third of the boundary value
    third = cf.CFiniteSeq(T.coeffs, tuple(q * Fraction(1, 3) for q in T.init))
    gf, gf3 = generating_function(T), generating_function(third)
    tel, tel3 = telescope(gf, kern, 6), telescope(gf3, kern, 6)
    assert tel3 == tel
    assert verify_certificate(gf3, kern, tel3)
    rhs = boundary_rhs(gf, kern, tel, Fraction(-1, 2), Fraction(1))
    assert not rhs.is_zero()
    assert boundary_rhs(gf3, kern, tel3, Fraction(-1, 2), Fraction(1)) == rhs * Fraction(1, 3)


U = cf.BUILTINS["chebyshev_U"]
EXP, GAUSS = kernel(logderiv="1"), kernel(logderiv="-x")
JACOBI = kernel(logderiv="(1/2)/(x-1)+(3/2)/(x+1)")
# P_n = (1+x) P_{n-1} - P_{n-2} from 1, 2x; and P_n = 3x P_{n-1} + 2 P_{n-2} from 1, 1+x
CUSTOM_1 = cf.CFiniteSeq((Poly("x", [1, 1]), Poly("x", [-1])), (Poly("x", [1]), Poly("x", [0, 2])))
CUSTOM_2 = cf.CFiniteSeq((Poly("x", [0, 3]), Poly("x", [2])), (Poly("x", [1]), Poly("x", [1, 1])))
# smallest telescoper orders, as found before the search tried one ansatz per order
MINIMAL_ORDERS = [
    ("T-inverse_linear", T, kernel("1/(2-x)"), 2),
    ("U-exp", U, EXP, 1),
    ("power-gauss", power_sequence(), GAUSS, 2),
    ("U2-jacobi", cf.power(U, 2), JACOBI, 3),
    ("reverseT-rational", cf.reverse(T), kernel("(x^2+1)/(x-3)"), 3),
    ("TU-chebyshev_weight", cf.product(T, U), chebyshev_weight(), 1),
    ("T-inverse_quadratic", T, kernel("1/(x^2+2)"), 2),
    ("T-jacobi", T, JACOBI, 2),
    ("U-gauss", U, GAUSS, 2),
    ("U-rational", U, kernel("(x^2+1)/(x-3)"), 2),
    ("T-sqrt", T, kernel(logderiv="(1/2)/(x-1)"), 1),
    ("U-cube_root", U, kernel(logderiv="(-1/3)/(x+1)"), 1),
    ("power-jacobi", power_sequence(), JACOBI, 2),
    ("custom1-quadratic", CUSTOM_1, kernel("x^2-3*x+1"), 1),
    ("custom2-one", CUSTOM_2, trivial_kernel(), 1),
]


@pytest.mark.parametrize("seq,kern,order", [c[1:] for c in MINIMAL_ORDERS],
                         ids=[c[0] for c in MINIMAL_ORDERS])
def test_minimal_order_one_solve_per_order(monkeypatch, seq, kern, order):
    calls = []
    solve = telescope_module.nullspace

    def counted(rows, ncols):
        calls.append(ncols)
        return solve(rows, ncols)

    monkeypatch.setattr(telescope_module, "nullspace", counted)
    gf = generating_function(seq)
    tel = telescope(gf, kern, 3)
    assert tel.order == order
    assert len(calls) == order + 1
    assert verify_certificate(gf, kern, tel)


# -- references built on nested Poly objects ---------------------------------
# reference_telescope is the search as it was before its ansatz shrank: the
# certificate Y/(den_l·N·D^ell), with Y of x-degree up to two above the
# right-hand sides, solved with Q[x][t] Poly and RatFunc arithmetic.  It is
# the oracle: the integer-row search must return the identical Telescoper.
# reference_system builds the search's own, smaller system the same way, so
# that its rows can be compared with the integer rows.


def _bivar(p):
    return Poly("t", [p])


def dx(p):
    """d/dx of a Q[x][t] (or plain Q[x]) polynomial."""
    if p.var == "x":
        return p.deriv()
    return p.map_coeffs(lambda c: c.deriv() if isinstance(c, Poly) else 0)


def _bivar_part(p):
    return p if p.var == "t" else _bivar(p)


def _x_coefficients(p):
    """Transpose Q[x][t] -> list of Q[t] polys, index = power of x."""
    if p.var == "x":
        return [Poly("t", [c]) for c in p.coeffs]
    cols = []
    for k in range(P.x_degree(p) + 1):
        cols.append(Poly("t", [c.coeff(k) if isinstance(c, Poly) else (c if k == 0 else 0)
                               for c in p.coeffs]))
    return cols


def _from_x_coefficients(cols):
    depth = max((c.degree() for c in cols), default=-1)
    return Poly("t", [Poly("x", [c.coeff(j) for c in cols]) for j in range(depth + 1)])


def _xshift(p, k):
    if k == 0:
        return p

    def shift(c):
        cs = c.coeffs if isinstance(c, Poly) else [c]
        return Poly("x", [0] * k + list(cs))

    return p.map_coeffs(lambda c: shift(c) if c else 0)


def _w_sequence(num, den, upto):
    ws = [num]
    dd = den.deriv()
    for i in range(upto):
        w = ws[-1]
        ws.append(w.deriv() * den - (i + 1) * dd * w)
    return ws


def _log_deriv_x(gf, kernel):
    num, den = gf.num, gf.den
    r_part = RatFunc(dx(num) * den - num * dx(den), num * den)
    k_part = kernel.logderiv + telescope_module._pre_logderiv(kernel)
    return r_part + RatFunc(_bivar(k_part.num), _bivar(k_part.den))


def _system_rows(h, rhs, m):
    """Rows (one per power of x) of hd·Y' + hn·Y = sum a_i rhs_i, Y = sum
    y_j x^j for j <= m, h = hn/hd; columns y_0..y_m, then a_0, a_1, …"""
    den_h, num_h = _bivar_part(h.den), _bivar_part(h.num)
    mults = []
    for j in range(m + 1):
        mj = _xshift(num_h, j)
        if j:
            mj = mj + j * _xshift(den_h, j - 1)
        mults.append(mj)
    cols = [_x_coefficients(q) for q in mults] + [_x_coefficients(-q) for q in rhs]
    zero_t = Poly("t", [])
    depth = max((len(c) for c in cols), default=0)
    return [[c[k] if k < len(c) else zero_t for c in cols] for k in range(depth)]


def _reference_solve_order(num, den, ws, lx, ell):
    den_l = _bivar_part(lx.den)
    den_y = den_l * num * den**ell
    h = lx - RatFunc(dx(den_y), den_y)
    rhs = [ws[i] * den_l * den ** (ell - i) * _bivar_part(h.den) for i in range(ell + 1)]
    m = max(P.x_degree(q) for q in rhs) + 2
    rows = _system_rows(h, rhs, m)
    for vec in linalg.nullspace(rows, len(rows[0])):
        avec = vec[m + 1:]
        if all(not a for a in avec):
            continue
        while not avec[-1]:
            avec = avec[:-1]
        return list(avec), RatFunc(_from_x_coefficients(vec[: m + 1]), den_y)
    return None


def reference_telescope(gf, kernel, max_order):
    num, den = gf.num, gf.den
    lx = _log_deriv_x(gf, kernel)
    ws = _w_sequence(num, den, max_order)
    for ell in range(max_order + 1):
        got = _reference_solve_order(num, den, ws, lx, ell)
        if got is not None:
            avec, y = telescope_module._reduce_content(*got)
            return Telescoper(tuple(avec), y)
    raise NoTelescoperFound(max_order)


def same_search(gf, kern, max_order):
    """The telescoper, or the exhausted order, of both searches; asserts they agree."""
    results = []
    for search in (telescope, reference_telescope):
        try:
            results.append(repr(search(gf, kern, max_order)))
        except NoTelescoperFound as e:
            results.append(e.max_order)
    assert results[0] == results[1]
    return results[0]


def proportional(row, ref):
    """Whether row = c·ref for one nonzero rational c (entries in Q[t])."""
    c = None
    for e, f in zip(row, ref):
        if not e or not f:
            if e or f:
                return False
            continue
        q = Fraction(e.lc()) / Fraction(f.lc())
        if P.scale_poly(f, q) != e or (c is not None and q != c):
            return False
        c = q
    return True


def reference_degree_bound(hn, hd, deg_r):
    """The x-degree bound on Y in hd·Y' + hn·Y = R, deg_x R <= deg_r, for
    Q[x][t] polynomials: deg_r − max(deg hn, deg hd − 1); or j where
    lc(hn) + j·lc(hd) = 0 for an integer j >= 0; or 0 when deg hn <= deg_r."""
    dn, dd = (P.x_degree(hn) if hn else -1), P.x_degree(hd)
    j = 0 if dn <= deg_r else -1
    if hn and dn == dd - 1:
        ratio = RatFunc(-_x_coefficients(hn)[dn], _x_coefficients(hd)[dd])
        if ratio.num.degree() <= 0 and ratio.den.degree() == 0:
            r = Fraction(ratio.num.constant()) / Fraction(ratio.den.constant())
            if r.denominator == 1 and r >= 0:
                j = max(j, int(r))
    return max(deg_r - max(dn, dd - 1), j)


def reference_regular_part(gf, kern):
    """(g, den_l/g) as Q[x][t] polynomials: g the part of gcd(den_l, N·D)
    at which K'/K is regular, den_l/g integer-primitive with a positive
    leading coefficient."""
    den_l = _bivar_part(_log_deriv_x(gf, kern).den)
    kappa = kern.logderiv + telescope_module._pre_logderiv(kern)
    g = P.gcd(den_l, gf.num * gf.den)
    while True:
        c = P.gcd(g, _bivar(kappa.den))
        if P.x_degree(c) == 0:
            break
        g = RatFunc(g, c).num
    lq = RatFunc(den_l, g).num
    return g, P.scale_poly(lq, 1 / (P.rational_content(lq) * P.leading_sign(lq)))


def reference_system(gf, kern, ell):
    """(rows, pin): the search's system at order ell without its pin row,
    and that row or None.  The certificate is Y/(lq·N·D^ell), lq = den_l/g;
    Y has x-degree at most reference_degree_bound.  With a zero
    log-derivative, where Y0 = lq·D^(ell+1)/prefactor is a polynomial in x
    the pin row sets the coefficient of x^(deg Y0 + deg g) in Y·g to 0."""
    num, den = gf.num, gf.den
    g, lq = reference_regular_part(gf, kern)
    den_y = lq * num * den**ell
    h = _log_deriv_x(gf, kern) - RatFunc(dx(den_y), den_y)
    ws = _w_sequence(num, den, ell)
    rhs = [ws[i] * lq * den ** (ell - i) * _bivar_part(h.den) for i in range(ell + 1)]
    m = reference_degree_bound(_bivar_part(h.num) if h.num else None, _bivar_part(h.den),
                               max(P.x_degree(q) for q in rhs))
    rows = _system_rows(h, rhs, m)
    pre, zero_t = kern.prefactor, Poly("t", [])
    if not kern.logderiv.is_zero():
        return rows, None
    y0 = RatFunc(lq * den ** (ell + 1) * _bivar(pre.den), _bivar(pre.num))
    if P.x_degree(y0.den) > 0:
        return rows, None
    gx = _x_coefficients(g)
    top = P.x_degree(y0.num) + len(gx) - 1
    pin = [gx[top - j] if 0 <= top - j < len(gx) else zero_t for j in range(m + 1)]
    return rows, pin + [zero_t] * (ell + 1)


def telescope_systems(monkeypatch):
    """[(rows, ncols), …]: the systems the search passes to nullspace."""
    systems, solve = [], telescope_module.nullspace

    def recorded(rows, ncols):
        systems.append((rows, ncols))
        return solve(rows, ncols)

    monkeypatch.setattr(telescope_module, "nullspace", recorded)
    return systems


@pytest.mark.parametrize("seq,kern,order", [c[1:] for c in MINIMAL_ORDERS],
                         ids=[c[0] for c in MINIMAL_ORDERS])
def test_integer_rows_match_poly_reference(monkeypatch, seq, kern, order):
    systems = telescope_systems(monkeypatch)
    gf = generating_function(seq)
    assert "Telescoper" in same_search(gf, kern, order)
    # each order's system is the Poly-built one, up to one factor per row,
    # and one more row wherever the trivial certificate is pinned out
    assert len(systems) == order + 1
    pinned = 0
    for ell, (rows, ncols) in enumerate(systems):
        ref_rows, pin = reference_system(gf, kern, ell)
        assert ncols == len(ref_rows[0])
        if pin is not None:
            *rows, last = rows
            assert proportional(last, pin)
            pinned += 1
        assert len(rows) == len(ref_rows)
        assert all(proportional(r, f) for r, f in zip(rows, ref_rows))
    # every rational kernel here has its trivial certificate pinned at every order
    assert pinned == (order + 1 if kern.logderiv.is_zero() else 0)


RATIONAL_ORDERS = [c for c in MINIMAL_ORDERS if c[2].logderiv.is_zero()]


@pytest.mark.parametrize("seq,kern,order", [c[1:] for c in RATIONAL_ORDERS],
                         ids=[c[0] for c in RATIONAL_ORDERS])
def test_rational_kernel_misses_lift_nothing(monkeypatch, seq, kern, order):
    # with the trivial certificate pinned out, a miss has full column rank,
    # so its one elimination mod p ends it before any t-adic lifting
    lifts, per_order = [], []
    lift, solve = linalg._lift_series, telescope_module.nullspace

    def counted_lift(*args):
        lifts.append(args)
        return lift(*args)

    def counted_solve(rows, ncols):
        before = len(lifts)
        basis = solve(rows, ncols)
        per_order.append(len(lifts) - before)
        return basis

    monkeypatch.setattr(linalg, "_lift_series", counted_lift)
    monkeypatch.setattr(telescope_module, "nullspace", counted_solve)
    assert telescope(generating_function(seq), kern, order).order == order
    assert per_order[:-1] == [0] * order
    assert per_order[-1] > 0


def zero_operator_vectors(monkeypatch):
    """[(order, count)]: per telescope nullspace solve, the order it solves
    and how many basis vectors have a zero operator part."""
    seen, solve, solve_order, at = [], telescope_module.nullspace, telescope_module._solve_order, []

    def solving(ell, *args):
        at[:] = [ell]
        return solve_order(ell, *args)

    def recorded(rows, ncols):
        basis = solve(rows, ncols)
        ell = at[0]
        seen.append((ell, sum(all(not a for a in v[ncols - ell - 1:]) for v in basis)))
        return basis

    monkeypatch.setattr(telescope_module, "_solve_order", solving)
    monkeypatch.setattr(telescope_module, "nullspace", recorded)
    return seen


def test_unpinnable_kernel_adds_no_row(monkeypatch):
    # T against x^2: den_l/g has the factor x once, so pn = x^2 divides no
    # (den_l/g)·D'^(ell+1)·pd and 1/F is never in the ansatz.  No row is
    # added, and no certificate-only vector reaches the skip in _solve_order
    systems = telescope_systems(monkeypatch)
    seen = zero_operator_vectors(monkeypatch)
    gf, kern = generating_function(T), kernel("x^2")
    assert "Telescoper" in same_search(gf, kern, 3)
    for ell, (rows, ncols) in enumerate(systems):
        ref_rows, pin = reference_system(gf, kern, ell)
        assert pin is None
        assert len(rows) == len(ref_rows) and ncols == len(ref_rows[0])
    assert all(count == 0 for _, count in seen)


def test_skip_keeps_a_trivial_certificate_the_order_0_test_missed(monkeypatch):
    # A denominator with a factor in x alone, which no generating function of
    # a sequence has (D(x, 0) is a constant): R = 1/((x−3)(1−xt)) against
    # (x−3)^3.  Y0 = (den_l/g)·D'^(ell+1)/(x−3)^3 is not a polynomial at
    # order 0 but is one at order 1, where the search, deciding each order
    # on its own, pins it out: no vector with a zero operator reaches the
    # skip in _solve_order.  A search that decided at order 0 only would
    # hold c(t)·y0 unpinned at order 1; both searches agree
    x = Poly.variable("x")
    gf = RatFunc(Poly("t", [1]), Poly("t", [x - 3, -x * (x - 3)]))
    kern = Kernel(RatFunc((x - 3) ** 3), RatFunc(Poly("x", [])))
    seen = zero_operator_vectors(monkeypatch)
    tel = telescope(gf, kern, 3)
    assert tel.order == 1 and verify_certificate(gf, kern, tel)
    assert seen == [(0, 0), (1, 0)]
    monkeypatch.undo()
    assert same_search(gf, kern, 3) == repr(tel)


@pytest.mark.parametrize("seq,logderiv", [(T, "1/(x-3)"), (cf.power(T, 2), "1/(x-3)"),
                                            (U, "1/(x-1)+1/(x+2)")],
                         ids=["T", "T2", "U"])
def test_rational_through_its_log_derivative_keeps_the_certificate(monkeypatch, seq, logderiv):
    # K = exp(∫ρ) is a polynomial, so F is rational, but only the prefactor
    # decides a pin: c(t)·y0 stays in the unpinned basis with a zero
    # operator.  The hit order is then solved again with the pin row at y0's
    # leading column, and returns the certificate the ansatz
    # Y/(den_l·N·D^ell) returns, which is 0 at that column there
    gf, kern = generating_function(seq), kernel(logderiv=logderiv)
    seen = zero_operator_vectors(monkeypatch)
    tel = telescope(gf, kern, 3)
    assert seen[-2:] == [(tel.order, 1), (tel.order, 0)]
    monkeypatch.undo()
    assert same_search(gf, kern, 3) == repr(tel)


@pytest.mark.parametrize("hn,hd,deg_r,bound", [
    ([[0, 0, 1]], [[0, 1]], 5, 3),  # deg hn > deg hd − 1: deg R − deg hn
    ([[1]], [[0, 0, 0, 1]], 5, 3),  # deg hn < deg hd − 1: deg R − deg hd + 1
    # deg hn = deg hd − 1 and lc(hn) + 3·lc(hd) = 0: 3(1+t)·x against
    # (1+t)(1−x^2), as the Chebyshev weight's 1 − x^2 gives
    ([[0, 3], [0, 3]], [[1, 0, -1], [1, 0, -1]], 1, 3),
    ([[0, 1]], [[1, 0, -2]], 4, 3),  # -lc(hn)/lc(hd) = 1/2
    ([[0, -3]], [[1, 0, -1]], 4, 3),  # -lc(hn)/lc(hd) = -3
    ([[0, 3], [0, 1]], [[1, 0, -1]], 4, 3),  # -lc(hn)/lc(hd) = 3 + t
    ([], [[0, 0, 1]], 0, 0),  # hn = 0: a constant Y gives 0
    ([], [[1]], 2, 3),
    ([[1]], [[0, 0, 1]], 0, 0),  # a constant Y gives hn
], ids=["hn-leads", "hd-leads", "integer-root", "half", "negative", "t-dependent",
        "hn-zero", "hn-zero-constant-hd", "constant"])
def test_degree_bound_cases(hn, hd, deg_r, bound):
    assert telescope_module._degree_bound(hn, hd, deg_r) == bound


int_rows = st.lists(st.lists(st.integers(-2, 2), max_size=4), min_size=1, max_size=3).map(
    lambda rows: K._rstrip([K.strip(r) for r in rows]))


@settings(max_examples=300, deadline=None)
@given(int_rows, int_rows.filter(bool), int_rows.filter(bool), st.booleans())
def test_degree_bound_admits_every_solution(hn, hd, y, plant):
    # any nonzero Y solves hd·Y' + hn·Y = R for its own R, and the bound
    # taken from deg R must admit it.  A planted case makes the leading
    # terms cancel: deg hn = deg hd − 1 and lc(hn) = −deg Y·lc(hd)
    dd, j = max(map(len, hd)) - 1, max(map(len, y)) - 1
    if plant and dd >= 1:
        lead = [[0] * (dd - 1) + [-j * r[dd]] if len(r) > dd else [] for r in hd]
        hn = K._rstrip([K.strip(r) for r in K.radd([r[:dd - 1] for r in hn], lead)])
    lhs = K.radd(K.rmul(hd, K.rdx(y)), K.rmul(hn, y))
    assert j <= telescope_module._degree_bound(hn, hd, max(map(len, lhs), default=0) - 1)


def test_kappa_pole_shared_with_the_denominator_stays():
    # R = 1/((x−3)(1−xt)) against (x−3)^3: den_l = (x−3)(1−xt) divides
    # N·D, but K'/K = 3/(x−3) has its pole at x = 3, so only 1 − xt goes
    # and x − 3 stays in the certificate's denominator
    x = Poly.variable("x")
    gf = RatFunc(Poly("t", [1]), Poly("t", [x - 3, -x * (x - 3)]))
    kern = Kernel(RatFunc((x - 3) ** 3), RatFunc(Poly("x", [])))
    nr, _, dr, _, ln, ld, kd = telescope_module._integrand(gf, kern)
    _, ln, ld = K.gcd_int(ln, ld)
    g, lq = telescope_module._regular_part(ld, K.rmul(nr, dr), kd)
    assert g == P.int_rows(Poly("t", [-1, x]))[0]
    assert K.primitive(lq, True)[1] == P.int_rows(x - 3)[0]
    ref_g, ref_lq = reference_regular_part(gf, kern)
    assert K.primitive(P.int_rows(ref_g)[0], True)[1] == g and ref_lq == x - 3
    assert "Telescoper" in same_search(gf, kern, 3)


def test_x_free_generating_function():
    # F = 1/(1−t): den_l is a constant, so g = 1 and h = 0 at every order;
    # Y = x solves the order-0 system, d/dx (x·F) = F
    gf = generating_function(ones_sequence())
    nr, _, dr, _, ln, ld, kd = telescope_module._integrand(gf, trivial_kernel())
    _, ln, ld = K.gcd_int(ln, ld)
    assert (ln, max(map(len, ld))) == ([], 1)
    assert telescope_module._regular_part(ld, K.rmul(nr, dr), kd)[0] == [[1]]
    tel = telescope(gf, trivial_kernel(), 3)
    assert tel.order == 0 and tel.certificate == RatFunc(Poly("x", [0, 1]))
    assert same_search(gf, trivial_kernel(), 3) == repr(tel)


def test_chebyshev_weight_system_sizes(monkeypatch):
    # T against 1/sqrt(1−x^2) on [−1, 1]: order 1, found by an 8×8 system
    # of t-degree 5 (rows × columns; the ansatz Y/(den_l·N·D^ell) with its
    # degree slack needed 16×15 at t-degree 9)
    systems = telescope_systems(monkeypatch)
    assert telescope(generating_function(T), chebyshev_weight(), 3).order == 1
    sizes = [(len(rows), ncols, max(e.degree() for r in rows for e in r))
             for rows, ncols in systems]
    assert sizes == [(7, 6, 3), (8, 8, 5)]


xpolys = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(lambda cs: Poly("x", cs))


@st.composite
def integrands(draw, hyperexponential=True):
    """A short C-finite sequence against a rational or hyperexponential kernel
    (only rational ones, polynomial kernels included, if not hyperexponential)."""
    order = draw(st.integers(1, 2))
    coeffs = draw(st.lists(xpolys, min_size=order, max_size=order))
    init = draw(st.lists(xpolys, min_size=order, max_size=order))
    if coeffs[-1].is_zero():
        coeffs[-1] = Poly("x", [1])
    pre_num, pre_den, rho_num, rho_den = (draw(xpolys) for _ in range(4))
    if not hyperexponential and draw(st.booleans()):
        # a repeated root, which the x-log-derivative has once: 1/F then
        # keeps an x-denominator in the ansatz, and nothing is pinned
        pre_num = pre_num * pre_num
    prefactor = RatFunc(pre_num if pre_num else Poly("x", [1]),
                        pre_den if pre_den else Poly("x", [1]))
    rho = RatFunc(rho_num if hyperexponential and draw(st.booleans()) else Poly("x", []),
                  rho_den if rho_den else Poly("x", [1]))
    seq = cf.CFiniteSeq(tuple(coeffs), tuple(init))
    return generating_function(seq), Kernel(prefactor, rho)


@settings(max_examples=40, deadline=None)
@given(integrands())
def test_integer_rows_match_poly_reference_on_random_integrands(case):
    gf, kern = case
    if gf.num.is_zero():
        return
    same_search(gf, kern, 2)


@settings(max_examples=60, deadline=None)
@given(integrands(hyperexponential=False))
def test_pinned_search_matches_reference_on_rational_kernels(case):
    # the pin row removes only the certificate-only solutions: hit order,
    # operator and certificate are those of the unpinned reference search
    gf, kern = case
    if gf.num.is_zero():
        return
    same_search(gf, kern, 2)


linear_xpolys = st.lists(st.integers(-3, 3), min_size=2, max_size=2).map(
    lambda cs: Poly("x", cs))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def exact_problems(draw):
    """(gf, kernel, alpha, beta) of an integral with exact values: a short
    sequence with linear coefficients against a polynomial kernel on a random
    interval, or against the Chebyshev weight with a polynomial prefactor on
    [-1, 1]."""
    order = draw(st.integers(1, 2))
    coeffs = draw(st.lists(linear_xpolys, min_size=order, max_size=order))
    init = draw(st.lists(linear_xpolys, min_size=order, max_size=order))
    if coeffs[-1].is_zero():
        coeffs[-1] = Poly("x", [1])
    gf = generating_function(cf.CFiniteSeq(tuple(coeffs), tuple(init)))
    pre = draw(xpolys.filter(bool))
    if draw(st.booleans()):
        return gf, Kernel(RatFunc(pre), chebyshev_weight().logderiv), Fraction(-1), Fraction(1)
    alpha, beta = sorted(draw(st.lists(rationals, min_size=2, max_size=2, unique=True)))
    if draw(st.booleans()):
        pre = pre * Poly("x", [-alpha, 1])
    return gf, Kernel(RatFunc(pre), RatFunc(Poly("x", []))), alpha, beta


@settings(max_examples=100, deadline=None)
@given(exact_problems())
def test_exact_problem_boundary_always_has_a_limit(case):
    # a polynomial kernel leaves C = y·F no finite pole, and against the
    # Chebyshev weight C vanishes at ±1, so neither boundary raises
    gf, kern, alpha, beta = case
    try:
        tel = telescope(gf, kern, 4)
    except NoTelescoperFound:
        return
    rhs = boundary_rhs(gf, kern, tel, alpha, beta)
    if not kern.logderiv.is_zero():
        assert rhs.is_zero()


def test_reduce_content_matches_full_normalisation(monkeypatch):
    seen = []
    reduce = telescope_module._reduce_content

    def recorded(avec, y):
        seen.append((avec, y))
        return reduce(avec, y)

    monkeypatch.setattr(telescope_module, "_reduce_content", recorded)
    telescope(generating_function(cf.reverse(T)), kernel("(x^2+1)/(x-3)"), 3)
    (avec, y), = seen
    g = avec[0]
    for a in avec[1:]:
        g = P.gcd(g, a)
    assert not g.is_constant()
    # one full RatFunc normalisation of the rescaled pair
    f = linalg.canonical_scale([P.exact_div(a, g) for a in avec])
    expected = RatFunc(P.scale_poly(y.num, f), y.den * g)
    got = reduce(avec, y)[1]
    assert (got.num.var, got.num.coeffs) == (expected.num.var, expected.num.coeffs)
    assert (got.den.var, got.den.coeffs) == (expected.den.var, expected.den.coeffs)


def test_product_against_rational_kernel_finishes_quickly():
    # each order's certificate is put in lowest terms by a gcd in Q[x][t]
    # whose inputs have large coefficients
    gf = generating_function(cf.product(T, U))
    kern = kernel("(x^2+1)/(x-3)")
    start = time.perf_counter()
    tel = telescope(gf, kern, 3)
    assert time.perf_counter() - start < 10.0
    assert tel.order == 3
    assert verify_certificate(gf, kern, tel)
