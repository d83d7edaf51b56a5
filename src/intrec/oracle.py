"""Ground-truth values of a(n) = ∫ P_n(x) K(x) dx, independent of telescoping.

Polynomial kernels integrate exactly by the power rule.  The Chebyshev weight
1/sqrt(1-x^2) with a polynomial prefactor on [-1, 1] integrates exactly too,
up to one symbolic factor: a(n) = pi·q_n with q_n rational, from the moments
∫ x^(2m)/sqrt(1-x^2) dx = pi·C(2m, m)/4^m (odd moments vanish).

Everything else goes through adaptive tanh-sinh quadrature at a requested
decimal precision.  The Chebyshev weight is integrated after x = cos(theta),
which leaves a smooth integrand, so only intervals within [-1, 1] are
supported.  Other kernels are integrated in x as they stand; there a strong
endpoint singularity of |x-a|^c can exhaust the subdivision cap, so
quadrature_digits caps their precision.  Only these two non-rational kernel
shapes are recognized numerically; anything else needs a caller-supplied
evaluator.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from mpmath import mp

from . import cfinite as cf
from .cfinite import term
from .errors import ExactOracleUnavailable, QuadratureFailed, UnsupportedKernel
from . import poly as P
from .poly import Poly
from .ratfunc import RatFunc

_MAXDEGREE = 12
# decimal digits for kernels integrated in x: beyond them an endpoint
# singularity |x-a|^c exhausts the subdivision cap (with c <= -2/3 even at 12)
_X_DIGITS_CAP = 12


@dataclass(frozen=True)
class IntegralProblem:
    seq: object
    kernel: object
    alpha: object
    beta: object

    def __post_init__(self):
        if not Fraction(self.alpha) < Fraction(self.beta):
            raise ValueError("interval endpoints must satisfy alpha < beta")


def _antiderivative_eval(p, point):
    acc = Fraction(0)
    xp = Fraction(point)
    power = xp
    for k, c in enumerate(p.coeffs):
        acc += Fraction(c, k + 1) * power
        power *= xp
    return acc


def exact_term(prob, n):
    """Power-rule integration; only defined for polynomial kernels."""
    kern = prob.kernel
    if not kern.logderiv.is_zero() or not kern.prefactor.is_polynomial():
        raise ExactOracleUnavailable("kernel is not a polynomial")
    pre = kern.prefactor.num * P.num_div(1, kern.prefactor.den.constant())
    integrand = term(prob.seq, n) * pre
    if isinstance(integrand, P.NUM_TYPES):
        integrand = Poly.const("x", integrand)
    hi = _antiderivative_eval(integrand, prob.beta)
    lo = _antiderivative_eval(integrand, prob.alpha)
    return P.as_num(hi - lo)


def has_pi_parts(prob):
    """True when pi_parts applies: Chebyshev weight with a polynomial
    prefactor, on exactly [-1, 1]."""
    kern = prob.kernel
    return (
        recognized_form(kern) == "chebyshev_weight"
        and kern.prefactor.is_polynomial()
        and Fraction(prob.alpha) == -1
        and Fraction(prob.beta) == 1
    )


def pi_parts(prob, count):
    """[q_0, ..., q_{count-1}] with a(n) = pi·q_n exactly, q_n rational.

    Only for problems where has_pi_parts holds; each P_n·prefactor is
    integrated by the moments pi·C(k, k/2)/2^k of even powers x^k.
    """
    if not has_pi_parts(prob):
        raise ExactOracleUnavailable(
            "pi-factored values need the Chebyshev weight with a polynomial"
            " prefactor on [-1, 1]"
        )
    kern = prob.kernel
    pre = kern.prefactor.num * P.num_div(1, kern.prefactor.den.constant())
    polys = [p * pre for p in cf.terms(prob.seq, count)]
    top = max((p.degree() for p in polys), default=-1) + 1
    moments = [Fraction(comb(k, k // 2), 2**k) if k % 2 == 0 else 0 for k in range(top)]
    return [
        P.as_num(sum((c * m for c, m in zip(p.coeffs, moments) if m), Fraction(0)))
        for p in polys
    ]


def as_mpf(v):
    """A rational as an mpf at the working precision."""
    f = Fraction(v)
    return mp.mpf(f.numerator) / f.denominator


def _poly_mpf(p):
    cs = [as_mpf(c) for c in p.coeffs]

    def f(x):
        acc = mp.mpf(0)
        for c in reversed(cs):
            acc = acc * x + c
        return acc

    return f


def recognized_form(kern):
    """Closed-form tag implied by the kernel's log-derivative, or None.

    "rational" means no exponential part at all; "chebyshev_weight" is
    1/sqrt(1-x^2); "linear_power" is |x-a|^c.  None means only a
    caller-supplied evaluator can produce numeric values.
    """
    rho = kern.logderiv
    if rho.is_zero():
        return "rational"
    x_ = Poly.variable("x")
    if rho == RatFunc(x_, 1 - x_ * x_):
        return "chebyshev_weight"
    if rho.den.degree() == 1 and rho.num.is_constant():
        return "linear_power"
    return None


def _kernel_evaluator(kern, form):
    pn, pd = _poly_mpf(kern.prefactor.num), _poly_mpf(kern.prefactor.den)
    if form == "rational":
        return lambda x: pn(x) / pd(x)
    if form == "linear_power":
        rho = kern.logderiv
        q0, q1 = Fraction(rho.den.coeff(0)), Fraction(rho.den.coeff(1))
        a = -q0 / q1
        c = Fraction(rho.num.constant()) / q1
        am, cm = as_mpf(a), as_mpf(c)
        return lambda x: pn(x) / pd(x) * abs(x - am) ** cm
    raise UnsupportedKernel(
        "no closed form known for this kernel log-derivative; supply an evaluator"
    )


def quadrature_digits(prob, precision, evaluator=None):
    """Decimal digits numeric_term is run at for a requested precision.

    Kernels integrated in x are capped at _X_DIGITS_CAP digits; the
    substituted Chebyshev weight gets the full precision.
    """
    if evaluator is None and recognized_form(prob.kernel) == "chebyshev_weight":
        return precision
    return min(precision, _X_DIGITS_CAP)


def numeric_term(prob, n, precision, evaluator=None):
    """Tanh-sinh quadrature of P_n·K to `precision` decimal digits.

    Without an evaluator, the Chebyshev weight on [alpha, beta] within
    [-1, 1] is integrated as P_n(cos θ)·prefactor(cos θ) over
    [acos beta, acos alpha]; outside [-1, 1] it raises UnsupportedKernel.
    """
    kern = prob.kernel
    form = None if evaluator is not None else recognized_form(kern)
    with mp.workdps(precision + 10):
        pf = _poly_mpf(term(prob.seq, n))
        a, b = as_mpf(prob.alpha), as_mpf(prob.beta)
        if form == "chebyshev_weight":
            if Fraction(prob.alpha) < -1 or Fraction(prob.beta) > 1:
                raise UnsupportedKernel(
                    "the Chebyshev weight is real only on intervals within [-1, 1]"
                )
            pn, pd = _poly_mpf(kern.prefactor.num), _poly_mpf(kern.prefactor.den)

            def f(theta):
                x = mp.cos(theta)
                return pf(x) * pn(x) / pd(x)

            a, b = mp.acos(b), mp.acos(a)
        else:
            kf = evaluator or _kernel_evaluator(kern, form)
            f = lambda x: pf(x) * kf(x)
        val, err = mp.quad(
            f, [a, b], method="tanh-sinh", maxdegree=_MAXDEGREE, error=True
        )
        if not mp.isfinite(val) or err > mp.mpf(10) ** (-precision):
            raise QuadratureFailed(
                "quadrature did not reach 10^-%d (error estimate %s)" % (precision, err)
            )
        return +val


def numeric_unroll(coeffs, seeds, count, dps=40):
    """Float unrolling of a recurrence from numeric seed terms.

    Used to check recurrences against numeric oracle values when the exact
    initial terms are irrational (singular-weight integrals).
    """
    with mp.workdps(dps):
        out = [mp.mpf(s) for s in seeds]
        r = len(coeffs) - 1
        while len(out) < count:
            nn = len(out) - r
            cr = as_mpf(coeffs[-1].eval(nn))
            if cr == 0:
                raise QuadratureFailed("numeric unroll hit a vanishing leading coefficient")
            acc = mp.mpf(0)
            for i in range(r):
                acc += as_mpf(coeffs[i].eval(nn)) * out[nn + i]
            out.append(-acc / cr)
        return [+v for v in out[:count]]
