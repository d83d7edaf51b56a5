"""Ground-truth values of a(n) = ∫ P_n(x) K(x) dx, independent of telescoping.

Each IntegralProblem reads its kernel's form off the kernel (Kernel.form,
computed once per kernel) and sets `factor`, the name of the symbolic
factor f of its exact values a(n) = f·q_n, with f's mpf value beside it:
the pipeline prints the name and multiplies by the value.  exact_term gives
q_n as a moment sum: with m_k = ∫_α^β x^k w(x) dx, P_n = Σ c_j x^j and the
prefactor Σ a_i x^i (its denominator is 1), q_n = Σ_j c_j M_j over the
weighted moments M_j = Σ_i a_i m_(i+j).  The c_j and the a_i are each
cleared to integers over one denominator, and the moments are built as
integers over one, so the sum runs in integers and builds one Fraction per
term.  A polynomial kernel has f = 1, w = 1 and the power rule,
m_k = (β^(k+1) - α^(k+1))/(k+1).  The Chebyshev weight 1/sqrt(1-x^2) with a
polynomial prefactor on [-1, 1] has f = pi and the rational parts
m_k = C(k, k/2)/2^k for even k, 0 for odd k.  Every other kernel has no
exact values.  An IntegralProblem owns both moment vectors, computed once
and extended on demand, and P_n comes from the sequence's cached prefix, so
each further value costs one recurrence step and one dot product: the first
N values cost time linear in N, not quadratic.  exact_terms keeps that
prefix of values on the problem too.

numeric_terms gives the values for n in a range at a requested decimal
precision, on which the pipeline checks each equation of a recurrence that has
no exact values; numeric_term is one of them.  A problem with factor "pi" is a
polynomial of degree D against 1/sqrt(1-x^2) on [-1, 1], which the
Gauss–Chebyshev rule with D//2 + 1 nodes integrates exactly: it needs no
error estimate, and it evaluates P_n at the nodes instead of summing moments,
so it stays independent of exact_term.  Everything else goes through one tanh-sinh pass
over degrees 1 to _MAXDEGREE of mpmath's TanhSinh rule, with mp.quad's
epsilon and error estimate.  At each node the kernel is evaluated once and
P_0, ..., P_(count-1) by the sequence's recurrence, in integers scaled by
2^B, with B enough bits for the growth of the recurrence's dominant
solution; every term still running adds to its own exact step sum, and each
term stops at the degree where its own estimate passes.  Scaled integers
keep every bit of large intermediate values, which mpf rounds relative to
their size: to 96 bits, T_29(x)^3 at x = 0.999999 comes out within 1e-21
instead of 4e-17.  The Chebyshev weight on a sub-interval is integrated
after x = cos(theta), which leaves a smooth integrand, so only intervals
within [-1, 1] are supported.  Other kernels are integrated in x as they
stand; there a strong endpoint singularity of |x-a|^c can exhaust the
subdivision cap, so quadrature_digits caps their precision.  Only these two
non-rational kernel shapes are recognized numerically; anything else raises
UnsupportedKernel.
"""

from fractions import Fraction
from math import ceil, comb, lcm

from mpmath import mp
from mpmath.calculus.quadrature import TanhSinh

from .cfinite import term, terms
from .errors import ExactOracleUnavailable, QuadratureFailed, UnsupportedKernel
from . import _kernels as K
from . import poly as P

_MAXDEGREE = 12
# the tanh-sinh rule of every numeric pass, with its cache of nodes
_RULE = TanhSinh(mp)
# decimal digits for kernels integrated in x: beyond them an endpoint
# singularity |x-a|^c exhausts the subdivision cap (with c <= -2/3 even at 12)
_X_DIGITS_CAP = 12


class IntegralProblem:
    """a(n) = ∫_alpha^beta P_n(x)·kernel(x) dx.

    `factor` names the symbolic factor f with a(n) = f·q_n and
    q_n = exact_term(self, n) rational, and `factor_value` is f in mpf: "1"
    for a polynomial kernel, "pi" for the Chebyshev weight with a
    polynomial prefactor on exactly [-1, 1], None when there are no exact
    values; both follow from kernel.form.
    Linear recurrences and their checks carry over unchanged from a(n) to
    q_n whenever the right-hand sides vanish.  The problem owns its moments
    and its cached prefix of exact terms.
    """

    def __init__(self, seq, kernel, alpha, beta):
        lo, hi = Fraction(alpha), Fraction(beta)
        if not lo < hi:
            raise ValueError("interval endpoints must satisfy alpha < beta")
        self.seq, self.kernel, self.alpha, self.beta = seq, kernel, alpha, beta
        self.factor = self.factor_value = None
        if kernel.prefactor.is_polynomial():
            if kernel.form == "rational":
                self.factor, self.factor_value = "1", mp.one
            elif kernel.form == "chebyshev_weight" and (lo, hi) == (-1, 1):
                self.factor, self.factor_value = "pi", mp.pi
        self._nums, self._den, self._wnums, self._terms = [], 1, [], []


def _moments(prob, count):
    """(nums, den) with M_j = Σ_i a_i m_(i+j) = nums[j]/den for every j < count.

    The raw moments m_j = prob._nums[j]/prob._den for j < top share the
    denominator lcm(1, ..., top)·g^top under the power rule, alpha = v/g and
    beta = u/g, and 2^(top-1) as the Chebyshev parts C(j, j/2)/2^j.  m at
    least doubles whenever it grows, and M is rescaled with it, so bringing
    both to a new common denominator costs O(1) per moment overall.  The a_i
    are cleared to integers over f, so M has the denominator of m times f.
    """
    (ws, f), ms, wm = P.cleared(prob.kernel.prefactor.num.coeffs), prob._nums, prob._wnums
    k = len(ms)
    if k < count + len(ws) - 1:
        top = max(count + len(ws) - 1, 2 * k)
        if prob.factor == "1":
            (v, u), g = P.cleared([Fraction(prob.alpha), Fraction(prob.beta)])
            L = lcm(*range(1, top + 1)) * g**top
            upow, vpow, gpow = u**k, v**k, g**k
            new = []
            for j in range(k, top):
                upow, vpow, gpow = upow * u, vpow * v, gpow * g
                new.append((upow - vpow) * (L // ((j + 1) * gpow)))
        else:
            L = 1 << (top - 1)
            new = [comb(j, j // 2) << (top - 1 - j) if j % 2 == 0 else 0
                   for j in range(k, top)]
        den = lcm(prob._den, L)
        up = den // prob._den
        ms[:] = [x * up for x in ms] + [x * (den // L) for x in new]
        wm[:] = [x * up for x in wm]
        prob._den = den
    while len(wm) < count:
        j = len(wm)
        wm.append(sum(a * m for a, m in zip(ws, ms[j:j + len(ws)]) if a))
    return wm, prob._den * f


def _moment_sum(prob, p):
    """Σ_j c_j M_j over the coefficients c_j of p: one dot product."""
    cs, e = P.cleared(p.coeffs)
    nums, den = _moments(prob, len(cs))
    return P.as_num(Fraction(sum(c * m for c, m in zip(cs, nums) if c), den * e))


def exact_term(prob, n):
    """q_n with a(n) = prob.factor·q_n; raises when prob.factor is None."""
    if prob.factor is None:
        raise ExactOracleUnavailable(
            "no exact oracle for this kernel and interval: it needs a polynomial"
            " kernel, or the Chebyshev weight with a polynomial prefactor on [-1, 1]"
        )
    return _moment_sum(prob, term(prob.seq, n))


def exact_terms(prob, count):
    """[q_0, ..., q_{count-1}], growing the prefix cached on the problem."""
    qs = prob._terms
    while len(qs) < count:
        qs.append(exact_term(prob, len(qs)))
    return qs[:count]


def as_mpf(v):
    """A rational as an mpf at the working precision."""
    f = Fraction(v)
    return mp.mpf(f.numerator) / f.denominator


def _poly_mpf(p):
    cs = [as_mpf(c) for c in p.coeffs]
    return lambda x: K.peval(cs, x)


def _kernel_evaluator(kern):
    """The kernel's factor of the integrand as a function of x.  The
    Chebyshev weight is integrated after x = cos θ, which leaves its
    prefactor alone."""
    pn, pd = _poly_mpf(kern.prefactor.num), _poly_mpf(kern.prefactor.den)
    if kern.form in ("rational", "chebyshev_weight"):
        return lambda x: pn(x) / pd(x)
    if kern.form == "linear_power":
        am, cm = map(as_mpf, kern.power)
        return lambda x: pn(x) / pd(x) * abs(x - am) ** cm
    raise UnsupportedKernel("no closed form known for this kernel log-derivative")


def quadrature_digits(prob, precision):
    """Decimal digits numeric_term is run at for a requested precision:
    capped at _X_DIGITS_CAP for kernels integrated in x, the full precision
    for the substituted Chebyshev weight."""
    if prob.kernel.form == "chebyshev_weight":
        return precision
    return min(precision, _X_DIGITS_CAP)


def _gauss_chebyshev(prob, p):
    """∫_-1^1 p(x)·prefactor(x)/sqrt(1-x^2) dx by the M-point Gauss–Chebyshev rule.

    π/M·Σ_k f(cos((2k+1)π/2M)) is exact for every polynomial f of degree
    below 2M (Abramowitz–Stegun 25.4.38), so with M = deg f//2 + 1 nodes
    only rounding separates it from the integral.  The prefactor is a
    polynomial with denominator 1 (RatFunc makes a constant one 1).
    """
    pre = prob.kernel.prefactor.num
    pf, pn = _poly_mpf(p), _poly_mpf(pre)
    m = max(p.degree() + pre.degree(), 0) // 2 + 1
    h = mp.pi / (2 * m)
    xs = [mp.cos((2 * k + 1) * h) for k in range(m)]
    return mp.pi / m * mp.fsum(pf(x) * pn(x) for x in xs)


def numeric_term(prob, n, precision):
    """Term n of numeric_terms, integrated alone."""
    return numeric_terms(prob, n + 1, precision, n)[0]


def numeric_terms(prob, count, precision, first=0):
    """P_n·K integrated numerically to `precision` decimal digits, first <= n < count:
    by the Gauss–Chebyshev rule for factor "pi", else by one tanh-sinh pass
    (see the module docstring)."""
    with mp.workdps(precision + 10):
        if prob.factor == "pi":
            return [_gauss_chebyshev(prob, p) for p in terms(prob.seq, count)[first:]]
        return _tanh_sinh(prob, first, count, precision)


def _fixed(v, bits):
    """A rational or a finite mpf as a multiple of 2^-bits, rounded down."""
    if isinstance(v, (int, Fraction)):
        f = Fraction(v)
        return (f.numerator << bits) // f.denominator
    return int(mp.floor(mp.ldexp(v, bits)))


def _peval_fixed(cs, x, bits):
    """Horner's rule on coefficients and a point, all multiples of 2^-bits."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * x >> bits) + c
    return acc


def _growth_bits(prob, count):
    """Bits that P_n's recurrence can amplify a rounding error by, n < count.

    With every polynomial bounded by the sum of its absolute coefficients
    times R^k, R = ceil(max(|alpha|, |beta|)), A_n = sum_i |p_i|·A_(n-i)
    from A_j = |q_j| grows at least as fast as the recurrence's dominant
    solution on the interval.  An error in P_j is carried forward as a
    solution is, so a subdominant P_n such as x^n beside (10x)^n loses the
    bits of the dominant one.
    """
    r = ceil(max(abs(Fraction(prob.alpha)), abs(Fraction(prob.beta))))

    def bound(p):
        return ceil(sum(abs(Fraction(c)) * r**k for k, c in enumerate(p.coeffs)))

    ps = [bound(p) for p in prob.seq.coeffs]
    grow = [bound(q) for q in prob.seq.init[:count]]
    while len(grow) < count:
        grow.append(sum(p * g for p, g in zip(ps, reversed(grow[-len(ps):]))))
    return max(grow, default=0).bit_length() + count.bit_length()


def _tanh_sinh(prob, first, count, precision):
    """Terms first, ..., count-1 of one tanh-sinh pass, at the working precision.

    Degree by degree up to _MAXDEGREE, every term still running adds the
    degree's new nodes to its step sum, and it stops at the first degree
    whose error estimate is within mp.eps/8, as in mp.quad.  One still
    running at the degree cap must have its estimate within 10^-precision.
    Nodes and kernel values are mpf at 20 bits past the working precision,
    as in mp.quad.  The rest is integer arithmetic on multiples of 2^-B,
    with B that precision plus _growth_bits: P_n(x) = sum_i p_i(x)·P_(n-i)(x)
    from the initial polynomials' values, which stays accurate where Horner's
    rule on P_n's coefficients cancels, and each term's exact sum over every
    node so far, which times 2^-d is the degree-d value.  One node's values
    and three values per term are held at a time.  The Chebyshev weight on
    [alpha, beta] within [-1, 1] is integrated as P_n(cos θ)·prefactor(cos θ)
    over [acos beta, acos alpha]; outside [-1, 1] it raises UnsupportedKernel.
    """
    cheb = prob.kernel.form == "chebyshev_weight"
    if cheb and (Fraction(prob.alpha) < -1 or Fraction(prob.beta) > 1):
        raise UnsupportedKernel(
            "the Chebyshev weight is real only on intervals within [-1, 1]"
        )
    prec, epsilon, tol = mp.prec, mp.eps / 8, mp.mpf(10) ** (-precision)
    a, b = as_mpf(prob.alpha), as_mpf(prob.beta)
    if cheb:
        a, b = mp.acos(b), mp.acos(a)
    bits = prec + 20 + _growth_bits(prob, count)
    ps = [[_fixed(c, bits) for c in p.coeffs] for p in prob.seq.coeffs]
    qs = [[_fixed(c, bits) for c in q.coeffs] for q in prob.seq.init[:count]]
    live = {n: [] for n in range(first, count)}
    sums = dict.fromkeys(live, 0)
    out = {}
    with mp.workprec(prec + 20):
        kf = _kernel_evaluator(prob.kernel)
        for degree in range(1, _MAXDEGREE + 1):
            if not live:
                break
            top = max(live) + 1
            for t, w in _RULE.get_nodes(a, b, degree, prec):
                x = mp.cos(t) if cheb else t
                wk = w * kf(x)
                if not mp.isfinite(wk):
                    raise QuadratureFailed("the kernel is not finite at the node x = %s" % x)
                wk, x = _fixed(wk, bits), _fixed(x, bits)
                vals = [_peval_fixed(q, x, bits) for q in qs]
                pv = [_peval_fixed(p, x, bits) for p in ps]
                while len(vals) < top:
                    window = reversed(vals[-len(pv):])
                    vals.append(sum(p * v for p, v in zip(pv, window)) >> bits)
                for n in live:
                    sums[n] += wk * vals[n]
            for n, results in list(live.items()):
                results.append(mp.ldexp(sums[n], -degree - 2 * bits))
                del results[:-3]
                if degree == 1:
                    continue
                err = _RULE.estimate_error(results, prec, epsilon)
                if err <= epsilon or degree == _MAXDEGREE:
                    if err > tol:
                        # the estimate prints at the working precision
                        with mp.workprec(prec):
                            raise QuadratureFailed(
                                "quadrature did not reach 10^-%d within its limit of"
                                " tanh-sinh degree %d (error estimate %s)"
                                % (precision, _MAXDEGREE, err)
                            )
                    out[n] = results.pop()
                    del live[n]
    return [+out[n] for n in range(first, count)]
