"""From a differential operator on f(t) = sum a(n) t^n to a recurrence for a(n).

Clearing the rational right-hand side leaves sum_b p_b(t) f^(b)(t) = rho(t)
with polynomial data.  A monomial t^a D^b sends t^u-coefficients to
falling-factorial multiples of a(u - a + b), so collecting powers of t gives
a polynomial-coefficient recurrence, whose window at n = u + s, s the lowest
shift b - a, is the t^u coefficient once indices below 0 are dropped.  The
polynomial right side only touches finitely many equations; those
low-index equations are kept as such, each evaluated from the coefficients
(they pin down leading terms), and the homogeneous recurrence holds from a
threshold onward.

`equations` enumerates the equations that terms cover, once: each window,
its weights `_kernels.peval` values of the coefficients cleared to integer
lists over one denominator, then each exceptional equation.  `first_failure`,
the one exact check against terms, sums them on terms cleared to integers
once with `poly.cleared`, and the pipeline's numeric check sums them in mpf.
`unroll` clears each window of r terms the same way, so each new term costs
one integer sum and one Fraction.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import RecurrenceRefuted, SingularLeadingCoefficient, ZeroOperator
from . import _kernels as K
from .linalg import canonical_vector
from . import poly as P
from .poly import Poly


@dataclass(frozen=True)
class Recurrence:
    """sum_i coeffs[i](n) · a(n+i) = 0 for every n ≥ threshold.

    `exceptional` holds the finitely many low-index equations that differ
    from the homogeneous pattern, each as (pairs, rhs) with pairs a tuple of
    (term index, rational coefficient).  They are cross-checked whenever
    initial terms are attached.
    """

    coeffs: tuple
    threshold: int
    initial_terms: tuple = None
    exceptional: tuple = ()

    @property
    def order(self):
        return len(self.coeffs) - 1


def falling_factorial(top, b):
    """(top)(top-1)...(top-b+1) as a polynomial in n; top itself a Poly in n."""
    out = Poly.const("n", 1)
    for i in range(b):
        out = out * (top - i)
    return out


def convert_raw(opcoeffs, rhs):
    """Unnormalized conversion; returns (coeffs, threshold, exceptional), the
    exceptional equations those of the t^u coefficients below the threshold."""
    ops = [p if isinstance(p, Poly) else Poly.const("t", p) for p in opcoeffs]
    if all(p.is_zero() for p in ops):
        raise ZeroOperator("all operator coefficients vanish")
    den, rho = rhs.den, rhs.num
    monos = [(b, a, coef) for b, p in enumerate(ops) for a, coef in enumerate((p * den).coeffs)
             if coef]
    s_min = min(b - a for b, a, _ in monos)
    n = Poly.variable("n")
    coeffs = [Poly("n", [])] * (max(b - a for b, a, _ in monos) - s_min + 1)
    for b, a, coef in monos:
        j = (b - a) - s_min
        coeffs[j] = coeffs[j] + coef * falling_factorial(n + j, b)
    threshold = max(0, s_min, rho.degree() + s_min + 1)
    exceptional = []
    for u in range(threshold - s_min):
        at = u + s_min
        pairs = tuple((at + j, w) for j, w in enumerate(c.eval(at) for c in coeffs)
                      if at + j >= 0 and w)
        if pairs or rho.coeff(u):
            exceptional.append((pairs, rho.coeff(u)))
    return coeffs, threshold, tuple(exceptional)


def _integer_roots(p):
    """All integer roots of a polynomial in n, without factorization.

    The Sturm sequence of `poly.sturm` counts the distinct real roots in any
    interval (lo, hi].  Bisecting the integer range inside the Cauchy
    bound, and dropping every piece that holds no root, takes about
    log2(bound) steps per real root: the cost grows with the bit size of the
    coefficients, not with their magnitude.
    """
    cs = p.coeffs
    roots = set()
    k = 0
    while k < len(cs) and not cs[k]:
        k += 1
    if k:
        roots.add(0)
        cs = cs[k:]
    if len(cs) <= 1:
        return roots
    top, variations = P.sturm(Poly("n", cs))
    bound = max(abs(c) for c in top[:-1]) // abs(top[-1]) + 2
    stack = [(-bound, variations(-bound), bound, variations(bound))]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if not K.peval(top, hi):
                roots.add(hi)
            continue
        mid = (lo + hi) // 2
        vmid = variations(mid)
        stack += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
    return roots


def ode_to_recurrence(opcoeffs, rhs):
    """Recurrence (without initial terms) induced by sum a_i(t) f^(i) = rhs."""
    coeffs, threshold, exceptional = convert_raw(opcoeffs, rhs)
    g = P.content(coeffs)
    if g is not None and not g.is_constant():
        # at an integer root of the removed content the reduced recurrence is
        # not implied by the original equation, so validity starts above it
        bump = [rt + 1 for rt in _integer_roots(g) if rt >= threshold]
        coeffs = [P.exact_div(c, g) if c else c for c in coeffs]
        if bump:
            threshold = max(bump)
    return Recurrence(tuple(canonical_coeffs(coeffs)), threshold, None, exceptional)


def canonical_coeffs(coeffs):
    """canonical_vector of a recurrence's coefficients, leading one positive."""
    coeffs = canonical_vector(coeffs)
    if P.leading_sign(coeffs[-1]) < 0:
        coeffs = [-c for c in coeffs]
    return coeffs


def singular_indices(rec):
    """n ≥ threshold where the leading coefficient vanishes (unroll blockers)."""
    return sorted(rt for rt in _integer_roots(rec.coeffs[-1]) if rt >= rec.threshold)


def required_initials(rec):
    """How many leading terms pin the sequence down completely."""
    need = rec.order + rec.threshold
    for n0 in singular_indices(rec):
        need = max(need, n0 + rec.order + 1)
    return need


def equations(rec, count):
    """Each equation that `count` terms cover, once: (label, pairs, rhs).

    pairs are (term index, weight) and the equation is Σ w·a(index) = rhs.
    First each window n ≥ threshold that fits inside the terms, its weights
    the coefficients at n cleared to integers (a positive multiple) and rhs
    0; then each exceptional equation whose indices all lie below count.
    """
    cs = P.cleared_rows([c.coeffs for c in rec.coeffs])[0]
    for n in range(rec.threshold, count - rec.order):
        yield "window at n = %d" % n, [(n + i, K.peval(c, n)) for i, c in enumerate(cs)], 0
    for pairs, rhs in rec.exceptional:
        if all(idx < count for idx, _ in pairs):
            yield "low-index equation", pairs, rhs


def first_failure(rec, terms):
    """None when every equation the terms cover holds exactly, else why not.
    The terms are cleared to integers over one denominator once, so each
    equation of `equations` is tested as Σ w·num = rhs·den."""
    nums, den = P.cleared(terms)
    for label, pairs, rhs in equations(rec, len(terms)):
        if sum(w * nums[idx] for idx, w in pairs) != rhs * den:
            return label + " fails exactly"
    return None


def attach_initials(rec, terms):
    """Attach initial terms, exactly re-checking every equation they touch."""
    terms = tuple(P.as_num(Fraction(v)) for v in terms)
    need = required_initials(rec)
    if len(terms) < need:
        raise ValueError("need at least %d initial terms, got %d" % (need, len(terms)))
    why = first_failure(rec, terms)
    if why is not None:
        raise RecurrenceRefuted(why)
    return replace(rec, initial_terms=terms)


def unroll(rec, count):
    """First `count` terms from the initial data plus the recurrence."""
    if rec.initial_terms is None:
        raise ValueError("recurrence has no initial terms attached")
    terms = list(rec.initial_terms)
    r = rec.order
    cs = P.cleared_rows([c.coeffs for c in rec.coeffs])[0]
    while len(terms) < count:
        n = len(terms) - r
        if n < rec.threshold:
            raise ValueError("initial terms stop short of the validity threshold")
        cr = K.peval(cs[-1], n)
        if not cr:
            raise SingularLeadingCoefficient(n)
        window, den = P.cleared(terms[n:n + r])
        acc = sum(K.peval(c, n) * v for c, v in zip(cs, window))
        terms.append(P.num_div(-acc, cr * den))
    return terms[:count]
