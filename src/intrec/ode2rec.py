"""From a differential operator on f(t) = sum a(n) t^n to a recurrence for a(n).

Clearing the rational right-hand side leaves sum_b p_b(t) f^(b)(t) = rho(t)
with polynomial data.  A monomial t^a D^b sends t^u-coefficients to
falling-factorial multiples of a(u - a + b), so collecting powers of t gives
a polynomial-coefficient recurrence.  The polynomial right side only touches
finitely many equations; those low-index equations are kept verbatim (they
pin down leading terms) and the homogeneous recurrence holds from a threshold
onward.
"""

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import RecurrenceRefuted, SingularLeadingCoefficient, ZeroOperator
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


def _monomials(cleared):
    for b, p in enumerate(cleared):
        for a, coef in enumerate(p.coeffs):
            if coef:
                yield b, a, coef


def convert_raw(opcoeffs, rhs):
    """Unnormalized conversion; returns (coeffs, threshold, exceptional)."""
    ops = [p if isinstance(p, Poly) else Poly.const("t", p) for p in opcoeffs]
    if all(p.is_zero() for p in ops):
        raise ZeroOperator("all operator coefficients vanish")
    den, rho = rhs.den, rhs.num
    cleared = [p * den for p in ops]
    monos = list(_monomials(cleared))
    d = rho.degree()
    s_min = min(b - a for b, a, _ in monos)
    s_max = max(b - a for b, a, _ in monos)
    r = s_max - s_min
    n = Poly.variable("n")
    coeffs = [Poly("n", []) for _ in range(r + 1)]
    for b, a, coef in monos:
        j = (b - a) - s_min
        coeffs[j] = coeffs[j] + coef * falling_factorial(n + j, b)
    threshold = max(0, s_min, d + s_min + 1)
    exceptional = []
    for u in range(threshold - s_min):
        weights = {}
        for b, a, coef in monos:
            idx = u - a + b
            if idx < 0:
                continue
            ff = 1
            for i in range(b):
                ff *= idx - i
            if ff:
                weights[idx] = weights.get(idx, 0) + coef * ff
        pairs = tuple(sorted((i, w) for i, w in weights.items() if w))
        rhs_u = rho.coeff(u)
        if pairs or rhs_u:
            exceptional.append((pairs, rhs_u))
    return coeffs, threshold, tuple(exceptional)


def _horner(cs, v):
    acc = 0
    for c in reversed(cs):
        acc = acc * v + c
    return acc


def _integer_roots(p):
    """All integer roots of a polynomial in n, without factorization.

    A Sturm sequence of the squarefree part counts the distinct real roots in
    any interval (lo, hi].  Bisecting the integer range inside the Cauchy
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
    q = Poly("n", cs)
    q = P.exact_div(q, P.gcd(q, q.deriv()))
    chain = [q, q.deriv()]
    while chain[-1].degree() > 0:
        chain.append(-P.divmod_poly(chain[-2], chain[-1])[1])
    # positive rescaling to integer coefficients keeps every sign
    chain = [P.int_coeffs(c)[0] for c in chain]

    def variations(v):
        signs = [val > 0 for val in (_horner(c, v) for c in chain) if val]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    top = chain[0]
    bound = max(abs(c) for c in top[:-1]) // abs(top[-1]) + 2
    stack = [(-bound, variations(-bound), bound, variations(bound))]
    while stack:
        lo, vlo, hi, vhi = stack.pop()
        if vlo == vhi:
            continue
        if hi - lo == 1:
            if not _horner(top, hi):
                roots.add(hi)
            continue
        mid = (lo + hi) // 2
        vmid = variations(mid)
        stack += [(lo, vlo, mid, vmid), (mid, vmid, hi, vhi)]
    return roots


def ode_to_recurrence(opcoeffs, rhs):
    """Recurrence (without initial terms) induced by sum a_i(t) f^(i) = rhs."""
    coeffs, threshold, exceptional = convert_raw(opcoeffs, rhs)
    g = None
    for c in coeffs:
        if not c:
            continue
        g = c if g is None else P.gcd(g, c)
        if g.is_constant():
            break
    if g is not None and not g.is_constant():
        # at an integer root of the removed content the reduced recurrence is
        # not implied by the original equation, so validity starts above it
        bump = [rt + 1 for rt in _integer_roots(g) if rt >= threshold]
        coeffs = [P.exact_div(c, g) if c else c for c in coeffs]
        if bump:
            threshold = max(bump)
    coeffs = canonical_vector(coeffs)
    if P.leading_sign(coeffs[-1]) < 0:
        coeffs = [-c for c in coeffs]
    return Recurrence(tuple(coeffs), threshold, None, exceptional)


def singular_indices(rec):
    """n ≥ threshold where the leading coefficient vanishes (unroll blockers)."""
    return sorted(rt for rt in _integer_roots(rec.coeffs[-1]) if rt >= rec.threshold)


def required_initials(rec):
    """How many leading terms pin the sequence down completely."""
    need = rec.order + rec.threshold
    for n0 in singular_indices(rec):
        need = max(need, n0 + rec.order + 1)
    return need


def first_failure(rec, terms):
    """None when every equation the terms cover holds exactly, else why not.

    Covered are the windows n ≥ threshold that fit inside the terms and the
    exceptional equations whose indices all lie below len(terms).  This is
    the one exact check of a recurrence against terms.
    """
    r = rec.order
    for n in range(rec.threshold, len(terms) - r):
        if sum(c.eval(n) * terms[n + i] for i, c in enumerate(rec.coeffs)):
            return "window at n = %d fails exactly" % n
    for pairs, rhs_u in rec.exceptional:
        if any(idx >= len(terms) for idx, _ in pairs):
            continue
        if sum(w * terms[idx] for idx, w in pairs) != rhs_u:
            return "low-index equation fails exactly"
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
    while len(terms) < count:
        n = len(terms) - r
        if n < rec.threshold:
            raise ValueError("initial terms stop short of the validity threshold")
        cr = rec.coeffs[-1].eval(n)
        if not cr:
            raise SingularLeadingCoefficient(n)
        acc = Fraction(0)
        for i in range(r):
            acc += Fraction(rec.coeffs[i].eval(n)) * terms[n + i]
        terms.append(P.as_num(-acc / Fraction(cr)))
    return [P.as_num(Fraction(v)) for v in terms[:count]]
