"""C-finite polynomial sequences and their closure operations.

A sequence P_n(x) is given by a fixed-depth recurrence
P_n = p_1(x) P_{n-1} + ... + p_L(x) P_{n-L} together with the first L
polynomials.  Products and powers stay C-finite.  The recurrence of P_n·Q_n
is the characteristic polynomial of the Kronecker product of the two
companion matrices, whose roots are the products of their roots; it is
built without the matrix, from power sums (Kauers and Paule, The Concrete
Tetrahedron, ch. 4).  Newton's identities give the power sums of a
recurrence's roots, those of a product are the termwise products of its
factors' power sums, and Newton's identities read backwards give the
recurrence of the product.  Its order is exactly order(a)·order(b);
minimality is not attempted.

Each sequence keeps one prefix [P_0, ..., P_m] of its terms, grown on demand
by the recurrence: `term` indexes it and `terms` slices it, so asking for
P_0, ..., P_{N-1} in any order costs (N - L)·L products of coefficient lists
(`_kernels.pmul`) in all, and asking again costs none.  Each step sums its L
products as lists and builds one Poly, the new term.  The prefix lives as
long as the sequence object, so a long-lived sequence should be copied per
use (the pipeline copies BUILTINS for each job).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ReverseUnsupportedDegreeProfile
from . import _kernels as K
from .poly import Poly


def _as_xpoly(v):
    if isinstance(v, Poly):
        if v.var != "x" and not v.is_constant():
            raise ValueError("sequence data must be polynomials in x")
        return v if v.var == "x" else Poly("x", v.coeffs)
    return Poly.const("x", v)


@dataclass(frozen=True)
class CFiniteSeq:
    """Recurrence coefficients p_1..p_L and initial polynomials q_0..q_{L-1}."""

    coeffs: tuple
    init: tuple
    _prefix: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(_as_xpoly(c) for c in self.coeffs)
        init = tuple(_as_xpoly(q) for q in self.init)
        if not coeffs:
            raise ValueError("order must be positive")
        if len(init) != len(coeffs):
            raise ValueError("need exactly order initial polynomials")
        if coeffs[-1].is_zero():
            raise ValueError("p_L must be nonzero (true order)")
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "init", init)
        object.__setattr__(self, "_prefix", list(init))

    @property
    def order(self):
        return len(self.coeffs)


def _extend(seq, count):
    """The cached prefix of seq, extended to at least `count` terms."""
    out = seq._prefix
    while len(out) < count:
        n = len(out)
        acc = []
        for i, p in enumerate(seq.coeffs):
            acc = K.padd(acc, K.pmul(p.coeffs, out[n - 1 - i].coeffs))
        out.append(Poly("x", acc))
    return out


def term(seq, n):
    """P_n(x), from the sequence's cached prefix."""
    if n < 0:
        raise ValueError("term index must be nonnegative")
    return _extend(seq, n + 1)[n]


def terms(seq, count):
    """The list [P_0, ..., P_{count-1}]."""
    return _extend(seq, count)[:count]


def _power_sums(seq, count):
    """s_1, ..., s_count, the power sums of the roots of
    t^L - p_1 t^(L-1) - ... - p_L, by Newton's identities:
    s_k = p_1 s_(k-1) + ... + p_(k-1) s_1 + k·p_k, with p_k = 0 for k > L."""
    ps = seq.coeffs
    sums = []
    for k in range(1, count + 1):
        acc = k * ps[k - 1] if k <= len(ps) else Poly("x", [])
        for i in range(1, min(k, len(ps) + 1)):
            acc = acc + ps[i - 1] * sums[k - i - 1]
        sums.append(acc)
    return sums


def _from_power_sums(sums):
    """The recurrence p_1, ..., p_M whose characteristic polynomial's roots
    have the power sums s_1, ..., s_M: Newton's identities solved for p_k."""
    ps = []
    for k in range(1, len(sums) + 1):
        acc = sums[k - 1]
        for i in range(1, k):
            acc = acc - ps[i - 1] * sums[k - i - 1]
        ps.append(acc * Fraction(1, k))
    return ps


def product(a, b):
    """Sequence with terms P_n·Q_n, of order exactly order(a)·order(b).

    Its characteristic polynomial is that of the Kronecker product of the
    two companion matrices: its k-th power sum is the product of the
    factors' k-th power sums.
    """
    M = a.order * b.order
    sums = [u * v for u, v in zip(_power_sums(a, M), _power_sums(b, M))]
    init = [u * v for u, v in zip(terms(a, M), terms(b, M))]
    return CFiniteSeq(tuple(_from_power_sums(sums)), tuple(init))


def power(seq, r):
    """Sequence with terms P_n^r, of order exactly order(seq)^r.

    Its k-th power sum is the r-th power of seq's, which gives the same
    recurrence as r - 1 chained products; r = 0 gives the constant sequence 1.
    """
    if r < 0:
        raise ValueError("exponent must be nonnegative")
    M = seq.order**r
    sums = [s**r for s in _power_sums(seq, M)]
    init = [q**r for q in terms(seq, M)]
    return CFiniteSeq(tuple(_from_power_sums(sums)), tuple(init))


def _reverse_poly(p, d):
    # x^d * p(1/x); requires deg p <= d
    cs = [0] * (d + 1)
    for k, c in enumerate(p.coeffs):
        cs[d - k] = c
    return Poly("x", cs)


def reverse(seq):
    """Coefficientwise reversal: term(result, n) = x^n · P_n(1/x).

    Only sequences with the linear degree profile deg P_n = n are supported,
    enforced as deg p_i ≤ i and deg q_j = j exactly.
    """
    for i, p in enumerate(seq.coeffs, start=1):
        if p.degree() > i:
            raise ReverseUnsupportedDegreeProfile(
                "deg p_%d = %d exceeds %d" % (i, p.degree(), i)
            )
    for j, q in enumerate(seq.init):
        if q.degree() != j:
            raise ReverseUnsupportedDegreeProfile(
                "deg q_%d = %d, expected exactly %d" % (j, q.degree(), j)
            )
    new_coeffs = [_reverse_poly(p, i) for i, p in enumerate(seq.coeffs, start=1)]
    new_init = [_reverse_poly(q, j) for j, q in enumerate(seq.init)]
    return CFiniteSeq(tuple(new_coeffs), tuple(new_init))


x = Poly.variable("x")

BUILTINS = {
    "chebyshev_T": CFiniteSeq((2 * x, -1), (Poly.const("x", 1), x)),
    "chebyshev_U": CFiniteSeq((2 * x, -1), (Poly.const("x", 1), 2 * x)),
}
