"""C-finite polynomial sequences and their closure operations.

A sequence P_n(x) is given by a fixed-depth recurrence
P_n = p_1(x) P_{n-1} + ... + p_L(x) P_{n-L} together with the first L
polynomials.  Products and powers stay C-finite; the witness recurrence is
read off the characteristic polynomial of the Kronecker product of companion
matrices, which carries its own order bound (minimality is not attempted).

Each sequence keeps one prefix [P_0, ..., P_m] of its terms, grown on demand
by the recurrence: `term` indexes it and `terms` slices it, so asking for
P_0, ..., P_{N-1} in any order costs (N - L)·L polynomial products in all,
and asking again costs none.  The prefix lives as long as the sequence
object, so a long-lived sequence should be copied per use (the pipeline
copies BUILTINS for each job).
"""

from dataclasses import dataclass, field

from .errors import ReverseUnsupportedDegreeProfile
from .linalg import bareiss_det
from . import poly as P
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
        nxt = Poly("x", [])
        for i, p in enumerate(seq.coeffs):
            nxt = nxt + p * out[n - 1 - i]
        out.append(nxt)
    return out


def term(seq, n):
    """P_n(x), from the sequence's cached prefix."""
    if n < 0:
        raise ValueError("term index must be nonnegative")
    return _extend(seq, n + 1)[n]


def terms(seq, count):
    """The list [P_0, ..., P_{count-1}]."""
    return _extend(seq, count)[:count]


def _companion(seq):
    L = seq.order
    A = [[Poly("x", []) for _ in range(L)] for _ in range(L)]
    for i in range(L - 1):
        A[i][i + 1] = Poly.const("x", 1)
    for i, p in enumerate(seq.coeffs):
        A[L - 1][L - 1 - i] = p
    return A


def product(a, b):
    """Sequence with terms P_n·Q_n, order at most order(a)·order(b).

    The recurrence comes from the characteristic polynomial of the Kronecker
    product of the two companion matrices: every linear functional of the
    tensored state vector is annihilated by it, the termwise product included.
    """
    A, B = _companion(a), _companion(b)
    La, Lb = a.order, b.order
    M = La * Lb
    char_rows = []
    for i1 in range(La):
        for i2 in range(Lb):
            row = []
            for j1 in range(La):
                for j2 in range(Lb):
                    e = A[i1][j1] * B[i2][j2]
                    diag = i1 == j1 and i2 == j2
                    row.append(Poly("t", [-e, 1] if diag else [-e]))
            char_rows.append(row)
    chi = bareiss_det(char_rows, "t")
    # chi is monic of degree M, so the shift recurrence is c(n) = -sum d_{M-i} c(n-i)
    new_coeffs = [-chi.coeff(M - i) for i in range(1, M + 1)]
    ta, tb = terms(a, M), terms(b, M)
    new_init = [ta[k] * tb[k] for k in range(M)]
    return CFiniteSeq(tuple(new_coeffs), tuple(new_init))


def power(seq, r):
    """Sequence with terms P_n^r; r = 0 gives the constant sequence 1."""
    if r < 0:
        raise ValueError("exponent must be nonnegative")
    if r == 0:
        return CFiniteSeq((Poly.const("x", 1),), (Poly.const("x", 1),))
    out = seq
    for _ in range(r - 1):
        out = product(out, seq)
    return out


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


def verify_annihilation(seq, term_list):
    """Exact check that the recurrence holds across a supplied term list."""
    L = seq.order
    if len(term_list) <= L:
        raise ValueError("need more terms than the order to check anything")
    for n in range(L, len(term_list)):
        acc = Poly("x", [])
        for i, p in enumerate(seq.coeffs):
            acc = acc + p * term_list[n - 1 - i]
        if not (_as_xpoly(term_list[n]) == acc):
            return False
    return True


x = Poly.variable("x")

BUILTINS = {
    "chebyshev_T": CFiniteSeq((2 * x, -1), (Poly.const("x", 1), x)),
    "chebyshev_U": CFiniteSeq((2 * x, -1), (Poly.const("x", 1), 2 * x)),
}
