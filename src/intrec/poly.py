"""Dense exact polynomials over the rationals, in a tagged variable.

A `Poly` is a dense, lowest-degree-first coefficient list tagged with its
variable ("x", "t" or "n").  Coefficients are ints, `Fraction`s, or -- for
bivariate polynomials in Q[x][t] -- inner `Poly("x")` values.  Canonical form:
no trailing zeros, integral rationals demoted to int, constant inner
polynomials demoted to plain numbers.  Values are never mutated after
construction, so they can be shared freely.

Every polynomial gcd, univariate or in Q[x][t], clears denominators and runs
the one heuristic gcd `_kernels.gcd_int` (GCDHEU: evaluate, take the integer
or Z[x] gcd of the images, rebuild by balanced digits), which accepts a
candidate only after it divides both inputs exactly; its docstring says why
that gate makes the result the gcd and why the loop ends.  `gcd` can return
the two quotients of that division as cofactors, which is how `RatFunc`
reduces a fraction.  No factorization is used anywhere.

Division is exact only: `exact_div` divides the primitive parts of two
univariate polynomials over Z with `_kernels.exactdiv_int` and scales by the
ratio of their contents, and it divides any polynomial by a nonzero rational
constant.  Q[x][t] polynomials are divided only inside the gcd, whose
cofactors are the quotients.

`cleared` is the one routine that turns rationals into integers over their
least common denominator; it reads `.numerator` and `.denominator`, so it
builds no Fraction.  `cleared_rows` applies it to rows taken together, and
`rational_content` is the gcd of its integers over that denominator.
`int_rows` and `from_rows` convert Q[x][t] polynomials to and from the
integer rows of `_kernels`, on which the telescoper does its arithmetic.

`sturm` counts the distinct real roots of a univariate polynomial in an
interval exactly, with a Sturm sequence: `ode2rec` finds integer roots by
bisecting with it, and job validation finds kernel poles on the interval.
"""

from fractions import Fraction
from math import gcd as _igcd, lcm as _ilcm

from . import _kernels as K

NUM_TYPES = (int, Fraction)


def as_num(v):
    """Canonical scalar: Fractions with denominator 1 become ints."""
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    if isinstance(v, int):
        return int(v)
    raise TypeError("not a rational scalar: %r" % (v,))


def num_div(a, b):
    if not b:
        raise ZeroDivisionError("rational division by zero")
    return as_num(Fraction(a, b))


def _canon_coeff(c):
    if type(c) is int:
        return c
    if isinstance(c, Poly):
        if c.degree() <= 0:
            return c.constant()
        return c
    return as_num(c)


def _xt_promote(a, b):
    """Lift the x-side of a nonconstant x/t pair into Q[x][t]; None if n/a."""
    if not (isinstance(a, Poly) and isinstance(b, Poly)):
        return None
    if a.var == b.var or {a.var, b.var} != {"x", "t"}:
        return None
    # a t-constant wrapper around an x-polynomial unwraps to the x side
    if a.var == "t" and a.is_constant() and isinstance(a.constant(), Poly):
        return a.constant(), b
    if b.var == "t" and b.is_constant() and isinstance(b.constant(), Poly):
        return a, b.constant()
    if a.is_constant() or b.is_constant():
        return None
    if a.var == "x":
        return Poly("t", [a]), b
    return a, Poly("t", [b])


class Poly:
    """Immutable dense polynomial; see module docstring for conventions."""

    __slots__ = ("var", "coeffs")

    def __init__(self, var, coeffs):
        if var not in ("x", "t", "n"):
            raise ValueError("unsupported variable %r" % var)
        cs = [_canon_coeff(c) for c in coeffs]
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "coeffs", K.strip(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, var, value):
        return cls(var, [value])

    @classmethod
    def variable(cls, var):
        return cls(var, [0, 1])

    # -- inspection ---------------------------------------------------------

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def lc(self):
        return self.coeffs[-1] if self.coeffs else 0

    def is_constant(self):
        return len(self.coeffs) <= 1

    def constant(self):
        """Value of a constant polynomial (0 for the zero polynomial)."""
        if len(self.coeffs) > 1:
            raise ValueError("polynomial is not constant")
        return self.coeffs[0] if self.coeffs else 0

    def coeff(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def is_bivariate(self):
        return any(isinstance(c, Poly) for c in self.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.var == self.var or other.is_constant() or self.is_constant():
                return other.coeffs
            raise ValueError("variable mismatch: %s vs %s" % (self.var, other.var))
        if isinstance(other, NUM_TYPES):
            return [as_num(other)] if other else []
        return None

    def _rewrap(self, other, cs):
        var = self.var
        if isinstance(other, Poly) and self.is_constant() and not other.is_constant():
            var = other.var
        return Poly(var, cs)

    def __add__(self, other):
        pair = _xt_promote(self, other)
        if pair is not None:
            return pair[0] + pair[1]
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self._rewrap(other, K.padd(self.coeffs, oc))

    __radd__ = __add__

    def __sub__(self, other):
        pair = _xt_promote(self, other)
        if pair is not None:
            return pair[0] - pair[1]
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self._rewrap(other, K.psub(self.coeffs, oc))

    def __rsub__(self, other):
        pair = _xt_promote(other, self)
        if pair is not None:
            return pair[0] - pair[1]
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        return self._rewrap(other, K.psub(oc, self.coeffs))

    def __neg__(self):
        return Poly(self.var, K.pneg(self.coeffs))

    def __mul__(self, other):
        pair = _xt_promote(self, other)
        if pair is not None:
            return pair[0] * pair[1]
        oc = self._coerce(other)
        if oc is None:
            return NotImplemented
        if isinstance(other, NUM_TYPES) or (isinstance(other, Poly) and other.is_constant()):
            c = oc[0] if oc else 0
            return Poly(self.var, K.pscale(self.coeffs, c))
        return self._rewrap(other, K.pmul(self.coeffs, oc))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.const(self.var, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Poly):
            if self.var != other.var:
                if self.is_constant():
                    return self.constant() == other
                if other.is_constant():
                    return other.constant() == self
                return False
            return self.coeffs == other.coeffs
        if isinstance(other, NUM_TYPES):
            return self.is_constant() and self.constant() == other
        return NotImplemented

    __hash__ = None

    # -- calculus & evaluation ----------------------------------------------

    def eval(self, v):
        """Substitute the polynomial's own variable."""
        return _canon_coeff(K.peval(self.coeffs, v))

    def deriv(self):
        cs = [i * self.coeffs[i] for i in range(1, len(self.coeffs))]
        return Poly(self.var, cs)

    def map_coeffs(self, f):
        return Poly(self.var, [f(c) for c in self.coeffs])

    def monic(self):
        if not self.coeffs:
            return self
        lead = self.lc()
        if isinstance(lead, Poly):
            raise ValueError("monic() requires rational coefficients")
        if lead == 1:
            return self
        inv = Fraction(1, 1) / Fraction(lead)
        return Poly(self.var, K.pscale(self.coeffs, inv))

    def __repr__(self):
        return "Poly(%r, %r)" % (self.var, self.coeffs)


# -- scalar content ----------------------------------------------------------


def cleared(values):
    """(ints, L): L > 0 the least common denominator of the rationals in
    values and ints their multiples by L.  Reads only .numerator and
    .denominator, which ints have too, so it builds no Fraction."""
    L = _ilcm(*[v.denominator for v in values])
    if L == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (L // v.denominator) for v in values], L


def leaves(p):
    """The rational coefficients of p, those of its inner polynomials included."""
    return [v for c in p.coeffs for v in (c.coeffs if isinstance(c, Poly) else (c,))]


def rational_content(p):
    """Positive rational c with p/c integer-primitive (0 for the zero poly)."""
    ints, L = cleared(leaves(p))
    return Fraction(_igcd(*ints), L)


def leading_sign(p):
    """Sign of the leading rational coefficient (of the leading inner poly)."""
    c = p.lc()
    while isinstance(c, Poly):
        c = c.lc()
    return -1 if c < 0 else (1 if c > 0 else 0)


def scale_poly(p, c):
    if isinstance(c, Poly):
        raise TypeError("scalar expected")
    return p.map_coeffs(lambda v: v * c if not isinstance(v, Poly) else v.map_coeffs(lambda w: w * c))


# -- division and gcd --------------------------------------------------------


def exact_div(a, b):
    """a / b when b divides a exactly: univariate, or any polynomial over a
    nonzero rational constant.

    By Gauss's lemma the quotient of the primitive parts lies in Z[x], so
    it is one integer division, scaled by the ratio of the contents.
    """
    if b.is_constant() and not b.is_bivariate():
        return a * num_div(1, b.constant())
    if a.is_bivariate() or b.is_bivariate():
        raise ValueError("exact_div is univariate-only")
    if a.var != b.var:
        raise ValueError("variable mismatch in polynomial division")
    (ia, la), (ib, lb) = cleared(a.coeffs), cleared(b.coeffs)
    ca, cb = _igcd(*ia) or 1, _igcd(*ib)
    q = K.exactdiv_int([v // ca for v in ia], [v // cb for v in ib])
    return Poly(a.var, q) * Fraction(ca * lb, la * cb)


def cleared_rows(rows):
    """(int rows, L): `cleared` on rows of rationals taken together."""
    flat, L = cleared([v for r in rows for v in r])
    out, i = [], 0
    for r in rows:
        out.append(flat[i:i + len(r)])
        i += len(r)
    return out, L


def int_rows(p):
    """(rows, L): L·p as integer rows (t-list of Z[x] int lists), L > 0 the
    lcm of p's denominators.  A polynomial in x alone is one row."""
    if not p.coeffs:
        return [], 1
    if p.var == "x":
        return cleared_rows([p.coeffs])
    return cleared_rows([c.coeffs if isinstance(c, Poly) else ([c] if c else [])
                         for c in p.coeffs])


def from_rows(rows, den=1):
    """The Q[x][t] polynomial whose integer rows, divided by den, are rows."""
    p = Poly("t", [Poly("x", r) for r in rows])
    return p if den == 1 else scale_poly(p, Fraction(1, den))


def _gcd_bivariate(a, b):
    """(g, a/g, b/g) in Q[x][t]: `K.gcd_int` on the denominator-cleared rows."""
    (ra, la), (rb, lb) = int_rows(a), int_rows(b)
    h, qa, qb = K.gcd_int(ra, rb)
    return from_rows(h), from_rows(qa, la), from_rows(qb, lb)


def gcd(a, b, cofactors=False):
    """Canonical gcd: monic for univariate over Q, unit-normalized for Q[x][t].

    gcd(a, 0) is the normalized form of a; gcd(0, 0) = 0; a nonzero rational
    constant has gcd 1 with anything, returned without running `K.gcd_int`.
    With cofactors=True, returns (g, a/g, b/g), the cofactors taken from
    `K.gcd_int` where it runs; a and b must not both be zero.
    """
    if a.is_zero() or b.is_zero():
        c = b if a.is_zero() else a
        if c.is_zero():
            if cofactors:
                raise ZeroDivisionError("gcd(0, 0) has no cofactors")
            return Poly(a.var, [])
        # c is a rational unit times g, and that unit is its cofactor; the
        # zero argument is its own
        unit = rational_content(c) * leading_sign(c) if c.is_bivariate() else c.lc()
        g = scale_poly(c, num_div(1, unit))
        if not cofactors:
            return g
        u = Poly(c.var, [unit])
        return (g, u, b) if c is a else (g, a, u)
    if a.var != b.var or any(p.is_constant() and not isinstance(p.constant(), Poly)
                             for p in (a, b)):
        if not (a.is_constant() or b.is_constant()):
            raise ValueError("variable mismatch in gcd")
        one = Poly(a.var if not a.is_constant() else b.var, [1])
        return (one, a, b) if cofactors else one
    if a.is_bivariate() or b.is_bivariate():
        got = _gcd_bivariate(a, b)
        return got if cofactors else got[0]
    ia, la = cleared(a.coeffs)
    ib, lb = cleared(b.coeffs)
    h, qa, qb = K.gcd_int(ia, ib)
    g = Poly(a.var, h).monic()
    if not cofactors:
        return g
    return g, Poly(a.var, qa) * Fraction(h[-1], la), Poly(b.var, qb) * Fraction(h[-1], lb)


def content(polys):
    """gcd of the nonzero entries, stopping at the first constant; None if all are zero.

    A single nonzero entry is returned as it is, not normalized.
    """
    g = None
    for p in polys:
        if not p:
            continue
        g = p if g is None else gcd(g, p)
        if g.is_constant():
            break
    return g


# -- real roots --------------------------------------------------------------


def sturm(p):
    """(q, variations) for a nonconstant univariate p over Q.

    q is the squarefree part of p, as integer coefficients; variations(v)
    counts the sign changes of its Sturm sequence at a rational v, zeros
    dropped.  For lo < hi, variations(lo) − variations(hi) is the number of
    distinct real roots of p in (lo, hi] (Sturm's theorem).

    The sequence is built over Z: each remainder is taken after scaling by a
    power of |lc| and made primitive, so it is a positive multiple of the
    one over Q, with the same signs, and its coefficients stay as small as
    those of the subresultants instead of growing with every division.
    """
    a = cleared(exact_div(p, gcd(p, p.deriv())).coeffs)[0]
    chain = [a, [k * c for k, c in enumerate(a)][1:]]
    while len(chain[-1]) > 1:
        r, b = list(chain[-2]), chain[-1]
        db, m, s = len(b) - 1, abs(b[-1]), 1 if b[-1] > 0 else -1
        for off in range(len(r) - 1 - db, -1, -1):
            # m·r − c·x^off·b with c = s·(top of r): the top cancels
            c = s * r.pop()
            r = [m * v for v in r]
            for j in range(db):
                r[off + j] -= c * b[j]
        r = K.strip(r)
        g = _igcd(*r) if r else 1
        chain.append([-v // g for v in r])

    def variations(v):
        signs = [s > 0 for s in (K.peval_at(c, v.numerator, v.denominator) for c in chain) if s]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    return chain[0], variations


# -- bivariate helpers -------------------------------------------------------


def x_degree(p):
    """Max degree in the inner variable of a Q[x][t] polynomial."""
    if p.var == "x":
        return p.degree()
    d = -1
    for c in p.coeffs:
        cd = c.degree() if isinstance(c, Poly) else (0 if c else -1)
        if cd > d:
            d = cd
    return d
