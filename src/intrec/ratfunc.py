"""Rational functions as normalized Poly pairs.

Invariant maintained by every constructor and operation: gcd(num, den) is
trivial, and the denominator is integer-primitive with a positive leading
coefficient (leading inner coefficient for bivariate input).  Two equal
rational functions are therefore structurally identical, so `==` is cheap
and printing is deterministic.  The constructor reduces a fraction to the
cofactors that `poly.gcd` returns alongside the gcd, so no division follows
the gcd.
"""

from fractions import Fraction

from .errors import ZeroDenominator
from . import poly as P
from .poly import Poly


def _as_poly(v, var):
    if isinstance(v, Poly):
        return v
    if isinstance(v, P.NUM_TYPES):
        return Poly.const(var, v)
    raise TypeError("cannot build a rational function from %r" % (v,))


def _pair(num, den, var):
    """Coerce to same-shaped polynomials; raises on a zero denominator."""
    if var is None:
        var = num.var if isinstance(num, Poly) else (den.var if isinstance(den, Poly) else "x")
    num = _as_poly(num, var)
    den = _as_poly(den, var)
    pair = P._xt_promote(num, den)
    if pair is not None:
        num, den = pair
    if den.is_zero():
        raise ZeroDenominator("zero denominator")
    return _unwrap(num, den)


def _unwrap(num, den):
    """A t-free bivariate pair as its x-polynomials, so that equal values
    have one structure and one repr; any other pair as it is."""
    if num.var == "t" and den.var == "t" and num.is_constant() and den.is_constant():
        nc, dc = num.constant(), den.constant()
        if isinstance(nc, Poly) or isinstance(dc, Poly):
            return _as_poly(nc, "x"), _as_poly(dc, "x")
    return num, den


class RatFunc:
    """Immutable normalized quotient of two polynomials in the same variable."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1, var=None):
        num, den = _pair(num, den, var)
        if not num.is_zero():
            # the reduced pair can be t-free where the input was not
            _, num, den = P.gcd(num, den, cofactors=True)
            num, den = _unwrap(num, den)
        self._finish(num, den)

    @classmethod
    def _coprime(cls, num, den):
        """The quotient of a pair already known to be coprime; runs no gcd."""
        self = object.__new__(cls)
        self._finish(*_pair(num, den, None))
        return self

    def _finish(self, num, den):
        """Store a coprime pair with the denominator made primitive and positive."""
        if num.is_zero():
            den = Poly.const(den.var, 1)
        u = P.rational_content(den) * P.leading_sign(den)
        if u != 1:
            inv = Fraction(1, 1) / u
            num = P.scale_poly(num, inv)
            den = P.scale_poly(den, inv)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @property
    def var(self):
        return self.num.var if not self.num.is_constant() else self.den.var

    def is_zero(self):
        return self.num.is_zero()

    def is_polynomial(self):
        return self.den.is_constant()

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (Poly,) + P.NUM_TYPES):
            return RatFunc(other, 1, var=self.var)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, P.NUM_TYPES):
            return RatFunc._coprime(P.scale_poly(self.num, other), self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDenominator("division by the zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if not isinstance(k, int):
            raise ValueError("integer exponent expected")
        if k < 0:
            if self.num.is_zero():
                raise ZeroDenominator("negative power of zero")
            return RatFunc(self.den**-k, self.num**-k)
        return RatFunc(self.num**k, self.den**k)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    __hash__ = None

    def __repr__(self):
        return "RatFunc(%r, %r)" % (self.num, self.den)
