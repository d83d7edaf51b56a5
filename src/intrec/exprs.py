"""Expression text: parsing into rational functions and deterministic printing.

The grammar is tiny and LL(1): integers, named variables, + - * / ^ with the
usual precedence (^ binds tightest, then unary minus, then * and /, then
+ and -), parentheses, and nonnegative integer exponents only.  Implicit
multiplication is rejected rather than guessed.  Lowering refuses, with a
ParseError, any exponent and any intermediate degree above MAX_DEGREE, and
any intermediate coefficient size above MAX_BITS, before the arithmetic runs.
Printing is the inverse contract: every printed polynomial or rational
function re-parses to an equal value as long as its re-parsing stays within
those limits, and output is byte-stable across runs.

Display convention: polynomials in t print lowest power first (series
style), polynomials in x or n print highest power first.
"""

from fractions import Fraction
from math import lcm, log2

from .errors import DivisionByZeroExpr, ParseError, UnknownVariable, ZeroDenominator
from . import poly as P
from .poly import Poly
from .ratfunc import RatFunc

# Largest exponent (a right-associative tower such as x^2^3 evaluated) and
# largest degree of any numerator or denominator built while lowering, where a
# Q[x][t] polynomial counts its degree in t plus its degree in x.
# (1+x)^1000 lowers in about 0.3 s.
MAX_DEGREE = 1000

# Largest coefficient size, in bits, of an integer literal and of any value
# built while lowering: the log2 of the 1-norm (sum of absolute coefficients)
# of its integer numerator and denominator once every denominator is cleared,
# which bounds the bit size of every coefficient.  (1+x)^1000 has 1000 bits;
# (3+x)^1000 has 2000 and lowers in 0.7 s, (x/3+1/5)^500 has 1950 and takes
# 1.8 s (rational coefficients are slower).
MAX_BITS = 2048
# longest integer literal, in decimal digits, that can stay within MAX_BITS
_MAX_DIGITS = len(str(2**MAX_BITS))

# -- tokenizer ---------------------------------------------------------------

_OPS = set("+-*/^()")
# ASCII only: str.isdigit accepts superscripts etc. that int() rejects
_DIGITS = set("0123456789")
_LETTERS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")


def _tokens(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPS:
            out.append((ch, ch, i))
            i += 1
            continue
        if ch in _DIGITS:
            j = i
            while j < len(text) and text[j] in _DIGITS:
                j += 1
            digits = text[i:j].lstrip("0") or "0"
            if len(digits) > _MAX_DIGITS or int(digits).bit_length() > MAX_BITS:
                raise ParseError("integer literal exceeds the limit of %d bits" % MAX_BITS, i)
            out.append(("int", int(digits), i))
            i = j
            continue
        if ch in _LETTERS:
            j = i
            while j < len(text) and (text[j] in _LETTERS or text[j] in _DIGITS):
                j += 1
            out.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError("unexpected character %r" % ch, i)
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, text, allowed):
        self.toks = _tokens(text)
        self.pos = 0
        self.allowed = allowed

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind=None):
        tok = self.toks[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError("expected %s, found %r" % (kind, tok[1]), tok[2])
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            rhs = self.term()
            node = ("add" if op == "+" else "sub", node, rhs, pos)
        return node

    def term(self):
        node = self.unary()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.unary()
            node = ("mul" if op == "*" else "div", node, rhs, pos)
        return node

    def unary(self):
        if self.peek()[0] == "-":
            self.take()
            return ("neg", self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        op_pos = self.take()[2]
        pos = self.peek()[2]
        exps = [self._exponent()]
        while self.peek()[0] == "^":
            self.take()
            exps.append(self._exponent())
        too_large = ParseError("exponent exceeds the limit %d" % MAX_DEGREE, pos)
        k = exps[-1]
        for e in reversed(exps[:-1]):
            # e >= 2 and k >= bit_length(MAX_DEGREE) give e**k > MAX_DEGREE:
            # refuse a huge tower before computing it
            if e > 1 and k >= MAX_DEGREE.bit_length():
                raise too_large
            k = e**k
        if k > MAX_DEGREE:
            raise too_large
        return ("pow", base, k, op_pos)

    def _exponent(self):
        kind, val, pos = self.peek()
        if kind != "int":
            raise ParseError("exponent must be a nonnegative integer literal", pos)
        self.take()
        return val

    def atom(self):
        kind, val, pos = self.take()
        if kind == "int":
            return ("int", val)
        if kind == "name":
            if val not in self.allowed:
                raise UnknownVariable(val, pos)
            return ("var", val)
        if kind == "(":
            node = self.expr()
            self.take(")")
            return node
        raise ParseError("unexpected %s" % ("end of input" if kind == "end" else repr(val)), pos)


def parse(text, allowed_vars):
    """AST for `text`; raises ParseError / UnknownVariable with positions."""
    p = _Parser(text, set(allowed_vars))
    node = p.expr()
    tok = p.peek()
    if tok[0] != "end":
        raise ParseError("trailing input starting at %r" % (tok[1],), tok[2])
    return node


def _poly_size(p):
    """Degree in the main variable, plus the degree in x of a Q[x][t]
    polynomial: additive under products, at most the maximum under sums."""
    d = max(p.degree(), 0)
    return d + max(P.x_degree(p), 0) if p.var == "t" else d


def _sizes(v):
    if not isinstance(v, RatFunc):
        return 0, 0
    return _poly_size(v.num), _poly_size(v.den)


def _result_size(tag, a, b):
    """Upper bound on the sizes of the numerator and denominator of `a op b`."""
    (an, ad), (bn, bd) = _sizes(a), _sizes(b)
    if tag == "pow":
        return b * max(an, ad)
    if tag == "mul":
        return max(an + bn, ad + bd)
    if tag == "div":
        return max(an + bd, ad + bn)
    return max(an + bd, bn + ad, ad + bd)


def _int_norm(p):
    """(||L·p||_1, L) with L the least common denominator of p's coefficients."""
    leaves = []
    P._rational_leaves(p, leaves)
    den = lcm(*(c.denominator for c in leaves))
    return sum(abs(c.numerator) * (den // c.denominator) for c in leaves), den


def _norms(v):
    """1-norms of integer polynomials A and B with v = A/B."""
    if not isinstance(v, RatFunc):
        f = Fraction(v)
        return abs(f.numerator), f.denominator
    (a, la), (b, lb) = _int_norm(v.num), _int_norm(v.den)
    return a * lb, b * la


def _result_bits(tag, a, b):
    """Upper bound on the coefficient bits of `a op b` (see MAX_BITS), before
    common factors cancel."""
    an, ad = _norms(a)
    if tag == "pow":
        return b * log2(max(an, ad))
    bn, bd = _norms(b)
    if tag == "mul":
        num, den = an * bn, ad * bd
    elif tag == "div":
        num, den = an * bd, ad * bn
    else:
        num, den = an * bd + bn * ad, ad * bd
    return log2(max(num, den, 1))


def lower(node, default_var="x"):
    """Evaluate an AST in exact rational-function arithmetic.

    Each power, product, quotient and sum is refused with a ParseError at its
    operator when its result could exceed degree MAX_DEGREE or coefficient
    size MAX_BITS.
    """

    def walk(nd):
        tag = nd[0]
        if tag == "int":
            return nd[1]
        if tag == "var":
            return RatFunc(Poly.variable(nd[1]))
        if tag == "neg":
            return -walk(nd[1])
        a = walk(nd[1])
        b = nd[2] if tag == "pow" else walk(nd[2])
        if _result_size(tag, a, b) > MAX_DEGREE:
            raise ParseError("degree exceeds the limit %d" % MAX_DEGREE, nd[3])
        if _result_bits(tag, a, b) > MAX_BITS:
            raise ParseError("coefficients exceed the limit of %d bits" % MAX_BITS, nd[3])
        if tag == "pow":
            return a**b
        if tag == "add":
            return a + b
        if tag == "sub":
            return a - b
        if tag == "mul":
            return a * b
        try:
            if isinstance(a, P.NUM_TYPES) and isinstance(b, P.NUM_TYPES):
                return P.num_div(a, b)
            return a / b
        except (ZeroDenominator, ZeroDivisionError):
            raise DivisionByZeroExpr("division by an expression that is identically zero")

    v = walk(node)
    if not isinstance(v, RatFunc):
        v = RatFunc(Poly.const(default_var, v))
    return v


def parse_ratfunc(text, allowed_vars, default_var="x"):
    return lower(parse(text, allowed_vars), default_var)


# -- printing ----------------------------------------------------------------


def fmt_rational(v):
    return str(v)


def _fmt_monomial(coeff, var, k, inner=None):
    """One term "c*v^k"; returns (sign, body) with sign in {+1, -1}."""
    sign = 1
    if inner is not None:
        body, single = inner
        if k == 0:
            return sign, body if single else "(%s)" % body
        head = body if single else "(%s)" % body
        if body == "1" and single:
            head = None
    else:
        if isinstance(coeff, P.NUM_TYPES) and coeff < 0:
            sign = -1
            coeff = -coeff
        head = None if coeff == 1 else fmt_rational(coeff)
    if k == 0:
        return sign, head if head is not None else "1"
    vp = var if k == 1 else "%s^%d" % (var, k)
    return sign, vp if head is None else "%s*%s" % (head, vp)


def fmt_poly(p):
    """Deterministic text form; ascending for t, descending for x and n."""
    if p.is_zero():
        return "0"
    indices = range(len(p.coeffs)) if p.var == "t" else range(len(p.coeffs) - 1, -1, -1)
    parts = []
    for k in indices:
        c = p.coeffs[k]
        if not c:
            continue
        if isinstance(c, Poly):
            body = fmt_poly(c)
            single = not _has_top_pm(body)
            if body.startswith("-") and single:
                sign, piece = _fmt_monomial(None, p.var, k, inner=(body[1:], True))
                sign = -sign
            else:
                sign, piece = _fmt_monomial(None, p.var, k, inner=(body, single))
        else:
            sign, piece = _fmt_monomial(c, p.var, k)
        parts.append((sign, piece))
    out = []
    for i, (sign, piece) in enumerate(parts):
        if i == 0:
            out.append("-" + piece if sign < 0 else piece)
        else:
            out.append(("-" if sign < 0 else "+") + piece)
    return "".join(out)


def _has_top_pm(s):
    depth = 0
    for i, ch in enumerate(s):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and i > 0:
            return True
    return False


def fmt_ratfunc(r):
    num = fmt_poly(r.num)
    if r.den.is_constant() and r.den.constant() == 1:
        return num
    den = fmt_poly(r.den)
    ns = "(%s)" % num if _has_top_pm(num) else num
    ds = den if _single_factor(den) else "(%s)" % den
    return "%s/%s" % (ns, ds)


def _single_factor(s):
    # safe as a division's right operand only if a lone atom (no operators)
    return all(op not in s for op in "+-*/^(")
