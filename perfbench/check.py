"""Independent checks of intrec reports, written without importing intrec.

Everything here is plain Python: polynomials are lists of ints (lowest degree
first), exact values are Fractions, and report expressions are read by a
small arithmetic evaluator over truncated power series.  A check returns None
when the report is right and a one-line reason when it is not.

- Recurrence reports (exact path): a(n) = int P_n K dx is computed from the
  sequence's own recurrence by the power rule, and the reported recurrence
  plus initial terms must reproduce those values.
- Chebyshev-weight reports: int_{-1}^{1} P_n(x)/sqrt(1-x^2) dx is pi times
  a rational number q_n.  The q_n must satisfy the reported recurrence and
  low-index equations exactly, and the reported approximate initial terms
  must match pi q_n to 1e-8.
- Telescoper reports: the identity sum a_i(t) d^i/dt^i F = d/dx (y F) is
  checked exactly at random rational points, with F = R K and R the
  generating function built from the sequence's recurrence.
"""

import json
import math
import random
from fractions import Fraction

# -- report expressions ------------------------------------------------------
#
# Grammar: integers, names, + - * / ^ and parentheses; ^ binds tightest and
# takes a nonnegative integer literal, then unary minus, then * and /, then
# + and -.  Values are truncated power series in one variable (eps) with
# Fraction coefficients; each name is bound to such a series.


def _tokens(text):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            out.append(ch)
            i += 1
        elif ch in "0123456789":
            j = i
            while j < len(text) and text[j] in "0123456789":
                j += 1
            out.append(int(text[i:j]))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(("name", text[i:j]))
            i = j
        else:
            raise ValueError("unexpected character %r in %r" % (ch, text))
    return out


def _s_mul(a, b, k):
    out = [Fraction(0)] * k
    for i, x in enumerate(a):
        if x:
            for j in range(k - i):
                out[i + j] += x * b[j]
    return out


def _s_div(a, b, k):
    if not b[0]:
        raise ZeroDivisionError("series division by a term vanishing at the point")
    out = [Fraction(0)] * k
    for i in range(k):
        acc = a[i] - sum(out[j] * b[i - j] for j in range(i))
        out[i] = acc / b[0]
    return out


class _Evaluator:
    def __init__(self, text, env, k):
        self.toks = _tokens(text) + [None]
        self.pos = 0
        self.env = env
        self.k = k

    def _peek(self):
        return self.toks[self.pos]

    def _take(self):
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def expr(self):
        acc = self.term()
        while self._peek() in ("+", "-"):
            op = self._take()
            rhs = self.term()
            acc = [a + b if op == "+" else a - b for a, b in zip(acc, rhs)]
        return acc

    def term(self):
        acc = self.unary()
        while self._peek() in ("*", "/"):
            op = self._take()
            rhs = self.unary()
            acc = _s_mul(acc, rhs, self.k) if op == "*" else _s_div(acc, rhs, self.k)
        return acc

    def unary(self):
        if self._peek() == "-":
            self._take()
            return [-a for a in self.unary()]
        return self.power()

    def power(self):
        base = self.atom()
        exps = []
        while self._peek() == "^":
            self._take()
            e = self._take()
            if not isinstance(e, int):
                raise ValueError("exponent must be an integer literal")
            exps.append(e)
        if not exps:
            return base
        e = exps[-1]
        for x in reversed(exps[:-1]):
            e = x**e
        out = [Fraction(1)] + [Fraction(0)] * (self.k - 1)
        for _ in range(e):
            out = _s_mul(out, base, self.k)
        return out

    def atom(self):
        tok = self._take()
        if isinstance(tok, int):
            return [Fraction(tok)] + [Fraction(0)] * (self.k - 1)
        if isinstance(tok, tuple):
            return list(self.env[tok[1]])
        if tok == "(":
            val = self.expr()
            if self._take() != ")":
                raise ValueError("unbalanced parentheses")
            return val
        raise ValueError("unexpected token %r" % (tok,))


def series_eval(text, env, k):
    """First k Taylor coefficients of `text`, each name bound to a series."""
    ev = _Evaluator(text, env, k)
    val = ev.expr()
    if ev._peek() is not None:
        raise ValueError("trailing input in %r" % text)
    return val


def value(text, **point):
    """Exact value of `text` with every name bound to a rational number."""
    env = {name: [Fraction(v)] for name, v in point.items()}
    return series_eval(text, env, 1)[0]


def poly(text, var):
    """A polynomial in `var` with Fraction coefficients, lowest degree first."""
    ev = _PolyEvaluator(text, var)
    cs = ev.expr()
    if ev._peek() is not None:
        raise ValueError("trailing input in %r" % text)
    return _strip(cs)


def int_poly(text):
    """A polynomial in x with integer coefficients, lowest degree first."""
    cs = poly(text, "x")
    if any(c.denominator != 1 for c in cs):
        raise ValueError("non-integer coefficient in %r" % text)
    return [int(c) for c in cs]


def _horner(p, v):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * v + c
    return acc


class _PolyEvaluator(_Evaluator):
    """Same grammar over untruncated polynomials; divisors are constants."""

    def __init__(self, text, var):
        super().__init__(text, {var: [Fraction(0), Fraction(1)]}, None)

    def expr(self):
        acc = self.term()
        while self._peek() in ("+", "-"):
            op = self._take()
            rhs = self.term()
            acc = _p_add(acc, rhs if op == "+" else [-c for c in rhs])
        return acc

    def term(self):
        acc = self.unary()
        while self._peek() in ("*", "/"):
            op = self._take()
            rhs = _strip(self.unary())
            if op == "*":
                acc = _p_mul(acc, rhs)
            elif len(rhs) == 1:
                acc = [c / rhs[0] for c in acc]
            else:
                raise ValueError("division by a non-constant polynomial")
        return acc

    def power(self):
        base = self.atom()
        if self._peek() != "^":
            return base
        self._take()
        out = [Fraction(1)]
        for _ in range(self._take()):
            out = _p_mul(out, base)
        return out

    def atom(self):
        tok = self._peek()
        if isinstance(tok, int):
            self._take()
            return [Fraction(tok)]
        return super().atom()


# -- integer polynomials -----------------------------------------------------


def _strip(p):
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def _p_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _strip(out)


def _p_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


_BUILTINS = {
    "chebyshev_T": (["2*x", "-1"], ["1", "x"]),
    "chebyshev_U": (["2*x", "-1"], ["1", "2*x"]),
}


def _recurrence(seq_doc):
    if "builtin" in seq_doc:
        coeffs, init = _BUILTINS[seq_doc["builtin"]]
    else:
        coeffs, init = seq_doc["coeffs"], seq_doc["init"]
    return [int_poly(c) for c in coeffs], [int_poly(q) for q in init]


def _base_polys(seq_doc, count):
    coeffs, init = _recurrence(seq_doc)
    out = list(init[:count])
    while len(out) < count:
        nxt = []
        for i, p in enumerate(coeffs):
            nxt = _p_add(nxt, _p_mul(p, out[-1 - i]))
        out.append(nxt)
    return out


def sequence_polys(job_doc, count):
    """[P_0, ..., P_{count-1}] for the job's sequence and its transforms."""
    polys = _base_polys(job_doc["sequence"], count)
    for tr in job_doc.get("transforms", []):
        if "power" in tr:
            base = polys
            polys = []
            for p in base:
                acc = [1]
                for _ in range(tr["power"]):
                    acc = _p_mul(acc, p)
                polys.append(acc)
        else:
            other = _base_polys(tr["product_with"], count)
            polys = [_p_mul(p, q) for p, q in zip(polys, other)]
    return polys


# -- reference integrals -----------------------------------------------------


def exact_integrals(job_doc, count):
    """a(n) = int_alpha^beta P_n(x) K(x) dx by the power rule, n < count."""
    kern = int_poly(job_doc["kernel"]["polynomial"])
    alpha, beta = (Fraction(v) for v in job_doc["interval"])
    polys = [_p_mul(p, kern) for p in sequence_polys(job_doc, count)]
    top = max(len(p) for p in polys)
    # moments over one common denominator keep the sums in integers
    den = math.lcm(*range(1, top + 1)) * (alpha.denominator * beta.denominator) ** top
    moments = []
    for k in range(1, top + 1):
        diff = beta**k - alpha**k
        moments.append(diff.numerator * (den // (k * diff.denominator)))
    return [Fraction(sum(c * m for c, m in zip(p, moments)), den) for p in polys]


def chebyshev_parts(polys):
    """[q_n] with int_{-1}^{1} P_n(x) / sqrt(1 - x^2) dx = pi * q_n exactly."""
    top = max(len(p) for p in polys)
    # int x^(2m)/sqrt(1-x^2) = pi * C(2m, m) / 4^m; odd moments vanish
    mom = [Fraction(math.comb(k, k // 2), 2**k) if k % 2 == 0 else Fraction(0)
           for k in range(top)]
    return [sum((co * m for co, m in zip(p, mom)), Fraction(0)) for p in polys]


# -- recurrence checks -------------------------------------------------------


def _rec_coeffs(payload):
    return [lambda n, p=poly(s, "n"): _horner(p, n) for s in payload["coeffs"]]


def _window_failure(payload, terms):
    coeffs = _rec_coeffs(payload)
    r = len(coeffs) - 1
    for n in range(payload["threshold"], len(terms) - r):
        if sum(c(n) * terms[n + i] for i, c in enumerate(coeffs)):
            return "recurrence fails on the reference terms at n = %d" % n
    for eq in payload["exceptional"]:
        if any(idx >= len(terms) for idx, _ in eq["pairs"]):
            continue
        lhs = sum(Fraction(w) * terms[idx] for idx, w in eq["pairs"])
        if lhs != Fraction(eq["rhs"]):
            return "low-index equation fails on the reference terms"
    return None


def check_recurrence(payload, terms):
    """The reported recurrence and initial terms reproduce `terms` exactly."""
    init = [Fraction(v) for v in payload["initial_terms"] or []]
    if not init:
        return "no initial terms reported"
    if len(init) > len(terms):
        return "more initial terms than reference terms"
    if init != terms[: len(init)]:
        return "initial terms differ from the reference integrals"
    coeffs = _rec_coeffs(payload)
    r = len(coeffs) - 1
    got = list(init)
    while len(got) < len(terms):
        n = len(got) - r
        if n < payload["threshold"]:
            return "initial terms stop short of the recurrence threshold"
        lead = coeffs[-1](n)
        if not lead:
            return "leading coefficient vanishes at n = %d" % n
        got.append(-sum(coeffs[i](n) * got[n + i] for i in range(r)) / lead)
        if got[-1] != terms[len(got) - 1]:
            return "unrolled term %d differs from the reference" % (len(got) - 1)
    return _window_failure(payload, terms)


def check_exact_report(report, job_doc):
    """Every recurrence in a recurrence/guess/verify report reproduces a(n)."""
    payloads = [report["results"][k] for k in ("recurrence", "guess") if k in report["results"]]
    if not payloads:
        return "report has no recurrence"
    horizon = max(len(p["initial_terms"] or []) for p in payloads) + 12
    terms = exact_integrals(job_doc, horizon)
    for p in payloads:
        why = check_recurrence(p, terms)
        if why:
            return why
    return None


def check_chebyshev_report(report, job_doc, horizon=16):
    """Exact recurrence on the rational parts, approximate seeds to 1e-8."""
    rec = report["results"].get("recurrence")
    if rec is None or "approx_initial_terms" not in rec:
        return "report has no numerically seeded recurrence"
    parts = chebyshev_parts(sequence_polys(job_doc, horizon))
    why = _window_failure(rec, parts)
    if why:
        return why
    for n, s in enumerate(rec["approx_initial_terms"]):
        if abs(float(s) - math.pi * float(parts[n])) > 1e-8:
            return "approximate initial term %d is off by more than 1e-8" % n
    return None


# -- telescoper checks -------------------------------------------------------


def _genfun(seq_doc):
    """(N, D) with sum P_n t^n = N/D, as t-lists of integer x-polynomials."""
    coeffs, init = _recurrence(seq_doc)
    den = [[1]] + [[-c for c in p] for p in coeffs]
    num = []
    for n in range(len(coeffs)):
        c = init[n]
        for i in range(1, n + 1):
            c = _p_add(c, [-v for v in _p_mul(coeffs[i - 1], init[n - i])])
        num.append(c)
    return num, den


def _bivariate_series(tpoly, x, t, k):
    """Series of a t-list of x-polynomials, x and t themselves series."""
    out = [Fraction(0)] * k
    tpow = [Fraction(1)] + [Fraction(0)] * (k - 1)
    for xp in tpoly:
        coef = [Fraction(0)] * k
        xpow = [Fraction(1)] + [Fraction(0)] * (k - 1)
        for c in xp:
            coef = [a + c * b for a, b in zip(coef, xpow)]
            xpow = _s_mul(xpow, x, k)
        out = [a + b for a, b in zip(out, _s_mul(coef, tpow, k))]
        tpow = _s_mul(tpow, t, k)
    return out


def check_telescoper(report, job_doc, points=2, seed=0):
    """sum a_i d^i/dt^i (R K) = d/dx (y R K) at random rational points."""
    tel = report["results"].get("telescoper")
    if tel is None:
        return "report has no telescoper"
    if job_doc.get("transforms"):
        return "telescoper check needs a plain sequence"
    coeffs = tel["coeffs"]
    if not any(c != "0" for c in coeffs):
        return "zero operator"
    if len(coeffs) - 1 > job_doc.get("options", {}).get("max_order", 6):
        return "operator order exceeds max_order"
    num, den = _genfun(job_doc["sequence"])
    kern = int_poly(job_doc["kernel"]["polynomial"])
    rng = random.Random(seed)
    order = len(coeffs) - 1
    done = tries = 0
    while done < points:
        tries += 1
        if tries > 20 * points:
            return "no usable evaluation point"
        x0 = Fraction(rng.randint(-97, 97), rng.randint(1, 13))
        t0 = Fraction(rng.randint(-97, 97), rng.randint(1, 13))
        k = order + 1
        xs = [x0] + [Fraction(0)] * (k - 1)
        ts = ([t0, Fraction(1)] + [Fraction(0)] * k)[:k]
        try:
            r_t = _s_div(_bivariate_series(num, xs, ts, k), _bivariate_series(den, xs, ts, k), k)
            lhs = sum(value(a, t=t0) * math.factorial(i) * r_t[i] for i, a in enumerate(coeffs))
            xe, te = [x0, Fraction(1)], [t0, Fraction(0)]
            r_x = _s_div(_bivariate_series(num, xe, te, 2), _bivariate_series(den, xe, te, 2), 2)
            y = series_eval(tel["certificate"], {"x": xe, "t": te}, 2)
        except ZeroDivisionError:
            continue
        k_x = [Fraction(0), Fraction(0)]
        xpow = [Fraction(1), Fraction(0)]
        for c in kern:
            k_x = [a + c * b for a, b in zip(k_x, xpow)]
            xpow = _s_mul(xpow, xe, 2)
        if lhs * k_x[0] != _s_mul(_s_mul(y, r_x, 2), k_x, 2)[1]:
            return "telescoping identity fails at x = %s, t = %s" % (x0, t0)
        done += 1
    return None


def check_golden(text, golden_bytes):
    return None if text.encode("utf-8") == golden_bytes else "report differs from the golden file"


def parse_report(text):
    try:
        return json.loads(text)
    except ValueError:
        return None
