"""Job validation, pipeline orchestration, and report assembly.

A job is a single structured document naming a sequence, optional
transforms, a kernel, an interval, and a task.  run() executes exactly the
stages the task needs and records every check it performs in the report's
verification block; a claim never reaches the report without either an
exact verification or an explicitly approximate one in a field tagged
"approx".  Without exact values, each equation of a recurrence is judged by
its relative residual on quadrature values.  Stage errors are wrapped in
StageFailure so callers can name the failing stage and pick an exit code.
"""

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import log2

from mpmath import mp

from . import cfinite as cf
from . import exprs
from . import ode2rec as o2r
from . import oracle
from .errors import (
    BoundaryNotEvaluable,
    IntrecError,
    InvalidJob,
    NoGuessFound,
    RecurrenceRefuted,
    StageFailure,
)
from .genfun import generating_function, taylor_coeffs
from .guess import MARGIN, guess_precursive
from . import poly as P
from .poly import Poly
from .ratfunc import RatFunc
from .telescope import Kernel, _vanish_order, boundary_rhs, telescope, verify_certificate

_TASKS = ("genfun", "terms", "telescope", "recurrence", "guess", "verify")

# recurrence tasks re-check this many oracle terms; verify cross-checks more
_ANNIHILATION_TERMS = 31
_MUTUAL_TERMS = 51

# largest options.precision accepted: one tanh-sinh pass over 11 terms of
# T_n^2 against the Chebyshev weight on [-1/2, 1/3] costs about 0.002-0.004 s
# per term at 30 digits and 0.008-0.013 s at 100 (a fresh process, nodes
# included; 2-vCPU VM, Python 3.11)
MAX_PRECISION = 100

# largest value of each option.  max_order, max_degree and margin size the
# guesser's search.  Guessing T_n·U_n against 2x²−x+3 on [−1/2, 3/4] exits 3
# after about 0.02 s at the defaults (6, 4, 8) and finds its recurrence in
# 0.04–0.07 s at (8, 6, 8) and 0.14–0.23 s at these limits; T_n³ there
# exhausts these limits and exits 3 after 0.35–0.55 s (in-process, best of 4,
# 2-vCPU VM, Python 3.11)
MAX_OPTIONS = {"max_order": 10, "max_degree": 10, "precision": MAX_PRECISION, "margin": 32}

# largest C-finite order a power or product transform may build.  Orders
# multiply, so {"power": r} of chebyshev_T has order 2^r: built in 0.007 s
# at order 16, 0.07 s at 32 and 1.1 s at 64 (2-vCPU VM, Python 3.11)
MAX_SEQUENCE_ORDER = 32

# largest count for task terms: the report grows with the cube of the count
# (chebyshev_T: 500 terms in 0.4 s and 6.6 MB, 1000 in 2.4 s and 52 MB)
MAX_COUNT = 500


@dataclass(frozen=True)
class Options:
    max_order: int = 6
    max_degree: int = 4
    precision: int = 30
    margin: int = MARGIN


@dataclass(frozen=True)
class Job:
    sequence: object
    kernel: object
    alpha: object
    beta: object
    task: str
    count: int
    options: Options
    echo: dict


@dataclass
class Report:
    task: str
    job: dict
    results: dict = field(default_factory=dict)
    verifications: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def check(self, name, ok, detail="", **extra):
        entry = {"name": name, "pass": bool(ok)}
        if detail:
            entry["detail"] = detail
        entry.update(extra)
        self.verifications.append(entry)
        return ok

    @property
    def ok(self):
        return all(v["pass"] for v in self.verifications)

    @property
    def exit_code(self):
        return 0 if self.ok else 1


# -- job construction --------------------------------------------------------


def _is_int(v):
    """Whether v is an integer; JSON true and false load as bools, which are ints."""
    return isinstance(v, int) and not isinstance(v, bool)


def _rational(v, what):
    if isinstance(v, float):
        raise InvalidJob("%s: floats are not accepted, use a rational string" % what)
    try:
        r = Fraction(str(v))
    except (ValueError, ZeroDivisionError):
        raise InvalidJob("%s: not a rational: %r" % (what, v))
    if max(r.numerator.bit_length(), r.denominator.bit_length()) > exprs.MAX_BITS:
        raise InvalidJob("%s: exceeds the limit of %d bits" % (what, exprs.MAX_BITS))
    return r


def _expr(v, what, allowed):
    if not isinstance(v, str):
        raise InvalidJob("%s: expected an expression string, got %r" % (what, v))
    try:
        return exprs.parse_ratfunc(v, allowed)
    except IntrecError as e:
        raise InvalidJob("%s: %s" % (what, e))


def _expr_poly(v, what):
    r = _expr(v, what, ("x",))
    if not r.is_polynomial():
        raise InvalidJob("%s: must be a polynomial in x: %r" % (what, v))
    return r.num


def _check_keys(doc, allowed, what):
    extra = sorted(set(doc) - set(allowed))
    if extra:
        raise InvalidJob("%s: unknown fields %s" % (what, ", ".join(extra)))


def _build_sequence(doc, what="sequence"):
    if not isinstance(doc, dict):
        raise InvalidJob("%s: expected an object" % what)
    if "builtin" in doc:
        _check_keys(doc, ("builtin",), what)
        name = doc["builtin"]
        if not isinstance(name, str) or name not in cf.BUILTINS:
            raise InvalidJob(
                "%s: unknown builtin %r (available: %s)"
                % (what, name, ", ".join(sorted(cf.BUILTINS)))
            )
        # a copy per job, so the term prefix it caches is freed with the job
        builtin = cf.BUILTINS[name]
        return cf.CFiniteSeq(builtin.coeffs, builtin.init), {"builtin": name}
    _check_keys(doc, ("order", "coeffs", "init"), what)
    for key in ("coeffs", "init"):
        if key not in doc or not isinstance(doc[key], (list, tuple)):
            raise InvalidJob("%s: missing or non-list field %r" % (what, key))
    coeffs = tuple(
        _expr_poly(s, "%s.coeffs[%d]" % (what, i)) for i, s in enumerate(doc["coeffs"])
    )
    init = tuple(
        _expr_poly(s, "%s.init[%d]" % (what, i)) for i, s in enumerate(doc["init"])
    )
    if "order" in doc and not _is_int(doc["order"]):
        raise InvalidJob("%s.order: expected an integer" % what)
    if "order" in doc and doc["order"] != len(coeffs):
        raise InvalidJob(
            "%s: order %r does not match %d coefficients"
            % (what, doc["order"], len(coeffs))
        )
    try:
        seq = cf.CFiniteSeq(coeffs, init)
    except ValueError as e:
        raise InvalidJob("%s: %s" % (what, e))
    echo = {
        "order": seq.order,
        "coeffs": [_fmt_value(c) for c in coeffs],
        "init": [_fmt_value(c) for c in init],
    }
    return seq, echo


def _check_built_order(what, order):
    if order > MAX_SEQUENCE_ORDER:
        raise InvalidJob(
            "%s: the result would have order %d, above the limit %d"
            % (what, order, MAX_SEQUENCE_ORDER)
        )


def _apply_transforms(seq, items):
    echo = []
    for i, item in enumerate(items):
        what = "transforms[%d]" % i
        try:
            if item == "reverse" or item == {"reverse": True}:
                seq = cf.reverse(seq)
                echo.append("reverse")
            elif isinstance(item, dict) and set(item) == {"power"}:
                r = item["power"]
                if not _is_int(r) or r < 0:
                    raise InvalidJob("%s: power must be a nonnegative integer" % what)
                # bound r itself: order 1 stays order 1, but the terms' degrees grow with r
                if r > MAX_SEQUENCE_ORDER:
                    raise InvalidJob("%s: power at most %d" % (what, MAX_SEQUENCE_ORDER))
                _check_built_order(what, seq.order**r if r else 1)
                seq = cf.power(seq, r)
                echo.append({"power": r})
            elif isinstance(item, dict) and set(item) == {"product_with"}:
                other, sub_echo = _build_sequence(item["product_with"], what)
                _check_built_order(what, seq.order * other.order)
                seq = cf.product(seq, other)
                echo.append({"product_with": sub_echo})
            else:
                raise InvalidJob("%s: unknown transform %r" % (what, item))
        except InvalidJob:
            raise
        except (IntrecError, ValueError) as e:
            raise InvalidJob("%s: %s" % (what, e))
    return seq, echo


def _build_kernel(doc):
    if not isinstance(doc, dict):
        raise InvalidJob("kernel: expected an object")
    kinds = [k for k in ("polynomial", "rational", "logderiv") if k in doc]
    if len(kinds) != 1:
        raise InvalidJob(
            "kernel: exactly one of polynomial, rational, logderiv is required"
        )
    kind = kinds[0]
    zero = RatFunc(Poly.const("x", 0))
    one = RatFunc(Poly.const("x", 1))
    if kind == "polynomial":
        _check_keys(doc, ("polynomial",), "kernel")
        p = _expr_poly(doc["polynomial"], "kernel.polynomial")
        kern = Kernel(RatFunc(p), zero)
        echo = {"polynomial": _fmt_value(p)}
    elif kind == "rational":
        _check_keys(doc, ("rational",), "kernel")
        r = _expr(doc["rational"], "kernel.rational", ("x",))
        kern = Kernel(r, zero)
        echo = {"rational": exprs.fmt_ratfunc(r)}
    else:
        _check_keys(doc, ("logderiv", "form"), "kernel")
        rho = _expr(doc["logderiv"], "kernel.logderiv", ("x",))
        kern = Kernel(one, rho)
        echo = {"logderiv": exprs.fmt_ratfunc(rho)}
        if "form" in doc:
            if doc["form"] != kern.form:
                raise InvalidJob(
                    "kernel.form: tag %r does not match the log-derivative"
                    " (recognized: %r)" % (doc["form"], kern.form)
                )
            echo["form"] = doc["form"]
    if kern.prefactor.is_zero():
        raise InvalidJob("kernel.%s: the kernel is zero, so every integral is 0" % kind)
    return kern, echo


def _check_no_pole(kern, alpha, beta):
    """Refuse a kernel that is singular on the interval of integration.

    A pole of the prefactor in [alpha, beta] and a pole of the
    log-derivative inside (alpha, beta) are out of scope; a log-derivative
    pole at an endpoint, as in the Chebyshev weight, is accepted.  Roots are
    counted exactly with a Sturm sequence.
    """
    ends = _fmt_value(alpha), _fmt_value(beta)
    for what, den, closed in (("kernel.rational", kern.prefactor.den, True),
                              ("kernel.logderiv", kern.logderiv.den, False)):
        if den.is_constant():
            continue
        _, variations = P.sturm(den)
        # roots in (alpha, beta], then alpha in or beta out
        roots = variations(alpha) - variations(beta)
        roots += (not den.eval(alpha)) if closed else -(not den.eval(beta))
        if roots:
            raise InvalidJob(
                "%s: a pole %s; kernels singular on the interval are out of scope"
                % (what, ("in [%s, %s]" if closed else "inside (%s, %s)") % ends))


def _check_convergent(kern, seq, alpha, beta):
    """Refuse a kernel whose integrals diverge at an endpoint.

    Where K'/K has a simple pole with residue c at an endpoint e, K behaves
    as |x - e|^c there, and every P_n is a combination of the initial
    polynomials with polynomial coefficients, so it vanishes at e to at
    least their least order k.  The integrals converge at e when c + k > -1;
    otherwise that of an initial polynomial of order k, itself a P_n,
    diverges.  A pole of higher order is left to the boundary stage.
    """
    rows = P.cleared_rows([q.coeffs for q in seq.init if q])[0]
    for e in (alpha, beta):
        try:
            c = kern.exponent_at(e)
        except BoundaryNotEvaluable:
            continue
        k = _vanish_order(rows, e, max(map(len, rows)) - 1)[0] if rows else 0
        if c + k <= -1:
            raise InvalidJob(
                "kernel.logderiv: the integrals diverge at x = %s, where the kernel has"
                " exponent %s and P_n vanishes to order %d" % (_fmt_value(e), _fmt_value(c), k))


def _as_rational(kern, alpha, beta):
    """exp(∫ c/(x - a)) with integer c as the rational kernel (s·(x - a))^c,
    s = ±1 with s·(x - a) > 0 on the interval, or s = 1 without one; a
    constant factor changes no telescoper.  Any other kernel, a pole inside
    the interval, or a power past the expression limits stays as it is.
    """
    if kern.power is None:
        return kern
    a, c = kern.power
    inside = alpha is not None and alpha < a < beta
    if (c.denominator != 1 or inside or abs(c) > exprs.MAX_DEGREE
            or abs(c) * log2(abs(a.numerator) + a.denominator) > exprs.MAX_BITS):
        return kern
    s = -1 if alpha is not None and a >= beta else 1
    base = RatFunc(Poly("x", [-s * a, s]))
    return Kernel(kern.prefactor * base ** int(c), RatFunc(Poly.const("x", 0)))


def build_job(doc, defaults=None):
    """Validate a job document against the schema; raises InvalidJob.  The
    defaults, the CLI's option flags, fill the options the document omits."""
    defaults = defaults or Options()
    if not isinstance(doc, dict):
        raise InvalidJob("job: expected a JSON object")
    _check_keys(
        doc,
        ("sequence", "transforms", "kernel", "interval", "task", "count", "options"),
        "job",
    )
    task = doc.get("task")
    if task not in _TASKS:
        raise InvalidJob("task: expected one of %s, got %r" % (", ".join(_TASKS), task))
    if "sequence" not in doc:
        raise InvalidJob("sequence: required")
    seq, seq_echo = _build_sequence(doc["sequence"])
    transforms = doc.get("transforms", [])
    if not isinstance(transforms, (list, tuple)):
        raise InvalidJob("transforms: expected a list")
    seq, tr_echo = _apply_transforms(seq, transforms)

    kern = kern_echo = None
    if "kernel" in doc:
        kern, kern_echo = _build_kernel(doc["kernel"])
    elif task in ("telescope", "recurrence", "guess", "verify"):
        raise InvalidJob("kernel: required for task %r" % task)

    alpha = beta = None
    if "interval" in doc:
        iv = doc["interval"]
        if not isinstance(iv, (list, tuple)) or len(iv) != 2:
            raise InvalidJob("interval: expected [alpha, beta]")
        alpha = _rational(iv[0], "interval[0]")
        beta = _rational(iv[1], "interval[1]")
        if not alpha < beta:
            raise InvalidJob("interval: endpoints must satisfy alpha < beta")
    elif task in ("recurrence", "guess", "verify"):
        raise InvalidJob("interval: required for task %r" % task)
    if task in ("recurrence", "guess", "verify"):
        _check_no_pole(kern, alpha, beta)
        _check_convergent(kern, seq, alpha, beta)
    if kern is not None:
        kern = _as_rational(kern, alpha, beta)

    count = None
    if task == "terms":
        count = doc.get("count")
        if not _is_int(count) or count < 1:
            raise InvalidJob("count: a positive integer is required for task terms")
        if count > MAX_COUNT:
            raise InvalidJob("count: at most %d" % MAX_COUNT)
    elif "count" in doc:
        raise InvalidJob("count: only valid for task terms")

    opts = doc.get("options", {})
    if not isinstance(opts, dict):
        raise InvalidJob("options: expected an object")
    _check_keys(opts, ("max_order", "max_degree", "precision", "margin"), "options")
    merged = {}
    for key, low in (("max_order", 0), ("max_degree", 0), ("precision", 1), ("margin", 0)):
        v = opts.get(key, getattr(defaults, key))
        what = "options." + key if key in opts else "--" + key.replace("_", "-")
        if not _is_int(v) or v < low:
            raise InvalidJob("%s: expected an integer >= %d" % (what, low))
        if v > MAX_OPTIONS[key]:
            raise InvalidJob("%s: at most %d" % (what, MAX_OPTIONS[key]))
        merged[key] = v
    options = Options(**merged)

    echo = {"task": task, "sequence": seq_echo, "transforms": tr_echo}
    if kern_echo is not None:
        echo["kernel"] = kern_echo
    if alpha is not None:
        echo["interval"] = [_fmt_value(alpha), _fmt_value(beta)]
    if count is not None:
        echo["count"] = count
    echo["options"] = dict(merged)
    return Job(seq, kern, alpha, beta, task, count, options, echo)


def load_job(path, defaults=None):
    """Read and validate a JSON job file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise InvalidJob("cannot read job file: %s" % e)
    except (ValueError, RecursionError) as e:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors; the decoder
        # recurses once per nesting level
        raise InvalidJob("job file is not valid UTF-8 JSON: %s" % e)
    return build_job(doc, defaults)


# -- serialization helpers ---------------------------------------------------


def _fmt_value(v):
    if isinstance(v, Poly):
        return exprs.fmt_poly(v)
    return exprs.fmt_rational(P.as_num(Fraction(v)))


def _approx_str(v):
    return "%.15e" % float(v)


def _telescoper_payload(tel):
    return {
        "order": tel.order,
        "coeffs": [exprs.fmt_poly(a) for a in tel.opcoeffs],
        "certificate": exprs.fmt_ratfunc(tel.certificate),
    }


def _boundary_payload(alpha, beta, rhs):
    return {
        "alpha": _fmt_value(alpha),
        "beta": _fmt_value(beta),
        "rhs": exprs.fmt_ratfunc(rhs),
    }


def _recurrence_payload(rec):
    out = {
        "order": rec.order,
        "coeffs": [exprs.fmt_poly(c) for c in rec.coeffs],
        "threshold": rec.threshold,
        "initial_terms": None
        if rec.initial_terms is None
        else [_fmt_value(v) for v in rec.initial_terms],
        "exceptional": [
            {
                "pairs": [[idx, _fmt_value(w)] for idx, w in pairs],
                "rhs": _fmt_value(rhs_u),
            }
            for pairs, rhs_u in rec.exceptional
        ],
    }
    return out


# -- pipeline stages ---------------------------------------------------------


def _stage(name, fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except StageFailure:
        raise
    except IntrecError as e:
        raise StageFailure(name, e)


def _guess_term_count(opts):
    return opts.max_order + opts.margin + (opts.max_order + 1) * (opts.max_degree + 1) + 2


_FACTOR_NOTE = (
    "a(n) = {0}*q_n with q_n rational: checks run exactly on the q_n, listed in"
    " exact_initial_terms; approx_initial_terms are their numeric values {0}*q_n"
)


def _set_recurrence(rep, key, rec, prob):
    """Report a recurrence; off factor 1, its q_n go to exact_initial_terms."""
    payload = _recurrence_payload(rec)
    if prob.factor != "1":
        payload["initial_terms"] = None
        payload["exact_initial_terms"] = {
            "factor": prob.factor,
            "values": [_fmt_value(v) for v in rec.initial_terms],
        }
        with mp.workdps(30):
            payload["approx_initial_terms"] = [
                _approx_str(prob.factor_value * oracle.as_mpf(v)) for v in rec.initial_terms
            ]
        note = _FACTOR_NOTE.format(prob.factor)
        if note not in rep.notes:
            rep.notes.append(note)
    rep.results[key] = payload


def _printed_terms(prob, count):
    """oracle.exact_terms for verify and guess, which print every term: the
    first too long to print raises ValueTooLarge as it is made.  A b-bit int
    has at most 0.302·b + 1 digits, so str() runs only near the limit."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    for n in range(count):
        q = _stage("oracle", oracle.exact_terms, prob, n + 1)[n]
        if limit and 0.302 * max(abs(q.numerator), q.denominator).bit_length() + 1 > limit:
            _fmt_value(q)
    return oracle.exact_terms(prob, count)


def _run_guess(rep, prob, opts, count):
    terms = _printed_terms(prob, count)
    grec = _stage(
        "guess", guess_precursive, terms, opts.max_order, opts.max_degree, opts.margin
    )
    if grec is None:
        raise StageFailure(
            "guess",
            NoGuessFound(
                "no recurrence with order <= %d, coefficient degree <= %d fits %d"
                " exact terms" % (opts.max_order, opts.max_degree, count)
            ),
        )
    _set_recurrence(rep, "guess", grec, prob)
    # guess_precursive returns a recurrence only once first_failure has
    # passed it on every window of these terms, held-out ones included
    rep.check(
        "guess_window_equations",
        True,
        "guessed recurrence holds on every window of %d oracle terms" % count,
    )
    return grec


def _max_residual(rec, vals, digits=None):
    """Largest |Σ terms − rhs| / (Σ|terms| + |rhs|) at the working precision,
    over o2r.equations of the values, the equations first_failure checks.
    Values good to `digits` digits (the working precision's by default)
    resolve 10^-digits·Σ|w|·max|a(n)| in an equation with weights w; one
    whose own scale is below that, as where every true value it touches is
    0, holds only noise and is judged against that resolution instead."""
    eps = mp.mpf(10) ** -(mp.dps if digits is None else digits)
    top = max(map(abs, vals), default=mp.zero)
    worst = mp.zero
    for _, pairs, rhs in o2r.equations(rec, len(vals)):
        ws = [oracle.as_mpf(w) for _, w in pairs]
        ts, r = [w * vals[idx] for w, (idx, _) in zip(ws, pairs)], oracle.as_mpf(rhs)
        scale = max(mp.fsum(map(abs, ts)) + abs(r), eps * mp.fsum(map(abs, ws)) * top)
        if scale:
            worst = max(worst, abs(mp.fsum(ts) - r) / scale)
    return worst


def _numeric_consistency(rep, job, rec, prob):
    """first_failure's check on quadrature values, to a tolerance that follows
    their digits and is never looser than 1e-8."""
    digits = oracle.quadrature_digits(prob, job.options.precision)
    if digits < job.options.precision:
        rep.notes.append(
            "numeric checks run at %d digits (quadrature subdivision cap)" % digits
        )
    need = o2r.required_initials(rec)
    total = need + 8
    vals = _stage("oracle", oracle.numeric_terms, prob, total, digits)
    places = max(digits, 10) - 2
    with mp.workdps(digits + 10):
        worst = _max_residual(rec, vals, digits)
        ok = worst < mp.mpf(10) ** -places
    rep.results["recurrence"]["approx_initial_terms"] = [_approx_str(s) for s in vals[:need]]
    rep.check(
        "numeric_window_equations",
        ok,
        "windows and low-index equations hold on quadrature values for n <= %d,"
        " relative residual below 1e-%d" % (total - 1, places),
        approx_max_residual=_approx_str(worst),
    )


def _quadrature_spot_check(rep, job, prob, parts):
    """Compare f·q_n with quadrature at the job's precision, n < len(parts)."""
    digits = job.options.precision
    vals = _stage("oracle", oracle.numeric_terms, prob, len(parts), digits)
    with mp.workdps(digits + 10):
        maxerr = max(abs(prob.factor_value * oracle.as_mpf(q) - v) for q, v in zip(parts, vals))
        ok = maxerr < mp.mpf(10) ** (1 - digits)
    rep.check(
        "quadrature_spot_check",
        ok,
        "%s*q_n matches quadrature for n <= %d at 1e-%d"
        % (prob.factor, len(parts) - 1, digits - 1),
        approx_max_error=_approx_str(maxerr),
    )


def _telescoper_stage(rep, job):
    gf = _stage("genfun", generating_function, job.sequence)
    rep.results["genfun"] = exprs.fmt_ratfunc(gf)
    tel = _stage("telescope", telescope, gf, job.kernel, job.options.max_order)
    rep.results["telescoper"] = _telescoper_payload(tel)
    rep.check(
        "certificate_identity",
        verify_certificate(gf, job.kernel, tel),
        "telescoping identity re-checked exactly",
    )
    return gf, tel


def _recurrence_stage(rep, job, prob, gf, tel, want_terms):
    """Boundary evaluation, conversion, and the recurrence's check.

    Three outcomes: with an exact oracle (prob.factor set), initial terms
    come from exact terms and the unroll is compared with them; with a
    recognized kernel form, its equations are checked on quadrature values;
    else no oracle checks it.  Against a recognized form, a boundary with no
    limit is taken as zero and the low-index equations, which carry it, are
    omitted.  Returns (recurrence, exact terms, unrolled terms), the last two
    None off the exact path; the exact terms are the q_n of a(n) = f·q_n.

    An exact problem's boundary always has a limit: against a polynomial
    kernel C = y·F has no finite pole, against the Chebyshev weight C → 0 at ±1.
    """
    fallback = False
    try:
        rhs = boundary_rhs(gf, job.kernel, tel, job.alpha, job.beta)
    except BoundaryNotEvaluable as e:
        if job.kernel.form is None:
            raise StageFailure("boundary", e)
        rep.notes.append(
            "boundary stage failed (%s); reporting the homogeneous recurrence"
            " under a vanishing-boundary hypothesis, its windows checked"
            " numerically; its low-index equations depend on the boundary and"
            " are omitted" % e
        )
        rhs, fallback = RatFunc(Poly("t", []), Poly("t", [1])), True
    else:
        rep.results["boundary"] = _boundary_payload(job.alpha, job.beta, rhs)
    rec = _stage("ode_to_recurrence", o2r.ode_to_recurrence, tel.opcoeffs, rhs)
    if fallback:
        rec = o2r.Recurrence(rec.coeffs, rec.threshold)
    # a factor other than 1 comes with a zero boundary, and f·q_n satisfies
    # a homogeneous recurrence exactly when q_n does
    if prob.factor is not None:
        need = o2r.required_initials(rec)
        count = max(need, want_terms)
        terms = (_printed_terms(prob, count) if job.task == "verify"
                 else _stage("oracle", oracle.exact_terms, prob, count))
        try:
            rec = o2r.attach_initials(rec, terms[:need])
            rep.check(
                "initial_window_equations",
                True,
                "oracle initial terms satisfy every equation they touch",
            )
        except RecurrenceRefuted as e:
            rep.check("initial_window_equations", False, str(e))
            rep.results["recurrence"] = _recurrence_payload(rec)
            return rec, terms, None
        unrolled = _stage("oracle", o2r.unroll, rec, count)
        rep.check(
            "unroll_matches_oracle",
            unrolled == list(terms),
            "unrolled terms equal exact oracle terms for n <= %d" % (count - 1),
        )
        _set_recurrence(rep, "recurrence", rec, prob)
        if prob.factor != "1":
            _quadrature_spot_check(rep, job, prob, terms[: max(need, 2)])
        return rec, terms, unrolled
    rep.results["recurrence"] = _recurrence_payload(rec)
    if job.kernel.form is not None:
        _numeric_consistency(rep, job, rec, prob)
    else:
        rep.notes.append(
            "no oracle available for this kernel; initial terms not attached"
        )
    return rec, None, None


def run(job):
    """Execute the job's task; returns a Report.  Raises StageFailure."""
    rep = Report(task=job.task, job=dict(job.echo))
    seq = job.sequence

    if job.task == "terms":
        ts = _stage("terms", cf.terms, seq, job.count)
        rep.results["terms"] = [_fmt_value(p) for p in ts]
        return rep

    if job.task == "genfun":
        gf = _stage("genfun", generating_function, seq)
        rep.results["genfun"] = exprs.fmt_ratfunc(gf)
        probe = 8
        back = _stage("genfun", taylor_coeffs, gf, probe)
        rep.check(
            "series_round_trip",
            back == cf.terms(seq, probe),
            "first %d series coefficients equal the sequence terms" % probe,
        )
        return rep

    if job.task == "telescope":
        _telescoper_stage(rep, job)
        return rep

    prob = oracle.IntegralProblem(seq, job.kernel, job.alpha, job.beta)
    if job.task == "guess":
        _run_guess(rep, prob, job.options, _guess_term_count(job.options))
        return rep

    if job.task == "recurrence":
        gf, tel = _telescoper_stage(rep, job)
        _recurrence_stage(rep, job, prob, gf, tel, _ANNIHILATION_TERMS)
        return rep

    # verify: run both paths and cross-check them against each other
    gf, tel = _telescoper_stage(rep, job)
    rec, terms, unrolled = _recurrence_stage(rep, job, prob, gf, tel, _MUTUAL_TERMS)
    if terms is None:
        rep.notes.append(
            "guessing path skipped: no exact oracle for this kernel"
        )
        return rep
    grec = _run_guess(
        rep, prob, job.options, max(len(terms), _guess_term_count(job.options))
    )
    if unrolled is not None:
        # both paths hold at least _MUTUAL_TERMS terms already: the guess
        # keeps every oracle term it was fitted to as its initial terms
        horizon = _MUTUAL_TERMS
        rep.check(
            "telescoper_annihilates_guess_unroll",
            o2r.first_failure(rec, grec.initial_terms[:horizon]) is None,
            "telescoper recurrence holds on guessed-path terms for n <= %d"
            % (horizon - 1),
        )
        rep.check(
            "guess_annihilates_telescoper_unroll",
            o2r.first_failure(grec, unrolled[:horizon]) is None,
            "guessed recurrence holds on telescoper-path terms for n <= %d"
            % (horizon - 1),
        )
    return rep


# -- emission ----------------------------------------------------------------

_RESULT_ORDER = ("genfun", "terms", "telescoper", "boundary", "recurrence", "guess")


def emit(report, fmt):
    """Render a report as human-readable text or schema-stable JSON."""
    if fmt == "json":
        doc = {
            "task": report.task,
            "job": report.job,
            "results": report.results,
            "verifications": report.verifications,
            "notes": report.notes,
            "status": "ok" if report.ok else "verification_failed",
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if fmt != "text":
        raise ValueError("unknown format %r" % fmt)
    lines = ["task: %s" % report.task, "status: %s" % ("ok" if report.ok else "FAILED")]
    for key in _RESULT_ORDER:
        if key not in report.results:
            continue
        val = report.results[key]
        if key == "genfun":
            lines.append("generating function: %s" % val)
        elif key == "terms":
            lines.append("terms:")
            for i, s in enumerate(val):
                lines.append("  P_%d = %s" % (i, s))
        elif key == "telescoper":
            lines.append("telescoper (order %d):" % val["order"])
            for i, s in enumerate(val["coeffs"]):
                lines.append("  a[%d] = %s" % (i, s))
            lines.append("  certificate = %s" % val["certificate"])
        elif key == "boundary":
            lines.append(
                "boundary rhs on [%s, %s]: %s" % (val["alpha"], val["beta"], val["rhs"])
            )
        else:
            lines.append("%s recurrence (order %d, threshold %d):"
                         % ("guessed" if key == "guess" else "telescoper-path",
                            val["order"], val["threshold"]))
            for i, s in enumerate(val["coeffs"]):
                lines.append("  c[%d] = %s" % (i, s))
            shown = val["order"] + val["threshold"] + 2
            if val.get("initial_terms"):
                lines.append("  initial terms: %s" % ", ".join(val["initial_terms"][:shown]))
            exact = val.get("exact_initial_terms")
            if exact:
                lines.append("  initial terms / %s: %s"
                             % (exact["factor"], ", ".join(exact["values"][:shown])))
            if val.get("approx_initial_terms"):
                lines.append(
                    "  approx initial terms: %s"
                    % ", ".join(val["approx_initial_terms"][:shown])
                )
            for ex in val["exceptional"]:
                eq = " + ".join("%s*a(%d)" % (w, idx) for idx, w in ex["pairs"])
                eq = eq.replace(" + -", " - ")
                lines.append("  low-index equation: %s = %s" % (eq or "0", ex["rhs"]))
    if report.verifications:
        lines.append("verifications:")
        for v in report.verifications:
            mark = "PASS" if v["pass"] else "FAIL"
            detail = ": %s" % v["detail"] if v.get("detail") else ""
            lines.append("  [%s] %s%s" % (mark, v["name"], detail))
    else:
        lines.append("verifications: none")
    for note in report.notes:
        lines.append("note: %s" % note)
    return "\n".join(lines) + "\n"
