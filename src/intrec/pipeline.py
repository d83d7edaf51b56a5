"""Job validation, pipeline orchestration, and report assembly.

A job is a single structured document naming a sequence, optional
transforms, a kernel, an interval, and a task.  run() executes exactly the
stages the task needs and records every check it performs in the report's
verification block; a claim never reaches the report without either an
exact verification or an explicitly approximate one in a field tagged
"approx".  Stage errors are wrapped in StageFailure so callers can name
the failing stage and pick an exit code.
"""

import json
from dataclasses import dataclass, field
from fractions import Fraction

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
from .guess import guess_precursive
from . import poly as P
from .poly import Poly
from .ratfunc import RatFunc
from .telescope import BoundaryData, Kernel, boundary_rhs, telescope, verify_certificate

_TASKS = ("genfun", "terms", "telescope", "recurrence", "guess", "verify")

# recurrence tasks re-check this many oracle terms; verify cross-checks more
_ANNIHILATION_TERMS = 31
_MUTUAL_TERMS = 51

# numeric fallback: consistency tolerance
_NUMERIC_TOL = Fraction(1, 10**8)

# largest options.precision accepted: tanh-sinh of the substituted Chebyshev
# weight costs about 0.02 s per term at 30 digits and 0.07 s at 100
MAX_PRECISION = 100

# largest value of each option.  max_order, max_degree and margin size the
# guesser's search; guessing T_n·U_n against a quadratic kernel took 2.4 s at
# the defaults (6, 4, 8), 16 s at (8, 6, 8) and 146 s at these limits
MAX_OPTIONS = {"max_order": 10, "max_degree": 10, "precision": MAX_PRECISION, "margin": 32}

# largest C-finite order a power or product transform may build.  Orders
# multiply, so {"power": r} of chebyshev_T has order 2^r: built in 0.07 s at
# order 16, 0.5 s at 32 and 4.5 s at 64
MAX_SEQUENCE_ORDER = 32

# largest count for task terms: the report grows with the cube of the count
# (chebyshev_T: 500 terms in 0.4 s and 6.6 MB, 1000 in 2.4 s and 52 MB)
MAX_COUNT = 500


@dataclass(frozen=True)
class Options:
    max_order: int = 6
    max_degree: int = 4
    precision: int = 30
    margin: int = 8


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


def _rational(v, what):
    if isinstance(v, float):
        raise InvalidJob("%s: floats are not accepted, use a rational string" % what)
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError):
        raise InvalidJob("%s: not a rational: %r" % (what, v))


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
        if name not in cf.BUILTINS:
            raise InvalidJob(
                "%s: unknown builtin %r (available: %s)"
                % (what, name, ", ".join(sorted(cf.BUILTINS)))
            )
        return cf.BUILTINS[name], {"builtin": name}
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
                if not isinstance(r, int) or r < 0:
                    raise InvalidJob("%s: power must be a nonnegative integer" % what)
                # r - 1 products: bound r itself, since order 1 stays order 1
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
            got = oracle.recognized_form(kern)
            if doc["form"] != got:
                raise InvalidJob(
                    "kernel.form: tag %r does not match the log-derivative"
                    " (recognized: %r)" % (doc["form"], got)
                )
            echo["form"] = doc["form"]
    return kern, echo


def build_job(doc, defaults=None):
    """Validate a job document against the schema; raises InvalidJob."""
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

    count = None
    if task == "terms":
        count = doc.get("count")
        if not isinstance(count, int) or count < 1:
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
        if not isinstance(v, int) or v < low:
            raise InvalidJob("options.%s: expected an integer >= %d" % (key, low))
        if v > MAX_OPTIONS[key]:
            raise InvalidJob("options.%s: at most %d" % (key, MAX_OPTIONS[key]))
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
    except json.JSONDecodeError as e:
        raise InvalidJob("job file is not valid JSON: %s" % e)
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


def _boundary_payload(bd):
    return {
        "alpha": _fmt_value(bd.alpha),
        "beta": _fmt_value(bd.beta),
        "rhs": exprs.fmt_ratfunc(bd.rhs),
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


def _exact_factor(prob):
    """The symbolic factor f with a(n) = f·(exact oracle value), or None.

    "1" for polynomial kernels; "pi" for the Chebyshev weight on [-1, 1],
    whose oracle values are the rational parts q_n of a(n) = pi·q_n.  Linear
    recurrences and their checks carry over unchanged from a(n) to q_n
    whenever the right-hand sides vanish.
    """
    kernel = prob.kernel
    if kernel.is_rational() and kernel.prefactor.is_polynomial():
        return "1"
    if oracle.has_pi_parts(prob):
        return "pi"
    return None


def _guess_term_count(opts):
    return opts.max_order + opts.margin + (opts.max_order + 1) * (opts.max_degree + 1) + 2


_PI_NOTE = (
    "a(n) = pi*q_n with q_n rational: checks run exactly on the q_n, listed in"
    " exact_initial_terms; approx_initial_terms are their numeric values pi*q_n"
)


def _oracle_terms(prob, count, factor, known=()):
    """The first `count` exact oracle terms, reusing the prefix `known`."""
    if len(known) >= count:
        return list(known[:count])
    if factor == "pi":
        return _stage("oracle", oracle.pi_parts, prob, count)
    return list(known) + _stage(
        "oracle", lambda: [oracle.exact_term(prob, n) for n in range(len(known), count)]
    )


def _set_recurrence(rep, key, rec, factor):
    """Report a recurrence; pi-factored initial terms go to exact_initial_terms."""
    payload = _recurrence_payload(rec)
    if factor == "pi" and rec.initial_terms is not None:
        payload["initial_terms"] = None
        payload["exact_initial_terms"] = {
            "factor": factor,
            "values": [_fmt_value(v) for v in rec.initial_terms],
        }
        with mp.workdps(30):
            payload["approx_initial_terms"] = [
                _approx_str(mp.pi * oracle.as_mpf(v)) for v in rec.initial_terms
            ]
        if _PI_NOTE not in rep.notes:
            rep.notes.append(_PI_NOTE)
    rep.results[key] = payload


def _run_guess(rep, prob, opts, count, known=(), note=None):
    factor = _exact_factor(prob)
    terms = _oracle_terms(prob, count, factor, known)
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
    if note:
        rep.notes.append(note)
    _set_recurrence(rep, "guess", grec, factor)
    rep.check(
        "guess_window_equations",
        o2r.first_failure(grec, terms) is None,
        "guessed recurrence holds on every window of %d oracle terms" % count,
    )
    return grec, terms


def _numeric_consistency(rep, job, rec, prob):
    """Seed the recurrence with quadrature values and compare further terms."""
    digits = oracle.quadrature_digits(prob, job.options.precision)
    if digits < job.options.precision:
        rep.notes.append(
            "numeric checks run at %d digits (quadrature subdivision cap)" % digits
        )
    need = o2r.required_initials(rec)
    total = need + 8
    vals = _stage(
        "oracle",
        lambda: [oracle.numeric_term(prob, n, digits) for n in range(total)],
    )
    seeds = vals[:need]
    unrolled = _stage(
        "oracle", oracle.numeric_unroll, list(rec.coeffs), seeds, total, digits + 10
    )
    with mp.workdps(digits + 10):
        maxerr = max(abs(unrolled[n] - vals[n]) for n in range(total))
        tol = mp.mpf(_NUMERIC_TOL.numerator) / _NUMERIC_TOL.denominator
        ok = maxerr < tol
    rep.results["recurrence"]["approx_initial_terms"] = [_approx_str(s) for s in seeds]
    rep.check(
        "numeric_unroll_consistency",
        ok,
        "unroll from %d quadrature seeds matches quadrature for n <= %d at 1e-8"
        % (need, total - 1),
        approx_max_error=_approx_str(maxerr),
    )


def _quadrature_spot_check(rep, job, prob, parts):
    """Compare pi·q_n with quadrature at the job's precision, n < len(parts)."""
    digits = job.options.precision
    vals = _stage(
        "oracle",
        lambda: [oracle.numeric_term(prob, n, digits) for n in range(len(parts))],
    )
    with mp.workdps(digits + 10):
        maxerr = max(abs(mp.pi * oracle.as_mpf(q) - v) for q, v in zip(parts, vals))
        ok = maxerr < mp.mpf(10) ** (1 - digits)
    rep.check(
        "quadrature_spot_check",
        ok,
        "pi*q_n matches quadrature for n <= %d at 1e-%d" % (len(parts) - 1, digits - 1),
        approx_max_error=_approx_str(maxerr),
    )


def _telescoper_stage(rep, job):
    gf = _stage("genfun", generating_function, job.sequence)
    rep.results["genfun"] = exprs.fmt_ratfunc(gf.value)
    tel = _stage("telescope", telescope, gf, job.kernel, job.options.max_order)
    rep.results["telescoper"] = _telescoper_payload(tel)
    rep.check(
        "certificate_identity",
        verify_certificate(gf, job.kernel, tel),
        "telescoping identity re-checked exactly",
    )
    return gf, tel


def _recurrence_stage(rep, job, gf, tel, want_terms):
    """Boundary evaluation, conversion, and initial terms; falls back to
    guessing (exact oracle) or numeric seeding when the boundary has no
    evaluable limit.  Returns (recurrence or None, exact terms or None); for
    the Chebyshev weight on [-1, 1] the exact terms are the q_n of
    a(n) = pi·q_n."""
    prob = oracle.IntegralProblem(job.sequence, job.kernel, job.alpha, job.beta)
    factor = _exact_factor(prob)
    try:
        rhs = boundary_rhs(gf, job.kernel, tel, job.alpha, job.beta)
    except BoundaryNotEvaluable as e:
        if factor is not None:
            grec, terms = _run_guess(
                rep,
                prob,
                job.options,
                max(want_terms, _guess_term_count(job.options)),
                note="boundary stage failed (%s); recurrence below comes from the"
                " guessing path on exact oracle terms" % e,
            )
            return grec, terms
        if oracle.recognized_form(job.kernel) is not None:
            rep.notes.append(
                "boundary stage failed (%s); reporting the homogeneous recurrence"
                " under a vanishing-boundary hypothesis, checked numerically" % e
            )
            zero = RatFunc(Poly("t", []), Poly("t", [1]))
            rec = _stage("ode_to_recurrence", o2r.ode_to_recurrence, tel.opcoeffs, zero)
            rep.results["recurrence"] = _recurrence_payload(rec)
            _numeric_consistency(rep, job, rec, prob)
            return rec, None
        raise StageFailure("boundary", e)

    rep.results["boundary"] = _boundary_payload(BoundaryData(job.alpha, job.beta, rhs))
    rec = _stage("ode_to_recurrence", o2r.ode_to_recurrence, tel.opcoeffs, rhs)
    need = o2r.required_initials(rec)
    # pi·q_n satisfies a homogeneous recurrence exactly when q_n does
    if factor == "1" or (factor == "pi" and rhs.is_zero()):
        count = max(need, want_terms)
        terms = _oracle_terms(prob, count, factor)
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
            return rec, terms
        unrolled = _stage("oracle", o2r.unroll, rec, count)
        rep.check(
            "unroll_matches_oracle",
            unrolled == list(terms),
            "unrolled terms equal exact oracle terms for n <= %d" % (count - 1),
        )
        _set_recurrence(rep, "recurrence", rec, factor)
        if factor == "pi":
            _quadrature_spot_check(rep, job, prob, terms[: max(need, 2)])
        return rec, terms
    rep.results["recurrence"] = _recurrence_payload(rec)
    if oracle.recognized_form(job.kernel) is not None:
        _numeric_consistency(rep, job, rec, prob)
    else:
        rep.notes.append(
            "no oracle available for this kernel; initial terms not attached"
        )
    return rec, None


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
        rep.results["genfun"] = exprs.fmt_ratfunc(gf.value)
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

    if job.task == "guess":
        prob = oracle.IntegralProblem(seq, job.kernel, job.alpha, job.beta)
        _run_guess(rep, prob, job.options, _guess_term_count(job.options))
        return rep

    if job.task == "recurrence":
        gf, tel = _telescoper_stage(rep, job)
        _recurrence_stage(rep, job, gf, tel, _ANNIHILATION_TERMS)
        return rep

    # verify: run both paths and cross-check them against each other
    gf, tel = _telescoper_stage(rep, job)
    rec, terms = _recurrence_stage(rep, job, gf, tel, _MUTUAL_TERMS)
    if terms is None:
        rep.notes.append(
            "guessing path skipped: no exact oracle for this kernel"
        )
        return rep
    if "guess" not in rep.results:
        grec, _ = _run_guess(
            rep, oracle.IntegralProblem(seq, job.kernel, job.alpha, job.beta),
            job.options, max(len(terms), _guess_term_count(job.options)), terms,
        )
        if rec.initial_terms is not None:
            horizon = _MUTUAL_TERMS
            tu = _stage("oracle", o2r.unroll, rec, horizon)
            gu = _stage("oracle", o2r.unroll, grec, horizon)
            rep.check(
                "telescoper_annihilates_guess_unroll",
                o2r.first_failure(rec, gu) is None,
                "telescoper recurrence holds on guessed-path terms for n <= %d"
                % (horizon - 1),
            )
            rep.check(
                "guess_annihilates_telescoper_unroll",
                o2r.first_failure(grec, tu) is None,
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
