"""End-to-end checks runnable via the CLI selftest or the test suite.

Each case exercises one headline behavior of the package against an
independent oracle and returns a CaseResult; nothing here depends on a test
framework.  Cases with a runtime budget fail when they exceed it.
"""

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from . import cfinite as cf
from . import exprs
from . import ode2rec as o2r
from . import oracle
from . import pipeline
from .errors import NoTelescoperFound
from .genfun import generating_function, taylor_coeffs
from .guess import guess_precursive
from .poly import Poly
from .ratfunc import RatFunc
from .telescope import (
    boundary_rhs,
    chebyshev_weight,
    telescope,
    trivial_kernel,
    verify_certificate,
)

DEFAULT_SEED = 12345


@dataclass(frozen=True)
class CaseResult:
    name: str
    passed: bool
    seconds: float
    detail: str


def _finish(name, start, checks, budget=None, summary=""):
    elapsed = time.perf_counter() - start
    bad = [label for label, ok in checks if not ok]
    over = budget is not None and elapsed >= budget
    if bad:
        detail = "failed: " + "; ".join(bad)
    elif over:
        detail = "exceeded %ds runtime budget" % budget
    else:
        detail = summary or "%d checks" % len(checks)
    return CaseResult(name, not bad and not over, elapsed, detail)


def case_plain_chebyshev_integral(seed=DEFAULT_SEED):
    """Telescoper and guesser paths for the integral of T_n over [-1, 1]."""
    start = time.perf_counter()
    seq = cf.BUILTINS["chebyshev_T"]
    kern = trivial_kernel()
    prob = oracle.IntegralProblem(seq, kern, -1, 1)
    terms = oracle.exact_terms(prob, 51)

    gf = generating_function(seq)
    tel = telescope(gf, kern, 6)
    rhs = boundary_rhs(gf, kern, tel, -1, 1)
    rec = o2r.ode_to_recurrence(tel.opcoeffs, rhs)
    rec = o2r.attach_initials(rec, terms[: o2r.required_initials(rec)])
    checks = [
        ("telescoper recurrence annihilates oracle terms n<=30",
         o2r.unroll(rec, 31) == terms[:31]),
    ]

    grec = guess_precursive(terms, 6, 4)
    checks.append(("guesser finds a recurrence", grec is not None))
    if grec is not None:
        n = Poly.variable("n")
        target = o2r.Recurrence(
            (-(n - 1) * (n + 1), Poly("n", []), (n + 1) * (n + 3)),
            0,
            (Fraction(2), Fraction(0)),
        )
        tu = o2r.unroll(target, 31)
        checks.append(("reference recurrence reproduces oracle", tu == terms[:31]))
        checks.append(("guess annihilates reference terms",
                       o2r.first_failure(grec, tu) is None))
        checks.append(("reference annihilates guessed terms",
                       o2r.first_failure(target, o2r.unroll(grec, 31)) is None))
    summary = "order-%d telescoper" % tel.order
    if grec is not None:
        summary += "; guess order %d" % grec.order
    return _finish("plain_chebyshev_integral", start, checks, budget=10, summary=summary)


def case_power_sequence_integral(seed=DEFAULT_SEED):
    """P_n = x^n on [0,1]: first-order telescoper, a(n) = 1/(n+1)."""
    start = time.perf_counter()
    x = Poly.variable("x")
    seq = cf.CFiniteSeq((x,), (1,))
    kern = trivial_kernel()
    gf = generating_function(seq)
    tel = telescope(gf, kern, 6)
    rhs = boundary_rhs(gf, kern, tel, 0, 1)
    checks = [("telescoper order is 1", tel.order == 1)]
    if tel.order == 1:
        # reference data, stated up to an overall rational-function factor mu(t)
        t = Poly.variable("t")
        ref_a = (1 - t, t - t * t)
        ref_cert = RatFunc(1 - t, t)
        ref_rhs = RatFunc(Poly.const("t", 1))
        mu = RatFunc(ref_a[1], tel.opcoeffs[1])
        checks.append(("operator matches up to content", ref_a[0] == mu * tel.opcoeffs[0]))
        checks.append(("certificate matches up to content",
                       ref_cert == mu * tel.certificate))
        checks.append(("boundary rhs matches up to content", ref_rhs == mu * rhs))
    rec = o2r.ode_to_recurrence(tel.opcoeffs, rhs)
    prob = oracle.IntegralProblem(seq, kern, 0, 1)
    terms = oracle.exact_terms(prob, 31)
    rec = o2r.attach_initials(rec, terms[: o2r.required_initials(rec)])
    checks.append(("reproduces a(n) = 1/(n+1) for n<=30",
                   o2r.unroll(rec, 31) == [Fraction(1, n + 1) for n in range(31)]))
    return _finish("power_sequence_integral", start, checks, budget=2)


def case_chebyshev_generating_function(seed=DEFAULT_SEED):
    """Closed form of sum T_n t^n and a 14-term series round trip."""
    start = time.perf_counter()
    seq = cf.BUILTINS["chebyshev_T"]
    gf = generating_function(seq)
    x = Poly.variable("x")
    expected = RatFunc(Poly("t", [1, -x]), Poly("t", [1, -2 * x, 1]))
    checks = [
        ("generating function has the closed form", gf == expected),
        ("14-term series round trip", taylor_coeffs(gf, 14) == cf.terms(seq, 14)),
    ]
    return _finish("chebyshev_generating_function", start, checks)


def case_closure_operations(seed=DEFAULT_SEED):
    """Order bounds and term identities for product, power, and reverse."""
    start = time.perf_counter()
    seq = cf.BUILTINS["chebyshev_T"]
    x = Poly.variable("x")

    prod, cube_seq = cf.product(seq, seq), cf.power(seq, 3)
    checks = [
        ("product order <= 4", prod.order <= 4),
        ("product terms equal squared terms n<=20",
         cf.terms(prod, 21) == [cf.term(seq, n) ** 2 for n in range(21)]),
        ("power(.,3) order <= 8", cube_seq.order <= 8),
        ("power(.,3) terms equal cubed terms n<=30",
         cf.terms(cube_seq, 31) == [cf.term(seq, n) ** 3 for n in range(31)]),
    ]

    rev = cf.reverse(seq)
    checks.append(("reversed coefficients", rev.coeffs == (Poly.const("x", 2), -(x ** 2))))
    ok = True
    for n in range(7):
        p = cf.term(seq, n)
        cs = list(p.coeffs) + [0] * (n + 1 - len(p.coeffs))
        if cf.term(rev, n) != Poly("x", cs[::-1]):
            ok = False
            break
    checks.append(("reversed terms equal x^n T_n(1/x) for n<=6", ok))
    return _finish("closure_operations", start, checks)


def case_certificate_fuzz(seed=DEFAULT_SEED):
    """Random short sequences: every found telescoper verifies exactly."""
    start = time.perf_counter()
    rng = random.Random(seed)
    kern = trivial_kernel()
    successes = 0
    counterexamples = 0
    trials = 200
    for _ in range(trials):
        order = rng.choice((1, 2))
        coeffs = []
        for i in range(order):
            p = Poly("x", [rng.randint(-3, 3) for _ in range(2)])
            if i == order - 1:
                while p.is_zero():
                    p = Poly("x", [rng.randint(-3, 3) for _ in range(2)])
            coeffs.append(p)
        init = [
            Poly("x", [rng.randint(-3, 3) for _ in range(2)]) for _ in range(order)
        ]
        seq = cf.CFiniteSeq(tuple(coeffs), tuple(init))
        gf = generating_function(seq)
        try:
            tel = telescope(gf, kern, 6)
        except NoTelescoperFound:
            continue
        successes += 1
        if not verify_certificate(gf, kern, tel):
            counterexamples += 1
    checks = [
        ("no certificate counterexamples", counterexamples == 0),
        ("telescoper found for most instances", successes >= trials // 2),
    ]
    return _finish(
        "certificate_fuzz", start, checks, budget=60,
        summary="%d/%d telescoped, 0 counterexamples" % (successes, trials),
    )


def case_squared_chebyshev_integral(seed=DEFAULT_SEED):
    """Both paths for the integral of T_n^2; each annihilates the other."""
    start = time.perf_counter()
    seq = cf.power(cf.BUILTINS["chebyshev_T"], 2)
    kern = trivial_kernel()
    prob = oracle.IntegralProblem(seq, kern, -1, 1)
    terms = oracle.exact_terms(prob, 60)
    checks = [
        ("oracle spot values", terms[0] == 2 and terms[1] == Fraction(2, 3)
         and terms[2] == Fraction(14, 15)),
    ]

    gf = generating_function(seq)
    tel = telescope(gf, kern, 6)
    rhs = boundary_rhs(gf, kern, tel, -1, 1)
    rec = o2r.ode_to_recurrence(tel.opcoeffs, rhs)
    rec = o2r.attach_initials(rec, terms[: o2r.required_initials(rec)])

    grec = guess_precursive(terms, 6, 4)
    checks.append(("guesser finds a recurrence", grec is not None))
    if grec is not None:
        tu = o2r.unroll(rec, 51)
        gu = o2r.unroll(grec, 51)
        checks.append(("telescoper path matches oracle", tu == terms[:51]))
        checks.append(("telescoper recurrence annihilates guessed terms",
                       o2r.first_failure(rec, gu) is None))
        checks.append(("guessed recurrence annihilates telescoper terms",
                       o2r.first_failure(grec, tu) is None))
    return _finish("squared_chebyshev_integral", start, checks)


def case_singular_weight_fallback(seed=DEFAULT_SEED):
    """T_n^2 against 1/sqrt(1-x^2): a(n) = pi*q_n, checked exactly on the q_n.

    The report must verify through the exact unroll check and carry its
    initial terms as pi times rationals.  The q_n from the moment oracle and
    the quadrature values must both give a(0) = pi and a(n) = pi/2 for
    n = 1..6.
    """
    start = time.perf_counter()
    doc = {
        "sequence": {"builtin": "chebyshev_T"},
        "transforms": [{"power": 2}],
        "kernel": {"logderiv": "x/(1-x^2)", "form": "chebyshev_weight"},
        "interval": ["-1", "1"],
        "task": "recurrence",
    }
    report = pipeline.run(pipeline.build_job(doc))
    exact_init = report.results.get("recurrence", {}).get("exact_initial_terms") or {}
    checks = [
        ("pipeline report verifies", report.ok),
        ("recurrence checked exactly against the oracle",
         any(v["name"] == "unroll_matches_oracle" for v in report.verifications)),
        ("initial terms reported as pi times rationals", exact_init.get("factor") == "pi"),
    ]

    seq = cf.power(cf.BUILTINS["chebyshev_T"], 2)
    prob = oracle.IntegralProblem(seq, chebyshev_weight(), -1, 1)
    checks.append(("exact values are pi times rationals", prob.factor == "pi"))
    checks.append(("q_0 = 1 and q_n = 1/2 for n=1..6",
                   oracle.exact_terms(prob, 7) == [1] + [Fraction(1, 2)] * 6))
    with mp.workdps(40):
        tol = mp.mpf(10) ** -25
        v0 = oracle.numeric_term(prob, 0, 30)
        checks.append(("quadrature at n=0 is pi", abs(v0 - mp.pi) < tol))
        ok = all(abs(oracle.numeric_term(prob, n, 30) - mp.pi / 2) < tol for n in range(1, 7))
        checks.append(("quadrature at n=1..6 is pi/2", ok))
    return _finish("singular_weight_fallback", start, checks)


_ROUND_TRIP_VARS = {
    "genfun": ("x", "t"),
    "certificate": ("x", "t"),
    "telescoper_coeff": ("t",),
    "boundary_rhs": ("t",),
    "recurrence_coeff": ("n",),
    "sequence_expr": ("x",),
}


def _expressions_round_trip(doc):
    """Every expression-valued field must reprint byte-identically."""
    jobs = []
    res = doc.get("results", {})
    if "genfun" in res:
        jobs.append((res["genfun"], _ROUND_TRIP_VARS["genfun"]))
    if "telescoper" in res:
        jobs += [(s, _ROUND_TRIP_VARS["telescoper_coeff"])
                 for s in res["telescoper"]["coeffs"]]
        jobs.append((res["telescoper"]["certificate"], _ROUND_TRIP_VARS["certificate"]))
    if "boundary" in res:
        jobs.append((res["boundary"]["rhs"], _ROUND_TRIP_VARS["boundary_rhs"]))
    for key in ("recurrence", "guess"):
        if key in res:
            jobs += [(s, _ROUND_TRIP_VARS["recurrence_coeff"])
                     for s in res[key]["coeffs"]]
    seq_echo = doc.get("job", {}).get("sequence", {})
    for key in ("coeffs", "init"):
        jobs += [(s, _ROUND_TRIP_VARS["sequence_expr"]) for s in seq_echo.get(key, [])]
    for text, allowed in jobs:
        if exprs.fmt_ratfunc(exprs.parse_ratfunc(text, allowed)) != text:
            return False
    rationals = []
    if "boundary" in res:
        rationals += [res["boundary"]["alpha"], res["boundary"]["beta"]]
    for key in ("recurrence", "guess"):
        if key in res and res[key].get("initial_terms"):
            rationals += res[key]["initial_terms"]
    for s in rationals:
        if str(Fraction(s)) != s:
            return False
    return True


def case_report_determinism(seed=DEFAULT_SEED):
    """Identical jobs give byte-identical reports whose expressions reprint."""
    start = time.perf_counter()
    doc = {
        "sequence": {"builtin": "chebyshev_T"},
        "kernel": {"polynomial": "1"},
        "interval": ["-1", "1"],
        "task": "recurrence",
    }
    out1 = pipeline.emit(pipeline.run(pipeline.build_job(dict(doc))), "json")
    out2 = pipeline.emit(pipeline.run(pipeline.build_job(dict(doc))), "json")
    parsed = json.loads(out1)
    checks = [
        ("byte-identical json across two runs", out1 == out2),
        ("report verifications pass", parsed["status"] == "ok"),
        ("embedded expressions round-trip", _expressions_round_trip(parsed)),
    ]
    return _finish("report_determinism", start, checks)


_CASES = (
    case_plain_chebyshev_integral,
    case_power_sequence_integral,
    case_chebyshev_generating_function,
    case_closure_operations,
    case_certificate_fuzz,
    case_squared_chebyshev_integral,
    case_singular_weight_fallback,
    case_report_determinism,
)


def run_all(seed=DEFAULT_SEED):
    """Run every case; a crash counts as a failure of that case only."""
    out = []
    for fn in _CASES:
        t0 = time.perf_counter()
        try:
            out.append(fn(seed))
        except Exception as e:
            name = fn.__name__.removeprefix("case_")
            out.append(
                CaseResult(name, False, time.perf_counter() - t0, "crashed: %r" % e)
            )
    return out
