"""The goldens through perfbench/check.py, the checker that imports no intrec.

check.py recomputes what a report claims from the job document alone: exact
integrals by the power rule or the Chebyshev moments, recurrence windows in
Fraction arithmetic, and the telescoping identity at random points.  Each
golden it can check today runs through the checks that fit its report.

The goldens check.py refuses, those with rational kernels or with Fraction
coefficients, are checked here on the same terms without intrec: P_n built
in Fractions from the job document through check.py's parsers, values by
the power rule or by mpmath.quad at 40 digits.  A rational kernel's values
are also taken exactly, as r_n + s_n·J with r_n and s_n rational and J one
constant per kernel: mpmath.quad at 40 digits cannot check the T^3
goldens, whose windows cancel below its accuracy.
"""

import functools
import importlib.util
import json
import math
import os
from fractions import Fraction

import pytest
from mpmath import mp

HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "check", os.path.join(os.path.dirname(HERE), "perfbench", "check.py"))
check = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check)

EXACT = ["chebyshev_recurrence", "chebyshev_prime_interval_verify", "chebyshev_t3_verify",
         "chebyshev_t5_recurrence", "chebyshev_tu_inhomogeneous_verify"]
TELESCOPED = ["chebyshev_recurrence", "chebyshev_prime_interval_verify"]


def golden(name):
    with open(os.path.join(HERE, "golden", name + ".json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", EXACT)
def test_exact_golden_passes_check_exact_report(name):
    report = golden(name)
    assert check.check_exact_report(report, report["job"]) is None


def test_chebyshev_weight_golden_passes_check_chebyshev_report():
    report = golden("chebyshev_weight_t2_verify")
    assert check.check_chebyshev_report(report, report["job"]) is None


@pytest.mark.parametrize("name", TELESCOPED)
def test_golden_telescoper_passes_check_telescoper(name):
    report = golden(name)
    assert check.check_telescoper(report, report["job"]) is None


def sequence_polys(job_doc, count):
    """[P_0, ..., P_(count-1)] as Fraction coefficient lists, lowest degree first."""
    def base(seq_doc):
        coeffs, init = check._BUILTINS[seq_doc["builtin"]] if "builtin" in seq_doc else (
            seq_doc["coeffs"], seq_doc["init"])
        ps, out = [check.poly(c, "x") for c in coeffs], [check.poly(q, "x") for q in init]
        while len(out) < count:
            nxt = []
            for i, p in enumerate(ps):
                nxt = check._p_add(nxt, check._p_mul(p, out[-1 - i]))
            out.append(nxt)
        return out[:count]

    polys = base(job_doc["sequence"])
    for tr in job_doc["transforms"]:
        if "power" in tr:
            polys = [functools.reduce(check._p_mul, [p] * tr["power"], [Fraction(1)])
                     for p in polys]
        else:
            other = base(tr["product_with"])
            polys = [check._p_mul(p, q) for p, q in zip(polys, other)]
    return polys


def power_rule_values(job_doc, count):
    """a(n) = ∫ P_n·K dx exactly, K the job's polynomial kernel."""
    kern = check.poly(job_doc["kernel"]["polynomial"], "x")
    alpha, beta = (Fraction(v) for v in job_doc["interval"])
    return [sum((c * (beta**(k + 1) - alpha**(k + 1)) / (k + 1)
                 for k, c in enumerate(check._p_mul(p, kern))), Fraction(0))
            for p in sequence_polys(job_doc, count)]


def mpf(q):
    q = Fraction(q)
    return mp.mpf(q.numerator) / q.denominator


# the rational kernels of the goldens, tied to their report text below
RATIONAL_KERNELS = {"-1/(x-2)": lambda x: -1 / (x - 2),
                    "(x^2+1)/(x-3)": lambda x: (x**2 + 1) / (x - 3)}


def quad_values(job_doc, count):
    """a(n) = ∫ P_n·K dx by mpmath.quad at the working precision."""
    text = job_doc["kernel"]["rational"]
    kern = RATIONAL_KERNELS[text]
    for x in (Fraction(1, 7), Fraction(-5, 3)):
        assert check.value(text, x=x) == kern(x)
    lo, hi = (mpf(v) for v in job_doc["interval"])
    out = []
    for p in sequence_polys(job_doc, count):
        cs = [mpf(c) for c in reversed(p)]
        out.append(mp.quad(lambda x: mp.polyval(cs, x) * kern(x), [lo, hi]))
    return out


def residual_failure(payload, vals, tol):
    """Why a window or low-index equation misses its relative tolerance on
    the values, or None."""
    coeffs = [check.poly(c, "n") for c in payload["coeffs"]]
    eqs = [([(n + i, check._horner(c, n)) for i, c in enumerate(coeffs)], 0)
           for n in range(payload["threshold"], len(vals) - len(coeffs) + 1)]
    eqs += [([(i, Fraction(w)) for i, w in eq["pairs"]], Fraction(eq["rhs"]))
            for eq in payload["exceptional"]]
    for pairs, rhs in eqs:
        terms = [mpf(w) * vals[i] for i, w in pairs]
        if abs(mp.fsum(terms) - mpf(rhs)) > tol * (mp.fsum(map(abs, terms)) + abs(mpf(rhs))):
            return "equation %s = %s misses" % (pairs, rhs)
    return None


@pytest.mark.parametrize("name", ["chebyshev_u_rational_recurrence",
                                  "chebyshev_tu_rational_verify"])
def test_rational_kernel_golden_holds_on_independent_values(name):
    report = golden(name)
    rec = report["results"]["recurrence"]
    with mp.workdps(40):
        vals = quad_values(report["job"], rec["order"] + 8)
        assert residual_failure(rec, vals, mp.mpf(10) ** -30) is None
        for v, s in zip(vals, rec["approx_initial_terms"]):
            assert abs(mp.mpf(s) - v) <= mp.mpf(10) ** -12 * abs(v)


# each rational kernel A/B of the goldens on [-1, 1]: A, B, the rational s
# with ∫ R/B dx = s·J for a remainder R of degree below B's, and J.  There
# ∫ dx/(x - 2) = -ln 3, ∫ dx/(x - 3) = -ln 2 and ∫ dx/(x^2 + 4) = arctan(1/2),
# while ∫ x/(x^2 + 4) dx = 0
RATIONAL_PARTS = {"-1/(x-2)": ("-1", "x-2", lambda r: -r[0], lambda: mp.log(3)),
                  "(x^2+1)/(x-3)": ("x^2+1", "x-3", lambda r: -r[0], lambda: mp.log(2)),
                  "(x+3)/(x^2+4)": ("x+3", "x^2+4", lambda r: r[0], lambda: mp.atan(mp.mpf(1) / 2))}
RATIONAL_GOLDENS = ["chebyshev_u_rational_recurrence", "chebyshev_tu_rational_verify",
                    "chebyshev_t3_rational_recurrence",
                    "chebyshev_t3_rational_quadratic_recurrence"]


def divide(a, b):
    """(quotient, remainder) of Fraction coefficient lists, the remainder
    padded to len(b) - 1 coefficients."""
    a, q = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in reversed(range(len(q))):
        c = q[k] = a[k + len(b) - 1] / b[-1]
        for j, bj in enumerate(b):
            a[k + j] -= c * bj
    return q, (a + [Fraction(0)] * len(b))[:len(b) - 1]


def exact_parts(job_doc, count):
    """[(r_n, s_n)] with a(n) = r_n + s_n·J exactly for n < count, and J as
    a function of the working precision.  P_n·A = Q·B + R, so a(n) is the
    integral of Q by the power rule plus that of R/B."""
    text = job_doc["kernel"]["rational"]
    num, den, s_of, J = RATIONAL_PARTS[text]
    a, b = check.poly(num, "x"), check.poly(den, "x")
    for x in (Fraction(1, 7), Fraction(-5, 3)):
        assert check.value(text, x=x) == check._horner(a, x) / check._horner(b, x)
    assert job_doc["interval"] == ["-1", "1"]
    out = []
    for p in sequence_polys(job_doc, count):
        q, r = divide(check._p_mul(p, a), b)
        out.append((sum(2 * c / (k + 1) for k, c in enumerate(q) if k % 2 == 0), s_of(r)))
    return out, J


def rational_golden_failure(report):
    """Why a rational-kernel report's recurrence misses its exact values, or None.

    ln 3, ln 2 and arctan(1/2) are irrational and every right-hand side is
    rational, so an equation holds on a(n) exactly when it holds on the r_n
    and, with right-hand side 0, on the s_n.  Every window up to 8 past
    the order and every low-index equation is checked, and each
    approximate initial term against r_n + s_n·J at 200 digits."""
    rec = report["results"]["recurrence"]
    count = max([rec["order"] + 8] + [i + 1 for eq in rec["exceptional"] for i, _ in eq["pairs"]])
    parts, J = exact_parts(report["job"], count)
    zero_rhs = dict(rec, exceptional=[dict(eq, rhs="0") for eq in rec["exceptional"]])
    why = (check._window_failure(rec, [r for r, _ in parts])
           or check._window_failure(zero_rhs, [s for _, s in parts]))
    if why:
        return why
    with mp.workdps(200):
        for n, ((r, s), text) in enumerate(zip(parts, rec["approx_initial_terms"])):
            v = mpf(r) + mpf(s) * J()
            if abs(mp.mpf(text) - v) > mp.mpf(10) ** -15 * abs(v):
                return "approximate term %d is off" % n
    return None


@pytest.mark.parametrize("name", RATIONAL_GOLDENS)
def test_rational_kernel_golden_holds_exactly(name):
    assert rational_golden_failure(golden(name)) is None


@pytest.mark.parametrize("name", ["custom_rational_guess", "custom_rational_verify"])
def test_fraction_coefficient_golden_reproduces_exact_values(name):
    report = golden(name)
    payloads = [report["results"][k] for k in ("recurrence", "guess") if k in report["results"]]
    terms = power_rule_values(report["job"], max(len(p["initial_terms"]) for p in payloads) + 12)
    for p in payloads:
        assert check.check_recurrence(p, terms) is None


def test_chebyshev_weight_golden_exact_initial_terms_are_the_moments():
    # q_n = ∫ T_n² /sqrt(1-x²) dx / π, from ∫ x^(2m)/sqrt(1-x²) dx = π·C(2m, m)/4^m
    report = golden("chebyshev_weight_t2_verify")
    for key in ("recurrence", "guess"):
        exact = report["results"][key]["exact_initial_terms"]
        polys = check.sequence_polys(report["job"], len(exact["values"]))
        moments = [sum(Fraction(c * math.comb(k, k // 2), 2**k) for k, c in enumerate(p)
                       if k % 2 == 0) for p in polys]
        assert exact["factor"] == "pi"
        assert [Fraction(v) for v in exact["values"]] == moments
