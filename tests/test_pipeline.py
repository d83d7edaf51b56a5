"""Job schema validation, report payloads, and emission stability."""

import json
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from intrec import cfinite as cf
from intrec import cli
from intrec import exprs
from intrec import guess
from intrec import ode2rec as o2r
from intrec import oracle
from intrec import pipeline
from intrec import telescope
from intrec import poly as P
from intrec.errors import IntrecError, InvalidJob
from intrec.poly import Poly
from intrec.ratfunc import RatFunc
from intrec.telescope import Kernel, chebyshev_weight

CHEB_RECURRENCE_JOB = {
    "sequence": {"builtin": "chebyshev_T"},
    "kernel": {"polynomial": "1"},
    "interval": ["-1", "1"],
    "task": "recurrence",
}

BAD_JOBS = [
    ("expected a JSON object", []),
    ("unknown fields", {"task": "terms", "sequence": {"builtin": "chebyshev_T"},
                        "count": 3, "wat": 1}),
    ("task", {"sequence": {"builtin": "chebyshev_T"}}),
    ("task", {"sequence": {"builtin": "chebyshev_T"}, "task": "solve"}),
    ("sequence", {"task": "terms", "count": 3}),
    ("builtin", {"task": "terms", "count": 3, "sequence": {"builtin": "legendre"}}),
    ("sequence", {"task": "terms", "count": 3, "sequence": {"coeffs": ["x"]}}),
    ("kernel", {"task": "recurrence", "sequence": {"builtin": "chebyshev_T"},
                "interval": ["-1", "1"]}),
    ("kernel", {"task": "recurrence", "sequence": {"builtin": "chebyshev_T"},
                "interval": ["-1", "1"],
                "kernel": {"polynomial": "1", "rational": "x"}}),
    ("interval", {"task": "recurrence", "sequence": {"builtin": "chebyshev_T"},
                  "kernel": {"polynomial": "1"}}),
    ("interval", {"task": "recurrence", "sequence": {"builtin": "chebyshev_T"},
                  "kernel": {"polynomial": "1"}, "interval": ["0"]}),
    ("alpha < beta", {"task": "recurrence", "sequence": {"builtin": "chebyshev_T"},
                      "kernel": {"polynomial": "1"}, "interval": ["1", "-1"]}),
    ("floats are not accepted", {"task": "recurrence",
                                 "sequence": {"builtin": "chebyshev_T"},
                                 "kernel": {"polynomial": "1"},
                                 "interval": [-1.0, 1]}),
    ("count", {"task": "terms", "sequence": {"builtin": "chebyshev_T"}}),
    ("count", {"task": "genfun", "sequence": {"builtin": "chebyshev_T"},
               "count": 3}),
    ("options", {"task": "terms", "count": 2,
                 "sequence": {"builtin": "chebyshev_T"},
                 "options": {"depth": 3}}),
    ("options.max_order", {"task": "terms", "count": 2,
                           "sequence": {"builtin": "chebyshev_T"},
                           "options": {"max_order": -1}}),
    ("options.precision", {"task": "terms", "count": 2,
                           "sequence": {"builtin": "chebyshev_T"},
                           "options": {"precision": 0}}),
    ("power", {"task": "terms", "count": 2,
               "sequence": {"builtin": "chebyshev_T"},
               "transforms": [{"power": -1}]}),
    ("transform", {"task": "terms", "count": 2,
                   "sequence": {"builtin": "chebyshev_T"},
                   "transforms": ["double"]}),
    ("kernel.form", {"task": "recurrence", "sequence": {"builtin": "chebyshev_T"},
                     "interval": ["-1", "1"],
                     "kernel": {"logderiv": "x/(1-x^2)", "form": "linear_power"}}),
]


@pytest.mark.parametrize("needle,doc", BAD_JOBS, ids=[n for n, _ in BAD_JOBS])
def test_invalid_jobs_rejected(needle, doc):
    with pytest.raises(InvalidJob) as exc:
        pipeline.build_job(doc)
    assert needle in str(exc.value)


def test_precision_limit():
    doc = {"task": "terms", "count": 2, "sequence": {"builtin": "chebyshev_T"},
           "options": {"precision": pipeline.MAX_PRECISION}}
    assert pipeline.build_job(doc).options.precision == pipeline.MAX_PRECISION
    doc["options"]["precision"] = pipeline.MAX_PRECISION + 1
    with pytest.raises(InvalidJob) as exc:
        pipeline.build_job(doc)
    assert "options.precision: at most" in str(exc.value)


def test_reverse_transform_failure_is_invalid_job():
    doc = {"task": "terms", "count": 2,
           "sequence": {"coeffs": ["x^2"], "init": ["1"]},
           "transforms": ["reverse"]}
    with pytest.raises(InvalidJob):
        pipeline.build_job(doc)


def test_terms_task_payload():
    job = pipeline.build_job({"task": "terms", "count": 4,
                              "sequence": {"builtin": "chebyshev_T"}})
    rep = pipeline.run(job)
    assert rep.results["terms"] == ["1", "x", "2*x^2-1", "4*x^3-3*x"]
    assert rep.ok and rep.exit_code == 0


def test_genfun_task_round_trip_check():
    job = pipeline.build_job({"task": "genfun",
                              "sequence": {"builtin": "chebyshev_T"}})
    rep = pipeline.run(job)
    assert rep.results["genfun"] == "(1-x*t)/(1-2*x*t+t^2)"
    names = [v["name"] for v in rep.verifications]
    assert names == ["series_round_trip"]
    assert rep.ok


def test_transforms_compose():
    job = pipeline.build_job({
        "task": "terms", "count": 3,
        "sequence": {"builtin": "chebyshev_T"},
        "transforms": [{"power": 2}],
    })
    rep = pipeline.run(job)
    assert rep.results["terms"][2] == exprs.fmt_poly(
        exprs.parse_ratfunc("(2*x^2-1)^2", ("x",)).num
    )


def test_cubed_chebyshev_recurrence_finishes():
    # every telescoper order's certificate is put in lowest terms by a gcd
    # in Q[x][t] whose inputs have large coefficients
    job = pipeline.build_job(dict(CHEB_RECURRENCE_JOB, transforms=[{"power": 3}]))
    start = time.perf_counter()
    rep = pipeline.run(job)
    assert time.perf_counter() - start < 30.0
    assert rep.ok and rep.exit_code == 0


@pytest.mark.parametrize("task", ["terms", "verify"])
def test_builtin_prefix_is_freed_with_the_job(monkeypatch, task):
    fresh = {name: cf.CFiniteSeq(s.coeffs, s.init) for name, s in cf.BUILTINS.items()}
    monkeypatch.setattr(cf, "BUILTINS", fresh)
    doc = {"task": task, "sequence": {"builtin": "chebyshev_T"}}
    if task == "terms":
        doc["count"] = 40
    else:
        doc.update(kernel={"polynomial": "x^2+1"}, interval=["-1/2", "1"],
                   transforms=[{"product_with": {"builtin": "chebyshev_U"}}])
    job = pipeline.build_job(doc)
    assert pipeline.run(job).ok
    assert len(job.sequence._prefix) > 2 * job.sequence.order
    for seq in cf.BUILTINS.values():
        assert seq._prefix == list(seq.init)


def test_report_exit_codes():
    rep = pipeline.Report(task="terms", job={})
    rep.check("a", True)
    assert rep.ok and rep.exit_code == 0
    rep.check("b", False, "broke")
    assert not rep.ok and rep.exit_code == 1


def golden_job():
    with open("tests/golden/chebyshev_recurrence.json", "r", encoding="utf-8") as fh:
        return pipeline.build_job(json.load(fh)["job"])


def certificate_entry(rep):
    return next(v for v in rep.verifications if v["name"] == "certificate_identity")


def test_golden_job_checks_its_certificate_once(monkeypatch):
    calls = []
    for mod in (telescope, pipeline):
        def counted(*args, check=mod.verify_certificate):
            calls.append(args)
            return check(*args)

        monkeypatch.setattr(mod, "verify_certificate", counted)
    rep = pipeline.run(golden_job())
    assert rep.ok
    assert certificate_entry(rep)["detail"] == "telescoping identity re-checked exactly"
    assert len(calls) == 1


def test_bad_certificate_is_a_reported_failure(monkeypatch):
    reduce_content = telescope._reduce_content

    def doubled(avec, y):
        avec, y = reduce_content(avec, y)
        return avec, y * 2

    monkeypatch.setattr(telescope, "_reduce_content", doubled)
    rep = pipeline.run(golden_job())
    assert not certificate_entry(rep)["pass"]
    assert rep.exit_code == 1


def test_json_emission_is_deterministic():
    def run_once():
        job = pipeline.build_job({"task": "telescope",
                                  "sequence": {"builtin": "chebyshev_T"},
                                  "kernel": {"polynomial": "1"}})
        return pipeline.emit(pipeline.run(job), "json")

    assert run_once() == run_once()


def test_text_emission_sections():
    job = pipeline.build_job({"task": "telescope",
                              "sequence": {"builtin": "chebyshev_T"},
                              "kernel": {"polynomial": "1"}})
    text = pipeline.emit(pipeline.run(job), "text")
    assert text.startswith("task: telescope\nstatus: ok\n")
    assert "telescoper (order " in text
    assert "[PASS] certificate_identity" in text
    # a negative weight of a low-index equation prints as a subtraction
    job = pipeline.build_job({"task": "recurrence", "sequence": {"builtin": "chebyshev_U"},
                              "kernel": {"rational": "1/(2-x)"}, "interval": ["-1", "1"]})
    text = pipeline.emit(pipeline.run(job), "text")
    assert "  low-index equation: 4*a(0) - 1*a(1) = 4\n" in text
    assert "  low-index equation: -2*a(0) + 8*a(1) - 2*a(2) = 0\n" in text
    assert "+ -" not in text


def test_unknown_format_rejected():
    rep = pipeline.Report(task="terms", job={})
    with pytest.raises(ValueError):
        pipeline.emit(rep, "yaml")


EXPR_VARS = {
    "genfun": (("x", "t"), "t"),
    "certificate": (("x", "t"), "t"),
    "telescoper_coeff": (("t",), "t"),
    "recurrence_coeff": (("n",), "n"),
    "boundary": (("t",), "t"),
    "rational": ((), "x"),
}


def round_trips(text, kind):
    allowed, default = EXPR_VARS[kind]
    if kind == "rational":
        return exprs.fmt_rational(P.as_num(Fraction(text))) == text
    return exprs.fmt_ratfunc(exprs.parse_ratfunc(text, allowed, default)) == text


def test_results_expressions_round_trip():
    with open("tests/golden/chebyshev_recurrence.json", "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    res = doc["results"]
    assert round_trips(res["genfun"], "genfun")
    assert round_trips(res["telescoper"]["certificate"], "certificate")
    for s in res["telescoper"]["coeffs"]:
        assert round_trips(s, "telescoper_coeff")
    for s in res["recurrence"]["coeffs"]:
        assert round_trips(s, "recurrence_coeff")
    assert round_trips(res["boundary"]["rhs"], "boundary")
    for key in ("alpha", "beta"):
        assert round_trips(res["boundary"][key], "rational")
    for s in res["recurrence"]["initial_terms"]:
        assert round_trips(s, "rational")


FLOATISH = re.compile(r"\d\.\d|\de[+-]\d|inf|nan")


def walk_strings(node, path=()):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from walk_strings(v, path + (k,))
    elif isinstance(node, (list, tuple)):
        for v in node:
            yield from walk_strings(v, path)
    elif isinstance(node, str):
        yield path, node


def test_exact_results_contain_no_floats():
    job = pipeline.build_job(CHEB_RECURRENCE_JOB)
    rep = pipeline.run(job)
    doc = json.loads(pipeline.emit(rep, "json"))
    for path, text in walk_strings(doc["results"]):
        assert not any(p.startswith("approx_") for p in path)
        assert not FLOATISH.search(text), (path, text)


def test_numeric_fallback_isolates_floats():
    job = pipeline.build_job({
        "task": "recurrence",
        "sequence": {"builtin": "chebyshev_T"},
        "kernel": {"logderiv": "x/(1-x^2)"},
        "interval": ["-1", "1"],
    })
    rep = pipeline.run(job)
    assert rep.ok
    doc = json.loads(pipeline.emit(rep, "json"))
    seen_approx = False
    for path, text in walk_strings(doc["results"]):
        if any(p.startswith("approx_") for p in path):
            seen_approx = True
            assert re.fullmatch(r"-?\d\.\d{15}e[+-]\d{2,3}", text), text
        else:
            assert not FLOATISH.search(text), (path, text)
    assert seen_approx
    assert any("numeric" in note for note in doc["notes"])


CHEB_WEIGHT = {"logderiv": "x/(1-x^2)", "form": "chebyshev_weight"}


def test_chebyshev_weight_verify_runs_both_paths_exactly():
    job = pipeline.build_job({
        "task": "verify",
        "sequence": {"builtin": "chebyshev_T"},
        "transforms": [{"power": 2}],
        "kernel": CHEB_WEIGHT,
        "interval": ["-1", "1"],
    })
    rep = pipeline.run(job)
    assert rep.ok
    names = [v["name"] for v in rep.verifications]
    for name in ("certificate_identity", "initial_window_equations", "unroll_matches_oracle",
                 "quadrature_spot_check", "guess_window_equations",
                 "telescoper_annihilates_guess_unroll", "guess_annihilates_telescoper_unroll"):
        assert name in names
    rec = rep.results["recurrence"]
    assert rec["initial_terms"] is None
    assert rec["exact_initial_terms"] == {"factor": "pi", "values": ["1", "1/2"]}
    assert rec["approx_initial_terms"] == ["3.141592653589793e+00", "1.570796326794897e+00"]
    assert rep.results["guess"]["exact_initial_terms"]["factor"] == "pi"
    assert not any("skipped" in note or "12 digits" in note for note in rep.notes)


def test_chebyshev_weight_guess_task_uses_rational_parts():
    job = pipeline.build_job({
        "task": "guess",
        "sequence": {"builtin": "chebyshev_U"},
        "kernel": CHEB_WEIGHT,
        "interval": ["-1", "1"],
    })
    rep = pipeline.run(job)
    assert rep.ok
    # int U_n/sqrt(1-x^2) dx = pi for even n and 0 for odd n
    values = rep.results["guess"]["exact_initial_terms"]["values"]
    assert values[:4] == ["1", "0", "1", "0"]


def counting(monkeypatch, modules, name):
    """Count the calls of `name` made through any of the modules."""
    calls = []
    real = getattr(modules[0], name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_chebyshev_weight_verify_classifies_once_and_sums_each_q_n_once(monkeypatch):
    # the guess needs 58 q_n at max_degree 5, the telescoper path 51 of them
    job = pipeline.build_job({
        "task": "verify",
        "sequence": {"builtin": "chebyshev_T"},
        "transforms": [{"power": 2}],
        "kernel": CHEB_WEIGHT,
        "interval": ["-1", "1"],
        "options": {"max_degree": 5},
    })
    sums = counting(monkeypatch, [oracle], "_moment_sum")
    forms = counting(monkeypatch, [oracle], "recognized_form")
    rep = pipeline.run(job)
    assert rep.ok
    assert len(rep.results["guess"]["exact_initial_terms"]["values"]) == 58
    assert len(sums) == 58
    assert len(forms) == 1


def test_guess_job_checks_its_windows_once(monkeypatch):
    job = pipeline.build_job({
        "task": "guess",
        "sequence": {"builtin": "chebyshev_T"},
        "kernel": {"polynomial": "1"},
        "interval": ["-1", "1"],
    })
    calls = counting(monkeypatch, [o2r, guess], "first_failure")
    rep = pipeline.run(job)
    assert rep.ok
    assert [v["name"] for v in rep.verifications] == ["guess_window_equations"]
    # the guesser's own check covers every term the guess was fitted to
    assert len(calls) == 1
    assert len(calls[0][1]) == pipeline._guess_term_count(job.options)


def test_verify_job_unrolls_once(monkeypatch):
    # the cross-checks read the telescoper path's unroll and the guess's own
    # initial terms, so neither recurrence is unrolled again
    job = pipeline.build_job({
        "task": "verify",
        "sequence": {"builtin": "chebyshev_T"},
        "transforms": [{"product_with": {"builtin": "chebyshev_U"}}],
        "kernel": {"polynomial": "x^2+1"},
        "interval": ["-1/2", "3/4"],
    })
    unrolls = counting(monkeypatch, [o2r], "unroll")
    checks = counting(monkeypatch, [o2r, guess], "first_failure")
    rep = pipeline.run(job)
    assert rep.ok
    assert [v["name"] for v in rep.verifications] == [
        "certificate_identity",
        "initial_window_equations",
        "unroll_matches_oracle",
        "guess_window_equations",
        "telescoper_annihilates_guess_unroll",
        "guess_annihilates_telescoper_unroll",
    ]
    assert len(unrolls) == 1
    assert len(checks) == 4


def test_chebyshev_weight_with_rational_prefactor_stays_numeric():
    # x^n/((2-x)*sqrt(1-x^2)): no exact oracle, so the recurrence is seeded by
    # quadrature, which now runs at the full requested precision
    x_power = cf.CFiniteSeq((Poly("x", [0, 1]),), (Poly("x", [1]),))
    kern = Kernel(RatFunc(Poly("x", [1]), Poly("x", [2, -1])), chebyshev_weight().logderiv)
    job = pipeline.Job(x_power, kern, Fraction(-1), Fraction(1), "recurrence", None,
                       pipeline.Options(), {})
    rep = pipeline.run(job)
    assert rep.ok
    assert [v["name"] for v in rep.verifications] == [
        "certificate_identity", "numeric_window_equations"]
    assert rep.results["recurrence"]["initial_terms"] is None
    assert "exact_initial_terms" not in rep.results["recurrence"]
    assert not any("digits" in note for note in rep.notes)


# the numeric check, pipeline._max_residual: first_failure's equations on mpf values

HARMONIC = o2r.Recurrence((Poly("n", [-1, -1]), Poly("n", [2, 1])), 0, None,
                          ((((0, 1),), 1),))  # (n+2)·a(n+1) = (n+1)·a(n), a(0) = 1


def harmonic_values(count):
    return [mp.mpf(1) / (n + 1) for n in range(count)]


def test_max_residual_of_exact_values_is_rounding():
    with mp.workdps(30):
        assert pipeline._max_residual(HARMONIC, harmonic_values(12)) < mp.mpf(10) ** -28


def test_max_residual_sees_a_value_off_by_a_millionth():
    with mp.workdps(30):
        vals = harmonic_values(12)
        vals[7] *= 1 + mp.mpf(10) ** -6
        assert pipeline._max_residual(HARMONIC, vals) > mp.mpf(10) ** -7


def test_max_residual_sees_a_wrong_low_index_rhs():
    wrong = o2r.Recurrence(HARMONIC.coeffs, 0, None, ((((0, 1),), 2),))
    with mp.workdps(30):
        vals = harmonic_values(12)
        assert pipeline._max_residual(o2r.Recurrence(HARMONIC.coeffs, 0), vals) < 1e-28
        # |a(0) - 2| / (|a(0)| + 2)
        assert mp.almosteq(pipeline._max_residual(wrong, vals), mp.mpf(1) / 3)


def test_max_residual_is_scale_free():
    rec = o2r.Recurrence(HARMONIC.coeffs, 0)
    with mp.workdps(30):
        vals = harmonic_values(12)
        vals[5] *= 1 + mp.mpf(10) ** -9
        big = [v * mp.mpf(10) ** 30 for v in vals]
        small = pipeline._max_residual(rec, vals)
        assert small > mp.mpf(10) ** -11
        assert mp.almosteq(pipeline._max_residual(rec, big), small, rel_eps=mp.mpf(10) ** -20)


def test_order_12_recurrence_holds_on_its_12_digit_values(monkeypatch):
    # T·U against (x^2+1)/(x-3): its 8 windows and 11 low-index equations hold
    # on one tanh-sinh pass at 12 digits, where an unroll from the first 12
    # of those values missed them by 2e-5
    calls = counting(monkeypatch, [pipeline], "_max_residual")
    rep = pipeline.run(pipeline.build_job({
        "task": "recurrence", "sequence": {"builtin": "chebyshev_T"},
        "transforms": [{"product_with": {"builtin": "chebyshev_U"}}],
        "kernel": {"rational": "(x^2+1)/(x-3)"}, "interval": ["-1", "1"],
        "options": {"max_order": 3}}))
    assert rep.ok
    assert any("12 digits" in note for note in rep.notes)
    (rec, vals), = calls
    assert rec.order == 12 and len(rec.exceptional) == 11
    with mp.workdps(22):
        assert pipeline._max_residual(rec, vals) < mp.mpf(10) ** -20


def test_a_wrong_boundary_fails_the_low_index_equations(monkeypatch):
    # U against 1/(2-x) has the boundary 4/(t^2-1); one more than that changes
    # only the low-index equations, and the windows still hold
    real = pipeline.boundary_rhs
    monkeypatch.setattr(pipeline, "boundary_rhs", lambda *args: real(*args) + 1)
    rep = pipeline.run(pipeline.build_job({
        "task": "recurrence", "sequence": {"builtin": "chebyshev_U"},
        "kernel": {"rational": "1/(2-x)"}, "interval": ["-1", "1"]}))
    assert [(v["name"], v["pass"]) for v in rep.verifications] == [
        ("certificate_identity", True), ("numeric_window_equations", False)]
    assert rep.exit_code == 1


# linear_power kernels |x-a|^c on [-1, 1]: with a = 1 the boundary has no
# limit at the regular endpoint -1, so the pipeline reports the homogeneous
# recurrence under a vanishing-boundary hypothesis and omits its low-index
# equations

FALLBACK_NOTE = "its low-index equations depend on the boundary and are omitted"


def linear_power_job(seq, transforms, logderiv, options):
    return pipeline.build_job({
        "task": "recurrence", "sequence": seq, "transforms": transforms,
        "kernel": {"logderiv": logderiv, "form": "linear_power"},
        "interval": ["-1", "1"], "options": options})


def quad_values(seq, a, c, count):
    """∫_{-1}^{1} P_n(x)·|x-a|^c dx by mp.quad at the working precision, n < count.

    At a = 1, x = 1 - u^2 leaves the smooth 2·P_n(1-u^2)·u^(2c+1) on [0, sqrt(2)].
    """
    out = []
    for p in cf.terms(seq, count):
        cs = [oracle.as_mpf(v) for v in reversed(p.coeffs)]
        if a == 1:
            e = 2 * oracle.as_mpf(c) + 1
            out.append(mp.quad(lambda u: 2 * mp.polyval(cs, 1 - u * u) * u**e, [0, mp.sqrt(2)]))
        else:
            out.append(mp.quad(lambda x: mp.polyval(cs, x) * abs(x - a) ** oracle.as_mpf(c),
                                [-1, 1]))
    return out


@pytest.mark.parametrize("logderiv,a,c,a0,options", [
    # int_{-1}^{1} sqrt(1-x) dx = 4*sqrt(2)/3
    ("(1/2)/(x-1)", 1, Fraction(1, 2), lambda: 4 * mp.sqrt(2) / 3, {}),
    # int_{-1}^{1} sqrt(3-x) dx = (16 - 4*sqrt(2))/3
    ("(1/2)/(x-3)", 3, Fraction(1, 2), lambda: (16 - 4 * mp.sqrt(2)) / 3, {"max_order": 8}),
    # int_{-1}^{1} dx/sqrt(1-x) = 2*sqrt(2)
    ("(-1/2)/(x-1)", 1, Fraction(-1, 2), lambda: 2 * mp.sqrt(2), {}),
])
def test_linear_power_fallback_reports_only_windows_that_hold(logderiv, a, c, a0, options):
    job = linear_power_job({"builtin": "chebyshev_T"}, [], logderiv, options)
    rep = pipeline.run(job)
    assert rep.ok
    res = rep.results["recurrence"]
    assert res["exceptional"] == []
    assert any(FALLBACK_NOTE in note for note in rep.notes)
    coeffs = [exprs.parse_ratfunc(text, ("n",), "n").num for text in res["coeffs"]]
    order, start = res["order"], res["threshold"]
    with mp.workdps(40):
        vals = quad_values(job.sequence, a, c, start + order + 8)
        assert abs(vals[0] - a0()) < mp.mpf(10) ** -35
        for n in range(start, len(vals) - order):
            terms = [oracle.as_mpf(p.eval(n)) * vals[n + i] for i, p in enumerate(coeffs)]
            assert abs(mp.fsum(terms)) < mp.mpf(10) ** -30 * mp.fsum(map(abs, terms)), n


@pytest.mark.parametrize("seq,transforms,logderiv,options", [
    ({"builtin": "chebyshev_U"}, [], "(1/2)/(x-1)", {}),
    ({"builtin": "chebyshev_T"}, [{"power": 2}], "(1/2)/(x-3)", {"max_order": 8}),
    # the tolerance has a floor: 10^(2-digits) alone would pass anything at precision 1
    ({"builtin": "chebyshev_U"}, [], "(1/2)/(x-1)", {"precision": 1}),
])
def test_linear_power_fallback_windows_that_fail_exit_1(seq, transforms, logderiv, options):
    rep = pipeline.run(linear_power_job(seq, transforms, logderiv, options))
    assert rep.results["recurrence"]["exceptional"] == []
    assert [(v["name"], v["pass"]) for v in rep.verifications] == [
        ("certificate_identity", True), ("numeric_window_equations", False)]
    assert rep.exit_code == 1


def test_load_job_errors(tmp_path):
    with pytest.raises(InvalidJob):
        pipeline.load_job(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InvalidJob):
        pipeline.load_job(str(bad))
    # not UTF-8, and nested deeper than the JSON decoder's recursion allows
    for blob in (b"\xff\xfe{}", b"[" * 100000 + b"]" * 100000):
        bad.write_bytes(blob)
        with pytest.raises(InvalidJob):
            pipeline.load_job(str(bad))


TERMS_T = {"task": "terms", "count": 3, "sequence": {"builtin": "chebyshev_T"}}


@pytest.mark.parametrize("doc,needle", [
    (dict(TERMS_T, count=True), "count:"),
    (dict(TERMS_T, transforms=[{"power": True}]), "transforms[0]: power"),
    (dict(TERMS_T, transforms=[{"power": False}]), "transforms[0]: power"),
    (dict(TERMS_T, sequence={"coeffs": ["x"], "init": ["1"], "order": True}), "sequence.order"),
    (dict(TERMS_T, transforms=[{"product_with": {"coeffs": ["x"], "init": ["1"], "order": True}}]),
     "transforms[0].order"),
] + [(dict(TERMS_T, options={key: True}), "options.%s" % key) for key in pipeline.MAX_OPTIONS])
def test_booleans_are_not_integers(doc, needle):
    with pytest.raises(InvalidJob, match=re.escape(needle)):
        pipeline.build_job(doc)


@pytest.mark.parametrize("logderiv,interval", [
    ("x/(1-x^2)", ["-1", "1"]),
    ("x/(1-x^2)", ["0", "1"]),
    ("(1/2)/(x-1)", ["-1", "1"]),
])
def test_logderiv_poles_at_an_endpoint_are_accepted(logderiv, interval):
    for task in ("recurrence", "guess", "verify"):
        pipeline.build_job({"task": task, "sequence": {"builtin": "chebyshev_T"},
                            "kernel": {"logderiv": logderiv}, "interval": interval})


def test_initial_polynomials_vanishing_at_the_endpoint_keep_the_integrals_finite():
    # P_n = (x-1)·T_n all vanish at x = 1, so against |x-1|^(-3/2) the
    # integrands behave as |x-1|^(-1/2) there; T_n alone is refused
    doc = {"task": "recurrence", "sequence": {"coeffs": ["2*x", "-1"], "init": ["x-1", "x^2-x"]},
           "kernel": {"logderiv": "(-3/2)/(x-1)"}, "interval": ["-1", "1"]}
    for task in ("recurrence", "guess", "verify"):
        pipeline.build_job(dict(doc, task=task))
    with pytest.raises(InvalidJob, match="diverge at x = 1, where the kernel has exponent -3/2"
                       " and P_n vanishes to order 0"):
        pipeline.build_job(dict(doc, sequence={"builtin": "chebyshev_T"}))


@pytest.mark.parametrize("logderiv,kernel", [("2/(x-3)", {"polynomial": "(x-3)^2"}),
                                             ("-1/(x-2)", {"rational": "1/(2-x)"})])
@pytest.mark.parametrize("transforms,builtin", [
    ([], "chebyshev_T"), ([], "chebyshev_U"), ([{"power": 2}], "chebyshev_T"),
    ([{"product_with": {"builtin": "chebyshev_U"}}], "chebyshev_T")], ids=["T", "U", "T2", "TU"])
def test_integer_exponent_log_derivative_is_its_rational_kernel(logderiv, kernel, transforms,
                                                                builtin):
    # exp(∫ c/(x-a)) with integer c is (s·(x-a))^c, s·(x-a) > 0 on [-1, 1]:
    # both spellings give one telescoper, certificate, boundary and
    # recurrence, and exit 0, while the job echo keeps what was written
    reps = [pipeline.run(pipeline.build_job({
        "task": "recurrence", "sequence": {"builtin": builtin}, "transforms": transforms,
        "kernel": k, "interval": ["-1", "1"]})) for k in ({"logderiv": logderiv}, kernel)]
    assert reps[0].results == reps[1].results and reps[0].notes == reps[1].notes
    assert reps[0].verifications == reps[1].verifications
    assert reps[0].exit_code == 0
    assert reps[0].job["kernel"] == {"logderiv": exprs.fmt_ratfunc(
        exprs.parse_ratfunc(logderiv, ("x",)))}


# -- job-document fuzzing: every document builds or is refused with exit 2 ----

EXPRESSIONS = ["1", "0", "x", "-x", "2*x", "2*x^2-1", "1-x^2", "x^2+1", "1/(2-x)",
               "(1/2)/(x-1)", "x/(1-x^2)", "1/x", "1/0", "x^1001", "t", "2x", "(1+x)^40"]
fuzz_text = st.text(alphabet="xtn0123456789+-*/^() .", max_size=10)
expressions = st.sampled_from(EXPRESSIONS) | fuzz_text
json_leaves = (st.none() | st.booleans() | st.integers(-3, 40)
               | st.floats(allow_nan=False, allow_infinity=False) | expressions)
json_values = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=8), kids, max_size=3),
    max_leaves=8,
)
rational_texts = st.sampled_from(["-1", "0", "1", "1/2", "-1/3", "2/5", "1e3", "x", ""])


@st.composite
def junk_or(draw, strategy):
    """A value from strategy, or one time in eight a JSON value of any shape."""
    return draw(json_values if draw(st.integers(0, 7)) == 7 else strategy)


custom_sequences = st.fixed_dictionaries(
    {"coeffs": junk_or(st.lists(expressions, max_size=3)),
     "init": junk_or(st.lists(expressions, max_size=3))},
    optional={"order": junk_or(st.integers(0, 3))},
)
sequences = junk_or(st.sampled_from([{"builtin": n} for n in sorted(cf.BUILTINS)])
                    | st.fixed_dictionaries({"builtin": json_values})
                    | custom_sequences)
transforms = junk_or(st.lists(
    st.sampled_from(["reverse", {"reverse": True}])
    | st.fixed_dictionaries({"power": junk_or(st.integers(-1, 5))})
    | st.fixed_dictionaries({"product_with": sequences})
    | json_values,
    max_size=3,
))
kernels = junk_or(
    st.fixed_dictionaries({"polynomial": junk_or(expressions)})
    | st.fixed_dictionaries({"rational": junk_or(expressions)})
    | st.fixed_dictionaries({"logderiv": junk_or(expressions)},
                            optional={"form": junk_or(st.sampled_from(["linear_power", "cheb"]))})
)
options = junk_or(st.dictionaries(
    st.sampled_from(["max_order", "max_degree", "precision", "margin", "depth"]),
    junk_or(st.integers(-1, 120)), max_size=4,
))
@st.composite
def schema_documents(draw):
    """Job documents along the schema, one time in eight with a stray field."""
    doc = draw(st.fixed_dictionaries(
        {"task": junk_or(st.sampled_from(pipeline._TASKS)), "sequence": sequences},
        optional={
            "transforms": transforms,
            "kernel": kernels,
            "interval": junk_or(st.lists(junk_or(rational_texts), min_size=2, max_size=2)),
            "count": junk_or(st.integers(-1, 600)),
            "options": options,
        },
    ))
    if draw(st.integers(0, 7)) == 7:
        doc[draw(st.text(max_size=8))] = draw(json_values)
    return doc


job_documents = junk_or(schema_documents())


@settings(max_examples=400, deadline=None)
@given(job_documents)
def test_job_documents_build_or_exit_2(doc):
    start = time.perf_counter()
    try:
        job = pipeline.build_job(doc)
    except IntrecError as e:
        assert cli._error_exit_code(e) == 2
    else:
        assert isinstance(job, pipeline.Job)
    assert time.perf_counter() - start < 10.0
