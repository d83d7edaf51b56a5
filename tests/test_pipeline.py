"""Job schema validation, report payloads, and emission stability."""

import json
import re
from fractions import Fraction

import pytest
from mpmath import mp

from intrec import cfinite as cf
from intrec import exprs
from intrec import oracle
from intrec import pipeline
from intrec.errors import BoundaryNotEvaluable, InvalidJob
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


def test_report_exit_codes():
    rep = pipeline.Report(task="terms", job={})
    rep.check("a", True)
    assert rep.ok and rep.exit_code == 0
    rep.check("b", False, "broke")
    assert not rep.ok and rep.exit_code == 1


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
        from intrec.poly import num_from_str
        return exprs.fmt_rational(num_from_str(text)) == text
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


def test_chebyshev_weight_unevaluable_boundary_falls_back_to_guessing(monkeypatch):
    def refuse(*args):
        raise BoundaryNotEvaluable("forced for the test")

    monkeypatch.setattr(pipeline, "boundary_rhs", refuse)
    job = pipeline.build_job({
        "task": "recurrence",
        "sequence": {"builtin": "chebyshev_T"},
        "kernel": CHEB_WEIGHT,
        "interval": ["-1", "1"],
    })
    rep = pipeline.run(job)
    assert rep.ok
    assert "recurrence" not in rep.results
    assert rep.results["guess"]["exact_initial_terms"]["values"][:3] == ["1", "0", "0"]
    assert any("guessing path" in note for note in rep.notes)
    assert not any("vanishing-boundary" in note for note in rep.notes)


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
        "certificate_identity", "numeric_unroll_consistency"]
    assert rep.results["recurrence"]["initial_terms"] is None
    assert "exact_initial_terms" not in rep.results["recurrence"]
    assert not any("digits" in note for note in rep.notes)


@pytest.mark.xfail(strict=True, reason="linear_power kernels fall back to a vanishing-"
                   "boundary hypothesis that is false at the regular endpoint -1")
def test_linear_power_low_index_equations_hold():
    job = pipeline.build_job({
        "task": "recurrence",
        "sequence": {"builtin": "chebyshev_T"},
        "kernel": {"logderiv": "(1/2)/(x-1)", "form": "linear_power"},
        "interval": ["-1", "1"],
    })
    rep = pipeline.run(job)
    assert rep.ok
    prob = oracle.IntegralProblem(job.sequence, job.kernel, job.alpha, job.beta)
    with mp.workdps(25):
        a = [oracle.numeric_term(prob, n, 12) for n in range(4)]
        # int_{-1}^{1} sqrt(1-x) dx = 4*sqrt(2)/3
        assert abs(a[0] - 4 * mp.sqrt(2) / 3) < mp.mpf(10) ** -10
        for eq in rep.results["recurrence"]["exceptional"]:
            lhs = sum(oracle.as_mpf(Fraction(w)) * a[idx] for idx, w in eq["pairs"])
            assert abs(lhs - oracle.as_mpf(Fraction(eq["rhs"]))) < mp.mpf(10) ** -8


def test_load_job_errors(tmp_path):
    with pytest.raises(InvalidJob):
        pipeline.load_job(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(InvalidJob):
        pipeline.load_job(str(bad))
