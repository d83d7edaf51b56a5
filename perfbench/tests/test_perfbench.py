"""Tests of the benchmark's own code: checker, job cap, span arithmetic, corpus.

    python3 -m pytest perfbench/tests -q
"""

import copy
import json
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

with open(run.GOLDEN, "rb") as _fh:
    GOLDEN_BYTES = _fh.read()
GOLDEN = json.loads(GOLDEN_BYTES)


def test_golden_report_passes_every_check():
    assert check.check_golden(GOLDEN_BYTES.decode("utf-8"), GOLDEN_BYTES) is None
    assert check.check_exact_report(GOLDEN, GOLDEN["job"]) is None
    assert check.check_telescoper(GOLDEN, GOLDEN["job"]) is None


def test_checker_rejects_altered_recurrence():
    bad = copy.deepcopy(GOLDEN)
    bad["results"]["recurrence"]["coeffs"][2] = "n+4"
    assert check.check_exact_report(bad, GOLDEN["job"]) is not None
    bad = copy.deepcopy(GOLDEN)
    bad["results"]["recurrence"]["initial_terms"][0] = "3"
    assert check.check_exact_report(bad, GOLDEN["job"]) is not None
    text = json.dumps(bad, sort_keys=True, indent=2) + "\n"
    assert check.check_golden(text, GOLDEN_BYTES) is not None


def test_checker_rejects_altered_certificate():
    bad = copy.deepcopy(GOLDEN)
    tel = bad["results"]["telescoper"]
    tel["certificate"] = tel["certificate"].replace("-3/2+", "-1/2+", 1)
    assert check.check_telescoper(bad, GOLDEN["job"]) is not None


def test_reference_integrals_by_power_rule():
    doc = {"sequence": corpus.T, "kernel": {"polynomial": "1"}, "interval": ["-1", "1"]}
    # int T_n over [-1, 1] = 2/(1 - n^2) for even n, 0 for odd n
    assert check.exact_integrals(doc, 5) == [2, 0, Fraction(-2, 3), 0, Fraction(-2, 15)]
    doc = {"sequence": {"coeffs": ["x"], "init": ["1"]}, "kernel": {"polynomial": "3*x^2"},
           "interval": ["0", "1"]}
    assert check.exact_integrals(doc, 3) == [1, Fraction(3, 4), Fraction(3, 5)]


def test_chebyshev_closed_forms():
    def parts(seq, transforms=()):
        return check.chebyshev_parts(
            check.sequence_polys({"sequence": seq, "transforms": list(transforms)}, 6))

    assert parts(corpus.T) == [1, 0, 0, 0, 0, 0]  # pi * [n = 0]
    assert parts(corpus.T, [{"power": 2}]) == [1] + [Fraction(1, 2)] * 5  # pi, then pi/2
    assert parts(corpus.U) == [1, 0, 1, 0, 1, 0]  # pi * [n even]


def test_expression_evaluator():
    assert check.value("(-3/2+2*x*t)/(-t+x*t^2)", x=2, t=1) == Fraction(5, 2)
    assert check.value("-x^2", x=3) == -9
    assert check.poly("16*n^2-16*n+3", "n") == [3, -16, 16]
    assert check.int_poly("2*x^2-x+1") == [1, -1, 2]


def test_cap_records_timeout():
    class Hangs:
        @staticmethod
        def main(argv):
            time.sleep(30)

    t0 = time.perf_counter()
    result = run.run_job(Hangs, "unused.json", 0.2)
    assert time.perf_counter() - t0 < 5
    assert result[0] == "timeout" and result[3] == 0.2
    job = corpus.Job("hang", {}, (0,), 0.2, ("exact",))
    verdict = run.judge(job, result, GOLDEN_BYTES)
    assert verdict == "timeout" and run.is_failure(verdict)


def test_disallowed_exit_code_is_a_failure():
    job = corpus.Job("miss", {}, (3,), 1.0, ("miss", 1))
    assert run.judge(job, (3, "", "error: stage telescope: no telescoper up to order 1", 1.0),
                     GOLDEN_BYTES) == "expected exit 3"
    assert run.is_failure(run.judge(job, (2, "", "error: bad", 1.0), GOLDEN_BYTES))


def _span(rec, name, start, end, parent):
    rec.name.append(rec.name_id(name))
    rec.start.append(start)
    rec.end.append(end)
    rec.parent.append(parent)
    rec.job.append(0)
    same = parent
    while same >= 0 and rec.names[rec.name[same]] != name:
        same = rec.parent[same]
    rec.outer.append(1 if same < 0 else 0)
    return len(rec.name) - 1


def test_self_time_on_nested_spans():
    rec = spans.Recorder()
    job = _span(rec, "job", 0.0, 10.0, -1)
    a = _span(rec, "a", 1.0, 4.0, job)
    _span(rec, "b", 2.0, 3.0, a)
    c = _span(rec, "a", 5.0, 9.0, job)
    inner = _span(rec, "a", 6.0, 8.0, c)  # same name nested: counted once in s
    _span(rec, "b", 6.5, 7.0, inner)
    agg = spans.aggregate(rec)
    assert agg["job"] == {"calls": 1, "s": 10.0, "self_s": 3.0}
    assert agg["a"]["calls"] == 3 and agg["a"]["s"] == 7.0
    assert agg["a"]["self_s"] == 2.0 + 2.0 + 1.5
    assert agg["b"] == {"calls": 2, "s": 1.5, "self_s": 1.5}


def test_recorder_spans_nest_through_wrappers():
    rec = spans.Recorder()
    inner = rec.wrap(lambda: time.sleep(0.01), "inner")
    outer = rec.wrap(lambda: inner(), "outer")
    outer()
    agg = spans.aggregate(rec)
    assert agg["outer"]["calls"] == agg["inner"]["calls"] == 1
    assert agg["outer"]["self_s"] < agg["inner"]["s"]
    assert list(rec.parent) == [-1, 0]


def test_tail_has_ten_jobs_beyond_it():
    times = [float(i) for i in range(40)]
    value, pct, rank = run.tail(times)
    assert value == 29.0 and rank == 30 and len([t for t in times if t > value]) == 10
    assert run.tail([3.0, 1.0, 2.0])[0] == 3.0


def test_corpus_is_identical_for_equal_seeds():
    for workload in corpus.WORKLOADS:
        a = corpus.generate(workload, 7, 3, GOLDEN["job"])
        b = corpus.generate(workload, 7, 3, GOLDEN["job"])
        assert a == b
        assert corpus.generate(workload, 7, 2, GOLDEN["job"]) == a[:2]
    a = corpus.generate("exact_verify", 7, 2, GOLDEN["job"])
    b = corpus.generate("exact_verify", 8, 2, GOLDEN["job"])
    assert [j.doc for r in a for j in r] != [j.doc for r in b for j in r]


def test_instrumentation_traces_and_restores_call_sites():
    run.import_intrec()
    import importlib

    import mpmath

    pipeline = importlib.import_module("intrec.pipeline")
    owners = [(importlib.import_module(m), a) for m, a, _ in spans.CALL_SITES]
    owners += [(importlib.import_module("intrec.poly"), "gcd"),
               (importlib.import_module("intrec.ratfunc").RatFunc, "__init__")]
    before = [getattr(o, a) for o, a in owners]
    rec = spans.Recorder()
    with spans.Instrumentation(rec):
        assert pipeline.telescope is not before[3]
        report = pipeline.run(pipeline.build_job(GOLDEN["job"]))
    assert [getattr(o, a) for o, a in owners] == before
    assert "quad" not in vars(mpmath.mp)
    assert report.ok
    agg = spans.aggregate(rec)
    assert agg["telescope.telescope"]["calls"] == 1
    assert agg["pipeline.build_job"]["calls"] == 1
    assert agg["oracle.exact_term"]["calls"] == agg["cfinite.term"]["calls"] > 0
    assert agg["ratfunc.RatFunc"]["calls"] > 0 and agg["poly.gcd.bivariate"]["calls"] > 0
    assert rec.counts["telescopers_found"] == 1
