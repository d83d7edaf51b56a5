"""Command-line front end: exit codes, output routing, golden stability."""

import json
import os
import time

import pytest

from intrec import cli, pipeline

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "chebyshev_recurrence.json")

CHEB_JOB = {
    "sequence": {"builtin": "chebyshev_T"},
    "kernel": {"polynomial": "1"},
    "interval": ["-1", "1"],
    "task": "recurrence",
}


def write_job(tmp_path, doc, name="job.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_run_matches_golden_report(tmp_path):
    out = tmp_path / "report.json"
    code = cli.main(["run", "--job", write_job(tmp_path, CHEB_JOB),
                     "--format", "json", "--out", str(out)])
    assert code == 0
    with open(GOLDEN, "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_run_text_to_stdout(tmp_path, capsys):
    doc = {"task": "terms", "count": 3, "sequence": {"builtin": "chebyshev_T"}}
    code = cli.main(["run", "--job", write_job(tmp_path, doc)])
    assert code == 0
    out = capsys.readouterr().out
    assert "task: terms" in out and "P_2 = 2*x^2-1" in out


def test_invalid_job_exits_2(tmp_path, capsys):
    doc = dict(CHEB_JOB, wat=1)
    assert cli.main(["run", "--job", write_job(tmp_path, doc)]) == 2
    assert "error:" in capsys.readouterr().err


def test_exponent_tower_exits_2_at_once(tmp_path, capsys):
    doc = dict(CHEB_JOB, kernel={"polynomial": "x^9^9^9"})
    start = time.perf_counter()
    assert cli.main(["run", "--job", write_job(tmp_path, doc)]) == 2
    assert time.perf_counter() - start < 1.0
    assert "exponent exceeds" in capsys.readouterr().err


T = {"builtin": "chebyshev_T"}
ORDER_5 = {"coeffs": ["1", "0", "0", "0", "1"], "init": ["1", "1", "1", "1", "1"]}
SIZE_LIMITS = [
    ("bits", dict(CHEB_JOB, kernel={"polynomial": "((9^100)^100)^100"}),
     "coefficients exceed"),
    ("bits_power", dict(CHEB_JOB, kernel={"polynomial": "(9^1000*x+1)^300"}),
     "coefficients exceed"),
    ("literal", dict(CHEB_JOB, kernel={"polynomial": "7" * 5000}), "integer literal exceeds"),
    ("power_order", {"task": "terms", "count": 2, "sequence": T,
                     "transforms": [{"power": 6}]}, "order 64"),
    ("power_exponent", {"task": "terms", "count": 2, "sequence": {"coeffs": ["x"], "init": ["1"]},
                        "transforms": [{"power": 10**9}]}, "power at most"),
    ("product_order", {"task": "terms", "count": 2, "sequence": T,
                       "transforms": [{"power": 3}, {"product_with": ORDER_5}]}, "order 40"),
    ("count", {"task": "terms", "count": pipeline.MAX_COUNT + 1, "sequence": T},
     "count: at most"),
] + [
    (key, dict(CHEB_JOB, options={key: limit + 1}), "options.%s: at most" % key)
    for key, limit in pipeline.MAX_OPTIONS.items()
]


@pytest.mark.parametrize("doc,needle", [c[1:] for c in SIZE_LIMITS],
                         ids=[c[0] for c in SIZE_LIMITS])
def test_size_limits_exit_2_at_once(tmp_path, capsys, doc, needle):
    start = time.perf_counter()
    assert cli.main(["run", "--job", write_job(tmp_path, doc)]) == 2
    assert time.perf_counter() - start < 1.0
    assert needle in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert cli.main(["run", "--job", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()


def test_unparseable_file_exits_2(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{oops", encoding="utf-8")
    assert cli.main(["run", "--job", str(p)]) == 2
    capsys.readouterr()


def test_search_exhaustion_exits_3(tmp_path, capsys):
    doc = {"task": "telescope", "sequence": {"builtin": "chebyshev_T"},
           "kernel": {"polynomial": "1"}, "options": {"max_order": 0}}
    assert cli.main(["run", "--job", write_job(tmp_path, doc)]) == 3
    assert "no telescoper" in capsys.readouterr().err


def test_no_guess_exits_3(tmp_path, capsys):
    doc = {"task": "guess", "sequence": {"builtin": "chebyshev_T"},
           "kernel": {"polynomial": "1"}, "interval": ["-1", "1"],
           "options": {"max_order": 1, "max_degree": 0}}
    assert cli.main(["run", "--job", write_job(tmp_path, doc)]) == 3
    assert "no recurrence" in capsys.readouterr().err


def test_failed_verification_exits_1(tmp_path, monkeypatch, capsys):
    def fake_run(job):
        rep = pipeline.Report(task=job.task, job=dict(job.echo))
        rep.check("planted", False, "synthetic failure")
        return rep

    monkeypatch.setattr(pipeline, "run", fake_run)
    doc = {"task": "terms", "count": 2, "sequence": {"builtin": "chebyshev_T"}}
    assert cli.main(["run", "--job", write_job(tmp_path, doc)]) == 1
    assert "[FAIL] planted" in capsys.readouterr().out


def test_unwritable_out_exits_2(tmp_path, capsys):
    doc = {"task": "terms", "count": 2, "sequence": {"builtin": "chebyshev_T"}}
    path = str(tmp_path / "no" / "such" / "dir" / "r.txt")
    assert cli.main(["run", "--job", write_job(tmp_path, doc),
                     "--out", path]) == 2
    capsys.readouterr()


def test_option_flags_reach_the_pipeline(tmp_path, capsys):
    doc = {"task": "telescope", "sequence": {"builtin": "chebyshev_T"},
           "kernel": {"polynomial": "1"}}
    assert cli.main(["run", "--job", write_job(tmp_path, doc),
                     "--max-order", "0"]) == 3
    capsys.readouterr()
    # explicit job options win over command-line defaults
    doc["options"] = {"max_order": 6}
    assert cli.main(["run", "--job", write_job(tmp_path, doc),
                     "--max-order", "0"]) == 0
    capsys.readouterr()


def test_bench_smoke(capsys):
    assert cli.main(["bench", "--repeat", "1"]) == 0
    out = capsys.readouterr().out
    assert "workload" in out and "pure" in out
