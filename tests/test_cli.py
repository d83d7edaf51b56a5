"""Command-line front end: exit codes, output routing, golden stability."""

import argparse
import json
import os
import re
import sys
import time

import mpmath
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


# reports of a job whose system has fractional coefficients (rational kernel)
# and of one with larger systems, stored before the telescoper moved to
# integer rows, and of a power and a product of a sequence with rational
# coefficients, stored before closures moved to power sums; all must stay
# byte-identical
MORE_GOLDEN = [
    ("chebyshev_u_rational_recurrence.json",
     {"task": "recurrence", "sequence": {"builtin": "chebyshev_U"},
      "kernel": {"rational": "1/(2-x)"}, "interval": ["-1", "1"]}),
    ("chebyshev_t3_verify.json",
     {"task": "verify", "sequence": {"builtin": "chebyshev_T"}, "transforms": [{"power": 3}],
      "kernel": {"polynomial": "1"}, "interval": ["-1", "1"]}),
    ("custom_rational_power_product_genfun.json",
     {"task": "genfun", "sequence": {"coeffs": ["x/3+1", "-2/5"], "init": ["1", "x-1/2"]},
      "transforms": [{"power": 2}, {"product_with": {"builtin": "chebyshev_U"}}]}),
    # stored before the pi-factored values moved into oracle.exact_term: the
    # guess needs more q_n than the telescoper path
    ("chebyshev_weight_t2_verify.json",
     {"task": "verify", "sequence": {"builtin": "chebyshev_T"}, "transforms": [{"power": 2}],
      "kernel": {"logderiv": "x/(1-x^2)", "form": "chebyshev_weight"},
      "interval": ["-1", "1"], "options": {"max_degree": 5}}),
    # stored before verify's cross-checks moved onto terms both paths already
    # hold: a nonzero boundary, 8 low-index equations, an order-8 recurrence
    # and an order-5 guess
    ("chebyshev_tu_inhomogeneous_verify.json",
     {"task": "verify", "sequence": {"builtin": "chebyshev_T"},
      "transforms": [{"product_with": {"builtin": "chebyshev_U"}}],
      "kernel": {"polynomial": "x^2+1"}, "interval": ["-1/2", "3/4"]}),
    # stored before every exact vector was cleared by poly.cleared: a
    # sequence with rational coefficients against a rational polynomial
    # kernel, an order-10 recurrence and an order-5 guess
    ("custom_rational_verify.json",
     {"task": "verify", "sequence": {"coeffs": ["x/3+1", "-2/5"], "init": ["1", "x-1/2"]},
      "kernel": {"polynomial": "x^2/3-1/2"}, "interval": ["-1/2", "3/4"]}),
    # stored before the oracle's moments, the terms' recurrence steps and the
    # window check moved to integers: the guess task alone, an order-5 guess
    # whose coefficients run to 30 digits
    ("custom_rational_guess.json",
     {"task": "guess", "sequence": {"coeffs": ["1/3*x+1", "-2/5"], "init": ["1", "x-1/2"]},
      "kernel": {"polynomial": "1/3*x^2-1/2"}, "interval": ["-1/2", "3/4"]}),
    # stored before the guess screened on term residues: every oracle term has
    # PRIME in its denominator, so the screen runs modulo the next prime
    ("chebyshev_prime_interval_verify.json",
     {"task": "verify", "sequence": {"builtin": "chebyshev_T"},
      "kernel": {"polynomial": "x^2+1"}, "interval": ["0", "1/1073741789"]}),
]


@pytest.mark.parametrize("name,doc", MORE_GOLDEN, ids=[g[0][:-5] for g in MORE_GOLDEN])
def test_run_matches_more_golden_reports(tmp_path, name, doc):
    out = tmp_path / "report.json"
    code = cli.main(["run", "--job", write_job(tmp_path, doc),
                     "--format", "json", "--out", str(out)])
    assert code == 0
    with open(os.path.join(os.path.dirname(GOLDEN), name), "rb") as fh:
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
    ("nesting_parens", dict(CHEB_JOB, kernel={"polynomial": "(" * 600 + "x" + ")" * 600}),
     "nesting exceeds"),
    ("nesting_minus", dict(CHEB_JOB, kernel={"polynomial": "-" * 2000 + "x"}),
     "nesting exceeds"),
    ("power_order", {"task": "terms", "count": 2, "sequence": T,
                     "transforms": [{"power": 6}]}, "order 64"),
    ("power_exponent", {"task": "terms", "count": 2, "sequence": {"coeffs": ["x"], "init": ["1"]},
                        "transforms": [{"power": 10**9}]}, "power at most"),
    ("product_order", {"task": "terms", "count": 2, "sequence": T,
                       "transforms": [{"power": 3}, {"product_with": ORDER_5}]}, "order 40"),
    ("count", {"task": "terms", "count": pipeline.MAX_COUNT + 1, "sequence": T},
     "count: at most"),
    ("endpoint", dict(CHEB_JOB, interval=["0", "1/" + "3" * 4000]),
     "interval[1]: exceeds the limit of 2048 bits"),
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


SINGULAR_KERNELS = [
    ({"rational": "1/x"}, ["-1", "1"], "kernel.rational: a pole in [-1, 1]"),
    ({"rational": "1/(2*x-1)"}, ["0", "1"], "kernel.rational: a pole in [0, 1]"),
    ({"logderiv": "(-1/2)/x", "form": "linear_power"}, ["-1", "1"],
     "kernel.logderiv: a pole inside (-1, 1)"),
    ({"rational": "1/(x+1)"}, ["-1", "1"], "kernel.rational: a pole in [-1, 1]"),
    ({"logderiv": "(1/2)/x"}, ["-1", "1"], "kernel.logderiv: a pole inside (-1, 1)"),
    # K'/K has a simple pole at an endpoint with residue c <= -1: every
    # integral diverges there, where T_n does not vanish
    ({"logderiv": "(-1)/(x-1)"}, ["-1", "1"],
     "kernel.logderiv: the integrals diverge at x = 1, where the kernel has exponent -1"),
    ({"logderiv": "(-3/2)/(x-1)"}, ["-1", "1"],
     "kernel.logderiv: the integrals diverge at x = 1, where the kernel has exponent -3/2"),
    ({"logderiv": "(-1)/(x+1)"}, ["-1", "1"],
     "kernel.logderiv: the integrals diverge at x = -1, where the kernel has exponent -1"),
    ({"logderiv": "(-5/4)/(x+1)", "form": "linear_power"}, ["-1", "1"],
     "kernel.logderiv: the integrals diverge at x = -1, where the kernel has exponent -5/4"),
    # a zero kernel is refused before any work, not deep in the telescoper
    ({"polynomial": "0"}, ["-1", "1"], "kernel.polynomial: the kernel is zero"),
    ({"rational": "0/(x-3)"}, ["-1", "1"], "kernel.rational: the kernel is zero"),
]


@pytest.mark.parametrize("kernel,interval,needle", SINGULAR_KERNELS)
@pytest.mark.parametrize("task", ["recurrence", "guess", "verify"])
def test_kernel_singular_on_the_interval_exits_2(tmp_path, capsys, task, kernel, interval, needle):
    doc = {"task": task, "sequence": {"builtin": "chebyshev_T"}, "kernel": kernel,
           "interval": interval}
    assert cli.main(["run", "--job", write_job(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert needle in err and "Traceback" not in err


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


def test_exhausted_telescoper_names_its_largest_system(tmp_path, capsys):
    # T^3 needs order 3; orders 0 to 2 miss, and stderr names the largest
    # of their systems: rows x columns at its largest t-degree
    doc = dict(CHEB_JOB, transforms=[{"power": 3}], options={"max_order": 2})
    assert cli.main(["run", "--job", write_job(tmp_path, doc), "--format", "json"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: stage telescope: no telescoper up to order 2"
                   " (largest system 18x17 at t-degree 15)\n")


def test_no_guess_exits_3(tmp_path, capsys):
    doc = {"task": "guess", "sequence": {"builtin": "chebyshev_T"},
           "kernel": {"polynomial": "1"}, "interval": ["-1", "1"],
           "options": {"max_order": 1, "max_degree": 0}}
    assert cli.main(["run", "--job", write_job(tmp_path, doc)]) == 3
    assert "no recurrence" in capsys.readouterr().err


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python prints ints of any length")
def test_value_too_long_to_print_exits_3(tmp_path, capsys):
    # a 300-digit endpoint is within the 2048-bit limit, but the guess's 51
    # initial terms then outgrow Python's limit on printing an int.  verify
    # and guess print every term they make, so they stop at the first one
    # too long, q_4 of T² at 600 digits, where they used to make them all,
    # unroll and guess first (13 s for that verify job)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for task, transforms, digits in [("verify", [], 300), ("verify", [{"power": 2}], 600),
                                         ("guess", [{"power": 2}], 600)]:
            doc = {"task": task, "sequence": {"builtin": "chebyshev_T"},
                   "transforms": transforms, "kernel": {"polynomial": "1"},
                   "interval": ["0", "1/" + "3" * digits]}
            start = time.perf_counter()
            assert cli.main(["run", "--job", write_job(tmp_path, doc), "--format", "json"]) == 3
            assert time.perf_counter() - start < 2
            assert "limit of 4300 for integer string conversion" in capsys.readouterr().err
    finally:
        sys.set_int_max_str_digits(old)


class _StalledRule:
    """A tanh-sinh rule whose error estimate never falls: one node per degree."""

    def get_nodes(self, a, b, degree, prec):
        return [((a + b) / 2, b - a)]

    def estimate_error(self, results, prec, epsilon):
        return mpmath.mpf(1)


def test_quadrature_short_of_its_digits_exits_3(tmp_path, monkeypatch, capsys):
    from intrec import oracle

    monkeypatch.setattr(oracle, "_RULE", _StalledRule())
    # on [0, 1] the Chebyshev weight has no exact rule: tanh-sinh checks it
    doc = {"task": "recurrence", "sequence": {"builtin": "chebyshev_T"},
           "kernel": {"logderiv": "x/(1-x^2)", "form": "chebyshev_weight"},
           "interval": ["0", "1"]}
    assert cli.main(["run", "--job", write_job(tmp_path, doc)]) == 3
    err = capsys.readouterr().err
    assert "within its limit of tanh-sinh degree 12 (error estimate 1.0)" in err


def test_pi_factored_job_runs_no_quadrature(tmp_path, monkeypatch, capsys):
    from intrec import oracle

    class Refuse(_StalledRule):
        def get_nodes(self, *args):
            raise AssertionError("tanh-sinh quadrature called")

    monkeypatch.setattr(oracle, "_RULE", Refuse())
    doc = {"task": "recurrence", "sequence": {"builtin": "chebyshev_T"},
           "kernel": {"logderiv": "x/(1-x^2)", "form": "chebyshev_weight"},
           "interval": ["-1", "1"]}
    assert cli.main(["run", "--job", write_job(tmp_path, doc)]) == 0
    assert "[PASS] quadrature_spot_check" in capsys.readouterr().out
    # the same rule refuses the same job on a sub-interval, which needs tanh-sinh
    with pytest.raises(AssertionError, match="tanh-sinh quadrature called"):
        cli.main(["run", "--job", write_job(tmp_path, dict(doc, interval=["0", "1"]))])


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


def test_option_flag_defaults_are_the_pipeline_defaults():
    parser = argparse.ArgumentParser()
    cli._add_option_flags(parser)
    defaults = pipeline.Options()
    assert pipeline.Options(**vars(parser.parse_args([]))) == defaults
    text = " ".join(parser.format_help().split())
    for name, value in vars(defaults).items():
        flag = "--" + name.replace("_", "-")
        assert re.search(r"%s \w+ [^()]*\(default %d\)" % (flag, value), text), flag


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


@pytest.mark.parametrize("key,value,message", [
    ("max_order", 11, "at most 10"),
    ("precision", 0, "expected an integer >= 1"),
])
def test_option_errors_name_the_flag_or_the_job_field(tmp_path, capsys, key, value, message):
    flag = "--" + key.replace("_", "-")
    assert cli.main(["run", "--job", write_job(tmp_path, CHEB_JOB), flag, str(value)]) == 2
    assert capsys.readouterr().err == "error: %s: %s\n" % (flag, message)
    doc = dict(CHEB_JOB, options={key: value})
    assert cli.main(["run", "--job", write_job(tmp_path, doc)]) == 2
    assert capsys.readouterr().err == "error: options.%s: %s\n" % (key, message)


def test_each_call_parses_its_own_options(tmp_path, monkeypatch):
    # the parser is built once per process; each call still gets its own values
    seen, built, build = [], [], cli._build_parser
    monkeypatch.setattr(cli, "_cmd_run", lambda args: seen.append(vars(args)) or 0)
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    path = write_job(tmp_path, CHEB_JOB)
    assert cli.main(["run", "--job", path, "--max-order", "2"]) == 0
    assert cli.main(["run", "--job", path, "--format", "json", "--precision", "30"]) == 0
    cli._parser.cache_clear()
    defaults = pipeline.Options()
    assert len(built) == 1
    assert [(a["max_order"], a["precision"], a["format"]) for a in seen] == [
        (2, defaults.precision, "text"), (defaults.max_order, 30, "json")]
