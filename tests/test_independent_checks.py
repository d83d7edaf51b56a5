"""The goldens through perfbench/check.py, the checker that imports no intrec.

check.py recomputes what a report claims from the job document alone: exact
integrals by the power rule or the Chebyshev moments, recurrence windows in
Fraction arithmetic, and the telescoping identity at random points.  Each
golden it can check today runs through the checks that fit its report.
"""

import importlib.util
import json
import os

import pytest

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
