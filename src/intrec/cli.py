"""Command-line front end.

    intrec run --job job.json [--format text|json] [--out FILE] [options]
    intrec selftest [--seed S]
    intrec bench [--seed S] [--repeat R]

Exit codes: 0 all verifications passed; 1 a verification failed; 2 invalid
input (job file, schema, or expressions); 3 search exhausted (no telescoper,
no guess, or boundary not evaluable with no fallback).
"""

import argparse
import random
import sys
import time

from . import _kernels as kernels
from . import acceptance
from . import pipeline
from .errors import (
    BoundaryNotEvaluable,
    IntrecError,
    NoGuessFound,
    NoTelescoperFound,
    StageFailure,
)

_EXHAUSTED = (NoTelescoperFound, NoGuessFound, BoundaryNotEvaluable)


def _error_exit_code(err):
    cause = err.error if isinstance(err, StageFailure) else err
    return 3 if isinstance(cause, _EXHAUSTED) else 2


def _add_option_flags(p):
    p.add_argument("--max-order", type=int, default=6, metavar="N",
                   help="largest telescoper order to try (default 6)")
    p.add_argument("--max-degree", type=int, default=4, metavar="N",
                   help="largest guessed coefficient degree (default 4)")
    p.add_argument("--precision", type=int, default=30, metavar="D",
                   help="decimal digits for numeric oracle work (default 30)")
    p.add_argument("--margin", type=int, default=8, metavar="M",
                   help="held-out terms when guessing (default 8)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="intrec",
        description="Exact recurrences for integrals of C-finite polynomial"
        " sequences, with self-verifying certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a single job file")
    run_p.add_argument("--job", required=True, metavar="FILE",
                       help="JSON job document (see README for the schema)")
    run_p.add_argument("--format", choices=("text", "json"), default="text")
    run_p.add_argument("--out", metavar="FILE", help="write the report here")
    _add_option_flags(run_p)

    self_p = sub.add_parser("selftest", help="run the built-in acceptance cases")
    self_p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED,
                        help="seed for the randomized case")

    bench_p = sub.add_parser("bench", help="time the kernel workloads")
    bench_p.add_argument("--seed", type=int, default=0)
    bench_p.add_argument("--repeat", type=int, default=3,
                         help="best-of repetitions per workload (default 3)")
    return parser


def _cmd_run(args):
    defaults = pipeline.Options(
        max_order=args.max_order,
        max_degree=args.max_degree,
        precision=args.precision,
        margin=args.margin,
    )
    try:
        job = pipeline.load_job(args.job, defaults)
        report = pipeline.run(job)
    except IntrecError as e:
        print("error: %s" % e, file=sys.stderr)
        return _error_exit_code(e)
    text = pipeline.emit(report, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            print("error: cannot write %s: %s" % (args.out, e), file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return report.exit_code


def _cmd_selftest(args):
    results = acceptance.run_all(args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print("[%s] %-*s (%6.2fs)  %s" % (mark, width, r.name, r.seconds, r.detail))
    passed = sum(r.passed for r in results)
    print("%d/%d cases passed" % (passed, len(results)))
    return 0 if passed == len(results) else 1


# -- benchmarks --------------------------------------------------------------


def _workloads(seed):
    from . import cfinite as cf
    from .genfun import generating_function, taylor_coeffs
    from .telescope import telescope, trivial_kernel

    rng = random.Random(seed)
    g = [rng.randint(-999, 999) for _ in range(31)]
    g[-1] = g[-1] or 1
    a = kernels.pmul(g, [rng.randint(-999, 999) for _ in range(31)])
    b = kernels.pmul(g, [rng.randint(-999, 999) for _ in range(32)])

    seq = cf.BUILTINS["chebyshev_T"]

    def telescope_chebyshev():
        telescope(generating_function(seq), trivial_kernel(), 6)

    def series_300():
        taylor_coeffs(generating_function(seq), 300)

    def gcd_deg60():
        kernels.gcd_int(a, b)

    return [
        ("telescope chebyshev_T", telescope_chebyshev),
        ("series to 300 terms", series_300),
        ("integer-poly gcd deg 60", gcd_deg60),
    ]


def _cmd_bench(args):
    print("%-26s%12s" % ("workload", kernels.BACKEND_NAME))
    for wname, fn in _workloads(args.seed):
        best = min(_timeit(fn) for _ in range(max(1, args.repeat)))
        print("%-26s%11.4fs" % (wname, best))
    return 0


def _timeit(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "selftest":
        return _cmd_selftest(args)
    return _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
