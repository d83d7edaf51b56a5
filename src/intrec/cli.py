"""Command-line front end.

    intrec run --job job.json [--format text|json] [--out FILE] [options]
    intrec selftest [--seed S]

Exit codes: 0 all verifications passed; 1 a verification failed; 2 invalid
input (job file, schema, or expressions); 3 search exhausted (no telescoper,
no guess, boundary not evaluable with no fallback, quadrature short of its
digits at its degree limit, or a value too long to print).  A telescoper
search that exits 3 names the largest system it solved.
"""

import argparse
import functools
import sys

from . import pipeline
from .errors import (
    BoundaryNotEvaluable,
    IntrecError,
    NoGuessFound,
    NoTelescoperFound,
    QuadratureFailed,
    StageFailure,
    ValueTooLarge,
)

_EXHAUSTED = (NoTelescoperFound, NoGuessFound, BoundaryNotEvaluable, QuadratureFailed,
              ValueTooLarge)


def _error_exit_code(err):
    cause = err.error if isinstance(err, StageFailure) else err
    return 3 if isinstance(cause, _EXHAUSTED) else 2


# pipeline.Options field, metavar and help text of each option flag
_OPTION_FLAGS = (
    ("max_order", "N", "largest telescoper order to try"),
    ("max_degree", "N", "largest guessed coefficient degree"),
    ("precision", "D", "decimal digits for numeric oracle work"),
    ("margin", "M", "held-out terms when guessing"),
)


def _add_option_flags(p):
    defaults = pipeline.Options()
    for name, metavar, text in _OPTION_FLAGS:
        default = getattr(defaults, name)
        p.add_argument("--" + name.replace("_", "-"), type=int, default=default,
                       metavar=metavar, help="%s (default %d)" % (text, default))


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
    self_p.add_argument("--seed", type=int, help="seed for the randomized case")
    return parser


def _cmd_run(args):
    defaults = pipeline.Options(
        **{name: getattr(args, name) for name, _, _ in _OPTION_FLAGS}
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
    # only selftest needs the acceptance cases: other runs skip importing them
    from . import acceptance

    seed = acceptance.DEFAULT_SEED if args.seed is None else args.seed
    results = acceptance.run_all(seed)
    width = max(len(r.name) for r in results)
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print("[%s] %-*s (%6.2fs)  %s" % (mark, width, r.name, r.seconds, r.detail))
    passed = sum(r.passed for r in results)
    print("%d/%d cases passed" % (passed, len(results)))
    return 0 if passed == len(results) else 1


@functools.lru_cache(maxsize=None)
def _parser():
    """The parser, built on the first call: parse_args leaves it unchanged,
    so every later call in the process reuses it."""
    return _build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    return _cmd_selftest(args)


if __name__ == "__main__":
    sys.exit(main())
