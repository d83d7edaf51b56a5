"""Seeded job-corpus benchmark for intrec, end to end and layer by layer.

    python3 perfbench/run.py --workload exact_verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one after another

Run it from the repository root.  Jobs are JSON documents generated from the
seed (corpus.py) and written to perfbench/_work before timing starts.  Each
job goes through the public entry point,
`intrec.cli.main(["run", "--job", FILE, "--format", "json"])`, in this
process: one client, closed loop, the next job starting when the previous
one returns.  Jobs come in rounds of equal make-up, as many as fill
`--seconds` on the reference machine.  Every job has a wall-time cap; one
that passes it is stopped and recorded as `timeout` at the cap.  Every report
is checked afterwards by check.py, which shares no code with intrec.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs half as many
rounds untraced and then the same rounds traced (spans.py), prints the
per-layer metrics, and writes the spans to perfbench/_work/<workload>/spans.jsonl.
The last line of output is one JSON object: correct, attempted, failed,
metrics.  The exit code is nonzero when any report is wrong or intrec cannot
be imported.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(ROOT, "tests", "golden", "chebyshev_recurrence.json")
WORK = os.path.join(HERE, "_work")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import check  # noqa: E402
import corpus  # noqa: E402
import spans  # noqa: E402

SETUP_REPEATS = 5
# a pass stops starting jobs after this long; the rest count as timeouts
PASS_DEADLINE_S = 120.0

# with the golden job: one warm-up job per kernel class (polynomial,
# rational, log-derivative); the last one fills mpmath's tanh-sinh node cache
WARMUP = [
    {"task": "recurrence", "sequence": corpus.U, "kernel": {"rational": "1/(2-x)"},
     "interval": ["-1", "1"]},
    {"task": "recurrence", "sequence": corpus.T,
     "kernel": {"logderiv": "(1/2)/(x-1)", "form": "linear_power"}, "interval": ["-1", "1"]},
]

SETUP_CODE = r"""
import contextlib, io, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from intrec import cli
for path in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["run", "--job", path, "--format", "json"])
    if code != 0:
        sys.exit("warm-up job %s exited %d" % (path, code))
print(repr(time.perf_counter() - t0))
"""


class JobTimeout(BaseException):
    """Raised into a job that passed its cap."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def run_job(cli, path, cap):
    """(exit code | "timeout" | "crash", stdout, stderr, seconds) of one job."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, cap)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["run", "--job", path, "--format", "json"])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        return "timeout", "", "", cap
    except (Exception, SystemExit):
        return "crash", out.getvalue(), traceback.format_exc(), time.perf_counter() - t0
    finally:
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - t0


def timed_pass(cli, rounds, rec=None):
    """Run every round of (job, path) once, in order; returns
    (results per round, wall seconds per round)."""
    results, walls = [], []
    job_name = rec.name_id(spans.JOB) if rec else None
    t0 = time.perf_counter()
    for batch in rounds:
        r0 = time.perf_counter()
        out = []
        for job, path in batch:
            if time.perf_counter() - t0 > PASS_DEADLINE_S:
                out.append(("timeout", "", "not started: pass deadline", job.cap))
                continue
            if rec is None:
                out.append(run_job(cli, path, job.cap))
                continue
            rec.job_id += 1
            span = rec.open(job_name)
            out.append(run_job(cli, path, job.cap))
            rec.close(span)
        results.append(out)
        walls.append(time.perf_counter() - r0)
    return results, walls


def judge(job, result, golden_bytes):
    """Verdict of one job: "solved", "expected exit N", or a failure reason."""
    code, out = result[:2]
    if code in ("timeout", "crash"):
        return code
    if code not in job.allowed:
        return "exit %d not allowed" % code
    if code != 0:
        return "expected exit %d" % code
    kind = job.check[0]
    report = check.parse_report(out)
    if report is None:
        return "report is not JSON"
    if report.get("status") != "ok" or not all(v["pass"] for v in report["verifications"]):
        return "report verification failed"
    if kind == "golden":
        why = check.check_golden(out, golden_bytes)
    elif kind == "exact":
        why = check.check_exact_report(report, job.doc)
        if why is None and "telescoper" in report["results"] and not job.doc.get("transforms"):
            why = check.check_telescoper(report, job.doc)
    else:
        why = check.check_chebyshev_report(report, job.doc)
    return "solved" if why is None else "check failed: " + why


def is_failure(verdict):
    return verdict != "solved" and not verdict.startswith("expected exit")


def tail(times):
    """(value, percentile, rank) at the highest percentile with at least ten
    jobs beyond it; with fewer than eleven jobs, the slowest."""
    ordered = sorted(times)
    n = len(ordered)
    rank = n - 11 if n > 10 else n - 1
    return ordered[rank], 100.0 * (rank + 1) / n, rank + 1


def measure_setup(paths):
    """Median over fresh processes of import + one warm-up job per kernel class."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, SRC] + paths, cwd=ROOT,
                              capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed: %s" % proc.stderr.strip())
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


def write_jobs(directory, docs):
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    paths = []
    for i, doc in enumerate(docs):
        path = os.path.join(directory, "%04d.json" % i)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        paths.append(path)
    return paths


def import_intrec():
    """intrec from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    try:
        import intrec
        from intrec import _kernels, cli
    except ImportError as e:
        raise RuntimeError("cannot import intrec from %s: %s" % (SRC, e))
    if not os.path.abspath(intrec.__file__).startswith(SRC + os.sep):
        raise RuntimeError("intrec was imported from %s, not %s" % (intrec.__file__, SRC))
    return cli, _kernels.BACKEND_NAME


def end_to_end(results, walls, verdicts, setup, rss_mb):
    times = [r[3] for r in results]
    n = len(results)
    solved = sum(v == "solved" for v in verdicts)
    failed = sum(is_failure(v) for v in verdicts)
    per_round = n // len(walls)
    rates = [per_round / w for w in walls]
    tail_s, pct, rank = tail(times)
    rows = [
        ("jobs_per_s", statistics.median(rates), "jobs/s", "median of %d rounds of %d jobs; "
         "%d jobs in %.3f s" % (len(walls), per_round, n, sum(walls))),
        ("job_p50_s", statistics.median(times), "s", "%d jobs" % n),
        ("job_tail_s", tail_s, "s", "p%.1f, job %d of %d by time" % (pct, rank, n)),
        ("solved_frac", solved / n, "ratio", "%d/%d" % (solved, n)),
        ("failed_frac", failed / n, "ratio", "%d/%d" % (failed, n)),
        ("setup_s", setup[0], "s", "median of %s" % ", ".join("%.3f" % s for s in setup[1])),
        ("peak_rss_mb", rss_mb, "MB", "this process"),
    ]
    return rows


def print_rows(title, rows):
    print(title)
    width = max(len(r[0]) for r in rows)
    for name, val, unit, base in rows:
        print("  %-*s %14.6f %-7s %s" % (width, name, val, unit, base or ""))


def print_layers(agg):
    print("spans by self time (calls, inclusive s, self s):")
    for name, st in sorted(agg.items(), key=lambda kv: -kv[1]["self_s"]):
        print("  %-32s %9d %11.4f %11.4f" % (name, st["calls"], st["s"], st["self_s"]))


def run_workload(args):
    cli, backend = import_intrec()
    import mpmath

    with open(GOLDEN, "rb") as fh:
        golden_bytes = fh.read()
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "backend": backend, "python": platform.python_version(),
        "mpmath": mpmath.__version__, "nproc": len(os.sched_getaffinity(0)),
    }
    print("meta " + json.dumps(meta, sort_keys=True))

    t0 = time.perf_counter()
    golden_doc = json.loads(golden_bytes)["job"]
    # a traced run times its rounds twice, so it takes half as many
    seconds = args.seconds / 2 if args.trace else args.seconds
    rounds = corpus.generate(args.workload, args.seed, corpus.round_count(args.workload, seconds),
                             golden_doc)
    work = os.path.join(WORK, args.workload)
    paths = iter(write_jobs(os.path.join(work, "jobs"), [j.doc for r in rounds for j in r]))
    rounds = [[(job, next(paths)) for job in batch] for batch in rounds]
    warm = write_jobs(os.path.join(work, "warmup"), [golden_doc] + WARMUP)
    print("corpus: %d rounds of %d jobs written in %.3f s"
          % (len(rounds), len(rounds[0]), time.perf_counter() - t0))
    setup = measure_setup(warm) if not args.trace else (0.0, [])
    # the log-derivative warm-up fills tanh-sinh degrees 1-4 only; the
    # cheapest Chebyshev-weight job (T) fills the rest, up to the degree cap,
    # before timing starts
    cheb = [p for j, p in rounds[0] if j.name == "chebyshev T"]
    for path in warm + cheb:
        code = run_job(cli, path, 60.0)[0]
        if code != 0:
            raise RuntimeError("warm-up job %s ended with %s" % (path, code))

    results, walls = timed_pass(cli, rounds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = [results]
    if args.trace:
        rec = spans.Recorder()
        with spans.Instrumentation(rec):
            traced, traced_walls = timed_pass(cli, rounds, rec)
        passes.append(traced)
    jobs = [j for batch in rounds for j, _ in batch]
    passes = [[r for batch in res for r in batch] for res in passes]
    results = passes[0]
    verdicts = [[judge(j, r, golden_bytes) for j, r in zip(jobs, res)] for res in passes]

    by_template = {}
    for job, res in zip(jobs, results):
        by_template.setdefault(job.name, []).append(res[3])
    print("job templates (count, median s):")
    for name, times in sorted(by_template.items()):
        print("  %-20s %4d %9.4f" % (name, len(times), statistics.median(times)))
    counts = {}
    for v in verdicts[-1]:
        counts[v] = counts.get(v, 0) + 1
    print("verdicts: " + ", ".join("%s %d" % kv for kv in sorted(counts.items())))
    wrong = []
    for vs in verdicts:
        wrong.extend((j.name, v) for j, v in zip(jobs, vs) if is_failure(v) and v != "timeout")
    for name, v in wrong[:10]:
        print("WRONG %s: %s" % (name, v))

    if args.trace:
        layers, agg = spans.layer_metrics(rec, sum(traced_walls), sum(walls))
        print_layers(agg)
        print_rows("per-layer metrics:", [(k, v[0], v[1], v[2]) for k, v in layers.items()])
        rec.write(os.path.join(work, "spans.jsonl"))
        metrics = {k: {"value": v[0], "unit": v[1]} for k, v in layers.items()}
    else:
        rows = end_to_end(results, walls, verdicts[0], setup, rss_mb)
        print_rows("end-to-end metrics:", rows)
        metrics = {name: {"value": val, "unit": unit} for name, val, unit, _ in rows
                   if name != "failed_frac"}
    summary = {
        "correct": not wrong,
        "attempted": len(jobs),
        "failed": sum(is_failure(v) for v in verdicts[-1]),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if not wrong else 1


def run_all(args):
    """Each workload in its own process, one after another."""
    status = 0
    for name in corpus.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        print("== %s" % name, flush=True)
        status = subprocess.run(cmd, cwd=ROOT).returncode or status
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        return run_workload(args)
    except (OSError, RuntimeError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
