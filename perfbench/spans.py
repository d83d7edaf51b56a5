"""Per-layer tracing from outside the program.

The traced run rebinds public names at their call-site modules (the callers
use `from .x import y`, so rebinding the defining module alone would miss
them), wraps each in a span, and restores everything afterwards.  Spans are
kept in memory as parallel arrays (name, start, end, parent, job) and written
out once the run ends.

A span's self time is its duration minus the time its direct children cover;
`s` is inclusive and counts a span nested in a span of the same name once.
"""

import importlib
import json
import time
from array import array
from collections import Counter

# (call-site module, attribute, span name)
CALL_SITES = (
    ("intrec.pipeline", "build_job", "pipeline.build_job"),
    ("intrec.pipeline", "emit", "pipeline.emit"),
    ("intrec.pipeline", "generating_function", "genfun.generating_function"),
    ("intrec.pipeline", "telescope", "telescope.telescope"),
    ("intrec.pipeline", "verify_certificate", "telescope.verify_certificate"),
    ("intrec.telescope", "verify_certificate", "telescope.verify_certificate"),
    ("intrec.pipeline", "boundary_rhs", "telescope.boundary_rhs"),
    ("intrec.pipeline", "guess_precursive", "guess.guess_precursive"),
    ("intrec.telescope", "nullspace", "linalg.nullspace.telescope"),
    ("intrec.guess", "nullspace", "linalg.nullspace.guess"),
    ("intrec.oracle", "exact_term", "oracle.exact_term"),
    ("intrec.oracle", "numeric_term", "oracle.numeric_term"),
    ("intrec.oracle", "term", "cfinite.term"),
    ("intrec.cfinite", "power", "cfinite.power"),
    ("intrec.cfinite", "product", "cfinite.product"),
    ("intrec.ode2rec", "ode_to_recurrence", "ode2rec.ode_to_recurrence"),
    ("intrec.ode2rec", "attach_initials", "ode2rec.attach_initials"),
    ("intrec.ode2rec", "unroll", "ode2rec.unroll"),
)

JOB = "job"


class Recorder:
    """Spans of one run, in memory."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.outer = array("b")  # 1 unless nested in a span of the same name
        self._stack = []
        self._depth = Counter()
        self.job_id = -1
        self.counts = Counter()
        self.maxima = Counter()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid):
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.outer.append(0 if self._depth[nid] else 1)
        self._depth[nid] += 1
        self._stack.append(i)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        return i

    def close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._depth[self.name[i]] -= 1

    def wrap(self, fn, name, after=None):
        """`fn` inside a span; `name` is a string or a function of the args."""
        fixed = self.name_id(name) if isinstance(name, str) else None

        def traced(*args, **kwargs):
            i = self.open(fixed if fixed is not None else self.name_id(name(*args)))
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(args, out)
            return out

        return traced

    def write(self, path):
        """One JSON line per span: name, start, end, parent index, job id."""
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.name)):
                fh.write(json.dumps([self.names[self.name[i]], self.start[i], self.end[i],
                                     self.parent[i], self.job[i]]) + "\n")


def aggregate(rec):
    """{name: {"calls", "s", "self_s"}} over every recorded span."""
    n = len(rec.name)
    dur = [rec.end[i] - rec.start[i] for i in range(n)]
    covered = [0.0] * n
    for i in range(n):
        p = rec.parent[i]
        if p >= 0:
            covered[p] += dur[i]
    out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in rec.names}
    for i in range(n):
        st = out[rec.names[rec.name[i]]]
        st["calls"] += 1
        st["self_s"] += dur[i] - covered[i]
        if rec.outer[i]:
            st["s"] += dur[i]
    return out


def _gcd_name(a, b, *rest):
    return "poly.gcd.bivariate" if a.is_bivariate() or b.is_bivariate() else "poly.gcd.univariate"


class Instrumentation:
    """Rebinds the traced names for the duration of a `with` block."""

    def __init__(self, rec):
        self.rec = rec
        self._saved = []

    def _rebind(self, owner, attr, name, after=None):
        orig = getattr(owner, attr)
        self._saved.append((owner, attr, orig, attr in vars(owner)))
        setattr(owner, attr, self.rec.wrap(orig, name, after))

    def __enter__(self):
        rec = self.rec
        for module, attr, name in CALL_SITES:
            after = None
            if name == "telescope.telescope":
                after = lambda args, out: rec.counts.update(["telescopers_found"])
            elif name == "guess.guess_precursive":
                after = lambda args, out: rec.counts.update(["guesses"] if out is not None else [])
            elif name == "linalg.nullspace.telescope":
                after = _nullspace_sizes(rec)
            self._rebind(importlib.import_module(module), attr, name, after)
        self._rebind(importlib.import_module("intrec.poly"), "gcd", _gcd_name)
        ratfunc = importlib.import_module("intrec.ratfunc")
        self._rebind(ratfunc.RatFunc, "__init__", "ratfunc.RatFunc")
        mpmath = importlib.import_module("mpmath")
        self._rebind(mpmath.mp, "quad", "mpmath.quad")
        return rec

    def __exit__(self, *exc):
        for owner, attr, orig, own in reversed(self._saved):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._saved.clear()
        return False


def _nullspace_sizes(rec):
    def after(args, out):
        rows, ncols = args
        rec.maxima["rows"] = max(rec.maxima["rows"], len(rows))
        rec.maxima["cols"] = max(rec.maxima["cols"], ncols)
        tdeg = max((e.degree() for row in rows for e in row), default=0)
        rec.maxima["tdeg"] = max(rec.maxima["tdeg"], tdeg)

    return after


def ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(rec, traced_s, untraced_s):
    """Per-layer metrics by name, with the base of every ratio.

    Returns {name: (value, unit, base)}; `base` is "num/den" for ratios and
    None otherwise.
    """
    agg = aggregate(rec)

    def stat(name, key):
        return agg.get(name, {}).get(key, 0)

    out = {}
    for name, keys in (
        ("mpmath.quad", ("calls", "s")),
        ("oracle.numeric_term", ("calls", "s")),
        ("oracle.exact_term", ("calls", "s")),
        ("cfinite.term", ("calls", "s")),
        ("guess.guess_precursive", ("calls", "s", "self_s")),
        ("linalg.nullspace.guess", ("calls", "s")),
        ("linalg.nullspace.telescope", ("calls", "s", "self_s")),
        ("poly.gcd.bivariate", ("calls", "s")),
        ("poly.gcd.univariate", ("calls", "s")),
        ("ratfunc.RatFunc", ("calls", "s")),
        ("telescope.telescope", ("calls", "s", "self_s")),
        ("telescope.verify_certificate", ("s",)),
        ("telescope.boundary_rhs", ("s",)),
        ("genfun.generating_function", ("s",)),
        ("ode2rec.ode_to_recurrence", ("s",)),
        ("ode2rec.attach_initials", ("s",)),
        ("ode2rec.unroll", ("s",)),
        ("pipeline.build_job", ("s",)),
        ("cfinite.power", ("s",)),
        ("cfinite.product", ("s",)),
        ("pipeline.emit", ("s",)),
    ):
        for key in keys:
            out["%s.%s" % (name, key)] = (stat(name, key), "count" if key == "calls" else "s", None)
    for key in ("rows", "cols", "tdeg"):
        out["linalg.nullspace.telescope.max_%s" % key] = (rec.maxima[key], "count", None)
    nulls_g = stat("linalg.nullspace.guess", "calls")
    nulls_t = stat("linalg.nullspace.telescope", "calls")
    out["guess.cells_per_guess"] = (ratio(nulls_g, rec.counts["guesses"]), "ratio",
                                    "%d/%d" % (nulls_g, rec.counts["guesses"]))
    out["telescope.hit_ratio"] = (ratio(rec.counts["telescopers_found"], nulls_t), "ratio",
                                  "%d/%d" % (rec.counts["telescopers_found"], nulls_t))
    job_s = stat(JOB, "s")
    out["trace.overhead_s"] = (traced_s - untraced_s, "s", None)
    out["trace.unattributed_frac"] = (ratio(stat(JOB, "self_s"), job_s), "ratio",
                                      "%.3fs/%.3fs" % (stat(JOB, "self_s"), job_s))
    return out, agg
