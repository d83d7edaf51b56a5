"""Seeded job corpora, one per workload.

A corpus is a list of rounds; every round holds the same job templates with
fresh random parameters, shuffled.  Per-round cost is therefore nearly the
same from seed to seed and from round to round.  The round count comes from
the run length, so equal (workload, seed, seconds) always give the same jobs,
and a shorter run gets the first rounds of a longer one.

Each job carries the exit codes it may end with, a wall-time cap, and the
independent check its report must pass (see check.py).
"""

import random
from dataclasses import dataclass
from fractions import Fraction

T = {"builtin": "chebyshev_T"}
U = {"builtin": "chebyshev_U"}
CHEBYSHEV_WEIGHT = {"logderiv": "x/(1-x^2)", "form": "chebyshev_weight"}


@dataclass(frozen=True)
class Job:
    name: str  # template, e.g. "verify T^2"
    doc: dict  # the job document handed to `intrec run`
    allowed: tuple  # exit codes the job may end with
    cap: float  # wall-time cap, seconds
    check: tuple  # which independent check the report must pass


def lin(a, b):
    """Expression text for b*x + a."""
    if not b:
        return str(a)
    head = {1: "x", -1: "-x"}.get(b, "%d*x" % b)
    return head if not a else "%s%+d" % (head, a)


def _nonzero(rng, lo=-3, hi=3):
    v = 0
    while not v:
        v = rng.randint(lo, hi)
    return v


def _interval(rng):
    """Rational endpoints with denominators 2 to 4, never integers and never
    symmetric: integer or symmetric intervals make jobs up to twice as cheap,
    which would let the seed move the per-round cost."""
    while True:
        a, b = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 7), rng.randint(2, 4))
                for _ in range(2))
        if a.denominator > 1 and b.denominator > 1 and a < b and a != -b:
            return [str(a), str(b)]


def _general_kernel(rng):
    return "%d*x^2%+d*x%+d" % (_nonzero(rng), rng.randint(-3, 3), rng.randint(-3, 3))


def _even_kernel(rng):
    return "%d*x^2%+d" % (_nonzero(rng), _nonzero(rng))


def _custom_order2(rng):
    return {
        "coeffs": [lin(rng.randint(-2, 2), _nonzero(rng, -2, 2)), str(_nonzero(rng, -2, 2))],
        "init": ["1", lin(rng.randint(-2, 2), _nonzero(rng, -2, 2))],
    }


def _exact_round(rng, golden_doc):
    jobs = [Job("golden", golden_doc, (0,), 30.0, ("golden",))]
    x_power = {"coeffs": ["x"], "init": ["1"]}
    plain = [("T", T), ("U", U), ("x^n", x_power), ("custom", None)]
    # products take even kernels: with an odd kernel part on an asymmetric
    # interval the minimal recurrence has order up to 13, beyond the guess
    # bounds (order 6, degree 4), and the guessing path rightly exits 3
    products = [
        ("T^2", T, [{"power": 2}]),
        ("T*U", T, [{"product_with": U}]),
        ("U^2", U, [{"power": 2}]),
    ]
    for task in ("verify", "recurrence", "guess"):
        for label, seq in plain:
            seq = seq or _custom_order2(rng)
            interval = ["0", "1"] if label == "x^n" else _interval(rng)
            doc = {"task": task, "sequence": seq, "kernel": {"polynomial": _general_kernel(rng)},
                   "interval": interval}
            jobs.append(Job("%s %s" % (task, label), doc, (0,), 30.0, ("exact",)))
        for label, seq, transforms in products:
            doc = {"task": task, "sequence": seq, "transforms": transforms,
                   "kernel": {"polynomial": _even_kernel(rng)}, "interval": _interval(rng)}
            jobs.append(Job("%s %s" % (task, label), doc, (0,), 30.0, ("exact",)))
    return jobs


def _singular_round(rng, golden_doc):
    # Chebyshev weight only.  Random sequences against it make the 12-digit
    # quadrature fail (exit 2); linear_power kernels |x-a|^c with a = +-1 on
    # [-1, 1] get a homogeneous recurrence under a vanishing-boundary
    # hypothesis that is false there: U, T^2 and T*U exit 1, and T reports
    # low-index equations that check.py refutes.  The seed only orders jobs.
    seqs = [
        ("T", T, []),
        ("U", U, []),
        ("T^2", T, [{"power": 2}]),
        ("T*U", T, [{"product_with": U}]),
    ]
    jobs = []
    for label, seq, transforms in seqs:
        doc = {"task": "recurrence", "sequence": seq, "transforms": transforms,
               "kernel": CHEBYSHEV_WEIGHT, "interval": ["-1", "1"]}
        jobs.append(Job("chebyshev %s" % label, doc, (0,), 60.0, ("chebyshev",)))
    return jobs


# workload -> (round builder, seconds one round takes on the reference machine)
WORKLOADS = {
    "exact_verify": (_exact_round, 9.0),
    "singular_weight": (_singular_round, 22.5),
}


def round_count(workload, seconds):
    """Whole rounds filling about `seconds` on the reference machine."""
    return max(1, round(seconds / WORKLOADS[workload][1]))


def generate(workload, seed, count, golden_doc):
    """The first `count` rounds of the workload's corpus for this seed."""
    build, _ = WORKLOADS[workload]
    rng = random.Random("%s:%d" % (workload, seed))
    rounds = []
    for _ in range(count):
        batch = build(rng, golden_doc)
        rng.shuffle(batch)
        rounds.append(batch)
    return rounds
