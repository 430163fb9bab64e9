"""Benchmark workloads: the CLI commands each one runs, generated from a seed.

Every workload runs the same eight timed commands, the seven `generate`
kinds (cfrac-expand once per shape) and `verify all --order 12`, so every
end-to-end metric is measured on every workload.  What differs is the
scalar type the commands compute over:

* ``symbolic`` passes ``--b sym --c sym``.  Values are bivariate rational
  functions, so expression growth in ``BivarPoly`` / ``RationalFunction``
  dominates: a scalar-core or algorithmic change shows here.  The seed picks
  only the rational points at which the output check specialises the
  symbolic tables.
* ``rational`` passes small-height rationals at higher orders.  Values are
  plain ``Fraction`` objects: ``BivarPoly`` is bypassed and
  ``hankel_toeplitz.determinant`` takes its Fraction branch, so a polynomial
  scalar-core change should leave the generate commands unchanged here
  while an algorithmic change should not.

``verify all --order 12`` (all 8 scenarios, 59 checks) rides along in both:
it is the release-check path, many small series operations at low order
plus the brute-force path walk in ``combinat``, where a change that adds
per-call overhead shows as a cost.  Its argv ignores the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("symbolic", "rational")

# metric name -> generate kind; cfrac_expand_s sums the three shapes
GENERATE_METRICS = (
    ("lbp_coeffs_s", "lbp-coeffs"),
    ("moments_s", "moments"),
    ("production_s", "production"),
    ("hankel_s", "hankel"),
    ("toeplitz_s", "toeplitz"),
    ("cfrac_expand_s", "cfrac-expand"),
    ("ortho_array_s", "ortho-array"),
)
COMMAND_METRICS = tuple(m for m, _ in GENERATE_METRICS) + ("verify_s",)

# Orders put each command at about 0.3-0.6 s at full speed on a 2-core VM
# (Python 3.11), so a 40 s run gets 4-7 fresh-interpreter runs of each argv.
SYMBOLIC_ORDERS = {
    "lbp-coeffs": 64,
    "moments": 26,
    "production": 20,
    "hankel": 9,
    "toeplitz": 10,
    "cfrac-expand": 18,
    "ortho-array": 24,
}
RATIONAL_ORDERS = {
    "lbp-coeffs": 128,
    "moments": 56,
    "production": 40,
    "hankel": 18,
    "toeplitz": 16,
    "cfrac-expand": 36,
    "ortho-array": 48,
}

VERIFY_ARGV = ("verify", "all", "--order", "12")

# Rational pairs are (lam * 3/2, -lam / 3) with lam = +-p/q for distinct
# primes p, q of equal bit length.  Cost depends on the heights of b, c, b+c
# and 2b+c; a free draw of (b, c) moves it by up to 1.7x between seeds
# (b+c can cancel to a tiny numerator), which no number of repetitions
# inside a run averages out.  Scaling one base pair keeps b+c = 7 lam / 6
# and 2b+c = 8 lam / 3 at the same height for every draw.
RATIONAL_BASE = (Fraction(3, 2), Fraction(-1, 3))
RATIONAL_PRIMES = (37, 41, 43, 47)
RATIONAL_PAIRS = 2
CHECK_POINTS = 2


@dataclass(frozen=True)
class Command:
    """One CLI invocation: the metric its time counts toward, and its argv."""

    metric: str
    argv: tuple
    # rational points at which a symbolic table is specialised and compared
    # with the rational code path; empty for rational and verify commands
    points: tuple = ()

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _generate(kind: str, order: int, b: str, c: str) -> list[tuple]:
    base = ("generate", kind, "--order", str(order), f"--b={b}", f"--c={c}")
    if kind == "cfrac-expand":
        return [base + ("--shape", shape) for shape in ("s", "j", "t")]
    return [base]


def _off_loci(b: Fraction, c: Fraction) -> bool:
    return bool(b) and bool(c) and bool(b + c) and bool(2 * b + c)


def check_points(rng: random.Random, count: int) -> tuple:
    """Small-height rational points off b = 0, c = 0, b+c = 0, 2b+c = 0."""
    points = []
    while len(points) < count:
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        if _off_loci(b, c) and (b, c) not in points:
            points.append((b, c))
    return tuple((str(b), str(c)) for b, c in points)


def rational_pairs(rng: random.Random, count: int) -> tuple:
    pairs = []
    while len(pairs) < count:
        p, q = rng.sample(RATIONAL_PRIMES, 2)
        lam = Fraction(rng.choice((-1, 1)) * p, q)
        pair = (lam * RATIONAL_BASE[0], lam * RATIONAL_BASE[1])
        if pair not in pairs:
            pairs.append(pair)
    return tuple((str(b), str(c)) for b, c in pairs)


def build(workload: str, seed: int) -> tuple[list[Command], dict]:
    """The commands of one round, in run order, and the seeded draws."""
    rng = random.Random(seed)
    verify = Command("verify_s", VERIFY_ARGV)
    if workload == "symbolic":
        points = check_points(rng, CHECK_POINTS)
        cmds = [
            Command(metric, argv, points)
            for metric, kind in GENERATE_METRICS
            for argv in _generate(kind, SYMBOLIC_ORDERS[kind], "sym", "sym")
        ]
        return cmds + [verify], {"check_points": points}
    if workload == "rational":
        pairs = rational_pairs(rng, RATIONAL_PAIRS)
        cmds = [
            Command(metric, argv)
            for metric, kind in GENERATE_METRICS
            for b, c in pairs
            for argv in _generate(kind, RATIONAL_ORDERS[kind], b, c)
        ]
        return cmds + [verify], {"pairs": pairs}
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
