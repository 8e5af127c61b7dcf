"""The benchmark's workloads: how each one's inputs are made and which CLI
command runs on them.

Inputs come from the benchmark's own seeded numpy generator, never from the
program.  The truth is the two-breakpoint model with breaks at 0.3 and 0.6
and slope changes -5 and +5 (intercept 10, first slope 0).  Seeded inputs
have sorted uniform x on [0, 1]; a fixed input has x = linspace(0, 1, n).

A round of a run is one command on a seeded input, new in every command of
every run, preceded where the workload has one by a command on its fixed
input, the same in every run whatever the seed.  A fixed input carries the
stored HiGHS grid optima (``reference.json``) and shows the known faults
that the benchmark counts as failed operations.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

TRUTH_BETA = (10.0, 0.0, -5.0, 5.0)
TRUTH_ALPHA = (0.3, 0.6)
MIN_SEGMENT_POINTS = 3  # the CLI default segment rule
DECILES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def truth(x):
    b0, b1, b2, b3 = TRUTH_BETA
    a1, a2 = TRUTH_ALPHA
    x = np.asarray(x, dtype=float)
    return b0 + b1 * x + b2 * np.maximum(x - a1, 0.0) + b3 * np.maximum(x - a2, 0.0)


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    noise: str  # "gaussian" (sd 0.5) or "wedge" (sd 0.5 (1 + 1.5 x))
    rounded: bool  # responses rounded to half units (tied scores)
    argv: tuple  # CLI command and method flags, without dataset and output flags
    bootstrap: int  # B the command asks for (0: no bootstrap)
    fixed: int | None  # seed of the fixed input's noise (x = linspace), if any

    def sd(self, x):
        x = np.asarray(x, dtype=float)
        return np.full_like(x, 0.5) if self.noise == "gaussian" else 0.5 * (1.0 + 1.5 * x)

    def responses(self, x, z):
        """Truth plus noise from standard normals ``z``, rounded if tied."""
        y = truth(x) + self.sd(x) * z
        return np.round(2.0 * y) / 2.0 if self.rounded else y

    def fresh(self, x, seed, draws):
        """``draws`` new responses per x from the known truth, shape (draws, n)."""
        return self.responses(x, np.random.default_rng(seed).standard_normal((draws, np.size(x))))

    def fixed_input(self):
        x = np.linspace(0.0, 1.0, self.n)
        return x, self.responses(x, np.random.default_rng(self.fixed).standard_normal(self.n))

    def seeded_input(self, seed: int, command: int):
        """x, y and the command's bootstrap seed."""
        gen = np.random.default_rng([seed, WORKLOAD_INDEX[self.name], command])
        x = np.sort(gen.uniform(0.0, 1.0, self.n))
        y = self.responses(x, gen.standard_normal(self.n))
        return x, y, int(gen.integers(2**31))


WORKLOADS = {
    w.name: w
    for w in (
        Workload("plrm-boot-n200", 200, "gaussian", False,
                 ("plrm", "--band-method", "bootstrap", "--bootstrap", "40"), 40, None),
        # the fixed input is the tied dataset on which the tau = 0.1 sweep
        # misses the grid optimum (x = linspace, default_rng(2) noise)
        Workload("compare-tied-n100", 100, "wedge", True,
                 ("compare", "--bootstrap", "20"), 20, 2),
    )
}
WORKLOAD_INDEX = {name: k for k, name in enumerate(WORKLOADS)}


def write_csv(path, x, y) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y"])
        for a, b in zip(x.tolist(), y.tolist()):
            writer.writerow([repr(a), repr(b)])
