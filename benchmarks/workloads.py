"""The benchmark's workloads: what each one runs and why.

Three workloads go through ``ctxopt run`` with a generated config; the rate
grid runs the pinned acceptance recipe through the library.  A workload's
inputs depend only on the seed passed to the benchmark, which becomes the
master seed of the sweep.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

# V weights and Lyapunov lambda for the harness sweeps: explicit values keep
# (c1, c2) off the derivation path, which rejects gamma = 20 on BT.
WEIGHTS = {"lambda": 3.0, "c1": 2.24, "c2": 0.21875}


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                       # "harness" or "rate"
    problem: str
    gamma: float
    alpha: Optional[float]          # None = run.alpha = auto
    sweep: tuple
    replications: int
    workers: int = 1
    estimate_ledger: bool = False
    grid: int = 0                   # rate grid: states averaged per trajectory

    @property
    def rows(self) -> int:
        return len(self.sweep) * self.replications

    @property
    def iterations(self) -> int:
        return sum(self.sweep) * self.replications

    def config_text(self, seed: int, output_dir: str, workers: int) -> str:
        lines = [
            f"problem.name = {self.problem}",
            f"run.gamma = {self.gamma!r}",
            f"run.alpha = {'auto' if self.alpha is None else repr(self.alpha)}",
            "run.schedule = FixedHorizon",
            f"run.seed = {seed}",
            f"sweep = {','.join(str(n) for n in self.sweep)}",
            f"replications = {self.replications}",
            f"lambda = {WEIGHTS['lambda']!r}",
            f"c1 = {WEIGHTS['c1']!r}",
            f"c2 = {WEIGHTS['c2']!r}",
            f"ledger.estimate = {'true' if self.estimate_ledger else 'false'}",
            f"workers = {workers}",
            f"output_dir = {output_dir}",
        ]
        return "\n".join(lines) + "\n"


def pool_workers() -> int:
    """Two workers, but never more processes than cores."""
    return max(1, min(2, os.cpu_count() or 1))


WORKLOADS = {w.name: w for w in (
    # Single-process sweep: engine.run is about 59% of a round and set-up,
    # mostly direction_moment_stats, about 41%.
    Workload("bt-sweep", "harness", "BT", 20.0, None,
             (2048, 4096, 8192), 3),
    # Monte Carlo diagnostics dominate (3 x 10k oracle samples per row) and
    # the rows fan out over the process pool.
    Workload("lg-mc-pool", "harness", "LG(8)", 1.0, 0.5,
             (512, 1024, 2048, 4096), 1, workers=pool_workers()),
    # Set-up bound: the ledger is re-estimated before a small sweep.
    Workload("bt-ledger", "harness", "BT", 20.0, None,
             (4096, 8192, 16384), 1, estimate_ledger=True),
    # The acceptance rate recipe at reduced size; exact per-state
    # diagnostics on the trajectory grid carry a large share of the time.
    Workload("bt-rate-grid", "rate", "BT", 20.0, None,
             (512, 1024, 2048, 4096), 4, grid=256),
)}
