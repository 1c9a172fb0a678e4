"""Experiment harness: config parsing, replication sweeps, persistence.

Configs are flat key=value text with dotted section keys::

    problem.name = BT
    run.gamma = 20
    run.alpha = auto          # or a number; auto = rate-bound minimizer
    run.schedule = FixedHorizon
    run.seed = 12345
    sweep = 1024,4096,16384,65536
    replications = 30
    lambda = 3                # optional; with c1/c2 absent they are derived
    c1 = 2.24
    c2 = 0.21875
    output_dir = out
    ledger.estimate = true    # re-estimate the ledger instead of the shipped one
    ledger.L_g = 1.0          # individual overrides

Each (N, replication) pair runs with seed mix(master, N, r) and contributes
one row to results.csv and its engine wall time to timings.csv; summary.csv
holds the per-N mean and standard error of V at the random stopping index;
a JSONL manifest records the config hash, ledger, derived constants, and
versions.  results.csv and summary.csv are byte-identical across reruns and
worker counts.

A replication whose evaluation fails (an EvaluationError, such as a state
that overflows) does not stop the sweep: its row has ``status`` set to
``diverged@k``, with k the engine iteration that failed (N when a
diagnostic at the stopped or final state failed), and empty values.
summary.csv averages the other rows of each N and counts the excluded ones.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import constants, diagnostics, engine, problems, seeding
from .constants import ConstantLedger
from .errors import CapabilityError, ConfigurationError, EvaluationError

RESULT_COLUMNS = ["N", "replication", "seed", "S", "tau_schedule", "alpha",
                  "gamma", "V_at_S", "Q_at_S", "normgradG_at_S", "W_final",
                  "samples_used", "status"]
TIMING_COLUMNS = ["N", "replication", "wall_ms"]
SUMMARY_COLUMNS = ["N", "mean_V", "stderr_V", "replications", "excluded"]

_V_MC_SAMPLES = 10000
_MOMENT_SAMPLES = 20000
STREAM_MOMENTS = 7
STREAM_V_EVAL = 8
STREAM_LEDGER = 17


@dataclass
class ExperimentConfig:
    """Parsed experiment description."""

    problem_name: str
    gamma: float
    alpha: Optional[float]          # None means "auto"
    schedule: engine.Schedule
    seed: int
    sweep: list
    replications: int
    output_dir: Path
    lam: Optional[float] = None
    c1: Optional[float] = None
    c2: Optional[float] = None
    init_beta: Optional[list] = None
    init_theta: Optional[list] = None
    problem_params: dict = field(default_factory=dict)
    ledger_overrides: dict = field(default_factory=dict)
    estimate_ledger: bool = False
    workers: int = 0                # 0 = available parallelism
    raw_text: str = ""

    def __post_init__(self):
        if not self.sweep:
            raise ConfigurationError("sweep must be nonempty")
        if list(self.sweep) != sorted(set(self.sweep)):
            raise ConfigurationError("sweep must be strictly increasing")
        if self.sweep[0] < 1:
            raise ConfigurationError("sweep entries must be >= 1")
        if self.replications < 1:
            raise ConfigurationError("replications must be >= 1")


_FLAGS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}


def _convert(key: str, raw: str, kind):
    """``kind(raw)``, or a ConfigurationError that names the key."""
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"{key}: {exc}") from None


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value config format."""
    pairs = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno} is not key=value: {line!r}")
        key, _, value = line.partition("=")
        pairs[key.strip()] = value.strip()

    def pop(key, default=None, kind=None):
        raw = pairs.pop(key, default)
        return raw if raw is None or kind is None else _convert(key, raw, kind)

    def positive(raw):
        value = float(raw)
        if not 0.0 < value < math.inf:
            raise ValueError(f"must be positive and finite, got {raw!r}")
        return value

    def floats(raw):
        values = [float(v) for v in raw.split(",")]
        if not all(map(math.isfinite, values)):
            raise ValueError(f"must be finite, got {raw!r}")
        return values

    def ints(raw):
        return [int(v) for v in raw.split(",") if v.strip()]

    def flag(raw):
        if raw.lower() not in _FLAGS:
            raise ValueError(f"must be one of {sorted(_FLAGS)}, got {raw!r}")
        return _FLAGS[raw.lower()]

    name = pop("problem.name")
    if name is None:
        raise ConfigurationError("config missing problem.name")
    gamma = pop("run.gamma", kind=positive)
    if gamma is None:
        raise ConfigurationError("config missing run.gamma")
    alpha = pop("run.alpha", "auto")
    alpha = None if alpha.lower() == "auto" else _convert("run.alpha", alpha, positive)
    schedule = pop("run.schedule", "FixedHorizon", engine.Schedule)
    seed = pop("run.seed", "0", int)
    init_beta = pop("run.init_beta", kind=floats)
    init_theta = pop("run.init_theta", kind=floats)
    sweep = pop("sweep", kind=ints)
    if sweep is None:
        raise ConfigurationError("config missing sweep")
    replications = pop("replications", "1", int)
    output_dir = Path(pop("output_dir", "out"))
    lam, c1, c2 = (pop(key, kind=positive) for key in ("lambda", "c1", "c2"))
    workers = pop("workers", "0", int)
    estimate = pop("ledger.estimate", "false", flag)

    problem_params = {}
    ledger_overrides = {}
    for key in list(pairs):
        if key.startswith("problem."):
            problem_params[key[len("problem."):]] = pairs.pop(key)
        elif key.startswith("ledger."):
            ledger_overrides[key[len("ledger."):]] = pop(key, kind=float)
    if pairs:
        raise ConfigurationError(f"unknown config keys: {sorted(pairs)}")

    return ExperimentConfig(
        problem_name=name, gamma=gamma, alpha=alpha, schedule=schedule,
        seed=seed, sweep=sweep, replications=replications,
        output_dir=output_dir, lam=lam, c1=c1, c2=c2,
        init_beta=init_beta, init_theta=init_theta,
        problem_params=problem_params,
        ledger_overrides=ledger_overrides, estimate_ledger=estimate,
        workers=workers, raw_text=text,
    )


def estimated_ledger(problem: problems.BuiltinProblem, seed: int) -> ConstantLedger:
    """Ledger estimate from 10k samples and 10k probes over the problem's boxes."""
    return constants.estimate_ledger(
        problem.spec, sample_count=10000, probe_count=10000,
        rng=seeding.substream(seed, STREAM_LEDGER),
        beta_box=problem.beta_box, theta_box=problem.theta_box)


def resolve_ledger(problem: problems.BuiltinProblem,
                   config: ExperimentConfig) -> ConstantLedger:
    """Shipped or re-estimated ledger with config overrides applied."""
    if config.estimate_ledger:
        ledger = estimated_ledger(problem, config.seed)
    else:
        ledger = problem.ledger
    if config.ledger_overrides:
        values = ledger.as_dict()
        for key, value in config.ledger_overrides.items():
            if key not in values:
                raise ConfigurationError(f"unknown ledger override {key!r}")
            values[key] = value
        provenance = dict(ledger.provenance)
        provenance.update({k: "override" for k in config.ledger_overrides})
        ledger = ConstantLedger(**values, provenance=provenance)
    return ledger


def resolve_coefficients(ledger: ConstantLedger, config: ExperimentConfig):
    """(lam, c1, c2) from the config, derived where absent."""
    lam = config.lam
    if lam is None:
        floor = constants.lambda_floor(ledger)
        lam = max(1.05 * floor, ledger.L_hess_g, 1.0)
    if config.c1 is not None and config.c2 is not None:
        return lam, config.c1, config.c2
    _, _, c1, c2 = constants.descent_coefficients(ledger, lam, config.gamma)
    return lam, c1, c2


def measure_z0_quantities(problem: problems.BuiltinProblem,
                          config: ExperimentConfig, lam: float):
    """Direction moments, W(z^0), and G_min needed for alpha tuning and bounds."""
    if problem.g_min is None:
        raise CapabilityError(
            f"problem {problem.name} has no known G_min; supply run.alpha explicitly")
    spec = problem.spec
    beta0 = (np.zeros(spec.dim_beta) if config.init_beta is None
             else np.asarray(config.init_beta, dtype=float))
    theta0 = (np.zeros(spec.dim_theta) if config.init_theta is None
              else np.asarray(config.init_theta, dtype=float))
    rng = seeding.substream(config.seed, STREAM_MOMENTS)
    c_d_sq, sigma_sq = diagnostics.direction_moment_stats(
        spec, beta0, theta0, config.gamma, _MOMENT_SAMPLES, rng)
    mode = "exact" if spec.has_support else "mc"
    _, w0 = diagnostics.bregman_delta_and_W(
        spec, beta0, theta0, lam, mode=mode, n_samples=_V_MC_SAMPLES,
        rng=seeding.substream(config.seed, STREAM_MOMENTS, 1))
    return c_d_sq, sigma_sq, w0, problem.g_min


def _run_one(spec: problems.ProblemSpec, n_iters: int, replication: int,
             master_seed: int, gamma: float, alpha: float, schedule_value: str,
             lam: float, c1: float, c2: float, init_beta=None,
             init_theta=None) -> dict:
    """Execute one replication and evaluate diagnostics at the stopped state.

    Returns the results.csv row plus its ``wall_ms`` timing.  An
    EvaluationError gives a row with status ``diverged@k`` and no values.
    """
    seed = seeding.mix(master_seed, n_iters, replication)
    run_config = engine.RunConfig(
        gamma=gamma, alpha=alpha, n_iters=n_iters,
        schedule=engine.Schedule(schedule_value), seed=seed,
        init_beta=init_beta, init_theta=init_theta,
    )
    row = {"N": n_iters, "replication": replication, "seed": seed,
           "tau_schedule": schedule_value, "alpha": alpha, "gamma": gamma}
    start = time.perf_counter()
    try:
        record = engine.run(spec, run_config)
        row["wall_ms"] = (time.perf_counter() - start) * 1000.0
        row.update(_stopped_values(spec, record, seed, lam, c1, c2))
    except EvaluationError as exc:
        # the engine's wall time, or its time to the failure
        row.setdefault("wall_ms", (time.perf_counter() - start) * 1000.0)
        k = n_iters if exc.iteration is None else exc.iteration
        row["status"] = f"diverged@{k}"
    return row


def _stopped_values(spec, record, seed, lam, c1, c2) -> dict:
    """The results.csv values of a completed run, with status ``ok``."""
    n_iters = len(record.taus)
    stopped = record.stopped_state
    final = record.final_state
    diag_samples = 0
    if spec.has_support:
        mode, rng = "exact", None
    else:
        mode = "mc"
        rng = seeding.substream(seed, STREAM_V_EVAL)
        diag_samples = 3 * _V_MC_SAMPLES  # Q and grad G at S, W at z^N
    q, _ = diagnostics.tracking_error_Q(spec, stopped.beta, stopped.theta,
                                        mode, _V_MC_SAMPLES, rng)
    g, _ = diagnostics.grad_G(spec, stopped.beta, mode, _V_MC_SAMPLES, rng)
    _, w_final = diagnostics.bregman_delta_and_W(spec, final.beta, final.theta,
                                                 lam, mode, _V_MC_SAMPLES, rng)
    v = c1 * q + c2 * float(g @ g)
    return {
        "S": record.stop_index, "V_at_S": v, "Q_at_S": q,
        "normgradG_at_S": float(np.linalg.norm(g)),
        "W_final": w_final, "samples_used": n_iters + diag_samples,
        "status": "ok",
    }


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the sweep; write results, summary, timings and manifest files.

    Returns a dict with the output paths, the per-N summary rows, the
    resolved (ledger, lam, c1, c2, alpha), and the number of diverged rows.
    """
    workers = config.workers or (os.cpu_count() or 1)
    workers = _convert("CTXOPT_WORKERS",
                       os.environ.get("CTXOPT_WORKERS", str(workers)), int)
    if workers < 0:
        raise ConfigurationError(f"workers must be >= 0, got {workers}")
    problem = problems.by_name(config.problem_name, **config.problem_params)
    ledger = resolve_ledger(problem, config)
    lam, c1, c2 = resolve_coefficients(ledger, config)

    c_d_sq = sigma_sq = w0 = g_min = None
    alpha = config.alpha
    if alpha is None:
        c_d_sq, sigma_sq, w0, g_min = measure_z0_quantities(problem, config, lam)
        _, _, l_w = constants.lipschitz_W(ledger, lam)
        alpha = constants.optimal_alpha(l_w, np.sqrt(c_d_sq), np.sqrt(sigma_sq),
                                        w0, g_min)

    tasks = [(n, r) for n in config.sweep for r in range(config.replications)]
    args = [(problem.spec, n, r, config.seed,
             config.gamma, alpha, config.schedule.value, lam, c1, c2,
             config.init_beta, config.init_theta)
            for n, r in tasks]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one_star, args, chunksize=1))
    else:
        rows = [_run_one(*a) for a in args]
    rows.sort(key=lambda row: (row["N"], row["replication"]))

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "results.csv", RESULT_COLUMNS, rows)
    _write_csv(out / "timings.csv", TIMING_COLUMNS, rows)

    summary = []
    for n in config.sweep:
        of_n = [row for row in rows if row["N"] == n]
        vs = np.array([row["V_at_S"] for row in of_n if row["status"] == "ok"])
        mean = float(vs.mean()) if len(vs) else math.nan
        stderr = (float(vs.std(ddof=1) / np.sqrt(len(vs))) if len(vs) > 1
                  else 0.0 if len(vs) else math.nan)
        summary.append({"N": n, "mean_V": mean, "stderr_V": stderr,
                        "replications": len(vs), "excluded": len(of_n) - len(vs)})
    _write_csv(out / "summary.csv", SUMMARY_COLUMNS, summary)

    derived = {"lambda": lam, "c1": c1, "c2": c2, "alpha": alpha}
    if c_d_sq is not None:
        derived.update({"C_d_sq": c_d_sq, "sigma_sq": sigma_sq,
                        "W0": w0, "G_min": g_min})
    manifest = {
        "config_sha256": hashlib.sha256(config.raw_text.encode()).hexdigest(),
        "problem": problem.name,
        "ledger": ledger.as_dict(),
        "ledger_provenance": ledger.provenance,
        "derived": derived,
        "versions": {"ctxopt": "0.1.0", "numpy": np.__version__},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(out / "manifest.jsonl", "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")

    return {"results": out / "results.csv", "summary": out / "summary.csv",
            "timings": out / "timings.csv", "manifest": out / "manifest.jsonl",
            "summary_rows": summary,
            "diverged": sum(row["excluded"] for row in summary),
            "ledger": ledger, "lam": lam, "c1": c1, "c2": c2, "alpha": alpha,
            "moments": (c_d_sq, sigma_sq, w0, g_min)}


def _write_csv(path, columns, rows):
    """Write the ``columns`` of ``rows``, floats as their repr."""
    with open(path, "w", newline="\n") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n",
                                extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: repr(float(v)) if isinstance(v, float) else v
                             for k, v in row.items()})


def _run_one_star(args):
    return _run_one(*args)


def read_summary(path) -> list:
    """Load summary.csv rows as (N, mean_V) pairs."""
    with open(path, newline="") as fh:
        return [(int(row["N"]), float(row["mean_V"]))
                for row in csv.DictReader(fh)]
