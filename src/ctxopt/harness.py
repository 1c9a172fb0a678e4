"""Experiment harness: config parsing, replication sweeps, persistence.

Configs are flat key=value text with dotted section keys, each set once
(README.md shows every key).  Each plain key is declared once, on its
ExperimentConfig field, with the converter that checks its value and range;
a field without a default is a required key.  ``_KEYS`` maps each key to
its field, so ``parse_config`` rejects a bad value with an error naming the
key before anything runs; ``ledger.<entry>`` overrides are checked by the
ledger's own entry rule there too.  ``problem.*`` keys are problem
parameters, checked by ``problems.by_name``; LG's size is the n of
``problem.name = LG(n)``.  ``resolve`` turns a config into the problem, z^0,
ledger and lambda that ``run``, ``check`` and ``gradcheck`` all start from.
``run_experiment`` builds one ``engine.RunConfig`` per task before the
worker pool (``workers``; 0 means one per core, and never more workers than
tasks) starts; a single task runs in process.

Each (N, replication) pair runs with seed mix(master, N, r) and contributes
one row to results.csv; summary.csv holds the per-N mean and standard error
of V at the random stopping index; a JSONL manifest records the config hash,
ledger, derived constants, versions and engine wall times (``engine_ms``).
results.csv and summary.csv are byte-identical across reruns and worker
counts.  An exact-mode row also holds ``V_grid``, the mean of V over
z^k for k = 0, s, 2s, ... < N with s = max(1, N // 1024), weighted by tau_k
under Anytime, so that it is E[V(z^S)] up to the grid under either stopping
law; summary.csv has its per-N mean_V_grid.

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
from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__, constants, diagnostics, engine, problems, seeding
from .constants import ConstantLedger
from .errors import CapabilityError, ConfigurationError, EvaluationError
from .model import _RULES, _dot

RESULT_COLUMNS = ["N", "replication", "seed", "S", "tau_schedule", "alpha",
                  "gamma", "V_at_S", "Q_at_S", "normgradG_at_S", "W_final",
                  "samples_used", "status", "V_grid"]
SUMMARY_COLUMNS = ["N", "mean_V", "stderr_V", "replications", "excluded", "mean_V_grid"]

_V_MC_SAMPLES = 10000
_V_GRID_POINTS = 1024
_MOMENT_SAMPLES = 20000


def _checked(kind, ok, rule):
    """A converter: ``kind(raw)``, or a ValueError when ``ok`` rejects it."""
    def convert(raw):
        value = kind(raw)
        if not ok(value):
            raise ValueError(f"{rule}, got {raw!r}")
        return value
    return convert


_FLAGS = {"1": True, "true": True, "yes": True,
          "0": False, "false": False, "no": False}
_positive = _checked(float, *_RULES["positive"])
_finite_list = _checked(lambda raw: [float(v) for v in raw.split(",")],
                        lambda vs: all(map(math.isfinite, vs)), "must be finite")


def _key(key: str, convert, **default):
    """The ExperimentConfig field that config ``key`` sets to ``convert(raw)``;
    ``convert`` raises ValueError on a malformed or out-of-range value.  A
    field without a default is a required key."""
    return field(metadata={"key": key, "convert": convert}, **default)


@dataclass
class ExperimentConfig:
    """Parsed experiment description: one field per plain config key, the
    prefix keys, and the config text.  Keys under problem.* are an open
    prefix of problem parameters (checked by problems.by_name)."""

    problem_name: str = _key("problem.name", str)
    gamma: float = _key("run.gamma", _positive)
    sweep: list = _key("sweep", _checked(
        lambda raw: [int(n) for n in raw.split(",")],
        lambda ns: ns[0] >= 1 and all(a < b for a, b in zip(ns, ns[1:])),
        "must be strictly increasing from >= 1"))
    alpha: Optional[float] = _key(      # None means "auto"
        "run.alpha", lambda raw: None if raw.lower() == "auto" else _positive(raw),
        default=None)
    schedule: engine.Schedule = _key("run.schedule", engine.Schedule,
                                     default=engine.RunConfig.schedule)
    seed: int = _key("run.seed", int, default=engine.RunConfig.seed)
    init_beta: Optional[list] = _key("run.init_beta", _finite_list, default=None)
    init_theta: Optional[list] = _key("run.init_theta", _finite_list, default=None)
    replications: int = _key("replications", _checked(int, lambda n: n >= 1,
                                                      "must be >= 1"), default=1)
    output_dir: str = _key("output_dir", _checked(str, bool, "must be non-empty"),
                           default="out")
    lam: Optional[float] = _key("lambda", _positive, default=None)
    c1: Optional[float] = _key("c1", _positive, default=None)
    c2: Optional[float] = _key("c2", _positive, default=None)
    estimate_ledger: bool = _key("ledger.estimate", _checked(
        lambda raw: _FLAGS.get(raw.lower()), lambda flag: flag is not None,
        f"must be one of {sorted(_FLAGS)}"), default=False)
    workers: int = _key("workers", _checked(int, lambda n: n >= 0, "must be >= 0"),
                        default=0)
    problem_params: dict = field(default_factory=dict)
    ledger_overrides: dict = field(default_factory=dict)
    raw_text: str = ""


_KEYS = {f.metadata["key"]: f for f in fields(ExperimentConfig) if f.metadata}
# Each key's converter: its field's, or for ledger.<entry>, an override of one
# ledger entry, that entry's rule.
_CONVERTERS = {**{key: f.metadata["convert"] for key, f in _KEYS.items()},
               **{f"ledger.{key}": _checked(float, ok, rule)
                  for key, (ok, rule) in constants.ENTRY_RULES.items()}}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat key=value config format, converting and range-checking
    each value as its line is read."""
    values, params, seen, unknown = {}, {}, set(), []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno} is not key=value: {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigurationError(f"{key}: set again on config line {lineno}")
        seen.add(key)
        if key in _CONVERTERS:
            try:
                values[key] = _CONVERTERS[key](raw)
            except ValueError as exc:
                raise ConfigurationError(f"{key}: {exc}") from None
        elif key.startswith("problem."):
            params[key[len("problem."):]] = raw
        else:
            unknown.append(key)
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    for key, f in _KEYS.items():
        if f.default is MISSING and key not in values:
            raise ConfigurationError(f"config missing {key}")
    config = ExperimentConfig(
        **{f.name: values[key] for key, f in _KEYS.items() if key in values},
        ledger_overrides={key[len("ledger."):]: value for key, value in values.items()
                          if key not in _KEYS},
        problem_params=params, raw_text=text)
    if (config.c1 is None) != (config.c2 is None):
        raise ConfigurationError(
            f"{'c2' if config.c2 is None else 'c1'}: missing; c1 and c2 are "
            f"given together or both derived")
    return config


def estimated_ledger(problem: problems.BuiltinProblem, seed: int) -> ConstantLedger:
    """Ledger estimate from 10k samples and 10k probes over the problem's boxes."""
    return constants.estimate_ledger(
        problem.spec, sample_count=10000, probe_count=10000,
        rng=seeding.substream(seed, seeding.STREAM_LEDGER),
        beta_box=problem.beta_box, theta_box=problem.theta_box)


def resolve(config: ExperimentConfig):
    """(problem, z^0, ledger, lam) of a run, each checked before the next's work:
    the ``problem.*`` problem; z^0 from ``run.init_*``; the shipped or estimated
    ledger with its overrides; the config's lambda, else ``constants.best_lambda``
    (the lambda of the lowest gamma threshold), but at least 1."""
    problem = problems.by_name(config.problem_name, **config.problem_params)
    z0 = engine.initial_state(problem.spec, config.init_beta, config.init_theta,
                              "run.")
    ledger = (estimated_ledger(problem, config.seed) if config.estimate_ledger
              else problem.ledger)
    ledger = replace(ledger, **config.ledger_overrides, provenance={
        **ledger.provenance, **dict.fromkeys(config.ledger_overrides, "override")})
    lam = config.lam if config.lam is not None else max(constants.best_lambda(ledger), 1.0)
    return problem, z0, ledger, lam


def measure_z0_quantities(problem: problems.BuiltinProblem,
                          config: ExperimentConfig, z0: tuple, lam: float):
    """Direction moments, W(z^0), and G_min needed for alpha tuning and bounds."""
    if problem.g_min is None:
        raise CapabilityError(
            f"problem {problem.name} has no known G_min; supply run.alpha explicitly")
    spec = problem.spec
    rng = seeding.substream(config.seed, seeding.STREAM_MOMENTS)
    c_d_sq, sigma_sq = diagnostics.direction_moment_stats(
        spec, *z0, config.gamma, _MOMENT_SAMPLES, rng)
    mode = "exact" if spec.has_support else "mc"
    _, w0 = diagnostics.bregman_delta_and_W(
        spec, *z0, lam, mode=mode, n_samples=_V_MC_SAMPLES,
        rng=seeding.substream(config.seed, seeding.STREAM_MOMENTS, 1))
    return c_d_sq, sigma_sq, w0, problem.g_min


def _run_one(spec: problems.ProblemSpec, run_config: engine.RunConfig,
             replication: int, lam: float, c1: float, c2: float) -> dict:
    """Execute one replication and evaluate diagnostics at the stopped state.

    Returns the results.csv row plus its ``wall_ms`` timing.  An
    EvaluationError gives a row with status ``diverged@k`` and no values.
    """
    n_iters, seed = run_config.n_iters, run_config.seed
    row = {"N": n_iters, "replication": replication, "seed": seed,
           "tau_schedule": run_config.schedule.value,
           "alpha": run_config.alpha, "gamma": run_config.gamma}
    start = time.perf_counter()
    # A diverging run overflows before the EvaluationError that names its
    # iteration; numpy's overflow warnings would only repeat the status.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            record = engine.run(spec, run_config)
            row["wall_ms"] = (time.perf_counter() - start) * 1000.0
            row.update(_stopped_values(spec, record, run_config, lam, c1, c2))
    except EvaluationError as exc:
        # the engine's wall time, or its time to the failure
        row.setdefault("wall_ms", (time.perf_counter() - start) * 1000.0)
        k = n_iters if exc.iteration is None else exc.iteration
        row["status"] = f"diverged@{k}"
    return row


def _stopped_values(spec, record, run_config, lam, c1, c2) -> dict:
    """The results.csv values of a completed run, with status ``ok``.

    Exact mode takes Q and grad G at the grid states and z^S from one
    stacked call each; Monte Carlo mode at z^S alone, each from its own draw.
    """
    n_iters, s = len(record.taus), record.stop_index
    if spec.has_support:
        grid = np.arange(0, n_iters, max(1, n_iters // _V_GRID_POINTS))
        mode, states, rng, diag_samples = "exact", np.append(grid, s), None, 0
    else:  # Q and grad G at S, W at z^N: one draw each
        mode, states, diag_samples = "mc", s, 3 * _V_MC_SAMPLES
        rng = seeding.substream(run_config.seed, seeding.STREAM_V_EVAL)
    q, _ = diagnostics.tracking_error_Q(spec, record.betas[states],
                                        record.thetas[states], mode, _V_MC_SAMPLES, rng)
    g, _ = diagnostics.grad_G(spec, record.betas[states], mode, _V_MC_SAMPLES, rng)
    _, w_final = diagnostics.bregman_delta_and_W(
        spec, record.betas[-1], record.thetas[-1], lam, mode, _V_MC_SAMPLES, rng)
    v = c1 * q + c2 * _dot(g, g)
    values = {"status": "ok"}
    if spec.has_support:
        # E[V(z^S)] up to the grid: each z^k weighted as the stopping law weighs it
        fixed = run_config.schedule is engine.Schedule.FIXED_HORIZON
        values["V_grid"] = float(np.mean(v[:-1]) if fixed
                                 else np.average(v[:-1], weights=record.taus[grid]))
        q, g, v = q[-1], g[-1], v[-1]
    return {"S": s, "V_at_S": float(v), "Q_at_S": float(q),
            "normgradG_at_S": float(np.linalg.norm(g)), "W_final": w_final,
            "samples_used": n_iters + diag_samples, **values}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the sweep; write the results, summary and manifest files.

    Returns a dict with the output paths, the per-N summary rows, the
    resolved (ledger, lam, c1, c2, alpha), and the number of diverged rows.
    """
    out = Path(config.output_dir)
    nearest = next(path for path in (out, *out.parents) if path.exists())
    if not nearest.is_dir():
        raise ConfigurationError(f"output_dir: {nearest} is not a directory")
    problem, z0, ledger, lam = resolve(config)
    _, _, l_w = constants.lipschitz_W(ledger, lam)   # rejects lam < L_hess_g
    # the config's c1 and c2 (given together), else the derived ones
    weights = config if config.c1 is not None else constants.derive(ledger, lam, config.gamma)
    c1, c2 = weights.c1, weights.c2

    c_d_sq = sigma_sq = w0 = g_min = None
    alpha = config.alpha
    if alpha is None:
        c_d_sq, sigma_sq, w0, g_min = measure_z0_quantities(problem, config, z0, lam)
        alpha = constants.optimal_alpha(l_w, np.sqrt(c_d_sq), np.sqrt(sigma_sq),
                                        w0, g_min)

    args = [(problem.spec,
             engine.RunConfig(gamma=config.gamma, alpha=alpha, n_iters=n,
                              schedule=config.schedule,
                              seed=seeding.mix(config.seed, n, r),
                              init_beta=config.init_beta,
                              init_theta=config.init_theta),
             r, lam, c1, c2)
            for n in config.sweep for r in range(config.replications)]
    # A forked pool starts every worker at the first task: start none to idle.
    workers = min(config.workers or (os.cpu_count() or 1), len(args))
    if workers > 1:
        # The sweep ascends: start the largest N first, so no long row starts last.
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_one_star, args[::-1], chunksize=1))
    else:
        rows = [_run_one(*a) for a in args]
    rows.sort(key=lambda row: (row["N"], row["replication"]))

    out.mkdir(parents=True, exist_ok=True)
    _write_csv(out / "results.csv", RESULT_COLUMNS, rows)

    summary = []
    for n in config.sweep:
        of_n = [row for row in rows if row["N"] == n]
        vs = np.array([row["V_at_S"] for row in of_n if row["status"] == "ok"])
        mean = float(vs.mean()) if len(vs) else math.nan
        stderr = (float(vs.std(ddof=1) / np.sqrt(len(vs))) if len(vs) > 1
                  else 0.0 if len(vs) else math.nan)
        grid = [row["V_grid"] for row in of_n if "V_grid" in row]
        summary.append({"N": n, "mean_V": mean, "stderr_V": stderr,
                        "replications": len(vs), "excluded": len(of_n) - len(vs),
                        "mean_V_grid": float(np.mean(grid)) if grid else math.nan})
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
        "versions": {"ctxopt": __version__, "numpy": np.__version__},
        "engine_ms": [[row["N"], row["replication"], row["wall_ms"]] for row in rows],
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    with open(out / "manifest.jsonl", "w") as fh:
        fh.write(json.dumps(manifest, sort_keys=True) + "\n")

    return {"results": out / "results.csv", "summary": out / "summary.csv",
            "manifest": out / "manifest.jsonl", "summary_rows": summary,
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


def read_summary(path, column="mean_V") -> Optional[list]:
    """Load summary.csv's N and ``column`` as (N, value) pairs, naming a bad
    column; the ``mean_V_grid`` column is optional, and None when absent."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.DictReader(fh))
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
    columns = []
    for name, kind in (("N", int), (column, float)):
        try:
            columns.append([kind(row[name]) for row in rows])
        except KeyError:
            if name == "mean_V_grid":
                return None
            raise ConfigurationError(f"{path}: no {name} column") from None
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"{path}: column {name}: {exc}") from None
    return list(zip(*columns))
