"""ctxopt benchmark: replication sweeps timed end to end and layer by layer.

Usage (from the root of a checkout):

    python3 benchmarks/run.py                      # every workload, untraced
    python3 benchmarks/run.py --workload bt-sweep --seed 3 --seconds 25
    python3 benchmarks/run.py --workload lg-mc-pool --trace 1

A run repeats whole rounds of one workload for about ``--seconds`` seconds
(at least two rounds untraced, so repeats can be compared).  Each round is a
fresh process that imports ctxopt from ``src/`` and runs the workload, so
set-up is paid and measured every round.  Untraced rounds time fixed probe
slices while they run (``hostspeed.py``), and their set-up and sweep times
are reported at nominal host speed.  ``wall_s`` and ``iters_per_s`` take
all the run's rounds together; ``setup_s`` and ``peak_rss_mb`` are medians
over them.  Untraced runs report the end-to-end metrics; ``--trace 1`` runs
report the per-layer metrics of a traced serial round next to an untraced
one.  The outputs of every round are checked against the oracles in
``oracles.py``; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
RUN_LIMIT_S = 170           # every round of a run ends by then, or is killed
BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "iters_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "harness.tasks": "count", "harness.pool_efficiency": "ratio",
    "harness.z0_s": "s", "problems.build_ms": "ms", "problems.builds": "count",
    "engine.us_per_iter": "us", "engine.iters": "count",
    "model.user_us_per_iter": "us", "model.check_us_per_iter": "us",
    "model.evaluator_calls": "count", "diagnostics.exact_us_per_point": "us",
    "diagnostics.exact_points": "count", "diagnostics.mc_s_per_10k": "s",
    "diagnostics.mc_samples": "count", "diagnostics.moments_s": "s",
    "constants.estimate_ledger_s": "s", "trace.overhead_s": "s",
}
USER_CALLABLES = {"user.sampler", "user.inner", "user.model", "user.outer"}
MODEL_CHECKS = {"model.sample_joint", "model.evaluate_inner",
                "model.evaluate_model", "model.evaluate_outer"}


def pin_environment():
    """One BLAS thread, no CTXOPT_WORKERS override, ctxopt from src/."""
    os.environ.pop("CTXOPT_WORKERS", None)
    for var in BLAS_THREADS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))


def environment_record():
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "ctxopt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    revision = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        revision = proc.stdout.strip() or revision
    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "revision": revision, "src_sha256": digest.hexdigest()[:16]}


# ------------------------------------------------------------------ rounds

def launch(workload, seed, round_dir, trace, workers, deadline):
    """Run one round in a fresh process; returns its round.json plus timings.

    A round still running at ``deadline`` (monotonic) is killed with its
    process group and counts as failed.
    """
    round_dir.mkdir(parents=True)
    if workload.kind == "harness":
        (round_dir / "config.cfg").write_text(
            workload.config_text(seed, str(round_dir), workers))
    with open(round_dir / "child.log", "w") as log:
        t_launch = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), workload.name, str(seed),
             str(round_dir), "1" if trace else "0"],
            cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True)
        try:
            proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    info = {"dir": round_dir, "workers": workers,
            "error": f"round exited with {proc.returncode}, no round.json"}
    if (round_dir / "round.json").exists():
        info.update(json.loads((round_dir / "round.json").read_text()))
    if info["error"] is None:
        info["wall_s"] = info["t_done"] - t_launch
        info["setup_s"] = info["t_first"] - t_launch
        info["own_s"] = info["wall_s"]      # without the probe slices
        if "probe_sweep" in info:
            info["setup_n"] = hostspeed.normalised(info["setup_s"],
                                                   info["probe_setup"])
            info["sweep_n"] = hostspeed.normalised(
                info["wall_s"] - info["setup_s"], info["probe_sweep"])
            info["own_s"] -= (info["probe_setup"]["wall_s"]
                              + info["probe_sweep"]["wall_s"])
    return info


def slice_ms(phase):
    return 1e3 * phase["cpu_s"] / phase["slices"]


def repeat(one_round, seconds, min_rounds, deadline):
    """Whole rounds until the next one would end past ``seconds``.

    At least ``min_rounds`` are made unless the next would end past
    ``deadline``.
    """
    start = time.monotonic()
    rounds = []
    while True:
        rounds.append(one_round(len(rounds)))
        now = time.monotonic()
        next_end = now + (now - start) / len(rounds)
        if next_end > deadline:
            return rounds
        if len(rounds) >= min_rounds and next_end - start > seconds:
            return rounds


# ------------------------------------------------------------------ checks

def check_round(workload, seed, info):
    """Problems with one round's outputs, judged by the oracles."""
    import checks
    import oracles
    from ctxopt import seeding

    out = info["dir"]
    rows = checks.read_rows(out / "results.csv")
    problems = []
    expected = {(n, r) for n in workload.sweep
                for r in range(workload.replications)}
    got = {(int(row["N"]), int(row["replication"])) for row in rows}
    if got != expected or len(rows) != workload.rows:
        problems.append(f"rows {sorted(got)} != sweep x replications")
    for row in rows:
        if int(row["seed"]) != seeding.mix(seed, int(row["N"]),
                                           int(row["replication"])):
            problems.append(f"row {row['N']}/{row['replication']}: seed is "
                            "not mix(master, N, r)")
    if workload.kind == "rate":
        manifest = json.loads((out / "manifest.json").read_text())
        return problems + checks.check_rate_grid(rows, manifest,
                                                 workload.gamma, workload.grid)
    manifest = json.loads((out / "manifest.jsonl").read_text().splitlines()[0])
    derived = manifest["derived"]
    summary = checks.read_rows(out / "summary.csv")
    for srow in summary:
        vs = [float(r["V_at_S"]) for r in rows if r["N"] == srow["N"]]
        if abs(float(srow["mean_V"]) - sum(vs) / len(vs)) > 1e-12 * abs(
                float(srow["mean_V"])):
            problems.append(f"summary N={srow['N']}: mean_V is not the row mean")
    if workload.problem == "BT":
        problems += checks.check_bt_ledger(manifest["ledger"])
        problems += checks.check_bt_derived(derived, manifest["ledger"])
        problems += checks.check_bt_rows(rows, derived, workload.gamma)
    else:
        a = oracles.lg_vector(int(workload.problem[3:-1]))
        if derived["alpha"] != workload.alpha:
            problems.append(f"manifest alpha {derived['alpha']!r} is not the "
                            "configured one")
        problems += checks.check_lg_rows(rows, a, workload.gamma, workload.alpha)
    return problems


def check_rounds(workload, seed, infos):
    """Oracle checks on the first round; every other round must match it."""
    import checks

    done = [info for info in infos if info["error"] is None]
    if not done:
        return ["no round completed"]
    problems = check_round(workload, seed, done[0])
    reference = checks.canonical_results(done[0]["dir"] / "results.csv")
    for info in done[1:]:
        if checks.canonical_results(info["dir"] / "results.csv") != reference:
            problems.append(f"{info['dir'].name}: results.csv (without "
                            f"wall_ms) differs from {done[0]['dir'].name}")
    return problems


# ----------------------------------------------------------------- metrics

def end_to_end(workload, infos):
    """The run's end-to-end metrics from its completed rounds.

    Times are at nominal host speed (``hostspeed.normalised``), set-up and
    sweep each scaled by the probe slices that ran during it.  ``wall_s``
    and ``iters_per_s`` take all rounds together (mean round, total
    iterations over total sweep time); ``setup_s`` and ``peak_rss_mb`` are
    medians.
    """
    done = [info for info in infos if info["error"] is None]
    if not done:
        return {}
    med = statistics.median
    return {
        "wall_s": statistics.fmean(i["setup_n"] + i["sweep_n"] for i in done),
        "setup_s": med(i["setup_n"] for i in done),
        "iters_per_s": (workload.iterations * len(done)
                        / sum(i["sweep_n"] for i in done)),
        "peak_rss_mb": med(i["peak_rss_mb"] for i in done),
    }


def layer_metrics(records):
    """Per-layer metrics from one traced round's aggregated spans."""
    def pick(pred, field="total_s"):
        return sum(r[field] for r in records if pred(r))

    def named(*names):
        return lambda r: r["name"] in names

    def in_engine(names):
        return lambda r: r["phase"] == "engine.run" and r["name"] in names

    def point(name):
        # a diagnostic evaluated at a state by the sweep itself, not inside
        # another diagnostic, the problem build or the ledger estimate
        return lambda r: (r["name"] == name
                          and r["phase"] in (None, "harness._run_one")
                          and not (r["caller"] or "").startswith("diagnostics."))

    def per(amount, count, scale=1.0):
        return amount / count * scale if count else 0.0

    iters = pick(named("engine.run"), "amount")
    exact = [point("diagnostics.tracking_error_Q[exact]"),
             point("diagnostics.grad_G[exact]")]
    exact_points = pick(exact[0], "calls")
    mc = [point(f"diagnostics.{n}[mc]") for n in
          ("tracking_error_Q", "grad_G", "bregman_delta_and_W")]
    mc_samples = sum(pick(p, "amount") for p in mc)
    return {
        "harness.tasks": pick(named("harness._run_one"), "calls"),
        "harness.z0_s": pick(named("harness.measure_z0_quantities")),
        "problems.build_ms": per(pick(named("problems.by_name")),
                                 pick(named("problems.by_name"), "calls"), 1e3),
        "problems.builds": pick(named("problems.by_name"), "calls"),
        "engine.us_per_iter": per(pick(named("engine.run")), iters, 1e6),
        "engine.iters": iters,
        "model.user_us_per_iter": per(pick(in_engine(USER_CALLABLES)), iters,
                                      1e6),
        "model.check_us_per_iter": per(pick(in_engine(MODEL_CHECKS), "self_s"),
                                       iters, 1e6),
        "model.evaluator_calls": pick(in_engine(USER_CALLABLES), "calls"),
        "diagnostics.exact_us_per_point": per(sum(pick(p) for p in exact),
                                              exact_points, 1e6),
        "diagnostics.exact_points": exact_points,
        "diagnostics.mc_s_per_10k": per(sum(pick(p) for p in mc), mc_samples,
                                        1e4),
        "diagnostics.mc_samples": mc_samples,
        "diagnostics.moments_s": pick(named("diagnostics.direction_moment_stats")),
        "constants.estimate_ledger_s": pick(named("constants.estimate_ledger")),
        "sampler_calls": pick(in_engine({"user.sampler"}), "calls"),
    }


# ------------------------------------------------------------------- runs

def run_workload(workload, seed, seconds, trace):
    """Rounds, checks and metrics of one workload; returns the result dict."""
    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = RUNS / f"{workload.name}-seed{seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)

    def one(label, index, traced, workers):
        return launch(workload, seed, run_dir / f"{label}{index}", traced,
                      workers, deadline)

    if not trace:
        infos = repeat(lambda i: [one("round", i, False, workload.workers)],
                       seconds, 2, deadline)
    else:
        def traced_round(i):
            infos = [one("untraced", i, False, workload.workers),
                     one("traced", i, True, 1)]
            if workload.workers > 1:
                infos.append(one("serial", i, False, 1))
            return infos
        infos = repeat(traced_round, seconds, 1, deadline)

    flat = [info for group in infos for info in group]
    for info in flat:
        if info["error"] is None:
            line = (f"{workload.name}: {info['dir'].name} raw wall_s="
                    f"{info['wall_s']:.4f} setup_s={info['setup_s']:.4f}")
            if "probe_sweep" in info:
                line += (f" nominal setup_s={info['setup_n']:.4f} sweep_s="
                         f"{info['sweep_n']:.4f} slice_ms="
                         f"{slice_ms(info['probe_setup']):.4f},"
                         f"{slice_ms(info['probe_sweep']):.4f}")
            print(line, file=sys.stderr)
    problems = check_rounds(workload, seed, flat)
    for info in flat:
        if info["error"]:
            problems.append(f"{info['dir'].name}: {info['error'].strip()}")
    failed = workload.rows * sum(1 for info in flat if info["error"])
    if trace:
        metrics = traced_metrics(workload, infos, problems)
        spans = [i["trace"] for i in flat if i.get("trace")]
        if spans:
            (RUNS / f"{workload.name}-seed{seed}-trace.json").write_text(
                json.dumps(spans[0], indent=1))
    else:
        metrics = end_to_end(workload, flat)
    correct = not problems and bool(metrics)
    if correct:
        shutil.rmtree(run_dir)
    else:
        print(f"{workload.name}: outputs kept in {run_dir}", file=sys.stderr)
    for line in problems:
        print(f"{workload.name}: CHECK FAILED: {line}", file=sys.stderr)
    return {"correct": correct, "attempted": workload.rows * len(flat),
            "failed": failed, "metrics": metrics, "rounds": len(infos)}


def traced_metrics(workload, infos, problems):
    med = statistics.median
    ok = [group for group in infos if all(i["error"] is None for i in group)]
    if not ok:
        return {}
    untraced = [g[0] for g in ok]
    traced = [g[1] for g in ok]
    serial = [g[-1] if workload.workers > 1 else g[0] for g in ok]
    per_round = [layer_metrics(i["trace"]) for i in traced]
    for m in per_round:
        if m["sampler_calls"] != m["engine.iters"]:
            problems.append(f"sampler calls {m['sampler_calls']} != "
                            f"iterations {m['engine.iters']}")
    metrics = {key: med(m[key] for m in per_round) for key in PER_LAYER
               if key not in ("harness.pool_efficiency", "trace.overhead_s")}

    def sweep_s(group):
        return med(i["sweep_n"] for i in group)

    # untraced serial sweep time over workers x untraced pooled sweep time,
    # both at nominal host speed; exactly 1 on a serial workload, where both
    # are the same rounds
    metrics["harness.pool_efficiency"] = (
        sweep_s(serial) / (workload.workers * sweep_s(untraced))
        if workload.kind == "harness" else 0.0)
    # traced rounds carry no probe sampler; both sides are raw seconds
    metrics["trace.overhead_s"] = (med(i["own_s"] for i in traced)
                                   - med(i["own_s"] for i in serial))
    return {key: metrics[key] for key in PER_LAYER}


def emit(result, units):
    metrics = {key: {"value": value, "unit": units[key.rsplit(":", 1)[-1]]}
               for key, value in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ctxopt" / "__init__.py").is_file():
        print(f"error: no ctxopt package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    pin_environment()
    print("env " + json.dumps(environment_record(), sort_keys=True))
    units = PER_LAYER if args.trace else END_TO_END
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace))
        results[name] = result
        shown = "  ".join(f"{k}={v:.6g} {units[k]}"
                          for k, v in result["metrics"].items())
        print(f"{name}: rounds={result['rounds']} attempted={result['attempted']}"
              f" failed={result['failed']} correct={result['correct']}  {shown}")
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}:{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    emit(result, units)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
