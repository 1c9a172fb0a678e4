"""One round of one workload, in a fresh process.

Usage: python3 benchmarks/child.py WORKLOAD SEED ROUND_DIR TRACE

The parent writes ``config.cfg`` into ROUND_DIR (harness workloads) and
takes the launch time; this process imports ctxopt, runs the workload and
writes ``round.json``: the monotonic times at which the first replication
started and the outputs were written, the peak resident memory of this
process and its pool workers, and with TRACE=0 the host-speed probe totals
of set-up and sweep (see ``hostspeed.py``), with TRACE=1 the aggregated
spans instead.
"""

import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

marks = {}
sampler = None
worker_sampler = None


def start_worker_sampler():
    """Pool initializer: forked workers do not inherit the interval timer."""
    global worker_sampler
    from hostspeed import Sampler

    worker_sampler = Sampler()
    worker_sampler.start()


def mark_first():
    """The first replication starts now; set-up ends."""
    if "t_first" not in marks:
        if sampler is not None:
            marks["probe_setup"] = sampler.phase()
        marks["t_first"] = time.monotonic()


def mark_setup_end(harness, round_dir):
    """Record when the sweep starts: the first task, or the pool's creation.

    In a pooled round each worker also writes its probe totals so far to
    ``probe-<pid>.json`` after every task.
    """
    run_one = harness._run_one

    def first_task(*args, **kwargs):
        mark_first()
        row = run_one(*args, **kwargs)
        if worker_sampler is not None:
            Path(round_dir, f"probe-{os.getpid()}.json").write_text(
                json.dumps(worker_sampler.totals()))
        return row

    class Pool(harness.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            mark_first()
            if sampler is not None:
                sampler.pause()
                kwargs["initializer"] = start_worker_sampler
            super().__init__(*args, **kwargs)

    harness._run_one = first_task
    harness.ProcessPoolExecutor = Pool


def write_csv(path, columns, rows):
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(repr(row[c]) for c in columns) + "\n")


def run_rate_grid(workload, seed, round_dir):
    """The acceptance rate recipe: BT, gamma=20, alpha at the bound minimizer.

    (lambda, c1, c2) follow the compliant construction of the acceptance
    fixtures, applied to the shipped ledger; E[V(z^S)] per replication is the
    mean of V over an evenly spaced grid of trajectory states.
    """
    import math

    import numpy as np
    from scipy.optimize import minimize_scalar

    from ctxopt import constants, diagnostics, engine, problems, seeding

    problem = problems.by_name(workload.problem)
    spec, ledger = problem.spec, problem.ledger
    floor = constants.lambda_floor(ledger)
    result = minimize_scalar(lambda lam: constants.gamma_min(ledger, lam),
                             bounds=(floor * 1.0001, floor * 50.0),
                             method="bounded", options={"xatol": 1e-10})
    lam = float(result.x)
    derived = constants.derive(ledger, lam,
                               1.2 * constants.gamma_min(ledger, lam))
    _, _, l_w = constants.lipschitz_W(ledger, lam)
    z0 = (np.zeros(spec.dim_beta), np.zeros(spec.dim_theta))
    c_d_sq, sigma_sq = diagnostics.direction_moment_stats(
        spec, *z0, gamma=workload.gamma, n=20000,
        rng=seeding.substream(seed, 7))
    _, w0 = diagnostics.bregman_delta_and_W(spec, *z0, lam=lam)
    alpha = constants.optimal_alpha(l_w, math.sqrt(c_d_sq),
                                    math.sqrt(sigma_sq), w0, problem.g_min)

    mark_first()
    rows = []
    for n in workload.sweep:
        stride = max(1, n // workload.grid)
        for r in range(workload.replications):
            row_seed = seeding.mix(seed, n, r)
            record = engine.run(spec, engine.RunConfig(
                gamma=workload.gamma, alpha=alpha, n_iters=n, seed=row_seed))
            values = []
            for k in range(0, n, stride):
                q, _ = diagnostics.tracking_error_Q(
                    spec, record.betas[k], record.thetas[k])
                g, _ = diagnostics.grad_G(spec, record.betas[k])
                values.append(derived.c1 * q + derived.c2 * float(g @ g))
            rows.append({"N": n, "replication": r, "seed": row_seed,
                         "mean_V": float(np.mean(values))})
    write_csv(f"{round_dir}/results.csv", ["N", "replication", "seed", "mean_V"],
              rows)
    manifest = {"lambda": lam, "c1": derived.c1, "c2": derived.c2,
                "alpha": alpha, "C_d_sq": c_d_sq, "sigma_sq": sigma_sq,
                "W0": w0, "G_min": problem.g_min}
    with open(f"{round_dir}/manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True)


def main(argv):
    global sampler
    name, seed, round_dir, trace = argv
    seed, trace = int(seed), trace == "1"
    if not trace:
        from hostspeed import Sampler

        sampler = Sampler()
        sampler.start()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    out = {"error": None, "trace": None}
    try:
        tracer = None
        if trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        from ctxopt import cli, harness

        mark_setup_end(harness, round_dir)
        if workload.kind == "harness":
            code = cli.main(["run", f"{round_dir}/config.cfg"])
            if code != 0:
                raise RuntimeError(f"ctxopt run exited with {code}")
        else:
            run_rate_grid(workload, seed, round_dir)
        if sampler is not None:
            from hostspeed import with_workers

            out["probe_sweep"] = with_workers(sampler.stop(), [
                json.loads(path.read_text())
                for path in Path(round_dir).glob("probe-*.json")])
            out["probe_setup"] = marks["probe_setup"]
        out["t_done"] = time.monotonic()
        out["t_first"] = marks["t_first"]
        if tracer is not None:
            out["trace"] = tracer.dump()
    except Exception:
        out["error"] = traceback.format_exc()
    if sampler is not None:
        sampler.stop()
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    out["peak_rss_mb"] = peak_kb / 1024.0
    with open(f"{round_dir}/round.json", "w") as fh:
        json.dump(out, fh)
    return 1 if out["error"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
