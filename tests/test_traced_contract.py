"""The traced benchmark's contract with ctxopt, checked in tier-1.

``benchmarks/tracing.Tracer`` patches the ctxopt modules in place, so each
case runs ``ctxopt run`` under it in a fresh interpreter.  The spans then go
through ``benchmarks/run.layer_metrics``, and the test asserts what
``run.traced_metrics`` asserts of a traced round: one sampler call per engine
iteration, and one ``harness._run_one`` task per results row.  It also
asserts one call each of the sampler, the inner function, the model and the
outer function per iteration, one problem build per sweep, and a nonzero
time in each set-up phase that the case runs (the z^0 quantities, the
direction moments, the ledger estimate), so a renamed phase function cannot
silently zero its timer.  A change to that contract changes this test with
it.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"

TRACED_RUN = textwrap.dedent("""\
    import json, sys
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    from ctxopt import cli
    import run
    code = cli.main(["run", sys.argv[1]])
    print(json.dumps({"code": code, **run.layer_metrics(tracer.dump())}))
    """)

BT = ("problem.name = BT\nrun.gamma = 20\nrun.alpha = auto\n"
      "lambda = 3\nc1 = 2.24\nc2 = 0.21875\n")
Z0_PHASES = ("harness.z0_s", "diagnostics.moments_s")
CONFIGS = {  # (config text, diagnostics mode, phase timers that must read > 0)
    # exact diagnostics; alpha = auto measures the z^0 quantities first
    "BT": (BT, "exact", Z0_PHASES),
    # the same, on a re-estimated ledger
    "BT-estimate": (BT + "ledger.estimate = true\n", "exact",
                    Z0_PHASES + ("constants.estimate_ledger_s",)),
    # Monte Carlo diagnostics: 3 x 10k oracle samples per row
    "LG(2)": ("problem.name = LG(2)\nrun.gamma = 1\nrun.alpha = 0.5\n"
              "lambda = 3\nc1 = 2.24\nc2 = 0.21875\n", "mc", ()),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_traced_run_keeps_one_sampler_call_per_iteration(tmp_path, name):
    text, mode, phases = CONFIGS[name]
    sweep, replications = (4, 8), 2
    config = tmp_path / "exp.cfg"
    config.write_text(text + f"sweep = {','.join(map(str, sweep))}\n"
                      f"replications = {replications}\nrun.seed = 7\n"
                      f"workers = 1\noutput_dir = {tmp_path / 'out'}\n")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(BENCHMARKS), *sys.path]))
    done = subprocess.run([sys.executable, "-c", TRACED_RUN, str(config)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])
    rows = len(sweep) * replications
    assert metrics["code"] == 0
    assert metrics["sampler_calls"] == metrics["engine.iters"] == \
        replications * sum(sweep)
    # the metric counts the sampler with the evaluators: each runs once per
    # iteration, none of them twice
    assert metrics["model.evaluator_calls"] == 4 * metrics["engine.iters"]
    assert metrics["harness.tasks"] == rows
    assert metrics["problems.builds"] == 1
    assert all(metrics[phase] > 0 for phase in phases), \
        {phase: metrics[phase] for phase in phases}
    if mode == "exact":
        assert metrics["diagnostics.exact_points"] == rows
    else:
        assert metrics["diagnostics.mc_samples"] == 3 * 10000 * rows
