"""Byte goldens for the sweep's result files.

Each case runs a tiny FixedHorizon sweep through ``harness.run_experiment``
and pins the sha256 of its ``results.csv`` and ``summary.csv``.  A change to
the diagnostics, the engine or the harness that moves any value, or any
byte of how it is written, fails here.  BT with ``alpha = auto`` covers the
z^0 moments and the exact diagnostics (``V_grid`` strides its grid at
N = 2048); LG(2) covers the Monte Carlo diagnostics and their three 10k
draws per row.  BT at gamma = 300 without ``lambda``, ``c1`` or ``c2``
covers the derived default: lambda from ``constants.best_lambda`` and the
weights from ``constants.derive``.
"""

import hashlib

import pytest

from ctxopt import harness

WEIGHTS = "lambda = 3\nc1 = 2.24\nc2 = 0.21875\nrun.seed = 5\nworkers = 1\n"

CASES = {
    "BT": ("problem.name = BT\nrun.gamma = 20\nrun.alpha = auto\n"
           "sweep = 16,2048\nreplications = 2\n",
           "ed74e934b1f4ef65efedd1305ec15403d5c317d4fa2120b5609645791ee32ace",
           "4aaa56763de352110413c1413a583c60693c2fe9ce600bf4a81809e5db6cab9f"),
    "LG(2)": ("problem.name = LG(2)\nrun.gamma = 1\nrun.alpha = 0.5\n"
              "sweep = 8,32\nreplications = 1\n",
              "e6a91a73ac7853ffb51524a9c579cd4f07d5c1453964e17bf97214c1c2e5c491",
              "a796c9219260848f86c966d3155f6e39dd3def408f2f3ff7cf874fd33ddbf3da"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_sweep_outputs_keep_their_bytes(tmp_path, name):
    text, results_sha, summary_sha = CASES[name]
    result = harness.run_experiment(harness.parse_config(
        text + WEIGHTS + f"output_dir = {tmp_path}\n"))
    for key, expected in (("results", results_sha), ("summary", summary_sha)):
        digest = hashlib.sha256(result[key].read_bytes()).hexdigest()
        assert digest == expected, key


def test_a_sweep_with_derived_weights_keeps_its_bytes(tmp_path):
    result = harness.run_experiment(harness.parse_config(
        "problem.name = BT\nrun.gamma = 300\nrun.alpha = auto\nsweep = 16,256\n"
        f"replications = 2\nrun.seed = 5\nworkers = 1\noutput_dir = {tmp_path}\n"))
    assert result["lam"] == 19.888111555889278
    for key, expected in (
            ("results", "967732207ab33098dfeb051e40f8f3afcd6dfef0b9e998d6ddac25758fc8af36"),
            ("summary", "40d465fe98e3717912848b6ef584d27ca5c041a07ea18ad1502d0585cc0f8546")):
        assert hashlib.sha256(result[key].read_bytes()).hexdigest() == expected, key
