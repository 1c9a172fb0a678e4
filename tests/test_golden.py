"""Bitwise golden values: trajectories, diagnostics, moments and the ledger.

The goldens were recorded from the engine and diagnostics as they stood
before the evaluator-call fast path, so any change to the arithmetic, to
the order of RNG draws or to the stopping law shows up here as a
mismatch.  LG is used with one context dimension so that no dot product is
longer than one element and the bits do not depend on the BLAS build.

To print the current values, run ``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib

import numpy as np
import pytest

from ctxopt import constants, diagnostics, engine, problems, seeding
from ctxopt.engine import RunConfig, Schedule

GOLDEN_N = 512
GOLDEN_SEED = 424242

BUILDERS = {
    "BT": problems.make_bernoulli_testbed,
    "LIN": problems.make_linear_outer,
    "LG(1)": lambda: problems.make_linear_gaussian(1, seed=0),
}

GOLDEN_RUNS = {
    ("BT", "Anytime"): {
        "betas": "3041ff0b16ecc3ee4dd223e1d8d5161cdaed40ce023cb0cf494ec6f22bb44f52",
        "thetas": "8f5fc6537342c738c7d98a5152b66a67ca416b785076f2ca02c9629257f736ff",
        "taus": "64935e7d29214edb317f29ebdcbf81ec0c82947344ded6b45059e3497e029b16",
        "stop_index": 208,
    },
    ("BT", "FixedHorizon"): {
        "betas": "8de2e76633c077cd1ee2859716366813756c5a26d490b02a04afd8a5d371d715",
        "thetas": "b93ef0410930322726e784ca72980266e4a124a83c363303edf5a6a6a06796da",
        "taus": "8308c612112c87a53ba3943e589b26a5394c8f0fb72b4fb953c8a454e4a7d43f",
        "stop_index": 472,
    },
    ("LG(1)", "Anytime"): {
        "betas": "92f4347402a46189e197d5f58aafe35273cf891cb640dec2185507b3f2e916e1",
        "thetas": "c7650cbe11ed0ca3bc0fefbbc4e8d8b45f9a2abcfe2b75666ba8f79781cfd927",
        "taus": "64935e7d29214edb317f29ebdcbf81ec0c82947344ded6b45059e3497e029b16",
        "stop_index": 208,
    },
    ("LG(1)", "FixedHorizon"): {
        "betas": "551670b307eeb95abb18b125b31104c274371fbe34b88515dd67a8d140458b26",
        "thetas": "73d3becfbe19baaac1fa13bab3816baa3f6009645f8697ed19070ecceac7c3b3",
        "taus": "8308c612112c87a53ba3943e589b26a5394c8f0fb72b4fb953c8a454e4a7d43f",
        "stop_index": 472,
    },
    ("LIN", "Anytime"): {
        "betas": "aa705b2b1964fd337caf0bf0c675ab5cab5bbaf4b5191a7f6a256f2d00a862fb",
        "thetas": "86a8d79924521588be580c1afdf4fc99795c652f6647633d94aeeeeeaf2ab6c7",
        "taus": "64935e7d29214edb317f29ebdcbf81ec0c82947344ded6b45059e3497e029b16",
        "stop_index": 208,
    },
    ("LIN", "FixedHorizon"): {
        "betas": "4aac1cc71883151f9ddbee897e43f615da559380f15e6eb8b856c20170999322",
        "thetas": "565d398b324a691f88f1824e490e2f1f8f24c7079f4fb433373464410503e786",
        "taus": "8308c612112c87a53ba3943e589b26a5394c8f0fb72b4fb953c8a454e4a7d43f",
        "stop_index": 472,
    },
}

GOLDEN_EXACT_BT = {
    "Q": ("0x1.b8bac710cb2a0p-7",),
    "delta_W": ("0x1.97a7fbb711e55p-5", "0x1.70e6c34caf50ap-4"),
    "grad_G": ("-0x1.f3e469af27308p-4",),
}

GOLDEN_MC_LG1 = {
    "Q": ("0x1.8b93d220af2fap-1", "0x1.81b7e8104f126p-6"),
    "grad_G": ("-0x1.f1d8fe7bda67dp-2", "0x1.83c1b4501897cp-7"),
}

GOLDEN_MOMENTS_BT = ("0x1.057af097a72a7p-1", "0x1.36aa052b2ae0ap+6")

GOLDEN_LEDGER_BT = {
    "C_f": "0x1.0000000000000p+0",
    "C_psi": "0x1.b0690bc93c4a6p+0",
    "L_g": "0x1.fff972677adf6p-1",
    "L_hess_g": "0x1.0000000000000p+0",
    "Lbar_f": "0x1.0000000000000p+1",
    "Lbar_grad_f": "0x1.0000000000000p+1",
    "Lbar_grad_psi": "0x0.0p+0",
    "Lbar_psi": "0x1.3f8f4ed2ae352p+0",
    "M": "0x1.4f1bbcdcbfa55p+1",
}

# The ledger at the harness size: the ``bt_estimated_ledger`` fixture,
# estimate_ledger(bt.spec, 10000, 10000, substream(20260823, 17)) over BT's
# probe boxes.
GOLDEN_LEDGER_BT_FULL = {
    "C_f": "0x1.0000000000000p+0",
    "C_psi": "0x1.b3682f989080dp+0",
    "L_g": "0x1.fff972677adf6p-1",
    "L_hess_g": "0x1.0000000000000p+0",
    "Lbar_f": "0x1.0000000000000p+1",
    "Lbar_grad_f": "0x1.0000000000000p+1",
    "Lbar_grad_psi": "0x0.0p+0",
    "Lbar_psi": "0x1.410cbc4908831p+0",
    "M": "0x1.4f1bbcdcbfa55p+1",
}


def _sha(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


def _hex(values) -> tuple:
    return tuple(float(v).hex() for v in np.ravel(values))


def observed_run(name, schedule):
    spec = BUILDERS[name]().spec
    record = engine.run(spec, RunConfig(gamma=2.0, alpha=0.5, n_iters=GOLDEN_N,
                                        schedule=schedule, seed=GOLDEN_SEED))
    return {"betas": _sha(record.betas), "thetas": _sha(record.thetas),
            "taus": _sha(record.taus), "stop_index": record.stop_index}


def observed_exact_bt():
    spec = problems.make_bernoulli_testbed().spec
    beta, theta = np.array([0.3]), np.array([0.2, 0.4])
    q, _ = diagnostics.tracking_error_Q(spec, beta, theta, mode="exact")
    g, _ = diagnostics.grad_G(spec, beta, mode="exact")
    delta, w = diagnostics.bregman_delta_and_W(spec, beta, theta, 3.0,
                                               mode="exact")
    return {"Q": _hex(q), "grad_G": _hex(g), "delta_W": _hex([delta, w])}


def observed_mc_lg1():
    spec = problems.make_linear_gaussian(1, seed=0).spec
    beta, theta = np.array([0.25]), np.array([-0.5])
    rng = seeding.substream(GOLDEN_SEED, 3)
    q = diagnostics.tracking_error_Q(spec, beta, theta, "mc", 2000, rng)
    g = diagnostics.grad_G(spec, beta, "mc", 2000, rng)
    return {"Q": _hex(q), "grad_G": _hex(np.concatenate(g))}


def observed_moments_bt():
    spec = problems.make_bernoulli_testbed().spec
    stats = diagnostics.direction_moment_stats(
        spec, np.array([0.1]), np.array([0.2, 0.3]), 20.0, 2000,
        seeding.substream(GOLDEN_SEED, 7))
    return _hex(stats)


def _ledger_hex(ledger):
    return {key: float(value).hex() for key, value in ledger.as_dict().items()}


def observed_ledger_bt():
    spec = problems.make_bernoulli_testbed().spec
    return _ledger_hex(constants.estimate_ledger(
        spec, 500, 500, seeding.substream(GOLDEN_SEED, 17)))


def observed_full_ledger_bt():
    bt = problems.make_bernoulli_testbed()
    return _ledger_hex(constants.estimate_ledger(
        bt.spec, 10000, 10000, seeding.substream(20260823, 17),
        beta_box=bt.beta_box, theta_box=bt.theta_box))


@pytest.mark.parametrize("schedule", list(Schedule), ids=lambda s: s.value)
@pytest.mark.parametrize("name", list(BUILDERS))
def test_trajectory_matches_golden(name, schedule):
    assert observed_run(name, schedule) == GOLDEN_RUNS[name, schedule.value]


def test_exact_diagnostics_match_golden():
    assert observed_exact_bt() == GOLDEN_EXACT_BT


def test_monte_carlo_diagnostics_match_golden():
    assert observed_mc_lg1() == GOLDEN_MC_LG1


def test_direction_moments_match_golden():
    assert observed_moments_bt() == GOLDEN_MOMENTS_BT


def test_estimated_ledger_matches_golden():
    assert observed_ledger_bt() == GOLDEN_LEDGER_BT


def test_full_size_ledger_matches_golden(bt_estimated_ledger):
    assert _ledger_hex(bt_estimated_ledger) == GOLDEN_LEDGER_BT_FULL


if __name__ == "__main__":
    import pprint

    runs = {(name, s.value): observed_run(name, s)
            for name in BUILDERS for s in Schedule}
    for label, value in (("GOLDEN_RUNS", runs),
                         ("GOLDEN_EXACT_BT", observed_exact_bt()),
                         ("GOLDEN_MC_LG1", observed_mc_lg1()),
                         ("GOLDEN_MOMENTS_BT", observed_moments_bt()),
                         ("GOLDEN_LEDGER_BT", observed_ledger_bt()),
                         ("GOLDEN_LEDGER_BT_FULL", observed_full_ledger_bt())):
        print(f"{label} = {pprint.pformat(value, width=78)}\n")
