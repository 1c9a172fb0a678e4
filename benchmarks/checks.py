"""Correctness checks of each workload's outputs against the oracles.

Every check returns a list of human-readable problems; an empty list means
the outputs are correct.  Nothing is compared with a stored copy of earlier
output: rows are checked against trajectory replays and closed forms, and
the rate grid against the properties the method must have.
"""

from __future__ import annotations

import csv
import math

import numpy as np

import oracles

REL_EXACT = 1e-9            # replay + closed form against exact diagnostics
REL_ARITH = 1e-12           # constants recomputed from the same inputs
MC_SIGMAS = 5.0             # Monte Carlo diagnostics: multiples of the stderr
SLOPE_BAND = (-0.65, -0.35)
MIN_R2 = 0.9
# Tolerances of the estimated-versus-analytic BT ledger test in the package
# suite: (relative, absolute); (0, 0) means exact equality.
LEDGER_TOLERANCE = {
    "L_g": (0.0, 1e-4), "L_hess_g": (0.0, 0.0), "Lbar_f": (0.0, 0.0),
    "C_f": (0.0, 0.0), "Lbar_grad_f": (1e-6, 1e-12),
    "Lbar_psi": (0.02, 0.0), "C_psi": (0.02, 0.0),
    "Lbar_grad_psi": (0.0, 1e-9), "M": (1e-6, 0.0),
}


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def canonical_results(path, drop=("wall_ms",)):
    """results.csv text without the timing column, for byte comparison."""
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    keep = [i for i, col in enumerate(header) if col not in drop]
    return "\n".join(",".join(line.split(",")[i] for i in keep)
                     for line in lines) + "\n"


def _close(actual, expected, rel, abs_tol=0.0):
    return abs(actual - expected) <= max(rel * abs(expected), abs_tol)


def check_bt_rows(rows, derived, gamma):
    """Every row's S is the replayed stopping draw; V_at_S, Q_at_S,
    |grad G| at S and W_final match replay plus closed form to 1e-9."""
    problems = []
    c1, c2, lam, alpha = (derived["c1"], derived["c2"], derived["lambda"],
                          derived["alpha"])
    for row in rows:
        tag = f"row N={row['N']} r={row['replication']}"
        n, seed, s = int(row["N"]), int(row["seed"]), int(row["S"])
        if float(row["alpha"]) != alpha or float(row["gamma"]) != gamma:
            problems.append(f"{tag}: alpha/gamma differ from the manifest")
        if int(row["samples_used"]) != n:
            problems.append(f"{tag}: samples_used {row['samples_used']} != N")
        expected_s = oracles.stop_index(seed, n)
        if s != expected_s:
            problems.append(f"{tag}: S={s}, replayed stopping draw {expected_s}")
            continue
        betas, thetas = oracles.bt_replay(seed, n, gamma, alpha)
        q, grad = oracles.bt_Q_gradG(betas[s], thetas[s])
        expected = {
            "V_at_S": c1 * q[0] + c2 * grad[0] ** 2,
            "Q_at_S": q[0],
            "normgradG_at_S": abs(grad[0]),
            "W_final": oracles.bt_W(betas[n], thetas[n], lam)[0],
        }
        for key, value in expected.items():
            if not _close(float(row[key]), value, REL_EXACT):
                problems.append(f"{tag}: {key}={row[key]}, oracle {value!r}")
    return problems


def check_bt_derived(derived, ledger):
    """W(z^0), G_min and the tuned alpha against the closed forms."""
    problems = []
    lam = derived["lambda"]
    expected = {
        "W0": oracles.bt_W([0.0], [[0.0, 0.0]], lam)[0],
        "G_min": oracles.bt_G_min(),
    }
    for key, value in expected.items():
        if not _close(derived[key], value, REL_EXACT):
            problems.append(f"manifest {key}={derived[key]!r}, oracle {value!r}")
    alpha = oracles.optimal_alpha(oracles.lipschitz_W(ledger, lam),
                                  derived["C_d_sq"], derived["sigma_sq"],
                                  derived["W0"], derived["G_min"])
    if not _close(derived["alpha"], alpha, REL_ARITH):
        problems.append(f"manifest alpha={derived['alpha']!r}, "
                        f"optimal alpha {alpha!r}")
    return problems


def check_bt_ledger(ledger):
    """Estimated ledger against the BT closed forms."""
    problems = []
    for key, (rel, abs_tol) in LEDGER_TOLERANCE.items():
        if not _close(ledger[key], oracles.BT_LEDGER[key], rel, abs_tol):
            problems.append(f"ledger {key}={ledger[key]!r}, closed form "
                            f"{oracles.BT_LEDGER[key]!r}")
    return problems


def check_lg_rows(rows, a, gamma, alpha):
    """S exact; Q_at_S and |grad G| at S within MC_SIGMAS standard errors.

    The per-sample Q term is (1/2)(v.X)^2 with v.X ~ N(0, 2Q), so its
    standard deviation is sqrt(2) Q.  For |grad G| the error of the sample
    mean vector bounds the error of its norm, with E||mean - grad G||^2 equal
    to the trace of the per-sample covariance over the sample count.
    """
    problems = []
    for row in rows:
        tag = f"row N={row['N']} r={row['replication']}"
        n, seed, s = int(row["N"]), int(row["seed"]), int(row["S"])
        if float(row["alpha"]) != alpha or float(row["gamma"]) != gamma:
            problems.append(f"{tag}: alpha/gamma differ from the workload")
        expected_s = oracles.stop_index(seed, n)
        if s != expected_s:
            problems.append(f"{tag}: S={s}, replayed stopping draw {expected_s}")
            continue
        betas, thetas = oracles.lg_replay(a, seed, n, gamma, alpha)
        beta, theta = betas[s], thetas[s]
        q = oracles.lg_Q(a, beta, theta)
        q_se = math.sqrt(2.0) * q / math.sqrt(oracles.MC_SAMPLES)
        if abs(float(row["Q_at_S"]) - q) > MC_SIGMAS * q_se:
            problems.append(f"{tag}: Q_at_S={row['Q_at_S']}, closed form "
                            f"{q!r} +- {MC_SIGMAS} x {q_se:.3g}")
        g = float(np.linalg.norm(oracles.lg_gradG(a, beta)))
        g_se = math.sqrt(oracles.lg_gradG_sample_trace(a, beta)
                         / oracles.MC_SAMPLES)
        if abs(float(row["normgradG_at_S"]) - g) > MC_SIGMAS * g_se:
            problems.append(f"{tag}: normgradG_at_S={row['normgradG_at_S']}, "
                            f"quadrature {g!r} +- {MC_SIGMAS} x {g_se:.3g}")
    return problems


def check_rate_grid(rows, manifest, gamma, grid):
    """Row means match the replayed grid; slope, r^2 and bound hold."""
    problems = []
    c1, c2 = manifest["c1"], manifest["c2"]
    by_n = {}
    for row in rows:
        n, seed = int(row["N"]), int(row["seed"])
        betas, thetas = oracles.bt_replay(seed, n, gamma, manifest["alpha"])
        ks = np.arange(0, n, max(1, n // grid))
        expected = float(np.mean(oracles.bt_V(betas[ks], thetas[ks], c1, c2)))
        if not _close(float(row["mean_V"]), expected, REL_EXACT):
            problems.append(f"row N={n} r={row['replication']}: mean_V="
                            f"{row['mean_V']}, oracle {expected!r}")
        by_n.setdefault(n, []).append(float(row["mean_V"]))
    ns = sorted(by_n)
    problems += check_rate_fit(ns, [float(np.mean(by_n[n])) for n in ns],
                               manifest)
    problems += check_bt_derived(manifest, oracles.BT_LEDGER)
    return problems


def check_rate_fit(ns, means, manifest):
    """Log-log slope in the band with r^2 >= 0.9; mean V under the bound."""
    problems = []
    slope, r2 = oracles.loglog_fit(ns, means)
    if not (SLOPE_BAND[0] <= slope <= SLOPE_BAND[1] and r2 >= MIN_R2):
        problems.append(f"rate fit slope={slope:.4f} r2={r2:.4f} outside "
                        f"{SLOPE_BAND} / r2 >= {MIN_R2}")
    l_w = oracles.lipschitz_W(oracles.BT_LEDGER, manifest["lambda"])
    for n, mean in zip(ns, means):
        bound = oracles.rate_bound(l_w, manifest["C_d_sq"], manifest["sigma_sq"],
                                   manifest["alpha"], n, manifest["W0"],
                                   manifest["G_min"])
        if mean > bound:
            problems.append(f"N={n}: mean V {mean!r} above the bound {bound!r}")
    return problems
