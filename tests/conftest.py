"""Shared fixtures: built-in problems and the estimated BT ledger.

The estimated ledger and the compliant (lambda, gamma, c1, c2) bundle are
session-scoped because estimation is the single most expensive setup step
and several test modules verify against the same numbers.
"""

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from ctxopt import constants, diagnostics, harness, problems

MASTER_SEED = 20260823


@pytest.fixture(scope="session")
def bt():
    return problems.make_bernoulli_testbed()


@pytest.fixture(scope="session")
def lin():
    return problems.make_linear_outer()


@pytest.fixture(scope="session")
def lg():
    return problems.make_linear_gaussian(2, seed=0)


@pytest.fixture(scope="session")
def bt_estimated_ledger(bt):
    return harness.estimated_ledger(bt, MASTER_SEED)


def minimize_scalar_G(problem, lo=0.0, hi=1.0, tol=1e-12):
    """Locate the minimizer of G for a scalar decision by bisecting grad G.

    Requires exact mode and a sign change of the scalar gradient on [lo, hi].
    Returns (beta_star, G(beta_star)).
    """
    def dg(b):
        g, _ = diagnostics.grad_G(problem, np.array([b]), mode="exact")
        return float(g[0])

    root = brentq(dg, lo, hi, xtol=tol)
    g_val, _ = diagnostics.value_G(problem, np.array([root]), mode="exact")
    return float(root), g_val


def compliant_constants(ledger):
    """Smallest-threshold compliant (lambda, gamma) pair and its weights.

    Picks lambda minimizing gamma_min over (floor, 50*floor), then gamma at
    1.2x the threshold so every strict inequality holds with margin.
    """
    floor = constants.lambda_floor(ledger)
    result = minimize_scalar(
        lambda lam: constants.gamma_min(ledger, lam),
        bounds=(floor * 1.0001, floor * 50.0), method="bounded",
        options={"xatol": 1e-10})
    lam = float(result.x)
    gamma = 1.2 * constants.gamma_min(ledger, lam)
    return constants.derive(ledger, lam, gamma)


@pytest.fixture(scope="session")
def bt_compliant(bt_estimated_ledger):
    return compliant_constants(bt_estimated_ledger)
