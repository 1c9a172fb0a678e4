"""Shared fixtures: built-in problems and the estimated BT ledger.

The estimated ledger and the compliant (lambda, gamma, c1, c2) bundle are
session-scoped because estimation is the single most expensive setup step
and several test modules verify against the same numbers.
"""

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from ctxopt import constants, diagnostics, harness, problems
from ctxopt.model import ProblemSpec

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


# A member with dim_beta 2, dim_theta 4 and dim_f 2 on BT's support, so the
# matrix paths run: every shipped fixture has dim_f 1.  Its inner f(x, y,
# beta) = ((y - b1)^2, y b1 - b2^2 / 2) has a gradient that is not symmetric;
# its outer g(u) = sqrt(1 + ||A u||^2) - 1 with A = [[1, 0.5], [0, 1]] has a
# Hessian that is not diagonal; its model is affine in x in each component,
# so it realizes F.  Every evaluator is elementwise, so stacked and
# per-sample calls agree bit for bit.

def _stacked(*columns):
    """The columns broadcast together and stacked on a last axis."""
    return np.stack(np.broadcast_arrays(*columns), axis=-1)


def _f2_inner(x, y, beta):
    y0, b1, b2 = y[..., 0], beta[..., 0], beta[..., 1]
    r = y0 - b1
    value = _stacked(r * r, y0 * b1 - 0.5 * (b2 * b2))
    grad = np.zeros(value.shape[:-1] + (2, 2))
    grad[..., 0, 0], grad[..., 0, 1], grad[..., 1, 1] = -2.0 * r, y0, -b2
    return value, grad


def _f2_outer(u):
    v1, v2 = u[..., 0] + 0.5 * u[..., 1], u[..., 1]       # A u
    w1, w2 = v1, 0.5 * v1 + v2                            # A^T A u
    d = np.sqrt(1.0 + v1 * v1 + v2 * v2)
    d3 = d * d * d                                        # A^T A = [[1, .5], [.5, 1.25]]
    hess = np.stack((_stacked(1.0 / d - w1 * w1 / d3, 0.5 / d - w1 * w2 / d3),
                     _stacked(0.5 / d - w2 * w1 / d3, 1.25 / d - w2 * w2 / d3)), axis=-2)
    return d - 1.0, _stacked(w1 / d, w2 / d), hess


def _f2_model(x, theta):
    x0 = x[..., 0]
    value = _stacked(theta[..., 0] + theta[..., 1] * x0, theta[..., 2] + theta[..., 3] * x0)
    grad = np.zeros(value.shape[:-1] + (4, 2))
    grad[..., 0, 0] = grad[..., 2, 1] = 1.0
    grad[..., 1, 0] = grad[..., 3, 1] = x0
    return value, grad


def _f2_oracle(x, beta):
    # p = P[Y = 1 | x] and E[Y^2 | x] = p, as in BT's oracle
    x0, b1, b2 = x[..., 0], beta[..., 0], beta[..., 1]
    p = np.where(x0 == 1.0, problems._BT_P[1.0],
                 np.where(x0 == 0.0, problems._BT_P[0.0], np.nan))
    c = 1.0 - b1
    value = _stacked(p * (c * c) + (1.0 - p) * b1 * b1, p * b1 - 0.5 * (b2 * b2))
    grad = np.zeros(value.shape[:-1] + (2, 2))
    grad[..., 0, 0], grad[..., 0, 1], grad[..., 1, 1] = 2.0 * b1 - 2.0 * p, p, -b2
    return value, grad


F2 = ProblemSpec(dim_x=1, dim_y=1, dim_beta=2, dim_theta=4, dim_f=2,
                 inner=_f2_inner, outer=_f2_outer, model=_f2_model,
                 sampler=problems._bt_sampler, conditional_oracle=_f2_oracle,
                 support=problems._bt_support())


def spec_named(name):
    """The spec of a built-in problem by name, or of the member ``F2``."""
    return F2 if name == "F2" else problems.by_name(name).spec
