"""Built-in test problems with analytic oracles and known constants.

Three fixtures ship:

* BT  -- Bernoulli testbed: binary context, Bernoulli inner variable,
  squared residual inner function, pseudo-Huber outer, affine model that
  realizes the conditional expectation exactly.  Carries a 4-atom support
  enumeration and an analytic conditional oracle, so every diagnostic runs
  in exact mode.
* LG  -- linear-Gaussian: continuous context, linear regression residual,
  pseudo-Huber outer.  Conditional oracle only (Monte Carlo diagnostics);
  G_min = 0.
* LIN -- BT's distributions and inner function with a linear outer, used for
  the plain-SGD reduction test.

The A2/A3 moment constants of BT and LIN are exact over the canonical probe
boxes beta in [0, 1] and theta in [0, 1]^2 (neither envelope is globally
bounded in beta, so box-relative constants are the honest choice); the
remaining entries are global.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional

import numpy as np

from . import seeding
from .constants import LEDGER_KEYS, ConstantLedger
from .errors import ConfigurationError
from .model import ProblemSpec, _dot, _require

_BT_P = {0.0: 0.2, 1.0: 0.7}


@dataclass
class BuiltinProblem:
    """A fully specified test problem plus its known constants."""

    name: str
    spec: ProblemSpec
    ledger: ConstantLedger
    g_min: Optional[float] = None
    beta_box: tuple = (0.0, 1.0)
    theta_box: tuple = (0.0, 1.0)


# ---------------------------------------------------------------- BT pieces

# The evaluators take contexts and states with leading batch axes (see
# ctxopt.model); x, y, u and beta have a last axis of length 1 in BT and
# LIN.  [()] turns the 0-d slice of an unbatched call into a scalar, which
# keeps per-sample calls on cheap scalar arithmetic.

def _bt_inner(x, y, beta):
    r = y[..., 0][()] - beta[..., 0][()]
    return (r * r)[..., None], (-2.0 * r)[..., None, None]


def _pseudo_huber_outer(u):
    s = u[..., 0][()]
    d = np.sqrt(1.0 + s * s)
    return d - 1.0, (s / d)[..., None], (1.0 / (d * d * d))[..., None, None]


def _affine_model(x, theta):
    x0 = x[..., 0][()]
    value = theta[..., 0][()] + theta[..., 1][()] * x0
    grad = np.empty(value.shape + (2, 1))
    grad[..., 0, 0] = 1.0
    grad[..., 1, 0] = x0
    return value[..., None], grad


def _bt_sampler(rng, n=None):
    # One draw stays scalar, which is cheaper per engine step than arrays.
    if n is None:
        x = 1.0 if rng.random() < 0.5 else 0.0
        y = 1.0 if rng.random() < _BT_P[x] else 0.0
        return np.array([x]), np.array([y])
    u = rng.random((n, 2))
    x = (u[:, :1] < 0.5) * 1.0
    # 0.2 + 0.5 * x is _BT_P[x] exactly
    return x, (u[:, 1:] < 0.2 + 0.5 * x) * 1.0


def _bt_oracle(x, beta):
    # p = P[Y = 1 | x]; NaN outside {0, 1}, which the checks reject.
    x0 = x[..., 0]
    p = np.where(x0 == 1.0, _BT_P[1.0], np.where(x0 == 0.0, _BT_P[0.0], np.nan))[()]
    b = beta[..., 0][()]
    c = 1.0 - b
    # Squares are products, as numpy computes an array's ** 2; a float's
    # ** 2 is C pow, which can differ by one ulp, so stacked and per-state
    # calls would not agree bit for bit.
    return (p * (c * c) + (1.0 - p) * b * b)[..., None], (2.0 * b - 2.0 * p)[..., None, None]


def _bt_support():
    return [
        (np.array([0.0]), np.array([0.0]), 0.5 * 0.8),
        (np.array([0.0]), np.array([1.0]), 0.5 * 0.2),
        (np.array([1.0]), np.array([0.0]), 0.5 * 0.3),
        (np.array([1.0]), np.array([1.0]), 0.5 * 0.7),
    ]


def theta_realizing(beta: float):
    """Model parameters interpolating F exactly at the two BT contexts."""
    f0 = _bt_oracle(np.array([0.0]), np.array([beta]))[0][0]
    f1 = _bt_oracle(np.array([1.0]), np.array([beta]))[0][0]
    return np.array([f0, f1 - f0])


def make_bernoulli_testbed() -> BuiltinProblem:
    """The canonical enumerable fixture (BT)."""
    spec = ProblemSpec(
        dim_x=1, dim_y=1, dim_beta=1, dim_theta=2, dim_f=1,
        inner=_bt_inner, outer=_pseudo_huber_outer, model=_affine_model,
        sampler=_bt_sampler, conditional_oracle=_bt_oracle,
        support=_bt_support(),
    )
    # The A2/A3 moment constants are exact over beta in [0, 1], theta in
    # [0, 1]^2.  M is the exact supremum of Q/||grad_theta Q||^2 for a
    # two-point uniform context with an interpolating affine model:
    # (3 + sqrt 5)/2.
    ledger = ConstantLedger(
        L_g=1.0, L_hess_g=1.0,
        Lbar_f=2.0, C_f=1.0, Lbar_grad_f=2.0,
        Lbar_psi=2.5 ** 0.25, C_psi=8.5 ** 0.25, Lbar_grad_psi=0.0,
        M=(3.0 + math.sqrt(5.0)) / 2.0,
        provenance=dict.fromkeys(LEDGER_KEYS, "analytic"),
    )
    # G_min is minimize_scalar_G(spec, 0.0, 1.0)[1] of tests/conftest.py,
    # stored bit for bit so that building BT needs neither SciPy nor a root
    # search.
    return BuiltinProblem(
        name="BT", spec=spec, ledger=ledger,
        g_min=float.fromhex("0x1.f186b95f4ab40p-6"))


# ---------------------------------------------------------------- LG pieces

# Without state batch axes, x @ beta is the 1-D dot product (see _dot).

def _rows(x, value):
    """``x[..., None]`` with the leading axes of ``value``.

    A stack of states adds batch axes that x lacks; they are broadcast.
    """
    lead = value.shape[:-1]
    if x.shape[:-1] == lead:
        return x[..., None]
    return np.broadcast_to(x[..., None], lead + x.shape[-1:] + (1,))


def _lg_inner(x, y, beta):
    value = y - _dot(x, beta)[..., None]
    return value, _rows(-x, value)


def _lg_model(x, theta):
    value = _dot(x, theta)[..., None]
    return value, _rows(x, value)


def _lg_sampler(a, rng, n=None):
    """Joint sampler of the linear-Gaussian problem; ``partial`` binds ``a``."""
    if n is None:
        x = rng.standard_normal(len(a))
        return x, np.array([a @ x + rng.standard_normal()])
    z = rng.standard_normal((n, len(a) + 1))
    x = z[:, :-1]
    # Stacked row dots give the bits of the one-draw a @ x; a gemv does not.
    return x, (x[:, None, :] @ a[:, None])[:, 0] + z[:, -1:]


def _lg_oracle(a, x, beta):
    value = _dot(x, a - beta)[..., None]
    return value, _rows(-x, value)


def make_linear_gaussian(n_x: int, seed: int = 0) -> BuiltinProblem:
    """Continuous-context fixture (LG) with a unit-norm regression vector."""
    _require("count", n_x=n_x)
    _require("seed", seed=seed)
    rng = seeding.substream(seed, seeding.STREAM_LG_VECTOR)
    a = rng.standard_normal(n_x)
    a /= np.linalg.norm(a)
    spec = ProblemSpec(
        dim_x=n_x, dim_y=1, dim_beta=n_x, dim_theta=n_x, dim_f=1,
        inner=_lg_inner, outer=_pseudo_huber_outer, model=_lg_model,
        sampler=partial(_lg_sampler, a), conditional_oracle=partial(_lg_oracle, a),
    )
    # ||X|| has E||X||^4 = n(n+2); residual variance over the beta box
    # [-1, 1]^n is at most (1 + sqrt(n))^2 + 1 with Gaussian fourth moment
    # 3 v^2, so C_f and C_psi are box-relative (beta, theta in [-1, 1]^n).
    # Q = ||a - beta - theta||^2 / 2 gives M = 1/2 exactly.  G(a) = 0 and
    # g >= 0, so G_min = 0 exactly.
    v = (1.0 + math.sqrt(n_x)) ** 2 + 1.0
    moment4 = (n_x * (n_x + 2.0)) ** 0.25
    ledger = ConstantLedger(
        L_g=1.0, L_hess_g=1.0,
        Lbar_f=moment4, C_f=(3.0 * v * v) ** 0.25, Lbar_grad_f=0.0,
        Lbar_psi=moment4, C_psi=(3.0 * n_x * n_x) ** 0.25, Lbar_grad_psi=0.0,
        M=0.5,
        provenance=dict.fromkeys(LEDGER_KEYS, "analytic"),
    )
    problem = BuiltinProblem(
        name=f"LG({n_x})", spec=spec, ledger=ledger, g_min=0.0,
        beta_box=(-1.0, 1.0), theta_box=(-1.0, 1.0),
    )
    problem.a = a
    return problem


# --------------------------------------------------------------- LIN pieces

def _linear_outer(u):
    return u[..., 0], np.ones_like(u), np.zeros(u.shape + (1,))


def make_linear_outer() -> BuiltinProblem:
    """BT with a linear outer function (plain-SGD reduction fixture)."""
    bt = make_bernoulli_testbed()
    # L_hess_g = 0, so the descent-constant machinery is degenerate.
    # G(beta) = E[(Y - beta)^2] with E[Y] = 0.45, so the minimum is
    # G(0.45) = 0.45 - 0.405 + 0.2025.
    return BuiltinProblem(
        name="LIN", spec=replace(bt.spec, outer=_linear_outer),
        ledger=replace(bt.ledger, L_hess_g=0.0), g_min=0.2475)


def by_name(name: str, **params) -> BuiltinProblem:
    """Resolve a canonical problem name (BT, LIN, LG, LG(n)) to a fixture.

    LG's context size is the n of ``LG(n)``, 2 for a bare ``LG``.  ``params``
    are the ``problem.*`` config keys without their prefix: LG takes the
    integer ``seed``; BT and LIN take none.  Every error names its config key.
    """
    key = name.strip().upper()
    lg = re.fullmatch(r"LG(?:\(0*([1-9][0-9]*)\))?", key)
    if key not in ("BT", "LIN") and lg is None:
        raise ConfigurationError(
            f"problem.name: {name!r} is not BT, LIN, LG or LG(n) with n >= 1")
    unknown = sorted(set(params) - ({"seed"} if lg else set()))
    if unknown:
        raise ConfigurationError(f"problem.{unknown[0]}: not a parameter of {key}")
    if key == "BT":
        return make_bernoulli_testbed()
    if key == "LIN":
        return make_linear_outer()
    try:
        seed = int(params.get("seed", 0))
    except ValueError as exc:
        raise ConfigurationError(f"problem.seed: {exc}") from None
    return make_linear_gaussian(int(lg[1] or 2), seed)
