"""Command-line interface.

Subcommands:

* ``run <config>``: execute a replication sweep from a config file; exit 1
  after writing every file if a replication diverged.
* ``check <problem> --gamma G --lambda L``: print the derived-constant table
  and report whether (gamma, lambda) satisfy the strict descent inequalities
  (exit 0 iff compliant, naming the violated inequality otherwise).
* ``rate <summary.csv>``: fit the log-log rate line; exit 0 iff the slope
  lies in [-0.65, -0.35], 2 on insufficient data.
* ``gradcheck <problem>``: finite-difference consistency of all evaluators.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import constants, diagnostics, harness, problems, seeding
from .errors import CtxoptError, DomainError

SLOPE_BAND = (-0.65, -0.35)


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        config = harness.parse_config(fh.read())
    if args.workers:
        config.workers = args.workers
    result = harness.run_experiment(config)
    print(f"wrote {result['results']}")
    print(f"wrote {result['summary']}")
    print(f"alpha={result['alpha']:.6g} lambda={result['lam']:.6g} "
          f"c1={result['c1']:.6g} c2={result['c2']:.6g}")
    if result["diverged"]:
        print(f"error: {result['diverged']} replications diverged; their rows "
              f"in {result['results']} have status diverged@k", file=sys.stderr)
        return 1
    return 0


def _cmd_check(args) -> int:
    problem = problems.by_name(args.problem)
    if args.unit_ledger:
        ones = {key: 1.0 for key in constants.LEDGER_KEYS}
        ledger = constants.ConstantLedger(**ones)
    elif args.estimate:
        ledger = harness.estimated_ledger(problem, args.seed)
    else:
        ledger = problem.ledger

    lam, gamma = args.lam, args.gamma
    print(f"problem          {problem.name}")
    for key, value in ledger.as_dict().items():
        print(f"ledger {key:<13} {value:.6g}")
    print(f"lambda_floor     {constants.lambda_floor(ledger):.6g}")
    try:
        constants.check_lambda(ledger, lam)
    except DomainError as exc:
        print(f"NON-COMPLIANT: {exc}")
        return 1
    g_min = constants.gamma_min(ledger, lam)
    print(f"gamma_min        {g_min:.6g}")
    if gamma <= g_min:
        print(f"NON-COMPLIANT: gamma={gamma} violates the strict descent "
              f"threshold 2*(gamma*(lambda/M - 2*Lbar_psi^2*L_hess_g) - "
              f"4*lambda*Lbar_f^2*L_hess_g) > lambda^2*Lbar_f^2 "
              f"(requires gamma > {g_min:.6g})")
        return 1
    derived = constants.derive(ledger, lam, gamma)
    for key, value in derived.as_dict().items():
        print(f"derived {key:<12} {value:.6g}")
    if args.alpha is not None and args.n_iters is not None:
        print("note: theorem bound needs measured direction moments; "
              "showing the bound with C_d = sigma = 1 as a scale reference")
        bound = constants.theorem_bound(derived.L_W, 1.0, 1.0, args.alpha,
                                        args.n_iters, 1.0, 0.0)
        print(f"bound(alpha={args.alpha}, N={args.n_iters}, unit moments) "
              f"{bound:.6g}")
    print("COMPLIANT")
    return 0


def _cmd_rate(args) -> int:
    rows = harness.read_summary(args.summary)
    distinct = len({n for n, _ in rows})
    if distinct < 4:
        print(f"insufficient data: need >= 4 distinct N values, got {distinct}")
        return 2
    slope, intercept, r_squared = diagnostics.rate_fit(rows)
    print(f"slope     {slope:.6g}")
    print(f"intercept {intercept:.6g}")
    print(f"r_squared {r_squared:.6g}")
    lo, hi = SLOPE_BAND
    if lo <= slope <= hi:
        print(f"slope within [{lo}, {hi}]")
        return 0
    print(f"slope outside [{lo}, {hi}]")
    return 1


def _cmd_gradcheck(args) -> int:
    from .model import finite_difference_check, oracle_consistency_check

    problem = problems.by_name(args.problem)
    rng = seeding.substream(args.seed, 23)
    worst = finite_difference_check(problem.spec, args.probes, rng)
    status = 0
    for name, err in worst.items():
        flag = "ok" if err < 1e-5 else "FAIL"
        if err >= 1e-5:
            status = 1
        print(f"{name:<6} max relative error {err:.3e}  {flag}")
    if problem.spec.has_support and problem.spec.has_oracle:
        betas = [rng.uniform(problem.beta_box[0], problem.beta_box[1],
                             problem.spec.dim_beta) for _ in range(20)]
        err = oracle_consistency_check(problem.spec, betas)
        flag = "ok" if err < 1e-10 else "FAIL"
        if err >= 1e-10:
            status = 1
        print(f"oracle max abs error      {err:.3e}  {flag}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ctxopt",
        description="Conditional stochastic optimization solver and harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a replication sweep from a config")
    p_run.add_argument("config")
    p_run.add_argument("--workers", type=int, default=0)
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="derived-constant compliance report")
    p_check.add_argument("problem")
    p_check.add_argument("--gamma", type=float, required=True)
    p_check.add_argument("--lambda", dest="lam", type=float, required=True)
    p_check.add_argument("--alpha", type=float, default=None)
    p_check.add_argument("--n-iters", type=int, default=None)
    p_check.add_argument("--unit-ledger", action="store_true",
                         help="use an all-ones ledger stand-in")
    p_check.add_argument("--estimate", action="store_true",
                         help="re-estimate the ledger numerically")
    p_check.add_argument("--seed", type=int, default=0)
    p_check.set_defaults(func=_cmd_check)

    p_rate = sub.add_parser("rate", help="fit the empirical convergence rate")
    p_rate.add_argument("summary")
    p_rate.set_defaults(func=_cmd_rate)

    p_grad = sub.add_parser("gradcheck", help="finite-difference evaluator check")
    p_grad.add_argument("problem")
    p_grad.add_argument("--probes", type=int, default=100)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=_cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CtxoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
