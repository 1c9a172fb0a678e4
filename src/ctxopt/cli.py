"""Command-line interface.

Subcommands:

* ``run <config>``: execute a replication sweep from a config file (its
  ``workers`` key sizes the pool); exit 1 after writing every file if a
  replication diverged.
* ``check <config>``: judge the constants that ``run`` would run the same
  config with: print its resolved ledger, the lambda floor, and
  ``constants.derive``'s table at its gamma and lambda (exit 0), or the
  violated inequality that ``derive`` names (exit 1).
* ``rate <summary.csv>``: fit the log-log rate line; exit 0 iff the slope
  lies in [-0.65, -0.35], 2 when fewer than 4 N have a mean that the fit
  keeps (finite and above 0).
* ``gradcheck <problem>``: finite-difference consistency of all evaluators.

A package error, an unreadable input file, or one that is not UTF-8 (named
by its path) prints ``error: ...``, exit 1.
"""

from __future__ import annotations

import argparse
import sys

from . import constants, diagnostics, harness, problems, seeding
from .errors import ConfigurationError, CtxoptError, DomainError

SLOPE_BAND = (-0.65, -0.35)


def _read_config(path) -> harness.ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return harness.parse_config(fh.read())
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


def _cmd_run(args) -> int:
    result = harness.run_experiment(_read_config(args.config))
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
    config = _read_config(args.config)
    problem = problems.by_name(config.problem_name, **config.problem_params)
    ledger = harness.resolve_ledger(problem, config)

    print(f"problem          {problem.name}")
    for key, value in ledger.as_dict().items():
        print(f"ledger {key:<13} {value:.6g}")
    print(f"lambda_floor     {constants.lambda_floor(ledger):.6g}")
    try:
        derived = constants.derive(ledger, harness.resolve_lambda(ledger, config),
                                   config.gamma)
    except DomainError as exc:
        print(f"NON-COMPLIANT: {exc}")
        return 1
    for key, value in derived.as_dict().items():
        print(f"derived {key:<12} {value:.6g}")
    print("COMPLIANT")
    return 0


def _cmd_rate(args) -> int:
    rows = harness.read_summary(args.summary)
    distinct = len({n for n, _ in diagnostics._fit_points(rows)})
    if distinct < 4:
        print(f"insufficient data: need >= 4 distinct N values, got "
              f"{distinct} with a finite mean_V > 0")
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
    rng = seeding.substream(args.seed, seeding.STREAM_GRADCHECK)
    # (label, error, tolerance) of each check, printed in order
    checks = [(f"{name:<6} max relative error", err, 1e-5) for name, err in
              finite_difference_check(problem.spec, args.probes, rng).items()]
    if problem.spec.has_support and problem.spec.has_oracle:
        betas = [rng.uniform(problem.beta_box[0], problem.beta_box[1],
                             problem.spec.dim_beta) for _ in range(20)]
        checks.append(("oracle max abs error     ",
                       oracle_consistency_check(problem.spec, betas), 1e-10))
    for label, err, tol in checks:
        print(f"{label} {err:.3e}  {'ok' if err < tol else 'FAIL'}")
    return int(any(err >= tol for _, err, tol in checks))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ctxopt",
        description="Conditional stochastic optimization solver and harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a replication sweep from a config")
    p_run.add_argument("config")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="derived-constant compliance report")
    p_check.add_argument("config")
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
    except (CtxoptError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
