"""Per-layer tracing of ctxopt from outside the package.

``Tracer.install()`` replaces every public function of the traced modules
with a timing wrapper.  Each wrapper is set wherever a caller looks the name
up: in the defining module and in every ctxopt module that imported the
function by name (``engine`` imports ``evaluate_inner`` and ``sample_joint``
that way, for example).  ``problems.by_name`` additionally wraps the
``ProblemSpec`` callables of every problem it builds, so the time inside the
problem's own sampler and evaluators is separated from the package's checks.

Spans are aggregated in memory, keyed by (phase, caller, name): the phase is
the innermost enclosing call from ``PHASES`` and the caller the innermost
enclosing traced call.  Each record holds calls, total and self time, and an
amount (iterations for ``engine.run``, samples for Monte Carlo diagnostics).
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
import types

MODULES = ("harness", "problems", "engine", "model", "diagnostics", "constants")
EXTRA = {"harness": ("_run_one",)}          # the per-task function of the sweep
PHASES = frozenset({
    "harness._run_one", "harness.measure_z0_quantities", "engine.run",
    "problems.by_name", "constants.estimate_ledger",
    "diagnostics.direction_moment_stats",
})
SPEC_CALLABLES = ("sampler", "inner", "model", "outer", "conditional_oracle")
MODE_SPLIT = ("diagnostics.tracking_error_Q", "diagnostics.grad_G",
              "diagnostics.bregman_delta_and_W")


class Tracer:
    def __init__(self):
        self.records = {}
        self.phase = None
        self.caller = None
        self.child_time = 0.0

    def wrap(self, name, fn, annotate=None):
        is_phase = name in PHASES
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label, amount = annotate(args, kwargs) if annotate else (name, 0)
            key = (self.phase, self.caller, label)
            saved = (self.phase, self.caller, self.child_time)
            if is_phase:
                self.phase = name
            self.caller = name
            self.child_time = 0.0
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                record = self.records.get(key)
                if record is None:
                    record = self.records[key] = [0, 0.0, 0.0, 0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - self.child_time
                record[3] += amount
                self.phase, self.caller, parent_child = saved
                self.child_time = parent_child + elapsed

        return traced

    def _annotator(self, name, fn):
        if name == "engine.run":
            sig = inspect.signature(fn)
            return lambda a, k: (name, sig.bind(*a, **k).arguments["config"].n_iters)
        if name in MODE_SPLIT:
            sig = inspect.signature(fn)

            def annotate(a, k):
                bound = sig.bind(*a, **k)
                bound.apply_defaults()
                mode = bound.arguments["mode"]
                samples = bound.arguments["n_samples"] if mode == "mc" else 0
                return f"{name}[{mode}]", samples
            return annotate
        return None

    def _wrap_problem_builder(self, name, fn):
        def build(*args, **kwargs):
            problem = fn(*args, **kwargs)
            spec = problem.spec
            for attr in SPEC_CALLABLES:
                user_fn = getattr(spec, attr)
                if user_fn is not None:
                    setattr(spec, attr, self.wrap(f"user.{attr}", user_fn))
            return problem
        return self.wrap(name, build)

    def install(self):
        """Patch the ctxopt modules in place."""
        for short in MODULES + ("cli",):
            importlib.import_module(f"ctxopt.{short}")
        loaded = [m for n, m in sys.modules.items()
                  if n == "ctxopt" or n.startswith("ctxopt.")]
        wrapped = {}
        for short in MODULES:
            module = sys.modules[f"ctxopt.{short}"]
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and attr not in EXTRA.get(short, ()):
                    continue
                name = f"{short}.{attr}"
                if name == "problems.by_name":
                    wrapped[obj] = self._wrap_problem_builder(name, obj)
                else:
                    wrapped[obj] = self.wrap(name, obj, self._annotator(name, obj))
        for module in loaded:
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    setattr(module, attr, wrapped[obj])

    def dump(self):
        """Aggregated spans as a list of dicts."""
        return [{"phase": p, "caller": c, "name": n, "calls": r[0],
                 "total_s": r[1], "self_s": r[2], "amount": r[3]}
                for (p, c, n), r in sorted(self.records.items(), key=str)]
