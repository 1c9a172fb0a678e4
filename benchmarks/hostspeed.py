"""How fast the host runs while a round runs, measured inside the round.

The benchmark's hosts are a few cores of a shared machine. Their speed
changes by tens of percent from one second to the next and drifts over
minutes, with the other tenants; the two cores of the machine where the
benchmark was written did not even change together. Fixed work timed on the
same core at the same moment as the program slows down and speeds up with it
(a pure-Python loop and a small-array numpy loop in one process correlated
at 0.75), so a round carries a ``Sampler``: every ``INTERVAL_S`` of wall time
a timer signal interrupts the program between two bytecodes and times one
fixed probe slice in CPU time. Dividing the round's own time by the mean
slice time over ``NOMINAL_S`` gives its time on a host of nominal speed.

The slice mixes the kinds of work the program does, mostly a per-sample
loop over tiny numpy arrays with a random draw and shape and finiteness
checks (the engine, the Monte Carlo diagnostics and the ledger estimate all
loop that way), then norms of small differences (the ledger's envelopes), a
plain-float loop and one small vectorised draw. It uses numpy only, never
the package under test, so no change to the package can change the slice.

Interval timers are not inherited across fork, so a pooled round starts a
sampler in each worker and pauses the parent's while the workers run: the
slices then run where the work does. CPU time, not wall time, times a
slice, so waiting for a core is not counted as slowness.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

INTERVAL_S = 0.05
# CPU seconds of one slice on the 2-core host where the benchmark was
# written, in one of its fast periods; it only scales the reported times.
NOMINAL_S = 0.0013


def probe_slice(rng):
    """One fixed unit of mixed work; returns a checksum."""
    # per-sample steps over tiny arrays with conversions and checks (engine)
    beta = np.zeros(2)
    theta = np.zeros(4)
    a = np.array([0.6, -0.8])
    for _ in range(30):
        x = np.asarray(rng.standard_normal(2), dtype=float)
        f = np.asarray([a @ x + 0.1 - beta @ x], dtype=float)
        grad = np.asarray(-x, dtype=float).reshape(2, 1)
        if f.shape != (1,) or not np.all(np.isfinite(f)):
            raise ValueError("probe slice: bad inner value")
        psi = theta[:2] @ x
        g_prime = psi / math.sqrt(1.0 + psi * psi)
        beta = beta - 1e-3 * (grad @ np.array([g_prime]))
        theta = theta + 1e-3 * np.concatenate([x, x]) * float(f[0] - psi)
    # norms of small differences (ledger envelopes)
    grads = [rng.uniform(size=(2, 1)) for _ in range(8)]
    ratio = 0.0
    for _ in range(4):
        for k in range(7):
            ratio = max(ratio, float(np.linalg.norm(grads[k + 1] - grads[k])
                                     / np.linalg.norm(grads[k])))
    # plain floats
    b = t = 0.0
    u = 0.123456789
    for _ in range(400):
        u = (u * 9301.0 + 49297.0) % 233280.0 / 233280.0
        r = (1.0 if u < 0.35 else 0.0) - b
        psi = t * u
        b += 1e-3 * r * psi / math.sqrt(1.0 + psi * psi)
        t += 1e-3 * (r * r - psi)
    # one small vectorised draw and reduction
    z = rng.standard_normal((1500, 9))
    s = z[:, :8] @ np.full(8, 0.35) + z[:, 8]
    mc = float((s / np.sqrt(1.0 + s * s)).mean())
    return float(beta @ beta) + ratio + b + t + mc


class Sampler:
    """Times one probe slice every ``INTERVAL_S`` of wall time in this process.

    ``phase()`` closes the current phase and returns its totals: the number
    of slices (at least one), their CPU seconds and their wall seconds (the
    time they took from the program).
    """

    def __init__(self):
        self._totals = [0, 0.0, 0.0]
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        rng = np.random.default_rng(7)
        wall, cpu = time.perf_counter(), time.thread_time()
        probe_slice(rng)
        self._totals[1] += time.thread_time() - cpu
        self._totals[2] += time.perf_counter() - wall
        self._totals[0] += 1
        self._busy = False

    def start(self):
        # the first slice in a process runs cold; it is not counted
        wall = time.perf_counter()
        probe_slice(np.random.default_rng(7))
        self._totals[2] += time.perf_counter() - wall
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def totals(self):
        """The current phase's totals so far."""
        slices, cpu_s, wall_s = self._totals
        return {"slices": slices, "cpu_s": cpu_s, "wall_s": wall_s}

    def phase(self):
        # a phase shorter than the interval, or one spent in a long C call,
        # still gets one slice (back-to-back slices run warm, so no more)
        if self._totals[0] == 0:
            self._tick(None, None)
        totals = self.totals()
        self._totals = [0, 0.0, 0.0]
        return totals

    def pause(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)

    def stop(self):
        self.pause()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return self.phase()


def with_workers(phase, workers):
    """A pooled sweep's totals: the parent's slices plus its workers'.

    The workers run side by side, so together their slices delay the sweep
    by about their mean per worker, not by their sum.
    """
    if not workers:
        return phase
    return {"slices": phase["slices"] + sum(w["slices"] for w in workers),
            "cpu_s": phase["cpu_s"] + sum(w["cpu_s"] for w in workers),
            "wall_s": phase["wall_s"]
            + sum(w["wall_s"] for w in workers) / len(workers)}


def normalised(raw_s, phase):
    """Seconds of ``raw_s`` the program spent, at nominal host speed.

    The slices' own wall time is taken out of ``raw_s``; what is left is
    scaled by how much slower than ``NOMINAL_S`` the mean slice ran.
    """
    if phase["slices"] == 0:
        raise ValueError("no probe slice ran in this phase")
    speed = NOMINAL_S * phase["slices"] / phase["cpu_s"]
    return (raw_s - phase["wall_s"]) * speed
