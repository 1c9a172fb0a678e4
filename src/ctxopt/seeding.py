"""Deterministic substream derivation from a single master seed.

Every random consumer (trajectory sampling, stopping draw, diagnostics,
replication r of a sweep at horizon N, ...) owns its own generator.  Streams
are derived by folding integer labels into the master seed with the
splitmix64 avalanche function, so that

    substream(seed, *labels)

is reproducible within this implementation and statistically independent
across distinct label tuples.
"""

from __future__ import annotations

import numpy as np

from .model import _require

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Every substream label (the first label after the seed).  STREAM_DIAGNOSTICS
# is kept for diagnostics along a run, so they never touch the trajectory's.
STREAM_TRAJECTORY = 1
STREAM_STOPPING = 2
STREAM_DIAGNOSTICS = 3
STREAM_MOMENTS = 7       # harness: direction moments and W(z^0)
STREAM_V_EVAL = 8        # harness: Monte Carlo diagnostics of a row
STREAM_LEDGER = 17       # harness: the estimated ledger
STREAM_GRADCHECK = 23    # ctxopt gradcheck's probes
STREAM_LG_VECTOR = 101   # LG's regression vector, keyed by problem.seed


def splitmix64(z: int) -> int:
    """One step of the splitmix64 avalanche function (Steele et al.)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix(*parts: int) -> int:
    """Fold integer labels into a single well-mixed 64-bit value."""
    acc = 0x9E3779B97F4A7C15
    for p in parts:
        acc = splitmix64((acc ^ (int(p) & _MASK64)) & _MASK64)
    return acc


def substream(*parts: int) -> np.random.Generator:
    """A fresh PCG64 generator keyed by (master seed, stream labels), each an
    integer: ``mix`` would truncate a float to another seed's stream."""
    _require("seed", seed=parts[0],
             **{f"label {i}": label for i, label in enumerate(parts[1:], 1)})
    return np.random.Generator(np.random.PCG64(mix(*parts)))
