"""Counter-based random streams for schedule-independent Monte-Carlo runs.

Each (context, snr index, trial index) triple owns its own Philox4x64
stream with key

    [master_seed mod 2**64, context << 48 | snr_idx << 32 | trial_idx]

(:func:`trial_key`), so trial data is a pure function of those
integers: results cannot depend on worker count or execution order,
and the seeding recipe is portable to any environment with a Philox
generator.  Contexts separate experiment families (sweeps, MU-MIMO
scenarios, ...) that share a master seed.
"""

from __future__ import annotations

import numpy as np

__all__ = ["trial_key", "trial_rng", "CONTEXT_SWEEP", "CONTEXT_MUMIMO"]

CONTEXT_SWEEP = 0
CONTEXT_MUMIMO = 2

_MASK64 = (1 << 64) - 1


def trial_key(master_seed: int, snr_idx: int, trial_idx: int, context: int = 0) -> np.ndarray:
    """The Philox4x64 key of one (context, snr index, trial index) stream."""
    if not 0 <= trial_idx < (1 << 32):
        raise ValueError("trial_idx must fit in 32 bits")
    if not 0 <= snr_idx < (1 << 16):
        raise ValueError("snr_idx must fit in 16 bits")
    if not 0 <= context < (1 << 16):
        raise ValueError("context must fit in 16 bits")
    return np.array(
        [master_seed & _MASK64, (context << 48) | (snr_idx << 32) | trial_idx],
        dtype=np.uint64,
    )


def trial_rng(master_seed: int, snr_idx: int, trial_idx: int, context: int = 0) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=trial_key(master_seed, snr_idx, trial_idx, context)))
