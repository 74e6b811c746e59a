"""Deterministic random-stream derivation.

Every stochastic operation in the package draws from a substream keyed by
(master seed, purpose tags, trial index).  Streams depend only on the key,
never on execution order, so any subset of Monte-Carlo trials, run in any
order, reproduces bit-identical results.
"""

from __future__ import annotations

import zlib

import numpy as np


def substream(master_seed: int, *path) -> np.random.Generator:
    """Return the generator identified by (master_seed, *path).

    Path components may be non-negative ints (e.g. trial indices) or short
    strings (purpose tags).  Strings are folded with crc32, which is stable
    across processes and platforms, unlike the built-in ``hash``.
    """
    key = tuple(_as_word(part) for part in path)
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=key)
    return np.random.default_rng(seq)


def _as_word(part) -> int:
    if isinstance(part, (bool,)):
        raise TypeError("bool is not a valid stream key component")
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"stream key components must be non-negative, got {part}")
        return int(part)
    if isinstance(part, str):
        return zlib.crc32(part.encode("utf-8"))
    raise TypeError(f"unsupported stream key component: {part!r}")
