"""Deterministic seed derivation for every stochastic component.

All randomness flows from a single master seed. Sub-streams are derived
from stable string/int tags so that runs are reproducible bit-for-bit
regardless of execution order or worker count.
"""

from __future__ import annotations

import zlib

import numpy as np


def _tag_to_uint32(tag) -> int:
    if isinstance(tag, (int, np.integer)):
        return int(tag) & 0xFFFFFFFF
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    raise TypeError(f"seed tag must be int or str, got {type(tag).__name__}")


def derive_seed(master_seed: int, *tags) -> int:
    """A stable 64-bit seed for the sub-stream identified by ``tags``. Only
    the low 64 bits of ``master_seed`` are read."""
    words = [int(master_seed) & 0xFFFFFFFF, (int(master_seed) >> 32) & 0xFFFFFFFF]
    words.extend(_tag_to_uint32(t) for t in tags)
    return int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])


def rng_for(master_seed: int, *tags) -> np.random.Generator:
    """Generator seeded for the sub-stream identified by ``tags``."""
    return np.random.default_rng(derive_seed(master_seed, *tags))
