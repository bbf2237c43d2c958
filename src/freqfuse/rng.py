"""Named, reproducible RNG streams.

Every stochastic consumer (init, shuffling, dropout, augmentation, ...) gets
its own stream derived from the run seed plus a stream name, so adding or
removing one consumer never perturbs the draws seen by another.
"""

import zlib

import numpy as np

from .errors import ConfigError


def named_stream(seed: int, name: str, *extra: int) -> np.random.Generator:
    """Generator for stream `name` under `seed`; `extra` ints sub-key it."""
    if int(seed) < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {seed}")
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng([int(seed), tag, *[int(e) for e in extra]])
