"""Named random streams derived from one master seed.

Every stochastic consumer (episode starts, epsilon draws, dropout masks,
replay sampling, weight init) gets its own generator, so changing how one
consumer draws never perturbs the others and a run stays reproducible
bit-for-bit from the single seed.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

STREAM_NAMES = ("init", "env", "epsilon", "replay", "dropout")


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Derive one independent generator per stream name from ``seed``."""
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    root = np.random.SeedSequence(seed)
    children = root.spawn(len(STREAM_NAMES))
    return {name: np.random.default_rng(seq) for name, seq in zip(STREAM_NAMES, children)}
