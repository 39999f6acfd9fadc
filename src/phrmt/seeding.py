"""Deterministic random-stream handling for ensemble runs.

Ensemble loops partition work into fixed-size chunks, each driven by an
independently spawned child stream of the root seed.  The chunk layout
depends only on the total count, never on the worker count, so results are
byte-identical no matter how many threads execute the chunks.  The decay
Monte Carlo does the same per time step: each step owns one spawned stream,
so its steps may be split over any number of workers.
"""

from __future__ import annotations

import numpy as np

__all__ = ["spawn_generators", "chunk_sizes", "CHUNK"]

CHUNK = 8192


def chunk_sizes(count: int) -> list[int]:
    """Fixed chunk layout for a workload of ``count`` items."""
    if count < 1:
        raise ValueError("count must be >= 1")
    full, rest = divmod(count, CHUNK)
    return [CHUNK] * full + ([rest] if rest else [])


def spawn_generators(seed: int, n: int) -> list[np.random.Generator]:
    """n independent child generators of one root seed."""
    return [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(n)]
