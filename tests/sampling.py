"""Deterministic samples of small cellulations for the property suites.

The pool is the whole census of closed surfaces up to a few edges, in
the order ``search.enumerate_cellulations`` lists it, so a sample stays
the same as long as the census keeps its representatives and order.
"""
from __future__ import annotations

import random

from cellqec import search
from cellqec.search import EnumerationConstraints
from cellqec.surface import Cellulation


def small_cellulation_pool(max_edges: int = 3) -> list[Cellulation]:
    """The census of all closed surfaces with 1..max_edges edges."""
    pool: list[Cellulation] = []
    for e in range(1, max_edges + 1):
        pool.extend(search.enumerate_cellulations(EnumerationConstraints(e)))
    return pool


def sample_small_cellulations(count: int, seed: int,
                              max_edges: int = 3) -> list[Cellulation]:
    """Deterministic sample from the census of all closed surfaces."""
    pool = small_cellulation_pool(max_edges)
    rng = random.Random(seed)
    if count >= len(pool):
        picks = [pool[rng.randrange(len(pool))]
                 for _ in range(count - len(pool))]
        return pool + picks
    return rng.sample(pool, count)
