"""Deterministic samples of small cellulations for the property suites.

The pool is the whole census of closed surfaces up to a few edges, in
the order ``search.enumerate_cellulations`` lists it, so a sample stays
the same as long as the census keeps its representatives and order.
``planar_and_punctured_codes`` lists the fixed codes not built from a
closed cellulation that the logical-operator suites run beside them.
"""
from __future__ import annotations

import random

from cellqec import search, stabilizer, surface
from cellqec.search import EnumerationConstraints
from cellqec.stabilizer import CssCode
from cellqec.surface import Cellulation


def small_cellulation_pool(max_edges: int = 3) -> list[Cellulation]:
    """The census of all closed surfaces with 1..max_edges edges."""
    pool: list[Cellulation] = []
    for e in range(1, max_edges + 1):
        pool.extend(search.enumerate_cellulations(EnumerationConstraints(e)))
    return pool


def planar_and_punctured_codes() -> list[tuple[str, CssCode]]:
    """(label, code) of four planar patches and two punctured closed
    codes."""
    patches = {
        "two-holes": stabilizer.planar_two_holes_patch(),
        "3x3-one-hole": stabilizer.PlanarPatch(3, 3, ((1, 1, 1, 1),)),
        "3x3-no-hole": stabilizer.PlanarPatch(3, 3, ()),
        "5x5-adjacent-holes": stabilizer.PlanarPatch(
            5, 5, ((1, 1, 1, 1), (2, 1, 1, 1))),
    }
    codes = [(f"planar-{label}", stabilizer.build_punctured_disk_code(patch))
             for label, patch in patches.items()]
    for name, face, vertex in [("fig4_shor", 6, 0), ("toric(3,3)", 0, 0)]:
        codes.append((f"puncture-{name}-{face}-{vertex}", stabilizer.puncture(
            surface.catalog(name), face, vertex).code))
    return codes


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
