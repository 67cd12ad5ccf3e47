"""Independent oracle for the canonical form of a flag map.

``FlagMap.canonical_form`` runs its BFS encoding only from the flags
that minimise an isomorphism-invariant key.  This oracle runs the same
kind of encoding from every flag and keeps the smallest, so it needs no
invariant at all: two connected maps are isomorphic iff their oracle
forms are equal.  Its cost is quadratic in the flag count.
"""
from __future__ import annotations

from cellqec.surface import FlagMap


def full_scan_form(flags: FlagMap) -> tuple[int, ...]:
    """Smallest BFS code over all start flags."""
    gens = (flags.s0, flags.s1, flags.s2)
    best = None
    for start in range(flags.n):
        label = {start: 0}
        order = [start]
        code = []
        for f in order:
            for s in gens:
                t = s[f]
                if t not in label:
                    label[t] = len(order)
                    order.append(t)
                code.append(label[t])
        code = tuple(code)
        if best is None or code < best:
            best = code
    return best
