"""Per-layer spans recorded from outside the program.

The program's modules call each other through module attributes
(``gf2.min_weight_in_coset(...)``) and methods (``flags.canonical_form()``),
which are looked up at call time.  ``Tracer.installed`` swaps those
attributes for wrappers that record one span per call (name, start, end,
parent) and puts the originals back on exit, so the untraced passes run
the program unchanged.  Spans live in flat arrays and are reduced to
per-name call counts and self times at the end; self time is a span's
duration minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from array import array

# (span name, owner, attribute); owner is a module or "module:Class".
TRACED = (
    ("search.scheme_search", "cellqec.search", "_scheme_search"),
    ("search.filter", "cellqec.search", "_passes_filters"),
    ("surface.canonical_form", "cellqec.surface:FlagMap", "canonical_form"),
    ("surface.to_cellulation", "cellqec.surface:FlagMap", "to_cellulation"),
    ("surface.dual", "cellqec.surface:FlagMap", "dual"),
    ("surface.incidence_matrices", "cellqec.surface", "incidence_matrices"),
    ("surface.validate", "cellqec.surface", "validate"),
    ("homology.systole", "cellqec.homology", "systole"),
    ("homology.dual_systole", "cellqec.homology", "dual_systole"),
    ("homology.min_essential", "cellqec.homology", "_min_essential"),
    ("stabilizer.build_code", "cellqec.stabilizer", "build_code"),
    ("stabilizer.css_distance", "cellqec.stabilizer", "css_distance"),
    ("stabilizer.min_weight_logical", "cellqec.stabilizer",
     "_min_weight_logical"),
    ("stabilizer.puncture", "cellqec.stabilizer", "puncture"),
    ("stabilizer.build_punctured_disk_code", "cellqec.stabilizer",
     "build_punctured_disk_code"),
    ("invariants.rank_profile", "cellqec.invariants", "rank_profile"),
    ("invariants.pair_rank_stabilizer", "cellqec.invariants",
     "pair_rank_stabilizer"),
    ("decoder.monte_carlo", "cellqec.decoder", "monte_carlo"),
    ("decoder.decode_error", "cellqec.decoder", "decode_error"),
    ("decoder.correct", "cellqec.decoder", "correct"),
    ("decoder.is_failure", "cellqec.decoder", "is_failure"),
    ("decoder.syndrome", "cellqec.decoder", "syndrome"),
    ("gf2.min_weight_in_coset", "cellqec.gf2", "min_weight_in_coset"),
    ("gf2.eliminate", "cellqec.gf2", "_eliminate"),
    ("gf2.kernel_basis", "cellqec.gf2", "kernel_basis"),
    ("gf2.solve", "cellqec.gf2", "solve"),
    ("gf2.in_span", "cellqec.gf2", "in_span"),
    ("cli.main", "cellqec.cli", "main"),
)

SPAN_NAMES = tuple(name for name, _, _ in TRACED)
COSET_SEARCH = "gf2.min_weight_in_coset"
# time spent computing gf2.coset_steps; a child span so that it is taken
# out of the caller's self time, and reported with nothing else
BOOKKEEPING = "trace.bookkeeping"


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans around the functions in TRACED while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.current = -1
        self.coset_steps = 0
        self.budget_exceeded = 0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self.current)
        self.span_end.append(0.0)
        self.current = idx
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.current = self.span_parent[idx]

    def wrap(self, fn, name: str):
        nid = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def wrap_coset_search(self, fn, eliminate, budget_error):
        """Like wrap, and adds 2^dim to coset_steps per completed search."""
        traced = self.wrap(fn, COSET_SEARCH)
        book = self._name_id(BOOKKEEPING)

        @functools.wraps(fn)
        def counted(subspace_basis, offset, *args, **kwargs):
            try:
                result = traced(subspace_basis, offset, *args, **kwargs)
            except budget_error:
                self.budget_exceeded += 1
                raise
            idx = self._open(book)
            dim = len(eliminate([b.bits for b in subspace_basis], offset.n))
            self.coset_steps += 1 << dim
            self._close(idx)
            return result
        return counted

    @contextlib.contextmanager
    def installed(self):
        """Swap every TRACED attribute for its wrapper; restore on exit."""
        gf2 = importlib.import_module("cellqec.gf2")
        eliminate = gf2._eliminate
        saved = []
        try:
            for name, owner, attr in TRACED:
                obj = _resolve(owner)
                fn = vars(obj)[attr]
                saved.append((obj, attr, fn))
                if name == COSET_SEARCH:
                    wrapper = self.wrap_coset_search(
                        fn, eliminate, gf2.SearchBudgetExceeded)
                else:
                    wrapper = self.wrap(fn, name)
                setattr(obj, attr, wrapper)
            yield self
        finally:
            for obj, attr, fn in reversed(saved):
                setattr(obj, attr, fn)

    def summary(self) -> dict[str, dict[str, float]]:
        """{span name: {"calls": int, "self_s": float}} for SPAN_NAMES."""
        count = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        child = [0.0] * count
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for i in range(count):
            name = self.names[self.span_name[i]]
            if name in out:
                out[name]["calls"] += 1
                out[name]["self_s"] += dur[i] - child[i]
        return out
