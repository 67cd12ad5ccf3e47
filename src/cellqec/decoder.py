"""Syndrome extraction, minimum-weight correction and Monte Carlo runs.

Every check column touches at most two checks, so the minimum-weight
chain with a given syndrome is a minimum T-join (Edmonds--Johnson) in
the check graph ``homology.CheckGraph`` (the checks plus one virtual
boundary node; the distance search walks the same graph, and
``MatchingGraph`` adds its all-pairs shortest paths):
minimum-weight perfect matching of the syndrome defects under
shortest-path distances (Dennis--Kitaev--Landahl--Preskill).  Column j
of an n-qubit code weighs 2^n - 2^(n-1-j), so the minimum is unique and
is the lightest chain with the earliest support (``Gf2Vector.sort_key``).
The tests keep an exhaustive coset search as the oracle for this rule.

Up to 14 nodes to match (defects and boundary) the matching is an exact
DP over subsets; above that it is the ``networkx`` blossom, loaded only
then.  Every minimum matching's paths XOR to the one minimum T-join
(``MatchingGraph.min_weight_chain``), so the two give the same chain.

Trials are decoded on bit sets (Python ints, bit j = column j):
``DecodingTables.failures`` takes an error's two sides and returns its
two failure verdicts; ``correct`` and ``decode_error`` wrap the same
tables for ``Gf2Vector`` callers, and ``syndrome`` and ``is_failure``
read the check graphs alone.  numpy is loaded only by ``_error_bits``,
the sampler of ``monte_carlo``.
"""
from __future__ import annotations

import heapq
import io
from dataclasses import dataclass
from typing import Iterator

from . import gf2, homology
from .gf2 import Gf2Vector
from .stabilizer import CssCode

RNG_ALGORITHM = "numpy-philox4x64(key=seed, counter hi word=trial)"

# Above this many nodes to match (defects and boundary) the networkx
# blossom is faster than the subset DP of MatchingGraph._min_matching: on
# toric(8,8), 14 nodes take 2.6 ms by the DP and 4.2 ms by the blossom,
# 16 nodes 7.1 and 4.7 ms (2-vCPU VM).
_DP_MAX_DEFECTS = 14

# Doubles per draws array of _error_bits (512 KiB), so that its memory
# does not grow with the trial count.
_CHUNK_DRAWS = 1 << 16


class InconsistentSyndrome(ValueError):
    """The syndrome is not in the image of the check matrix."""


class SyndromeMismatch(ValueError):
    """Error and correction produce different syndromes."""


@dataclass(frozen=True)
class ErrorPattern:
    x_errors: Gf2Vector  # bit flips, a chain on primal edges
    z_errors: Gf2Vector  # phase errors, a chain on dual edges

    def __post_init__(self):
        if self.x_errors.n != self.z_errors.n:
            raise gf2.LengthMismatch("x/z error lengths differ")

    @classmethod
    def zero(cls, n: int) -> "ErrorPattern":
        return cls(Gf2Vector.zero(n), Gf2Vector.zero(n))


@dataclass(frozen=True)
class Syndrome:
    z_checks: Gf2Vector  # vertex operator eigenvalue flips (from x errors)
    x_checks: Gf2Vector  # face operator eigenvalue flips (from z errors)


@dataclass(frozen=True)
class MatchingGraph:
    """All-pairs shortest paths in the check graph of one check matrix.

    ``graph`` is the ``homology.CheckGraph`` (the check rows plus a
    boundary node); it gives the boundary, the syndromes and, through
    its adjacency, the edges the Dijkstra runs of ``build`` walk.
    Column j weighs 2^n - 2^(n-1-j) (see the module docstring); no two
    edge sets weigh the same, so every shortest path is unique.  Columns
    of weight 0 join nothing, and no minimum-weight chain contains one.
    """

    graph: homology.CheckGraph
    dist: tuple[tuple[int | None, ...], ...]  # None: no path
    path: tuple[tuple[int, ...], ...]         # column bit set of the path

    @classmethod
    def build(cls, graph: homology.CheckGraph) -> "MatchingGraph":
        n, n_nodes = len(graph.columns), graph.boundary + 1
        weight = [(1 << n) - (1 << (n - 1 - e)) for e in range(n)]
        dist, path = [], []
        for source in range(n_nodes):  # Dijkstra from every node
            d: list[int | None] = [None] * n_nodes
            p = [0] * n_nodes
            d[source] = 0
            heap = [(0, source)]
            while heap:
                du, u = heapq.heappop(heap)
                if du > d[u]:
                    continue  # stale entry
                for v, e in graph.adj[u]:
                    dv = du + weight[e]
                    if d[v] is None or dv < d[v]:
                        d[v] = dv
                        p[v] = p[u] | (1 << e)
                        heapq.heappush(heap, (dv, v))
            dist.append(tuple(d))
            path.append(tuple(p))
        return cls(graph, tuple(dist), tuple(path))

    def min_weight_chain(self, syn: Gf2Vector) -> Gf2Vector:
        """The chain with syndrome syn that is smallest by sort_key."""
        if syn.n != self.graph.boundary:
            raise gf2.LengthMismatch(f"{syn.n} != {self.graph.boundary}")
        return Gf2Vector(len(self.graph.columns), self.chain(syn.bits))

    def chain(self, syn: int) -> int:
        """The column bit set of ``min_weight_chain`` for the check bit
        set syn.

        The defects, plus the boundary when their count is odd, are
        matched in pairs at minimum total distance, and the matched
        paths XOR to the chain.  Up to ``_DP_MAX_DEFECTS`` of them the
        matching is an exact DP over subsets (``_min_matching``), above
        that the ``networkx`` blossom; InconsistentSyndrome when no
        perfect matching exists.

        Both give the same chain, whichever minimum matching they pick.
        A minimum T-join (T: the matched nodes) splits into edge-disjoint
        paths that pair up T, so no T-join weighs less than a minimum
        matching.  The XOR of a matching's paths is a T-join, lighter
        than the matching if two of the paths share an edge.  So the
        paths of every minimum matching are edge-disjoint and XOR to a
        minimum T-join, and the column weights make that one unique.
        """
        if not syn:  # as most trials at low error rates: skip the DP set-up
            return 0
        defects = []
        while syn:
            low = syn & -syn
            defects.append(low.bit_length() - 1)
            syn ^= low
        if len(defects) % 2:
            defects.append(self.graph.boundary)
        if len(defects) <= _DP_MAX_DEFECTS:
            matching = self._min_matching(defects)
            bits = None if matching is None else matching[1]
        else:
            import networkx as nx

            g = nx.Graph()
            for i, a in enumerate(defects):
                for b in defects[i + 1:]:
                    if self.dist[a][b] is not None:
                        g.add_edge(a, b, weight=self.dist[a][b])
            pairs = nx.min_weight_matching(g)
            bits = None
            if 2 * len(pairs) == len(defects):
                bits = 0
                for a, b in pairs:
                    bits ^= self.path[a][b]
        if bits is None:
            raise InconsistentSyndrome("syndrome outside the check image")
        return bits

    def _min_matching(self, nodes: list[int]) -> tuple[int, int] | None:
        """(total weight, XOR of the paths) of a minimum-weight perfect
        matching of nodes, or None when there is none.

        best(mask) matches the nodes in bit set mask: it pairs the lowest
        of them with each other one it has a path to and keeps the lowest
        total weight, memoised per mask.
        """
        memo: dict[int, tuple[int, int] | None] = {0: (0, 0)}

        def best(mask: int) -> tuple[int, int] | None:
            if mask in memo:
                return memo[mask]
            low = mask & -mask
            a = nodes[low.bit_length() - 1]
            dist, path = self.dist[a], self.path[a]
            top = None
            rest = mask ^ low
            others = rest
            while others:
                bit = others & -others
                others ^= bit
                b = nodes[bit.bit_length() - 1]
                if dist[b] is None:
                    continue
                sub = best(rest ^ bit)
                if sub is not None and (top is None
                                        or dist[b] + sub[0] < top[0]):
                    top = (dist[b] + sub[0], sub[1] ^ path[b])
            memo[mask] = top
            return top

        return best((1 << len(nodes)) - 1)


@dataclass(frozen=True)
class DecodingTables:
    """What every decode on one code reuses; build once per code.

    The matching graphs of the two checks and the bits of the code's
    logical operators.  ``failures`` decodes one error given as bit
    sets; ``correct`` and ``decode_error`` go through the same tables.
    """

    z_graph: MatchingGraph            # of z_stabilizers: corrects x errors
    x_graph: MatchingGraph            # of x_stabilizers: corrects z errors
    logical_x: tuple[int, ...]
    logical_z: tuple[int, ...]

    @classmethod
    def build(cls, code: CssCode) -> "DecodingTables":
        z_graph, x_graph = (MatchingGraph.build(homology.CheckGraph.of(m))
                            for m in (code.z_stabilizers, code.x_stabilizers))
        return cls(z_graph, x_graph, tuple(v.bits for v in code.logical_x),
                   tuple(v.bits for v in code.logical_z))

    def failures(self, x_bits: int, z_bits: int) -> tuple[bool, bool]:
        """(x_fail, z_fail) of decoding the error (x_bits, z_bits).

        The syndrome of each side is matched to its minimum-weight chain,
        and the residual, error plus chain, goes to ``_residual_failures``.
        The code must carry k logical operators per side
        (``_require_logicals``).
        """
        zg, xg = self.z_graph, self.x_graph
        z_checks, x_checks = zg.graph, xg.graph
        return _residual_failures(
            z_checks, x_checks, self.logical_x, self.logical_z,
            x_bits ^ zg.chain(z_checks.syndrome(x_bits)),
            z_bits ^ xg.chain(x_checks.syndrome(z_bits)))


def _residual_failures(z_checks: homology.CheckGraph,
                       x_checks: homology.CheckGraph,
                       logical_x: tuple[int, ...], logical_z: tuple[int, ...],
                       res_x: int, res_z: int) -> tuple[bool, bool]:
    """(x_fail, z_fail): does the residual act on the code space?

    z_checks and x_checks are the check graphs of z_stabilizers and
    x_stabilizers.  The residual must have zero syndrome, which by
    linearity says that the correction reproduces the error's syndrome
    (else SyndromeMismatch), so its bit-flip part r lies in
    ker(z_stabilizers).  As ker(x_stabilizers) is spanned by
    rowspace(z_stabilizers) and logical_z, r lies in
    rowspace(x_stabilizers) iff it pairs evenly with every logical_z:
    x_fail is an odd pairing with some logical_z, and z_fail dually
    with logical_x.
    """
    if z_checks.syndrome(res_x) or x_checks.syndrome(res_z):
        raise SyndromeMismatch("correction does not match the error syndrome")
    return (any((res_x & lz).bit_count() & 1 for lz in logical_z),
            any((res_z & lx).bit_count() & 1 for lx in logical_x))


def _require_logicals(code: CssCode) -> None:
    if len(code.logical_x) != code.k or len(code.logical_z) != code.k:
        raise ValueError("code does not carry k logical operators per side")


def syndrome(code: CssCode, err: ErrorPattern) -> Syndrome:
    """The checks each side of err flips (``homology.CheckGraph.syndrome``)."""
    if err.x_errors.n != code.n:
        raise gf2.LengthMismatch(f"{err.x_errors.n} != {code.n}")
    z_checks = homology.CheckGraph.of(code.z_stabilizers)
    x_checks = homology.CheckGraph.of(code.x_stabilizers)
    return Syndrome(
        z_checks=Gf2Vector(z_checks.boundary,
                           z_checks.syndrome(err.x_errors.bits)),
        x_checks=Gf2Vector(x_checks.boundary,
                           x_checks.syndrome(err.z_errors.bits)),
    )


def correct(code: CssCode, syn: Syndrome,
            tables: DecodingTables | None = None) -> ErrorPattern:
    """Minimum-weight error pattern reproducing the syndrome.

    Ties are broken by ``Gf2Vector.sort_key``.  ``tables`` is
    ``DecodingTables.build(code)``; callers decoding many syndromes of
    one code build it once and pass it.
    """
    if tables is None:
        tables = DecodingTables.build(code)
    return ErrorPattern(
        x_errors=tables.z_graph.min_weight_chain(syn.z_checks),
        z_errors=tables.x_graph.min_weight_chain(syn.x_checks),
    )


def is_failure(code: CssCode, err: ErrorPattern,
               corr: ErrorPattern) -> tuple[bool, bool]:
    """(x_fail, z_fail) of the residual err + corr, by
    ``_residual_failures``.

    Raises SyndromeMismatch when corr does not reproduce err's syndrome,
    and ValueError when the code does not carry k logical operators on
    each side.
    """
    _require_logicals(code)
    res_x, res_z = err.x_errors ^ corr.x_errors, err.z_errors ^ corr.z_errors
    if res_x.n != code.n:
        raise gf2.LengthMismatch(f"{res_x.n} != {code.n}")
    return _residual_failures(homology.CheckGraph.of(code.z_stabilizers),
                              homology.CheckGraph.of(code.x_stabilizers),
                              tuple(v.bits for v in code.logical_x),
                              tuple(v.bits for v in code.logical_z),
                              res_x.bits, res_z.bits)


def decode_error(code: CssCode, err: ErrorPattern,
                 tables: DecodingTables | None = None) -> tuple[bool, bool]:
    """(x_fail, z_fail) of decoding err (``DecodingTables.failures``)."""
    if err.x_errors.n != code.n:
        raise gf2.LengthMismatch(f"{err.x_errors.n} != {code.n}")
    _require_logicals(code)
    if tables is None:
        tables = DecodingTables.build(code)
    return tables.failures(err.x_errors.bits, err.z_errors.bits)


@dataclass(frozen=True)
class MonteCarloResult:
    p_x: float
    p_z: float
    trials: int
    x_failures: int
    z_failures: int
    seed: int

    def to_csv_row(self) -> str:
        return (f"{self.p_x},{self.p_z},{self.trials},"
                f"{self.x_failures},{self.z_failures},{self.seed}")

    @staticmethod
    def csv_header() -> str:
        return "p_x,p_z,trials,x_failures,z_failures,seed"


def _error_bits(seed: int, trials: range, n: int, p_x: float,
                p_z: float) -> Iterator[tuple[int, int]]:
    """(x_bits, z_bits) of each trial t in trials (a range of step 1).

    Bit q of x_bits is draws[0][q] < p_x and of z_bits draws[1][q] < p_z,
    where draws is ``Generator(Philox(key=seed, counter=t << 64))
    .random((2, n))``: each trial has its own stream, so results do not
    depend on how trials are partitioned.

    One Philox runs through the range.  numpy's Philox steps the
    counter's low word before each block of four outputs, so trial t's
    2n draws end at counter (m, t), m = ceil(2n / 4); advancing by
    2^64 - m moves it to (0, t + 1), where trial t + 1's own stream
    starts, and drops the unused buffered outputs.  The draws of up to
    ``_CHUNK_DRAWS`` doubles are compared and packed at once.
    """
    import numpy as np

    bitgen = np.random.Philox(key=seed, counter=trials.start << 64)
    random, advance = np.random.Generator(bitgen).random, bitgen.advance
    skip = (1 << 64) - (2 * n + 3) // 4
    per_chunk = max(1, _CHUNK_DRAWS // max(2 * n, 1))
    p = np.array([[p_x], [p_z]])
    width = (n + 7) // 8  # bytes per side of a trial
    for first in range(trials.start, trials.stop, per_chunk):
        draws = np.empty((min(per_chunk, trials.stop - first), 2, n))
        for row in draws:
            random(out=row)
            advance(skip)
        packed = np.packbits(draws < p, axis=-1, bitorder="little").tobytes()
        for i in range(len(draws)):
            at = 2 * i * width
            yield (int.from_bytes(packed[at:at + width], "little"),
                   int.from_bytes(packed[at + width:at + 2 * width], "little"))


def monte_carlo(code: CssCode, p_x: float, p_z: float, trials: int,
                seed: int) -> MonteCarloResult:
    """iid X/Z errors per qubit; minimum-weight decode; deterministic in seed.

    seed is the Philox key, so it lies in [0, 2^128).  Every argument
    and the code's logical operators are checked before any trial runs.
    """
    if not (0.0 <= p_x <= 1.0 and 0.0 <= p_z <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    _require_logicals(code)
    failures = DecodingTables.build(code).failures
    xf = zf = 0
    for x_bits, z_bits in _error_bits(seed, range(trials), code.n, p_x, p_z):
        fx, fz = failures(x_bits, z_bits)
        xf += fx
        zf += fz
    return MonteCarloResult(p_x, p_z, trials, xf, zf, seed)


@dataclass(frozen=True)
class ExhaustiveSweepRow:
    weight: int
    x_patterns: int
    x_failures: int
    z_patterns: int
    z_failures: int


def exhaustive_weight_sweep(code: CssCode, max_weight: int) -> list[ExhaustiveSweepRow]:
    """Decode every X-only and Z-only error of weight <= max_weight."""
    from itertools import combinations

    _require_logicals(code)
    rows = []
    failures = DecodingTables.build(code).failures
    for w in range(max_weight + 1):
        xp = xf = zp = zf = 0
        for support in combinations(range(code.n), w):
            bits = sum(1 << q for q in support)
            xp += 1
            xf += failures(bits, 0)[0]
            zp += 1
            zf += failures(0, bits)[1]
        rows.append(ExhaustiveSweepRow(w, xp, xf, zp, zf))
    return rows


def sweep_csv(results: list[MonteCarloResult]) -> str:
    buf = io.StringIO()
    buf.write(MonteCarloResult.csv_header() + "\n")
    for r in results:
        buf.write(r.to_csv_row() + "\n")
    return buf.getvalue()
