"""Syndrome extraction, minimum-weight correction and Monte Carlo runs.

Every check column touches at most two checks, so the minimum-weight
chain with a given syndrome is a minimum T-join (Edmonds--Johnson) in
the check graph ``homology._check_graph`` (the checks plus one virtual
boundary node; the distance search walks the same graph):
minimum-weight perfect matching of the syndrome defects under
shortest-path distances (Dennis--Kitaev--Landahl--Preskill).  Column j
of an n-qubit code weighs 2^n - 2^(n-1-j), so the minimum is unique and
is the lightest chain with the earliest support (``Gf2Vector.sort_key``).
The tests keep an exhaustive coset search as the oracle for this rule.

Up to 14 nodes to match (defects and boundary) the matching is an exact
DP over subsets; above that it is the ``networkx`` blossom, loaded only
then.  Every minimum matching's paths XOR to the one minimum T-join
(``CheckGraph.min_weight_chain``), so the two give the same chain.
numpy is loaded only to sample the errors of ``monte_carlo``.
"""
from __future__ import annotations

import heapq
import io
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import gf2, homology
from .gf2 import Gf2Matrix, Gf2Vector
from .stabilizer import CssCode

if TYPE_CHECKING:
    import numpy as np

RNG_ALGORITHM = "numpy-philox4x64(key=seed, counter hi word=trial)"

# Above this many nodes to match (defects and boundary) the networkx
# blossom is faster than the subset DP of CheckGraph._min_matching: on
# toric(8,8), 14 nodes take 2.6 ms by the DP and 4.2 ms by the blossom,
# 16 nodes 7.1 and 4.7 ms (2-vCPU VM).
_DP_MAX_DEFECTS = 14


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


def syndrome(code: CssCode, err: ErrorPattern) -> Syndrome:
    if err.x_errors.n != code.n:
        raise gf2.LengthMismatch(f"{err.x_errors.n} != {code.n}")
    return Syndrome(
        z_checks=code.z_stabilizers.mul_vector(err.x_errors),
        x_checks=code.x_stabilizers.mul_vector(err.z_errors),
    )


@dataclass(frozen=True)
class CheckGraph:
    """All-pairs shortest paths in the graph of one check matrix.

    The graph is ``homology._check_graph``: nodes are the check rows plus
    a virtual boundary node (index ``boundary``), a column of weight 2 is
    an edge between its checks and a column of weight 1 an edge to the
    boundary.  Columns of weight 0 are left out, as no minimum-weight
    chain contains one.  Column j weighs 2^n - 2^(n-1-j) (see the module
    docstring); no two edge sets weigh the same, so every shortest path
    is unique.
    """

    cols: int
    boundary: int
    dist: tuple[tuple[int | None, ...], ...]  # None: no path
    path: tuple[tuple[int, ...], ...]         # column bit set of the path

    @classmethod
    def build(cls, checks: Gf2Matrix) -> "CheckGraph":
        n, boundary = checks.cols, checks.rows
        adj: list[list[tuple[int, int, int]]] = [[] for _ in range(boundary + 1)]
        for e, ab in enumerate(homology._check_graph(checks)):
            if ab is None:
                continue
            a, b = ab
            w = (1 << n) - (1 << (n - 1 - e))
            adj[a].append((b, w, 1 << e))
            adj[b].append((a, w, 1 << e))
        dist, path = [], []
        for source in range(boundary + 1):  # Dijkstra from every node
            d: list[int | None] = [None] * (boundary + 1)
            p = [0] * (boundary + 1)
            d[source] = 0
            heap = [(0, source)]
            while heap:
                du, u = heapq.heappop(heap)
                if du > d[u]:
                    continue  # stale entry
                for v, w, bit in adj[u]:
                    if d[v] is None or du + w < d[v]:
                        d[v] = du + w
                        p[v] = p[u] | bit
                        heapq.heappush(heap, (du + w, v))
            dist.append(tuple(d))
            path.append(tuple(p))
        return cls(n, boundary, tuple(dist), tuple(path))

    def min_weight_chain(self, syn: Gf2Vector) -> Gf2Vector:
        """The chain with syndrome syn that is smallest by sort_key.

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
        if syn.n != self.boundary:
            raise gf2.LengthMismatch(f"{syn.n} != {self.boundary}")
        defects = list(syn.support())
        if len(defects) % 2:
            defects.append(self.boundary)
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
        return Gf2Vector(self.cols, bits)

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
    """The check graphs every decode on one code reuses; build once per
    code."""

    z_graph: CheckGraph               # of z_stabilizers: corrects x errors
    x_graph: CheckGraph               # of x_stabilizers: corrects z errors

    @classmethod
    def build(cls, code: CssCode) -> "DecodingTables":
        return cls(z_graph=CheckGraph.build(code.z_stabilizers),
                   x_graph=CheckGraph.build(code.x_stabilizers))


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
    """(x_fail, z_fail): does the residual act on the code space?

    The residual err + corr must have zero syndrome, which by linearity
    says that corr reproduces err's syndrome (else SyndromeMismatch), so
    its bit-flip part r lies in ker(z_stabilizers).  As ker(x_stabilizers)
    is spanned by rowspace(z_stabilizers) and logical_z, r lies in
    rowspace(x_stabilizers) iff it pairs evenly with every logical_z:
    x_fail is an odd pairing with some logical_z, and z_fail dually with
    logical_x.  Raises ValueError when the code does not carry k
    logical operators on each side.
    """
    if len(code.logical_x) != code.k or len(code.logical_z) != code.k:
        raise ValueError("code does not carry k logical operators per side")
    res = ErrorPattern(err.x_errors ^ corr.x_errors,
                       err.z_errors ^ corr.z_errors)
    syn = syndrome(code, res)
    if syn.z_checks.bits or syn.x_checks.bits:
        raise SyndromeMismatch("correction does not match the error syndrome")
    res_x, res_z = res.x_errors.bits, res.z_errors.bits
    x_fail = any((res_x & lz.bits).bit_count() & 1 for lz in code.logical_z)
    z_fail = any((res_z & lx.bits).bit_count() & 1 for lx in code.logical_x)
    return x_fail, z_fail


def decode_error(code: CssCode, err: ErrorPattern,
                 tables: DecodingTables | None = None) -> tuple[bool, bool]:
    return is_failure(code, err, correct(code, syndrome(code, err), tables))


@dataclass(frozen=True)
class MonteCarloResult:
    p_x: float
    p_z: float
    trials: int
    x_failures: int
    z_failures: int
    seed: int
    rng_algorithm: str = RNG_ALGORITHM

    def to_csv_row(self) -> str:
        return (f"{self.p_x},{self.p_z},{self.trials},"
                f"{self.x_failures},{self.z_failures},{self.seed}")

    @staticmethod
    def csv_header() -> str:
        return "p_x,p_z,trials,x_failures,z_failures,seed"


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    # independent stream per trial: results do not depend on how trials
    # are partitioned across workers.  numpy is imported here and in
    # _pack, its only users, so commands that never sample skip it.
    import numpy as np

    return np.random.Generator(np.random.Philox(key=seed, counter=trial << 64))


def _pack(mask: np.ndarray) -> int:
    """Bit q of the result is mask[q]."""
    import numpy as np

    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(),
                          "little")


def monte_carlo(code: CssCode, p_x: float, p_z: float, trials: int,
                seed: int) -> MonteCarloResult:
    """iid X/Z errors per qubit; minimum-weight decode; deterministic in seed."""
    if not (0.0 <= p_x <= 1.0 and 0.0 <= p_z <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    xf = zf = 0
    n = code.n
    tables = DecodingTables.build(code)
    for t in range(trials):
        draws = _trial_rng(seed, t).random((2, n))
        err = ErrorPattern(Gf2Vector(n, _pack(draws[0] < p_x)),
                           Gf2Vector(n, _pack(draws[1] < p_z)))
        fx, fz = decode_error(code, err, tables)
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

    rows = []
    n = code.n
    tables = DecodingTables.build(code)
    for w in range(max_weight + 1):
        xp = xf = zp = zf = 0
        for support in combinations(range(n), w):
            v = Gf2Vector.from_support(n, support)
            fx, _ = decode_error(code, ErrorPattern(v, Gf2Vector.zero(n)),
                                 tables)
            xp += 1
            xf += fx
            _, fz = decode_error(code, ErrorPattern(Gf2Vector.zero(n), v),
                                 tables)
            zp += 1
            zf += fz
        rows.append(ExhaustiveSweepRow(w, xp, xf, zp, zf))
    return rows


def sweep_csv(results: list[MonteCarloResult]) -> str:
    buf = io.StringIO()
    buf.write(MonteCarloResult.csv_header() + "\n")
    for r in results:
        buf.write(r.to_csv_row() + "\n")
    return buf.getvalue()
