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
These weights also make every shortest path one of fewest columns, so
``MatchingGraph.build`` finds them by walking the graph in layers of
equal column count from each node; the tests keep a heap Dijkstra as
its oracle.

Up to 14 nodes to match (defects and boundary) the matching is an exact
DP over subsets; above that it is the ``networkx`` blossom, loaded only
then.  Every minimum matching's paths XOR to the one minimum T-join
(``MatchingGraph.min_weight_chain``), so the two give the same chain.

Single decodes run on bit sets (Python ints, bit j = column j) through
``DecodingTables``, built once per code: ``failures`` takes an error's
two sides and returns its two failure verdicts.  ``monte_carlo`` runs a
whole sweep on the tables: it draws each chunk of trials once
(``_draws``), thresholds it at every (p_x, p_z) point and decodes it
(``DecodingTables._chunk_failures``): numpy multiplies the chunk's
errors by each side's check columns and logical operators, and each
distinct syndrome is matched once per tables.  Each ``MatchingGraph``
keeps the sub-matchings of its DP, so syndromes share them.
``correct``, ``decode_error`` and ``exhaustive_weight_sweep`` build the
tables per call, and ``syndrome`` and ``is_failure`` read the check
graphs of the code's split alone.  numpy is loaded only by
``monte_carlo``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable, Iterator

from . import gf2, homology
from .gf2 import Gf2Vector
from .stabilizer import CssCode

RNG_ALGORITHM = "numpy-philox4x64(key=seed, counter hi word=trial)"

# Above this many nodes to match (defects and boundary) the networkx
# blossom is faster than the subset DP of MatchingGraph._min_matching: on
# toric(8,8), 14 random nodes take 1.4 ms by the DP from an empty memo
# and 2.0 ms by the blossom, 16 nodes 4.0 and 2.8 ms (2-vCPU VM).
_DP_MAX_DEFECTS = 14

# Doubles per chunk of _draws (512 KiB), so that a sweep's memory grows
# neither with its trial count nor with its number of points.
_CHUNK_DRAWS = 1 << 16

# Entries of each memo, so that its memory does not grow with the trial
# count: the syndromes per side whose chain parities DecodingTables
# keeps (1.2 MB per side when full, for 64 checks; a decode_small sweep
# needs at most 253), and the sub-matchings a MatchingGraph keeps, which
# it clears before a DP once it holds this many.
_MEMO_ENTRIES = 1 << 14


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
    its adjacency, the edges that ``build`` walks layer by layer.
    Column j weighs 2^n - 2^(n-1-j) (see the module docstring); no two
    edge sets weigh the same, so every shortest path is unique.  Columns
    of weight 0 join nothing, and no minimum-weight chain contains one.

    A path of k columns weighs at least (k-1) 2^n + 2^(n-k), more than
    the (k-1) 2^n - 2^(k-1) + 1 that a path of k-1 columns weighs at
    most, so every shortest path has the fewest columns.  ``build``
    therefore reaches the nodes from each source in layers of equal
    column count, and a node's shortest path is the lightest extension
    of a shortest path to a neighbour in the layer before.
    """

    graph: homology.CheckGraph
    dist: tuple[tuple[int | None, ...], ...]  # None: no path
    path: tuple[tuple[int, ...], ...]         # column bit set of the path

    @classmethod
    def build(cls, graph: homology.CheckGraph) -> "MatchingGraph":
        n, n_nodes = len(graph.columns), graph.boundary + 1
        weight = [(1 << n) - (1 << (n - 1 - e)) for e in range(n)]
        dist, path = [], []
        for source in range(n_nodes):  # layer by layer from every node
            hops: list[int | None] = [None] * n_nodes
            d: list[int | None] = [None] * n_nodes
            p = [0] * n_nodes
            hops[source], d[source] = 0, 0
            layer, k = [source], 0
            while layer:
                k += 1
                following = []
                for u in layer:
                    du, pu = d[u], p[u]
                    for v, e in graph.adj[u]:
                        if hops[v] is None:  # first reached: layer k
                            hops[v] = k
                            d[v], p[v] = du + weight[e], pu | (1 << e)
                            following.append(v)
                        elif hops[v] == k and du + weight[e] < d[v]:
                            d[v], p[v] = du + weight[e], pu | (1 << e)
                layer = following
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
        if syn.bit_count() % 2:
            syn |= 1 << self.graph.boundary
        if syn.bit_count() <= _DP_MAX_DEFECTS:
            matching = self._min_matching(syn)
            bits = None if matching is None else matching[1]
        else:
            import networkx as nx

            defects = []
            while syn:
                low = syn & -syn
                defects.append(low.bit_length() - 1)
                syn ^= low
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

    @cached_property
    def _matchings(self) -> dict[int, tuple[int, int] | None]:
        """The memo of ``_min_matching``: a bit set of node ids maps to
        (total weight, XOR of the paths) of a minimum-weight perfect
        matching of those nodes, or None when there is none."""
        return {0: (0, 0)}

    def _min_matching(self, nodes: int) -> tuple[int, int] | None:
        """(total weight, XOR of the paths) of a minimum-weight perfect
        matching of the nodes in bit set nodes (bit v: node id v), or
        None when there is none (``_best``).

        ``_matchings`` keeps every sub-matching for every later DP; it is
        cleared first once it holds ``_MEMO_ENTRIES``.
        """
        memo = self._matchings
        if len(memo) >= _MEMO_ENTRIES:
            memo.clear()
            memo[0] = (0, 0)
        return memo[nodes] if nodes in memo else self._best(nodes)

    def _best(self, mask: int) -> tuple[int, int] | None:
        """``_min_matching`` of the nodes in bit set mask, which
        ``_matchings`` does not hold yet: pair the lowest of them with
        each other one it has a path to and keep the lowest total
        weight.  Each sub-mask is looked up in ``_matchings`` before it
        is recursed on, and the result, which depends on mask alone,
        goes into it.  A method, not a closure in ``_min_matching``: a
        recursive closure is a reference cycle, and uncollected ones
        held their memos past their sweep."""
        memo = self._matchings
        low = mask & -mask
        a = low.bit_length() - 1
        dist, path = self.dist[a], self.path[a]
        top = None
        rest = mask ^ low
        others = rest
        while others:
            bit = others & -others
            others ^= bit
            b = bit.bit_length() - 1
            if dist[b] is None:
                continue
            sub_mask = rest ^ bit
            sub = memo[sub_mask] if sub_mask in memo else self._best(sub_mask)
            if sub is not None and (top is None
                                    or dist[b] + sub[0] < top[0]):
                top = (dist[b] + sub[0], sub[1] ^ path[b])
        memo[mask] = top
        return top


@dataclass(frozen=True)
class DecodingTables:
    """What every decode on one code reuses; build once per code.

    The code's length, the matching graphs of its two checks and the
    bits of its logical operators, which every code carries, k per side;
    ``failures`` decodes one error given as bit sets.
    """

    n: int
    z_graph: MatchingGraph            # of z_stabilizers: corrects x errors
    x_graph: MatchingGraph            # of x_stabilizers: corrects z errors
    logical_x: tuple[int, ...]
    logical_z: tuple[int, ...]

    @classmethod
    def build(cls, code: CssCode) -> "DecodingTables":
        x_checks, z_checks, logical_x, logical_z = code._split
        return cls(code.n, MatchingGraph.build(z_checks),
                   MatchingGraph.build(x_checks),
                   tuple(v.bits for v in logical_x),
                   tuple(v.bits for v in logical_z))

    def failures(self, x_bits: int, z_bits: int) -> tuple[bool, bool]:
        """(x_fail, z_fail) of decoding the error (x_bits, z_bits).

        The syndrome of each side is matched to its minimum-weight chain,
        and the residual, error plus chain, goes to ``_residual_failures``.
        """
        zg, xg = self.z_graph, self.x_graph
        z_checks, x_checks = zg.graph, xg.graph
        return _residual_failures(
            z_checks, x_checks, self.logical_x, self.logical_z,
            x_bits ^ zg.chain(z_checks.syndrome(x_bits)),
            z_bits ^ xg.chain(x_checks.syndrome(z_bits)))

    @cached_property
    def _sides(self) -> tuple:
        """Per side, x errors then z errors: (matching graph, rows, [H | L],
        memo).

        H is the check graph's column matrix (n x checks) and L the
        logical matrix (n x k) of the logical operators the side pairs
        with; row j of [H | L] is the bit set rows[j] (checks first, then
        bit checks + i for logical i), and the array is float64 so that
        numpy multiplies it by BLAS, exactly.  The memo maps a syndrome
        bit set to its chain's parities with the logical operators.
        """
        import numpy as np

        sides = []
        for graph, logicals in ((self.z_graph, self.logical_z),
                                (self.x_graph, self.logical_x)):
            checks = graph.graph.boundary
            width = checks + len(logicals)
            rows = [col | sum(((lg >> j) & 1) << (checks + i)
                              for i, lg in enumerate(logicals))
                    for j, col in enumerate(graph.graph.columns)]
            size = (width + 7) // 8
            packed = b"".join(r.to_bytes(size, "little") for r in rows)
            hl = np.unpackbits(np.frombuffer(packed, np.uint8).reshape(
                self.n, size), axis=1, count=width, bitorder="little")
            sides.append((graph, rows, hl.astype(float), {}))
        return tuple(sides)

    def _chunk_failures(self, side: int, errors) -> int:
        """How many trials fail on one side (0: x, 1: z) of a chunk;
        errors is that side's boolean trials x n array.

        A trial's row of errors @ [H | L] mod 2 is its syndrome beside its
        parities with the logical operators, and it fails when these
        differ from its chain's.  Each distinct syndrome is matched once
        per tables while the memo holds fewer than ``_MEMO_ENTRIES``,
        and every chain matched must reproduce its syndrome (else
        SyndromeMismatch): by linearity, every residual then has zero
        syndrome.
        """
        import numpy as np

        graph, rows, hl, memo = self._sides[side]
        packed = np.packbits((errors @ hl).astype(int) & 1, axis=1,
                             bitorder="little")
        checks, failed = graph.graph.boundary, 0
        mask = (1 << checks) - 1
        for key, count in Counter(
                packed.view(f"V{packed.shape[1]}").ravel().tolist()).items():
            bits = int.from_bytes(key, "little")
            syn = bits & mask
            parities = memo.get(syn)
            if parities is None:
                chain, image = graph.chain(syn), 0  # image: chain @ [H | L]
                while chain:
                    low = chain & -chain
                    image ^= rows[low.bit_length() - 1]
                    chain ^= low
                if image & mask != syn:
                    raise SyndromeMismatch(
                        "correction does not match the error syndrome")
                parities = image >> checks
                if len(memo) < _MEMO_ENTRIES:
                    memo[syn] = parities
            if parities != bits >> checks:
                failed += count
        return failed


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


def syndrome(code: CssCode, err: ErrorPattern) -> Syndrome:
    """The checks each side of err flips (``homology.CheckGraph.syndrome``)."""
    if err.x_errors.n != code.n:
        raise gf2.LengthMismatch(f"{err.x_errors.n} != {code.n}")
    x_checks, z_checks, _, _ = code._split
    return Syndrome(
        z_checks=Gf2Vector(z_checks.boundary,
                           z_checks.syndrome(err.x_errors.bits)),
        x_checks=Gf2Vector(x_checks.boundary,
                           x_checks.syndrome(err.z_errors.bits)),
    )


def correct(code: CssCode, syn: Syndrome) -> ErrorPattern:
    """Minimum-weight error pattern reproducing the syndrome.

    Ties are broken by ``Gf2Vector.sort_key``.
    """
    tables = DecodingTables.build(code)
    return ErrorPattern(
        x_errors=tables.z_graph.min_weight_chain(syn.z_checks),
        z_errors=tables.x_graph.min_weight_chain(syn.x_checks),
    )


def is_failure(code: CssCode, err: ErrorPattern,
               corr: ErrorPattern) -> tuple[bool, bool]:
    """(x_fail, z_fail) of the residual err + corr, by
    ``_residual_failures``.

    Raises SyndromeMismatch when corr does not reproduce err's syndrome.
    """
    res_x, res_z = err.x_errors ^ corr.x_errors, err.z_errors ^ corr.z_errors
    if res_x.n != code.n:
        raise gf2.LengthMismatch(f"{res_x.n} != {code.n}")
    x_checks, z_checks, logical_x, logical_z = code._split
    return _residual_failures(z_checks, x_checks,
                              tuple(v.bits for v in logical_x),
                              tuple(v.bits for v in logical_z),
                              res_x.bits, res_z.bits)


def decode_error(code: CssCode, err: ErrorPattern) -> tuple[bool, bool]:
    """(x_fail, z_fail) of decoding err (``DecodingTables.failures``)."""
    if err.x_errors.n != code.n:
        raise gf2.LengthMismatch(f"{err.x_errors.n} != {code.n}")
    return DecodingTables.build(code).failures(err.x_errors.bits,
                                               err.z_errors.bits)


@dataclass(frozen=True)
class MonteCarloResult:
    p_x: float
    p_z: float
    trials: int
    x_failures: int
    z_failures: int
    seed: int


def _draws(seed: int, trials: range, n: int) -> Iterator:
    """The uniform draws of the trials in trials (a range of step 1), by
    chunks.

    A chunk is a float64 array of shape (trials in it, 2, n), with up to
    ``_CHUNK_DRAWS`` // 2n trials in order.  Trial t's row is
    ``Generator(Philox(key=seed, counter=t << 64)).random((2, n))``: each
    trial has its own stream, so results do not depend on how trials are
    partitioned.  Qubit q of trial t has an x error at p_x when
    row[0][q] < p_x, and a z error at p_z when row[1][q] < p_z.

    One Philox runs through the range.  Before trial t its state is set
    to counter words (0, t, 0, 0), key words (seed mod 2^64, seed >>
    64) and no buffered output, where trial t's own stream starts.  The
    state is one dict of plain ints, built once, whose counter is
    changed per trial: numpy reads plain ints faster than the numpy
    scalars of the dict that ``bitgen.state`` returns.
    """
    import numpy as np

    bitgen = np.random.Philox(key=seed)
    random = np.random.Generator(bitgen).random
    counter = [0, 0, 0, 0]  # words (0, t, 0, 0) for trial t
    state = {"bit_generator": "Philox",
             "state": {"counter": counter,
                       "key": [seed & ((1 << 64) - 1), seed >> 64]},
             "buffer": [0] * 4, "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    per_chunk = max(1, _CHUNK_DRAWS // max(2 * n, 1))
    for first in range(trials.start, trials.stop, per_chunk):
        draws = np.empty((min(per_chunk, trials.stop - first), 2, n))
        for t, row in enumerate(draws, first):
            counter[1] = t
            bitgen.state = state
            random(out=row)
        yield draws


def monte_carlo(tables: DecodingTables,
                points: Iterable[tuple[float, float]], trials: int,
                seed: int) -> list[MonteCarloResult]:
    """iid X/Z errors per qubit; minimum-weight decode; deterministic in seed.

    One result per (p_x, p_z) of points, each over the same trials:
    every chunk of trials is drawn once (``_draws``) and thresholded at
    every point.  tables is ``DecodingTables.build(code)``.  seed is the
    Philox key, so it lies in [0, 2^128).  Every argument is checked
    before any trial is drawn.
    """
    points = tuple(points)
    for p_x, p_z in points:
        if not (0.0 <= p_x <= 1.0 and 0.0 <= p_z <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, got {trials}")
    if not 0 <= seed < 1 << 128:
        raise ValueError(f"seed must lie in [0, 2**128), got {seed}")
    counts = [[0, 0] for _ in points]
    for draws in _draws(seed, range(trials), tables.n):
        for (p_x, p_z), count in zip(points, counts):
            errors = draws < [[p_x], [p_z]]
            count[0] += tables._chunk_failures(0, errors[:, 0])
            count[1] += tables._chunk_failures(1, errors[:, 1])
    return [MonteCarloResult(p_x, p_z, trials, xf, zf, seed)
            for (p_x, p_z), (xf, zf) in zip(points, counts)]


@dataclass(frozen=True)
class ExhaustiveSweepRow:
    weight: int
    x_patterns: int
    x_failures: int
    z_patterns: int
    z_failures: int


def exhaustive_weight_sweep(code: CssCode, max_weight: int) -> list[ExhaustiveSweepRow]:
    """Decode every X-only and Z-only error of weight <= max_weight.

    One row per weight up to min(max_weight, n): no error is heavier.
    """
    from itertools import combinations
    from math import comb

    rows = []
    failures = DecodingTables.build(code).failures
    for w in range(min(max_weight, code.n) + 1):
        xf = zf = 0
        for support in combinations(range(code.n), w):
            bits = sum(1 << q for q in support)
            xf += failures(bits, 0)[0]
            zf += failures(0, bits)[1]
        count = comb(code.n, w)
        rows.append(ExhaustiveSweepRow(w, count, xf, count, zf))
    return rows


def sweep_csv(results: list[MonteCarloResult]) -> str:
    """A header line of the field names, then one line per result."""
    names = [f.name for f in fields(MonteCarloResult)]
    lines = [names] + [[getattr(r, name) for name in names] for r in results]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)
