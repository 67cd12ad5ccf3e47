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
The tests keep an exhaustive coset search as the oracle for this rule,
and a heap Dijkstra as the oracle of ``MatchingGraph.build``.

Up to 14 nodes to match (defects and boundary) the matching is an exact
DP over subsets; above that it is the ``networkx`` blossom, loaded only
then, and both give the one minimum T-join (``MatchingGraph.chain``).

A code has two sides (``CssCode.sides``): bit flips, detected by the
Z checks and judged by logical Z, then phase flips, detected by the X
checks and judged by logical X.  Every function here iterates over
them in that order, and ``DecodingTables`` holds one ``MatchingGraph``
per side.  Errors are bit sets (Python ints, bit j = column j), and
every decode reaches its verdict in one place per side,
``MatchingGraph._failed``.  Row j of a side's ``_image_rows`` holds
the checks column j flips and then its parities with the side's
logical operators, and an error's image is the XOR of its columns'
rows (``gf2.xor_rows``): its syndrome beside its parities.
``_failed`` matches each syndrome once per side, keeps its chain's
parities in a memo, and counts the errors whose parities differ.  Each
``MatchingGraph`` keeps the sub-matchings of its DP, so syndromes
share them too.

``monte_carlo`` runs a whole sweep on the tables: it draws each chunk
of trials once (``_draws``) and thresholds it at every (p_x, p_z)
point; numpy XORs each side's rows over every trial's errors, 64 bits
at a time (``MatchingGraph._words``), which gives the images of
``gf2.xor_rows``, and only the distinct images go to ``_failed``.
``exhaustive_weight_sweep`` feeds it the image of every pattern and
``decode_error`` one image per side, each on tables built per call;
``correct`` builds them too.  ``syndrome`` and ``is_failure``, which
reads the residual's image, read the code's sides alone and build no
shortest paths.  numpy is loaded only by ``monte_carlo``.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import accumulate, combinations
from math import comb
from typing import Iterable, Iterator, Sequence

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
# count: the syndromes whose chain parities each side's MatchingGraph
# keeps (1.2 MB per side when full, for 64 checks; a decode_small sweep
# needs at most 253), and the sub-matchings a MatchingGraph keeps, which
# it clears before a DP once it holds this many.
_MEMO_ENTRIES = 1 << 14

# Pattern cap per side of exhaustive_weight_sweep (toric(2,5): 4.5 s, 2 vCPU)
MAX_EXHAUSTIVE_PATTERNS = 1 << 20


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
    """One side of a code's decoding: its check graph, the image rows of
    its columns and the all-pairs shortest paths in the graph.

    ``graph`` is the side's ``homology.CheckGraph`` (the check rows plus
    a boundary node); it gives the boundary, the columns and, through
    its adjacency, the edges that ``build`` walks layer by layer.
    ``rows`` are its ``_image_rows`` with the side's logical operators,
    and ``_failed`` is the verdict of every decode on the side.
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
    rows: tuple[int, ...]                     # _image_rows of the side
    dist: tuple[tuple[int | None, ...], ...]  # None: no path
    path: tuple[tuple[int, ...], ...]         # column bit set of the path

    @classmethod
    def build(cls, graph: homology.CheckGraph,
              logicals: Sequence[Gf2Vector]) -> "MatchingGraph":
        """The side of graph judged by logicals (one ``CssCode.sides``
        entry)."""
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
        return cls(graph, _image_rows(graph, logicals), tuple(dist),
                   tuple(path))

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

    @cached_property
    def _parities(self) -> dict[int, int]:
        """The memo of ``_failed``: a syndrome bit set maps to its
        chain's parities with the side's logical operators."""
        return {}

    @cached_property
    def _words(self):
        """``rows`` as unsigned 64-bit words, at least one: row i of the
        array holds bits 64i ... 64i+63 of every column's row.
        XOR-reducing each word over an error's columns gives its image 64
        bits at a time, as ``gf2.xor_rows`` does."""
        import numpy as np

        return np.array(
            [[row >> shift & (1 << 64) - 1 for row in self.rows]
             for shift in range(0, max((1, *self.rows)).bit_length(), 64)],
            np.uint64)

    def _failed(self, images: Iterable[tuple[int, int]]) -> int:
        """How many errors on this side fail, given as (image, count)
        pairs: the one verdict of every decode.

        Each distinct syndrome is matched once per side while the memo
        holds fewer than ``_MEMO_ENTRIES``, and every chain matched must
        reproduce its syndrome (else SyndromeMismatch); an error fails
        when its parities differ from its chain's (``_image_rows``).
        """
        memo, checks, failed = self._parities, self.graph.boundary, 0
        mask = (1 << checks) - 1
        for image, count in images:
            syn = image & mask
            parities = memo.get(syn)
            if parities is None:
                chain_image = gf2.xor_rows(self.rows, self.chain(syn))
                if chain_image & mask != syn:
                    raise SyndromeMismatch(
                        "correction does not match the error syndrome")
                parities = chain_image >> checks
                if len(memo) < _MEMO_ENTRIES:
                    memo[syn] = parities
            if parities != image >> checks:
                failed += count
        return failed


def _image_rows(graph: homology.CheckGraph,
                logicals: Sequence[Gf2Vector]) -> tuple[int, ...]:
    """Row j: the checks column j of graph flips, then bit checks + i for
    its parity with logicals[i]; an error's image is ``gf2.xor_rows`` of
    these rows.

    An error on this side fails to decode when its residual, error plus
    chain, acts on the code space.  The residual must have zero syndrome,
    which by linearity says that the chain reproduces the error's
    syndrome (else SyndromeMismatch), so for x errors it lies in
    ker(z_stabilizers).  As ker(x_stabilizers) is spanned by
    rowspace(z_stabilizers) and logical_z, it lies in
    rowspace(x_stabilizers) iff it pairs evenly with every logical_z:
    the residual fails iff some parity bit of its image is set, that is
    iff error and chain differ in some parity.  z errors pair dually
    with logical_x.
    """
    checks, bits = graph.boundary, [v.bits for v in logicals]
    return tuple(col | sum(((lg >> j) & 1) << (checks + i)
                           for i, lg in enumerate(bits))
                 for j, col in enumerate(graph.columns))


@dataclass(frozen=True)
class DecodingTables:
    """What every decode on one code reuses; build once per code.

    The code's length and one ``MatchingGraph`` per side of the code
    (``CssCode.sides``): the one that corrects bit flips, then the one
    that corrects phase flips.
    """

    n: int
    sides: tuple[MatchingGraph, MatchingGraph]

    @classmethod
    def build(cls, code: CssCode) -> "DecodingTables":
        return cls(code.n, tuple(MatchingGraph.build(graph, logicals)
                                 for graph, logicals in code.sides))


def syndrome(code: CssCode, err: ErrorPattern) -> Syndrome:
    """The checks each side of err flips: the XOR of the check graphs'
    columns (``gf2.xor_rows``)."""
    if err.x_errors.n != code.n:
        raise gf2.LengthMismatch(f"{err.x_errors.n} != {code.n}")
    return Syndrome(*(
        Gf2Vector(graph.boundary, gf2.xor_rows(graph.columns, e.bits))
        for (graph, _), e in zip(code.sides, (err.x_errors, err.z_errors))))


def correct(code: CssCode, syn: Syndrome) -> ErrorPattern:
    """Minimum-weight error pattern reproducing the syndrome, ties
    broken by ``Gf2Vector.sort_key``."""
    tables = DecodingTables.build(code)
    return ErrorPattern(*(
        side.min_weight_chain(s)
        for side, s in zip(tables.sides, (syn.z_checks, syn.x_checks))))


def is_failure(code: CssCode, err: ErrorPattern,
               corr: ErrorPattern) -> tuple[bool, bool]:
    """(x_fail, z_fail) of the residual err + corr: the parity bits of
    its image on each side (``_image_rows``).

    Raises SyndromeMismatch when corr does not reproduce err's syndrome,
    that is when the syndrome bits of either image are not all zero.
    """
    res_x, res_z = err.x_errors ^ corr.x_errors, err.z_errors ^ corr.z_errors
    if res_x.n != code.n:
        raise gf2.LengthMismatch(f"{res_x.n} != {code.n}")
    verdict = []
    for (graph, logicals), res in zip(code.sides, (res_x, res_z)):
        image = gf2.xor_rows(_image_rows(graph, logicals), res.bits)
        if image & ((1 << graph.boundary) - 1):
            raise SyndromeMismatch(
                "correction does not match the error syndrome")
        verdict.append(image >> graph.boundary != 0)
    return verdict[0], verdict[1]


def decode_error(code: CssCode, err: ErrorPattern) -> tuple[bool, bool]:
    """(x_fail, z_fail) of decoding err: one image per side through
    ``MatchingGraph._failed``."""
    if err.x_errors.n != code.n:
        raise gf2.LengthMismatch(f"{err.x_errors.n} != {code.n}")
    tables = DecodingTables.build(code)
    return tuple(side._failed([(gf2.xor_rows(side.rows, v.bits), 1)]) == 1
                 for side, v in zip(tables.sides,
                                    (err.x_errors, err.z_errors)))


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
    import numpy as np

    counts = [[0, 0] for _ in points]
    for draws in _draws(seed, range(trials), tables.n):
        for (p_x, p_z), count in zip(points, counts):
            errors = draws < [[p_x], [p_z]]
            for i, side in enumerate(tables.sides):
                err = errors[:, i]
                images, *rest = (np.bitwise_xor.reduce(
                    np.broadcast_to(word, err.shape), axis=1, where=err,
                    initial=0).tolist() for word in side._words)
                for j, ws in enumerate(rest, 1):
                    images = [key | w << 64 * j for key, w in zip(images, ws)]
                count[i] += side._failed(Counter(images).items())
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
    ValueError, before any pattern is decoded, when the rows hold more
    than ``MAX_EXHAUSTIVE_PATTERNS`` patterns per side.
    """
    top = min(max_weight, code.n)
    if any(patterns > MAX_EXHAUSTIVE_PATTERNS for patterns in accumulate(
            comb(code.n, w) for w in range(top + 1))):
        raise ValueError(f"more than {MAX_EXHAUSTIVE_PATTERNS} error patterns"
                         f" per side up to weight {top}")

    def images(rows: tuple[int, ...], w: int) -> Iterator[tuple[int, int]]:
        for support in combinations(range(code.n), w):
            yield gf2.xor_rows(rows, sum(1 << q for q in support)), 1

    tables = DecodingTables.build(code)
    rows = []
    for w in range(top + 1):
        xf, zf = (side._failed(images(side.rows, w))
                  for side in tables.sides)
        count = comb(code.n, w)
        rows.append(ExhaustiveSweepRow(w, count, xf, count, zf))
    return rows


def sweep_csv(results: list[MonteCarloResult]) -> str:
    """A header line of the field names, then one line per result."""
    names = [f.name for f in fields(MonteCarloResult)]
    lines = [names] + [[getattr(r, name) for name in names] for r in results]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)
