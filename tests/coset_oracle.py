"""Independent oracles for the distance engine and the decoder.

The library computes every systole and code distance with the
parity-cover search in ``homology``, takes its class representatives
from the check graphs' spanning forests, and decodes by matching in
``decoder``.  These oracles answer the same questions with a different
algorithm -- a greedy pass over a GF(2) kernel basis, a Gray-code search
of a coset, a scan of supports by weight, or a heap Dijkstra for the
decoder's shortest paths -- so tests can cross-check them.  The coset
search and the support scan are exponential in the subspace dimension or
in the distance: keep their inputs small.
"""
from __future__ import annotations

import heapq
import itertools

from cellqec import gf2, homology
from cellqec.gf2 import Gf2Matrix, Gf2Vector


def greedy_representatives(fe: Gf2Matrix, ve: Gf2Matrix) -> list[Gf2Vector]:
    """The vectors of gf2.kernel_basis(ve), in order, that are independent
    of rowspace(fe) and of the vectors kept before them."""
    reps = []
    span = fe.row_vectors()
    for v in gf2.kernel_basis(ve):
        if not gf2.in_span(span, v):
            reps.append(v)
            span.append(v)
    return reps


def coset_min_essential(fe: Gf2Matrix, ve: Gf2Matrix) -> int:
    """Minimum weight over ker(ve) \\ rowspace(fe), one coset per class."""
    reps = greedy_representatives(fe, ve)
    if not reps:
        raise homology.TrivialHomologyError("surface has trivial first homology")
    boundary_basis = fe.row_vectors()
    weights = []
    for mask in range(1, 1 << len(reps)):
        offset = Gf2Vector.zero(fe.cols)
        for i, r in enumerate(reps):
            if (mask >> i) & 1:
                offset ^= r
        weights.append(gf2.min_weight_in_coset(boundary_basis, offset)[0])
    return min(weights)


def support_min_essential(fe: Gf2Matrix, ve: Gf2Matrix) -> int:
    """Minimum weight over ker(ve) \\ rowspace(fe), support by support.

    Tries every support in order of weight.  It costs about C(n, d)
    steps for distance d, so it suits a small d over a rowspace(fe) too
    large for ``coset_min_essential``.
    """
    boundary_basis = fe.row_vectors()
    for w in range(1, fe.cols + 1):
        for support in itertools.combinations(range(fe.cols), w):
            v = Gf2Vector.from_support(fe.cols, support)
            if (ve.mul_vector(v).is_zero()
                    and not gf2.in_span(boundary_basis, v)):
                return w
    raise homology.TrivialHomologyError("surface has trivial first homology")


def coset_min_weight_chain(checks: Gf2Matrix, syn: Gf2Vector) -> Gf2Vector | None:
    """The solution of checks . x = syn smallest by sort_key, or None.

    One particular solution plus a search of the coset of ker(checks).
    """
    particular = gf2.solve(checks, syn)
    if particular is None:
        return None
    return gf2.min_weight_in_coset(gf2.kernel_basis(checks), particular)[1]


def dijkstra_shortest_paths(graph: homology.CheckGraph) -> tuple[tuple, tuple]:
    """(dist, path) of ``decoder.MatchingGraph`` by a heap Dijkstra from
    every node of graph: column j weighs 2^n - 2^(n-1-j), dist[a][b] is
    the weight of the shortest path from a to b (None: no path) and
    path[a][b] the bit set of its columns."""
    n, n_nodes = len(graph.columns), graph.boundary + 1
    weight = [(1 << n) - (1 << (n - 1 - e)) for e in range(n)]
    dist, path = [], []
    for source in range(n_nodes):
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
    return tuple(dist), tuple(path)
