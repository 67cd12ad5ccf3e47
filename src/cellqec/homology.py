"""Z2 homology of a cellulation: H1, essential cycles, systoles.

Every check matrix here has columns of weight <= 2 (true of every
cellulation incidence matrix and planar check matrix), so it is a
graph: ``CheckGraph.of`` builds it once per matrix, with the rows plus
one boundary node as nodes and each column as an edge, and raises
``UnsupportedCheckStructure`` otherwise.  The class representatives,
the distance search and the decoder all read that one graph.

Class representatives of ker(ve) / rowspace(fe) -- the logical classes
of every code and the functionals of every systole -- come from the two
check graphs, ``_class_representatives``: a spanning forest of ve's
graph, a forest of fe's graph over the columns the first one leaves
out, and the cycles that the remaining columns close in the first
forest.  No GF(2) elimination is involved.

Every minimum-weight-nontrivial-vector question in the library -- the
primal and dual systoles here, and the code distances in ``stabilizer``
-- is answered by one exact engine, ``_min_weight_logical``: a
breadth-first search in the two-fold parity cover of the check graph,
started only at one end of each column a class representative hits.
The exhaustive coset search ``gf2.min_weight_in_coset`` and the greedy
pass over ``gf2.kernel_basis`` are not used here; the tests keep them
as independent oracles.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Sequence

from . import gf2, surface
from .gf2 import Gf2Matrix, Gf2Vector
from .surface import Cellulation


class NonCycleError(ValueError):
    """Essentiality was asked of a chain that is not a cycle."""


class TrivialHomologyError(ValueError):
    """Systole requested on a surface with trivial H1."""


class UnsupportedCheckStructure(ValueError):
    """A check matrix column touches more than two generators."""


def h1_dim(c: Cellulation) -> int:
    """dim H1(c; Z2) = dim ker(boundary_1) - rank(boundary_2)."""
    fe, ve = surface.incidence_matrices(c)
    return fe.cols - gf2.rank(ve) - gf2.rank(fe)


def is_essential(c: Cellulation, chain: Gf2Vector) -> bool:
    """True iff the cycle is not a sum of face boundaries."""
    fe, ve = surface.incidence_matrices(c)
    if not ve.mul_vector(chain).is_zero():
        raise NonCycleError("chain has nonzero boundary")
    return not gf2.in_span(fe.row_vectors(), chain)


@dataclass(frozen=True)
class CheckGraph:
    """The graph of one check matrix; build it once per matrix by ``of``.

    Its nodes are the rows plus one boundary node, ``boundary`` (the row
    count), and each column is an edge: a column of weight 2 joins its
    two rows, a column of weight 1 joins its row to the boundary, and a
    column of weight 0 joins nothing.  Column e with ends (a, b) leads
    from either end u to a ^ b ^ u.
    """

    boundary: int
    columns: tuple[int, ...]  # the check bit set each column flips
    ends: tuple[tuple[int, int] | None, ...]  # None: a column of weight 0
    # per node, (other node, column) for each column at it, in column order
    adj: tuple[tuple[tuple[int, int], ...], ...]

    @classmethod
    def of(cls, check: Gf2Matrix) -> "CheckGraph":
        """The graph of check; UnsupportedCheckStructure unless every
        column has weight <= 2."""
        boundary = check.rows
        columns = check.transpose().row_bits
        ends: list[tuple[int, int] | None] = []
        adj: list[list[tuple[int, int]]] = [[] for _ in range(boundary + 1)]
        for e, col in enumerate(columns):
            weight = col.bit_count()
            if weight > 2:
                raise UnsupportedCheckStructure(
                    f"column {e} touches {weight} generators")
            if weight == 0:
                ends.append(None)
                continue
            a = (col & -col).bit_length() - 1
            b = col.bit_length() - 1 if weight == 2 else boundary
            ends.append((a, b))
            adj[a].append((b, e))
            adj[b].append((a, e))
        return cls(boundary, columns, tuple(ends), tuple(map(tuple, adj)))

    def syndrome(self, chain: int) -> int:
        """The bit set of the checks that the column bit set chain flips."""
        syn = 0
        while chain:
            low = chain & -chain
            syn ^= self.columns[low.bit_length() - 1]
            chain ^= low
        return syn


def _forest(graph: CheckGraph, columns: Sequence[int]) -> list[int]:
    """The columns, in the given order, that join two trees so far.

    A union-find over the nodes of graph.  A column of weight 0 never
    joins.
    """
    root = list(range(graph.boundary + 1))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    joined = []
    for e in columns:
        ab = graph.ends[e]
        if ab is None:
            continue
        a, b = find(ab[0]), find(ab[1])
        if a != b:
            root[a] = b
            joined.append(e)
    return joined


def _class_representatives(fe: CheckGraph, ve: CheckGraph) -> list[Gf2Vector]:
    """A basis of ker(ve) / rowspace(fe), from the two check graphs.

    The rows of fe must lie in ker(ve), as commuting checks' do.  Let F
    be the spanning forest of ve's graph that Kruskal's rule builds
    from the columns in ascending order, and N the columns F leaves out.
    Let F* be the forest of fe's graph built the same way from the
    columns of N only, in descending order.  For each column e of N not
    in F*, in ascending order, the representative is e plus the path in
    F between e's two ends (e alone for a column of weight 0).

    These are exactly the vectors that a greedy pass over
    ``gf2.kernel_basis(ve)`` keeps, each one kept iff it is independent
    of rowspace(fe) and of the vectors kept before it, in that order:

    - ``kernel_basis`` eliminates the columns of ve in ascending order,
      and a column is a pivot iff it joins two trees of the earlier
      pivots, so the pivots are F and the kernel basis is the list of
      F's fundamental cycles, one per column of N, in ascending order.
    - Restricting to the coordinates of N is injective on ker(ve) (F has
      no cycle) and sends the cycle of column j to the unit vector e_j.
      The greedy pass then keeps j iff no vector of rowspace(fe),
      restricted to N, has j as its highest column.  Those highest
      columns are the columns of fe|N independent of all the columns
      above them: the descending greedy basis of fe|N's column matroid,
      which is F*.
    """
    n = len(ve.columns)
    in_tree = set(_forest(ve, range(n)))
    cotree = [e for e in range(n) if e not in in_tree]
    in_fstar = set(_forest(fe, cotree[::-1]))
    # parent edges and depths of F, from one DFS per tree
    parent: list[tuple[int, int] | None] = [None] * (ve.boundary + 1)
    depth = [-1] * (ve.boundary + 1)
    for r in range(ve.boundary + 1):
        if depth[r] >= 0:
            continue
        depth[r] = 0
        stack = [r]
        while stack:
            a = stack.pop()
            for b, e in ve.adj[a]:
                if depth[b] < 0 and e in in_tree:
                    depth[b] = depth[a] + 1
                    parent[b] = (a, e)
                    stack.append(b)
    reps = []
    for e in cotree:
        if e in in_fstar:
            continue
        bits = 1 << e
        if ve.ends[e] is not None:
            a, b = ve.ends[e]
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                a, pe = parent[a]
                bits ^= 1 << pe
        reps.append(Gf2Vector(n, bits))
    return reps


def _min_weight_logical(graph: CheckGraph,
                        functionals: Sequence[Gf2Vector]) -> tuple[int, Gf2Vector]:
    """Minimum weight over ker(check) minus the vectors all functionals kill.

    graph is the check matrix's ``CheckGraph``, so the kernel is its
    cycle space (columns of weight 1 attach to the boundary node;
    columns of weight 0 are free single-edge cycles).  A vector is
    nontrivial iff it pairs oddly with some functional, so the minimum
    is taken over breadth-first searches in the two-fold parity cover,
    per functional f one from the lower end node of each column in f's
    support (each such node once, in ascending order).  This is exact: a
    lightest vector pairing oddly with f contains a connected cycle that
    does too and weighs no more.  That cycle crosses an odd number of
    f's columns, so it passes through the lower end of one of them, and
    the search from that node finds a closed walk of odd parity no
    longer than it.  A free column in f's support is a vector of weight
    1 by itself.  Among several lightest vectors, the one returned
    depends on the functionals' supports, not only on their classes.
    """
    n, n_nodes = len(graph.columns), graph.boundary + 1
    ends, adj = graph.ends, graph.adj
    if not functionals:
        raise ValueError("no functionals: code has k = 0")
    best: tuple[int, int] | None = None  # (weight, bits)
    for f in functionals:
        tau = [(f.bits >> e) & 1 for e in range(n)]
        starts = set()
        for e in range(n):
            if not tau[e]:
                continue
            if ends[e] is not None:
                starts.add(ends[e][0])
            elif best is None or (1, 1 << e) < best:
                best = (1, 1 << e)  # a free column pairing oddly
        for start in sorted(starts):
            # BFS over states 2 * node + parity, from (start, 0) until
            # (start, 1) is reached or no walk can beat the best so far
            via = [-1] * (2 * n_nodes)  # edge that first reached a state
            dist = [-1] * (2 * n_nodes)
            s0, target = 2 * start, 2 * start + 1
            dist[s0] = 0
            q = deque([s0])
            while q and dist[target] < 0:
                st = q.popleft()
                d = dist[st] + 1
                if best is not None and d >= best[0]:
                    break
                par = st & 1
                for other, e in adj[st >> 1]:
                    t2 = 2 * other + (par ^ tau[e])
                    if dist[t2] < 0:
                        dist[t2] = d
                        via[t2] = e
                        q.append(t2)
            if dist[target] < 0:
                continue
            bits = 0
            cur = target
            while cur != s0:
                e = via[cur]
                bits ^= 1 << e
                a, b = ends[e]
                cur = 2 * (a ^ b ^ (cur >> 1)) + ((cur & 1) ^ tau[e])
            cand = (bits.bit_count(), bits)
            if best is None or cand < best:
                best = cand
    if best is None:
        raise ValueError("no nontrivial vector found; functionals inconsistent")
    return best[0], Gf2Vector(n, best[1])


def _min_essential(fe: Gf2Matrix, ve: Gf2Matrix) -> tuple[int, Gf2Vector]:
    """Minimum-weight cycle of ker(ve) outside rowspace(fe).

    A cycle is essential iff it pairs oddly with some class of
    ker(fe) / rowspace(ve), so those classes are the functionals.
    """
    fe_graph, ve_graph = CheckGraph.of(fe), CheckGraph.of(ve)
    functionals = _class_representatives(ve_graph, fe_graph)
    if not functionals:
        raise TrivialHomologyError("surface has trivial first homology")
    return _min_weight_logical(ve_graph, functionals)


def systole(c: Cellulation) -> tuple[int, Gf2Vector]:
    """(length, witness): a shortest essential cycle, not a canonical one."""
    fe, ve = surface.incidence_matrices(c)
    return _min_essential(fe, ve)


def dual_systole(c: Cellulation) -> tuple[int, Gf2Vector]:
    """Shortest essential dual cycle: the roles of the incidences swap.

    As for ``systole``, the witness is a shortest one, not a canonical one.
    """
    fe, ve = surface.incidence_matrices(c)
    return _min_essential(ve, fe)
