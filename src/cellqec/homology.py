"""Z2 homology of a cellulation: H1, essential cycles, systoles.

Every check matrix here has columns of weight <= 2 (true of every
cellulation incidence matrix and planar check matrix), so it is a
graph: ``CheckGraph.of`` builds it once per matrix, with the rows plus
one boundary node as nodes and each column as an edge, and raises
``UnsupportedCheckStructure`` otherwise.  It reads the check's set
entries once, row by row, and builds no transposed matrix.  The
tree-cotree split, the distance search and the decoder all read that
one graph.

Logical classes of a pair of commuting checks (x, z) -- both sides of
every code, and the functionals of every systole -- come from one
tree-cotree split of their two graphs, ``_tree_cotree``: a spanning
forest F of x's graph, a forest F* of z's graph over the columns F
leaves out, and, for each column in neither, the cycle it closes in F
(a basis of ker(x) / rowspace(z)) and the one it closes in F* (a basis
of ker(z) / rowspace(x)).  The two bases pair as the identity by
construction, and no GF(2) elimination is involved.

Every minimum-weight-nontrivial-vector question in the library -- the
primal and dual systoles here, and the code distances in ``stabilizer``
-- is answered by one exact engine, ``_min_weight_logical``: a
breadth-first search in the two-fold parity cover of the check graph,
started only at one end of each column a class representative hits,
that meets in the middle: after level k it stops once it has met an
odd closed walk of length <= 2k + 1.  The coset search
``gf2.min_weight_in_coset`` and the greedy pass over
``gf2.kernel_basis`` are independent oracles kept by the tests.
"""
from __future__ import annotations

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
        column has weight <= 2.

        One pass over the set entries, row by row, each row from its
        highest column down: a column's first entry is its lower end a,
        whose adjacency entry points at the boundary until a second
        entry, the upper end b, repoints it at b.
        """
        boundary, n = check.rows, check.cols
        columns = [0] * n
        ends: list[tuple[int, int] | None] = [None] * n
        lower: list = [None] * n  # (adjacency list, index) at the lower end
        adj: list[list] = []
        over = []  # columns met a third time
        for a, r in enumerate(check.row_bits):
            bit = 1 << a
            i = r.bit_count()
            at = [None] * i
            while r:
                e = r.bit_length() - 1
                r ^= 1 << e
                i -= 1
                columns[e] |= bit
                ab = ends[e]
                if ab is None:
                    ends[e] = (a, boundary)
                    at[i] = (boundary, e)
                    lower[e] = (at, i)
                elif ab[1] == boundary:
                    ends[e] = (ab[0], a)
                    at[i] = (ab[0], e)
                    row, j = lower[e]
                    row[j] = (a, e)
                else:
                    over.append(e)
            adj.append(at)
        if over:
            e = min(over)
            raise UnsupportedCheckStructure(
                f"column {e} touches {columns[e].bit_count()} generators")
        adj.append([(ab[0], e) for e, ab in enumerate(ends)
                    if ab and ab[1] == boundary])
        return cls(boundary, tuple(columns), tuple(ends),
                   tuple(map(tuple, adj)))


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


def _tree_paths(graph: CheckGraph, tree: set[int],
                columns: Sequence[int]) -> list[Gf2Vector]:
    """Each column e plus the path in the forest tree between e's ends.

    A column of weight 0 stands alone.  The ends of every column must
    lie in one tree of the forest.
    """
    # parent edges and depths of the forest, from one DFS per tree
    parent: list[tuple[int, int] | None] = [None] * (graph.boundary + 1)
    depth = [-1] * (graph.boundary + 1)
    for r in range(graph.boundary + 1):
        if depth[r] >= 0:
            continue
        depth[r] = 0
        stack = [r]
        while stack:
            a = stack.pop()
            for b, e in graph.adj[a]:
                if depth[b] < 0 and e in tree:
                    depth[b] = depth[a] + 1
                    parent[b] = (a, e)
                    stack.append(b)
    cycles = []
    for e in columns:
        bits = 1 << e
        if graph.ends[e] is not None:
            a, b = graph.ends[e]
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                a, pe = parent[a]
                bits ^= 1 << pe
        cycles.append(Gf2Vector(len(graph.columns), bits))
    return cycles


def _tree_cotree(x: CheckGraph, z: CheckGraph
                 ) -> tuple[list[Gf2Vector], list[Gf2Vector]]:
    """Paired bases of ker(x) / rowspace(z) and ker(z) / rowspace(x).

    The checks must commute: rowspace(z) lies in ker(x).  F is the
    spanning forest of x's graph that Kruskal's rule builds from the
    columns in ascending order, N the columns outside F, F* the forest
    of z's graph built the same way from N in descending order, and L
    the columns of N outside F*, in ascending order.  For each e of L
    the first basis holds e plus the path in F between e's ends, and
    the second e plus the path in F* between them.  F, F* and L are
    disjoint, so the two bases pair as the identity (a tree-cotree
    decomposition: Eppstein, "Dynamic generators of topologically
    embedded graphs", SODA 2003).

    The first basis is what a greedy pass over ``gf2.kernel_basis(x)``
    keeps, each vector kept iff it is independent of rowspace(z) and of
    those kept before it.  Eliminating x's columns in ascending order
    makes a column a pivot iff it joins two trees of the earlier ones,
    so the kernel basis is F's fundamental cycles, one per column of N
    in ascending order.  Restricted to N (injective on ker(x), as F has
    no cycle) the cycle of column j is the unit vector e_j, so j is kept
    iff no vector of rowspace(z) restricted to N has j as its highest
    column, that is iff j is outside the descending greedy basis of
    z|N's column matroid, which is F*.

    Kruskal's rule left each column of L out of F* because its ends
    were joined already, so the second basis lies in ker(z); pairing as
    the identity with the first, which lies in ker(x), it is independent
    modulo rowspace(x).  Commuting checks give both quotients the
    dimension n - rank(x) - rank(z), so it is a basis.
    """
    n = len(x.columns)
    tree = set(_forest(x, range(n)))
    cotree = [e for e in range(n) if e not in tree]
    dual_tree = set(_forest(z, cotree[::-1]))
    loops = [e for e in cotree if e not in dual_tree]
    return _tree_paths(x, tree, loops), _tree_paths(z, dual_tree, loops)


def _min_weight_logical(graph: CheckGraph,
                        functionals: Sequence[Gf2Vector]) -> tuple[int, Gf2Vector]:
    """Minimum weight over ker(check) minus the vectors all functionals kill.

    graph is the check matrix's ``CheckGraph``, so the kernel is its
    cycle space (columns of weight 1 attach to the boundary node; a
    column of weight 0 is a cycle by itself, of weight 1).  A vector is
    nontrivial iff it pairs oddly with some functional f; a lightest one
    contains a connected cycle that does too and weighs no more, an odd
    closed walk in the two-fold parity cover from (s, 0), s the lower
    end node of a column of f it crosses.  So per f one breadth-first
    search runs from each such s, once each, in ascending order.

    The midpoint (u, p) of an odd closed walk of length L is at level
    <= floor(L/2), and its twin (u, p ^ 1) at level <= ceil(L/2) by the
    walk's other half, parities flipped.  So a state labelled while its
    twin is gives a candidate of length dist(u, 0) + dist(u, 1), and a
    walk not met after level k is at least 2k + 1 long: the search stops
    once its best candidate, or the best weight so far, is at most that.
    The witness, the XOR of the two half-walks to u, is a nontrivial
    kernel vector weighing at most the candidate (less where they share
    columns), so the lightest witness weighs exactly the minimum; among
    several, which is returned depends on the functionals' supports.
    """
    n, n_nodes = len(graph.columns), graph.boundary + 1
    ends, adj = graph.ends, graph.adj
    if not functionals:
        raise ValueError("no functionals: code has k = 0")
    best = (n + 1, 0)  # (weight, bits); weight n + 1 until one is found
    for f in functionals:
        tau = [(f.bits >> e) & 1 for e in range(n)]
        support = [e for e in range(n) if tau[e]]
        best = min([best] + [(1, 1 << e) for e in support if not ends[e]])
        for start in sorted({ends[e][0] for e in support if ends[e]}):
            # BFS over states 2 * node + parity from (start, 0); reach is
            # the shortest candidate met (or the best weight), at meet
            s0 = 2 * start
            via = [None] * (2 * n_nodes)  # (state, column) that reached it
            dist = [-1] * (2 * n_nodes)
            dist[s0] = 0
            frontier, level, reach, meet = [s0], 0, best[0], -1
            while frontier and reach > 2 * level + 1:
                level += 1
                labelled = []
                for st in frontier:
                    par = st & 1
                    for other, e in adj[st >> 1]:
                        t = 2 * other + (par ^ tau[e])
                        if dist[t] < 0:
                            dist[t] = level
                            via[t] = (st, e)
                            labelled.append(t)
                            twin = dist[t ^ 1]
                            if twin >= 0 and level + twin < reach:
                                reach, meet = level + twin, t
                frontier = labelled
            if meet < 0:
                continue
            bits = 0
            for cur in (meet, meet ^ 1):  # the two half-walks back to s0
                while cur != s0:
                    cur, e = via[cur]
                    bits ^= 1 << e
            best = min(best, (bits.bit_count(), bits))
    if best[0] > n:
        raise ValueError("no nontrivial vector found; functionals inconsistent")
    return best[0], Gf2Vector(n, best[1])


def _min_essential(fe: Gf2Matrix, ve: Gf2Matrix) -> tuple[int, Gf2Vector]:
    """Minimum-weight cycle of ker(ve) outside rowspace(fe).

    A cycle is essential iff it pairs oddly with some class of
    ker(fe) / rowspace(ve), so those classes are the functionals.
    """
    ve_graph = CheckGraph.of(ve)
    functionals, _ = _tree_cotree(CheckGraph.of(fe), ve_graph)
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
