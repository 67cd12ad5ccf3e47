"""Z2 homology of a cellulation: H1, essential cycles, systoles.

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
``_check_graph`` builds that graph, for this search and for the decoder:
its nodes are the rows of a check matrix plus one boundary node, and
each column is an edge.  It requires every check column to have weight
<= 2 (true of every cellulation incidence matrix and planar check
matrix) and raises ``UnsupportedCheckStructure`` otherwise.  The
exhaustive coset search ``gf2.min_weight_in_coset`` and the greedy pass
over ``gf2.kernel_basis`` are not used here; the tests keep them as
independent oracles.
"""
from __future__ import annotations

from collections import deque
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


def _forest(ends: Sequence[tuple[int, int] | None], n_nodes: int,
            columns: Sequence[int]) -> list[int]:
    """The columns, in the given order, that join two trees so far.

    A union-find over the n_nodes nodes of a check graph; ends is what
    ``_check_graph`` gives.  A column of weight 0 never joins.
    """
    root = list(range(n_nodes))

    def find(a: int) -> int:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        return a

    joined = []
    for e in columns:
        ab = ends[e]
        if ab is None:
            continue
        a, b = find(ab[0]), find(ab[1])
        if a != b:
            root[a] = b
            joined.append(e)
    return joined


def _class_representatives(fe: Gf2Matrix,
                            fe_ends: Sequence[tuple[int, int] | None],
                            ve: Gf2Matrix,
                            ve_ends: Sequence[tuple[int, int] | None]
                            ) -> list[Gf2Vector]:
    """A basis of ker(ve) / rowspace(fe), from the two check graphs.

    The rows of fe must lie in ker(ve), as commuting checks' do, and both
    checks must have column weights <= 2; fe_ends and ve_ends are their
    ``_check_graph``, which the caller builds once per matrix.  Let F be
    the spanning forest of ve's check graph that Kruskal's rule builds
    from the columns in ascending order, and N the columns F leaves out.
    Let F* be the forest of fe's check graph built the same way from the
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
    n = ve.cols
    tree = _forest(ve_ends, ve.rows + 1, range(n))
    in_tree = set(tree)
    cotree = [e for e in range(n) if e not in in_tree]
    in_fstar = set(_forest(fe_ends, fe.rows + 1, cotree[::-1]))
    kept = [e for e in cotree if e not in in_fstar]
    # parent edges and depths of F, from one DFS per tree
    adj: list[list[tuple[int, int]]] = [[] for _ in range(ve.rows + 1)]
    for e in tree:
        a, b = ve_ends[e]
        adj[a].append((b, e))
        adj[b].append((a, e))
    parent: list[tuple[int, int] | None] = [None] * (ve.rows + 1)
    depth = [-1] * (ve.rows + 1)
    for r in range(ve.rows + 1):
        if depth[r] >= 0:
            continue
        depth[r] = 0
        stack = [r]
        while stack:
            a = stack.pop()
            for b, e in adj[a]:
                if depth[b] < 0:
                    depth[b] = depth[a] + 1
                    parent[b] = (a, e)
                    stack.append(b)
    reps = []
    for e in kept:
        bits = 1 << e
        if ve_ends[e] is not None:
            a, b = ve_ends[e]
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                a, pe = parent[a]
                bits ^= 1 << pe
        reps.append(Gf2Vector(n, bits))
    return reps


def _check_graph(check: Gf2Matrix) -> list[tuple[int, int] | None]:
    """Per column of check, the two nodes it joins in the check graph.

    The nodes are the rows of check plus one boundary node, check.rows.
    A column of weight 2 joins its two rows, a column of weight 1 joins
    its row to the boundary, and a column of weight 0 gives None.
    """
    ends: list[tuple[int, int] | None] = []
    for e, col in enumerate(check.transpose().row_bits):
        weight = col.bit_count()
        if weight > 2:
            raise UnsupportedCheckStructure(
                f"column {e} touches {weight} generators")
        if weight == 0:
            ends.append(None)
        else:
            b = col.bit_length() - 1 if weight == 2 else check.rows
            ends.append(((col & -col).bit_length() - 1, b))
    return ends


def _min_weight_logical(check: Gf2Matrix,
                        ends: Sequence[tuple[int, int] | None],
                        functionals: Sequence[Gf2Vector]) -> tuple[int, Gf2Vector]:
    """Minimum weight over ker(check) minus the vectors all functionals kill.

    check must have column weights <= 2, and ends is its ``_check_graph``,
    so its kernel is the cycle space of that graph (columns of weight 1
    attach to a single virtual boundary node; columns of weight 0 are
    free single-edge cycles).  A vector is nontrivial iff it pairs oddly
    with some functional, so the minimum is taken over breadth-first
    searches in the two-fold parity cover, per functional f one from the
    lower end node of each column in f's support (each such node once,
    in ascending order).  This is exact: a
    lightest vector pairing oddly with f contains a connected cycle that
    does too and weighs no more.  That cycle crosses an odd number of
    f's columns, so it passes through the lower end of one of them, and
    the search from that node finds a closed walk of odd parity no
    longer than it.  A free column in f's support is a vector of weight
    1 by itself.  Among several lightest vectors, the one returned
    depends on the functionals' supports, not only on their classes.
    """
    n = check.cols
    if not functionals:
        raise ValueError("no functionals: code has k = 0")
    n_nodes = check.rows + 1
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n_nodes)]
    end_xor: list[int] = [0] * n  # XOR of an edge's two end nodes
    lower: list[int] = [-1] * n  # an edge's first end node, -1 if free
    for e, ab in enumerate(ends):
        if ab is None:
            continue
        a, b = ab
        adj[a].append((b, e))
        adj[b].append((a, e))
        end_xor[e] = a ^ b
        lower[e] = a
    best: tuple[int, int] | None = None  # (weight, bits)
    for f in functionals:
        tau = [(f.bits >> e) & 1 for e in range(n)]
        starts = set()
        for e in range(n):
            if not tau[e]:
                continue
            if lower[e] >= 0:
                starts.add(lower[e])
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
                cur = 2 * (end_xor[e] ^ (cur >> 1)) + ((cur & 1) ^ tau[e])
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
    fe_ends, ve_ends = _check_graph(fe), _check_graph(ve)
    functionals = _class_representatives(ve, ve_ends, fe, fe_ends)
    if not functionals:
        raise TrivialHomologyError("surface has trivial first homology")
    return _min_weight_logical(ve, ve_ends, functionals)


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
