"""Independent oracles for the step from checks and patches to a code.

``homology.CheckGraph.of`` reads a check's set entries once, row by
row; ``transpose_check_graph`` builds the same graph column by column
from the transposed matrix.  ``stabilizer.build_punctured_disk_code``
reads its patch geometry from two sets; ``scanned_disk_checks`` decides
each lattice point and each unit square by a scan over the holes, and
numbers the edges with a (min, max) key per step, as
``keyed_vertex_faces`` does for any vertex cycles.
"""
from __future__ import annotations

from cellqec import homology, surface
from cellqec.gf2 import Gf2Matrix
from cellqec.stabilizer import PlanarPatch


def transpose_check_graph(check: Gf2Matrix) -> homology.CheckGraph:
    """The graph of check, read off the columns of its transpose."""
    boundary = check.rows
    columns = check.transpose().row_bits
    ends: list[tuple[int, int] | None] = []
    adj: list[list[tuple[int, int]]] = [[] for _ in range(boundary + 1)]
    for e, col in enumerate(columns):
        weight = col.bit_count()
        if weight > 2:
            raise homology.UnsupportedCheckStructure(
                f"column {e} touches {weight} generators")
        if weight == 0:
            ends.append(None)
            continue
        a = (col & -col).bit_length() - 1
        b = col.bit_length() - 1 if weight == 2 else boundary
        ends.append((a, b))
        adj[a].append((b, e))
        adj[b].append((a, e))
    return homology.CheckGraph(boundary, columns, tuple(ends),
                               tuple(map(tuple, adj)))


def _ring(x: int, y: int, w: int, h: int) -> list[tuple[int, int]]:
    return ([(x + a, y) for a in range(w)] + [(x + w, y + b) for b in range(h)]
            + [(x + w - a, y + h) for a in range(w)]
            + [(x, y + h - b) for b in range(h)])


def keyed_vertex_faces(vertex_count: int, faces) -> surface.Cellulation:
    """``surface.from_vertex_faces`` with a (min, max) key per step."""
    edge_ids: dict[tuple[int, int], int] = {}
    edges: list[tuple[int, int]] = []
    walks = []
    for cyc in faces:
        walk = []
        for i, u in enumerate(cyc):
            v = cyc[(i + 1) % len(cyc)]
            key = (min(u, v), max(u, v))
            if key not in edge_ids:
                edge_ids[key] = len(edges)
                edges.append(key)
            e = edge_ids[key]
            walk.append((e, 1 if edges[e][0] == u else -1))
        walks.append(tuple(walk))
    return surface.Cellulation(vertex_count, tuple(edges), tuple(walks))


def scanned_disk_checks(patch: PlanarPatch) -> tuple[Gf2Matrix, Gf2Matrix]:
    """(X checks, Z checks) of the punctured disk, every point and square
    tested against every hole."""
    holes = patch.holes
    vid: dict[tuple[int, int], int] = {}
    for i in range(patch.width + 1):
        for j in range(patch.height + 1):
            if not any(x < i < x + w and y < j < y + h
                       for x, y, w, h in holes):
                vid[(i, j)] = len(vid)
    squares = [(i, j, 1, 1) for i in range(patch.width)
               for j in range(patch.height)
               if not any(x <= i < x + w and y <= j < y + h
                          for x, y, w, h in holes)]
    cells = keyed_vertex_faces(
        len(vid), [[vid[p] for p in _ring(*r)] for r in squares + list(holes)])
    fe, ve = surface.incidence_matrices(cells)
    return Gf2Matrix(len(squares), fe.cols, fe.row_bits[:len(squares)]), ve
