"""Cellulations of closed surfaces.

A cellulation stores vertices, edges (loops and parallel edges allowed)
and faces as closed directed edge walks; a face may traverse one edge
twice.  Internally everything is converted to a flag system (three
fixed-point-free involutions s0, s1, s2 on 4|E| flags), which makes
validation, orientability, duality and canonical forms uniform even for
the degenerate cellulations the small-code catalog relies on.  Every
vertex, edge and face is one cycle alternating two of the involutions,
and one walk (``FlagMap._cells``) finds them all; one 2-colouring of the
flag graph gives the components and orientability.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Sequence

from .gf2 import Gf2Matrix


class CellulationError(ValueError):
    """The data does not describe a cellulation of a closed surface."""


@dataclass(frozen=True)
class Cellulation:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]
    faces: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise CellulationError(
                f"vertex count {self.vertex_count} is negative")
        for a, b in self.edges:
            if not (0 <= a < self.vertex_count and 0 <= b < self.vertex_count):
                raise CellulationError("edge endpoint out of range")
        for walk in self.faces:
            if not walk:
                raise CellulationError("empty face walk")
            for e, d in walk:
                if not 0 <= e < len(self.edges):
                    raise CellulationError("face walk references unknown edge")
                if d not in (1, -1):
                    raise CellulationError("direction flag must be +1 or -1")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def face_count(self) -> int:
        return len(self.faces)

    def euler_characteristic(self) -> int:
        return self.vertex_count - len(self.edges) + len(self.faces)

    # -- traversal helpers ------------------------------------------------
    def step_tail(self, e: int, d: int) -> int:
        a, b = self.edges[e]
        return a if d == 1 else b

    # -- serialization ----------------------------------------------------
    def to_json_dict(self) -> dict:
        return {
            "vertices": self.vertex_count,
            "edges": [list(e) for e in self.edges],
            "faces": [[[e, d] for e, d in walk] for walk in self.faces],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Cellulation":
        try:
            vertices = doc["vertices"]
            edges = tuple((a, b) for a, b in doc["edges"])
            faces = tuple(tuple((e, d) for e, d in walk)
                          for walk in doc["faces"])
        except KeyError as exc:
            raise CellulationError(f"missing key {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:  # ValueError: not a pair
            raise CellulationError(f"malformed cellulation: {exc}") from None
        for v in (vertices, *(v for ab in edges for v in ab),
                  *(v for walk in faces for ed in walk for v in ed)):
            if type(v) is not int:
                raise CellulationError(
                    f"malformed cellulation: {v!r} is not an integer")
        return cls(vertices, edges, faces)

    @classmethod
    def from_json(cls, text: str) -> "Cellulation":
        try:
            doc = json.loads(text)
        except RecursionError:
            raise CellulationError(
                "malformed cellulation: JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise CellulationError(f"malformed cellulation: {exc}") from None
        return cls.from_json_dict(doc)


@dataclass(frozen=True)
class SurfaceInfo:
    euler_characteristic: int
    orientable: bool
    connected: bool
    surface_name: str

    def to_json_dict(self) -> dict:
        return {
            "euler_characteristic": self.euler_characteristic,
            "orientable": self.orientable,
            "connected": self.connected,
            "surface_name": self.surface_name,
        }


def classify_surface(chi: int, orientable: bool, connected: bool = True) -> str:
    if not connected:
        return "disconnected"
    if orientable:
        if chi % 2:
            return "invalid"
        g = (2 - chi) // 2
        if g == 0:
            return "sphere"
        if g == 1:
            return "torus"
        return f"orientable genus {g}"
    k = 2 - chi
    if k == 1:
        return "projective plane"
    if k == 2:
        return "Klein bottle"
    return f"non-orientable genus {k}"


class FlagMap:
    """Flag system of a map: involutions s0 (edge), s1 (corner), s2 (side).

    Vertices are the alternating cycles of (s2, s1), edges those of
    (s0, s2) (4 flags each) and faces those of (s0, s1), all labelled by
    ``_cells``.  The surface is orientable iff the flag graph is
    bipartite, and duality is the swap of s0 and s2.  Every builder
    makes three fixed-point-free involutions by construction, so the
    lists are stored as given, neither copied nor checked, and are
    never mutated.
    """

    __slots__ = ("n", "s0", "s1", "s2")

    def __init__(self, s0: list[int], s1: list[int], s2: list[int]):
        self.n = len(s0)
        self.s0, self.s1, self.s2 = s0, s1, s2

    # -- cells ------------------------------------------------------------
    def _cells(self, a: list[int],
               b: list[int]) -> tuple[list[int], list[int], int]:
        """(cell, colour, count) of the cycles that alternate a and b.

        cell[f] numbers f's cycle in order of the cycle's minimum flag,
        and colour[f] alternates along the cycle from 0 at that flag.
        """
        cell = [-1] * self.n
        colour = [0] * self.n
        count = 0
        for f in range(self.n):
            if cell[f] >= 0:
                continue
            x = f
            while cell[x] < 0:
                y = a[x]
                cell[x] = cell[y] = count
                colour[y] = 1
                x = b[y]
            count += 1
        return cell, colour, count

    def components(self) -> tuple[int, bool]:
        """(component count, orientable), by one 2-colouring of the flag
        graph: the map is orientable iff every component is bipartite."""
        colour = [-1] * self.n
        count = 0
        orientable = True
        involutions = (self.s0, self.s1, self.s2)
        for start in range(self.n):
            if colour[start] >= 0:
                continue
            count += 1
            colour[start] = 0
            stack = [start]
            while stack:
                f = stack.pop()
                other = colour[f] ^ 1
                for s in involutions:
                    t = s[f]
                    if colour[t] < 0:
                        colour[t] = other
                        stack.append(t)
                    elif colour[t] != other:
                        orientable = False
        return count, orientable

    def euler_characteristic(self) -> int:
        s0, s1, s2 = self.s0, self.s1, self.s2
        return (self._cells(s2, s1)[2] - self._cells(s0, s2)[2]
                + self._cells(s0, s1)[2])

    def dual(self) -> "FlagMap":
        return FlagMap(self.s2, self.s1, self.s0)

    # -- canonical form ---------------------------------------------------
    def _start_flags(self) -> list[int]:
        """Flags of minimal key (vertex degree, face size, far-end degree).

        The vertex degree at f counts the flags of f's vertex cell, the
        face size the s0 s1 steps round f's face, and the far-end degree
        is the vertex degree at s0[f].  Face sizes are walked only from
        flags of minimal degree.
        """
        s0, s1 = self.s0, self.s1
        vert, _, nv = self._cells(self.s2, s1)
        flags_at = [0] * nv
        for v in vert:
            flags_at[v] += 1
        deg = [flags_at[v] for v in vert]
        low = min(flags_at)
        best = None
        starts: list[int] = []
        for f in range(self.n):
            if deg[f] != low:
                continue
            size = 1
            x = s0[s1[f]]
            while x != f:
                size += 1
                x = s0[s1[x]]
            key = (size, deg[s0[f]])
            if best is None or key < best:
                best = key
                starts = [f]
            elif key == best:
                starts.append(f)
        return starts

    def _bfs_code(self, start: int) -> list[int]:
        """Labels of the s0, s1, s2 images of each flag in BFS order."""
        s0, s1, s2 = self.s0, self.s1, self.s2
        label = [-1] * self.n
        label[start] = 0
        order = [start]
        push = order.append
        code: list[int] = []
        append = code.append
        fresh = 1
        for f in order:  # order grows while it is walked
            # unrolled over s0, s1, s2: canonical forms (the unreduced
            # census oracle, the survivor sort, the map moves) and the
            # rooted-map |Aut| count run this loop per start flag, and a
            # loop over the three took 10-17 % longer on them
            t = s0[f]
            lab = label[t]
            if lab < 0:
                label[t] = lab = fresh
                fresh += 1
                push(t)
            append(lab)
            t = s1[f]
            lab = label[t]
            if lab < 0:
                label[t] = lab = fresh
                fresh += 1
                push(t)
            append(lab)
            t = s2[f]
            lab = label[t]
            if lab < 0:
                label[t] = lab = fresh
                fresh += 1
                push(t)
            append(lab)
        return code

    def canonical_form(self) -> bytes:
        """Minimum BFS code over the start flags of minimal key.

        The BFS code from a start flag labels the flags in order of
        discovery and lists, flag by flag, the labels of its s0, s1 and
        s2 images; it rebuilds a connected map up to isomorphism.  Only
        flags minimising the key (vertex degree, face size, degree at
        the far end of the edge) serve as starts, the start rule of
        plantri and of McKay's canonical construction path.  The key is
        invariant under every flag isomorphism, reflections included,
        so an isomorphism maps the minimal-key flags of one map onto
        those of the other and the minimum stays a complete invariant:
        two connected maps are isomorphic iff their forms are equal.

        Labels take one byte each up to 256 flags and, above that, the
        fewest big-endian bytes that hold n - 1 (two up to 65,536 flags).
        The empty map, with no start flag, has the empty form b"".
        """
        if not self.n:
            return b""
        best = min(self._bfs_code(f) for f in self._start_flags())
        if self.n <= 256:
            return bytes(best)
        width = ((self.n - 1).bit_length() + 7) // 8
        return b"".join(lab.to_bytes(width, "big") for lab in best)

    # -- conversion to a cellulation --------------------------------------
    def to_cellulation(self, edge_labels: Sequence[int] | None = None) -> Cellulation:
        """Rebuild a Cellulation; cells are numbered by minimum flag.

        Edge e runs from the vertex of its minimum flag m to the vertex of
        s0[m], and a face walk, started at the face's minimum flag, steps
        along e forwards at m and s2[m].  edge_labels, if given, is the
        edge id of each flag, a bijection of the edges onto 0..E-1 (used
        to keep dual edge i identified with primal edge i).
        """
        s0, s1, s2 = self.s0, self.s1, self.s2
        vert, _, nv = self._cells(s2, s1)
        if edge_labels is None:
            edge, _, ne = self._cells(s0, s2)
        else:
            edge, ne = edge_labels, self.n // 4
        face, _, _ = self._cells(s0, s1)
        first = [0] * ne
        for f in range(self.n - 1, -1, -1):
            first[edge[f]] = f
        forward = [-1] * self.n
        for m in first:
            forward[m] = forward[s2[m]] = 1
        faces = []
        for f in range(self.n):
            if face[f] != len(faces):
                continue  # f is not the minimum flag of the next face
            walk = []
            x = f
            while True:
                walk.append((edge[x], forward[x]))
                x = s1[s0[x]]
                if x == f:
                    break
            faces.append(tuple(walk))
        return Cellulation(nv, tuple((vert[m], vert[s0[m]]) for m in first),
                           tuple(faces))


def build_flags(c: Cellulation) -> FlagMap:
    """Flag system of a cellulation; raises CellulationError on bad data."""
    return build_flags_labeled(c)[0]


def build_flags_labeled(c: Cellulation) -> tuple[FlagMap, list[int]]:
    """(flag system, per-flag edge id) of a cellulation.

    Traversals (face walk steps) are numbered face by face, and flags
    2t and 2t+1 are the tail and head corners of traversal t.
    """
    traversals = [step for walk in c.faces for step in walk]  # (edge, dir)
    per_edge: list[list[int]] = [[] for _ in c.edges]
    for t, (e, _) in enumerate(traversals):
        per_edge[e].append(t)
    for e, ts in enumerate(per_edge):
        if len(ts) != 2:
            raise CellulationError(
                f"edge {e} is traversed {len(ts)} times; closed surfaces need"
                " exactly 2")
    n = 2 * len(traversals)
    s0 = [f ^ 1 for f in range(n)]
    s1 = [0] * n
    s2 = [0] * n
    # a step (e, d) runs from edges[e][d < 0] to edges[e][d > 0]
    edges = c.edges
    tails = [edges[e][d < 0] for e, d in traversals]
    # s1: the head flag of a step pairs with the tail flag of the next
    base = 0
    for fi, walk in enumerate(c.faces):
        last = base + len(walk) - 1
        for t, (e, d) in enumerate(walk, base):
            nxt = t + 1 if t < last else base
            if edges[e][d > 0] != tails[nxt]:
                raise CellulationError(
                    f"face {fi} walk is not closed at step {t - base}")
            s1[2 * t + 1] = 2 * nxt
            s1[2 * nxt] = 2 * t + 1
        base = last + 1
    # s2: match the two traversals of an edge by physical edge end; the
    # flag of traversal t at the stored first endpoint is 2t if t runs
    # forwards, 2t + 1 if backwards, and the other end's is its partner
    for ta, tb in per_edge:
        fa = 2 * ta + (traversals[ta][1] < 0)
        fb = 2 * tb + (traversals[tb][1] < 0)
        s2[fa], s2[fb] = fb, fa
        s2[fa ^ 1], s2[fb ^ 1] = fb ^ 1, fa ^ 1
    flags = FlagMap(s0, s1, s2)
    # s1 and s2 join flags at one declared vertex (the walks are closed,
    # s2 pairs like edge ends), so each vertex cell has one owner, the
    # tail of any traversal in it; a vertex owning two cells is pinched
    vert, _, nv = flags._cells(s2, s1)
    owner = [0] * nv
    for t, v in enumerate(tails):
        owner[vert[2 * t]] = v
    used = set()
    for v in owner:
        if v in used:
            raise CellulationError(
                f"vertex {v} has a disconnected star (pinched complex)")
        used.add(v)
    for v in range(c.vertex_count):
        if v not in used:
            raise CellulationError(f"vertex {v} lies on no edge")
    return flags, [traversals[f >> 1][0] for f in range(n)]


def validate(c: Cellulation) -> SurfaceInfo:
    """Check all cellulation invariants and classify the surface."""
    components, orientable = build_flags(c).components()
    chi = c.euler_characteristic()
    connected = components == 1
    return SurfaceInfo(chi, orientable, connected,
                       classify_surface(chi, orientable, connected))


def incidence_matrices(c: Cellulation) -> tuple[Gf2Matrix, Gf2Matrix]:
    """(face_edge, vertex_edge) incidence mod 2.

    face_edge[f][e] counts walk traversals mod 2 (so a doubly traversed
    edge contributes 0); vertex_edge[v][e] counts endpoints mod 2 (so a
    loop contributes 0).  These realize the boundary maps over Z2.
    """
    ne = len(c.edges)
    fe_rows = []
    for walk in c.faces:
        bits = 0
        for e, _ in walk:
            bits ^= 1 << e
        fe_rows.append(bits)
    ve_rows = [0] * c.vertex_count
    for e, (a, b) in enumerate(c.edges):
        ve_rows[a] ^= 1 << e
        ve_rows[b] ^= 1 << e
    return (Gf2Matrix(len(c.faces), ne, tuple(fe_rows)),
            Gf2Matrix(c.vertex_count, ne, tuple(ve_rows)))


def dual(c: Cellulation) -> Cellulation:
    """Dual cellulation; edge i of the dual is dual to edge i of c."""
    flags, flag_edge = build_flags_labeled(c)
    return flags.dual().to_cellulation(edge_labels=flag_edge)


def canonical_form(c: Cellulation) -> bytes:
    """The flag map's canonical form (b"" for the empty map).

    A BFS code covers only its start flag's component, so
    CellulationError is raised unless c is connected.
    """
    flags = build_flags(c)
    count = flags.components()[0]
    if count > 1:
        raise CellulationError(f"the map has {count} components; a"
                               " canonical form needs a connected map")
    return flags.canonical_form()


def isomorphic(a: Cellulation, b: Cellulation) -> bool:
    return canonical_form(a) == canonical_form(b)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def from_vertex_faces(vertex_count: int,
                      faces: Sequence[Sequence[int]]) -> Cellulation:
    """Cellulation from faces given as vertex cycles (simple edges only).

    An edge is stored with its smaller end first; step[(u, v)] is the
    face walk step from u to v, so a step along a known edge costs one
    dict lookup.
    """
    step: dict[tuple[int, int], tuple[int, int]] = {}
    edges: list[tuple[int, int]] = []
    walks = []
    for cyc in faces:
        walk = []
        for u, v in zip(cyc, [*cyc[1:], *cyc[:1]]):
            st = step.get((u, v))
            if st is None:  # a new edge; a loop runs forwards
                e = len(edges)
                a, b = (u, v) if u <= v else (v, u)
                edges.append((a, b))
                step[b, a] = (e, -1)
                step[a, b] = (e, 1)
                st = step[u, v]
            walk.append(st)
        walks.append(tuple(walk))
    return Cellulation(vertex_count, tuple(edges), tuple(walks))


def rp2_minimal() -> Cellulation:
    return Cellulation(1, ((0, 0),), (((0, 1), (0, 1)),))


# The unique 6-vertex triangulation of the projective plane (antipodal
# quotient of the icosahedron): every pair of vertices is an edge.
_HEMI_ICOSAHEDRON_FACES = [
    (0, 1, 3), (0, 1, 4), (0, 2, 4), (0, 2, 5), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5),
]


def hemi_icosahedron() -> Cellulation:
    return from_vertex_faces(6, _HEMI_ICOSAHEDRON_FACES)


def cube_sphere() -> Cellulation:
    faces = [
        (0, 1, 2, 3), (4, 7, 6, 5),
        (0, 4, 5, 1), (1, 5, 6, 2),
        (2, 6, 7, 3), (3, 7, 4, 0),
    ]
    return from_vertex_faces(8, faces)


def fig4_shor() -> Cellulation:
    edges = ((0, 1), (0, 1), (0, 1),
             (1, 2), (1, 2), (1, 2),
             (2, 0), (2, 0), (2, 0))
    bigons = [((0, 1), (1, -1)), ((1, 1), (2, -1)),
              ((3, 1), (4, -1)), ((4, 1), (5, -1)),
              ((6, 1), (7, -1)), ((7, 1), (8, -1))]
    hexagon = ((0, 1), (3, 1), (6, 1), (2, 1), (5, 1), (8, 1))
    return Cellulation(3, edges, tuple(bigons) + (hexagon,))


def toric(m: int, n: int) -> Cellulation:
    """Square-lattice cellulation of the torus with m x n squares."""
    if m < 1 or n < 1:
        raise ValueError("toric lattice needs m, n >= 1")
    nv = m * n

    def vid(i, j):
        return (i % m) * n + (j % n)

    edges = []
    for i in range(m):
        for j in range(n):
            edges.append((vid(i, j), vid(i + 1, j)))   # horizontal
    for i in range(m):
        for j in range(n):
            edges.append((vid(i, j), vid(i, j + 1)))   # vertical

    def v(i, j):
        return m * n + vid(i, j)

    faces = []
    for i in range(m):
        for j in range(n):
            faces.append(((vid(i, j), 1), (v(i + 1, j), 1),
                          (vid(i, j + 1), -1), (v(i, j), -1)))
    return Cellulation(nv, tuple(edges), tuple(faces))


# Nine-edge cellulations recovered by the census in cellqec.search
# (see search.reconstruct_figures); frozen here as their search
# certificates, whose "cellulation" entries are the catalog entries, so
# the catalog does not depend on re-running the search.  The
# fig3 pool (e=9, v=4, three bigons, both systoles >= 3) held two
# classes, both with three rank-2 pairs; the canonically smallest is
# pinned, hence the ambiguity flag in its certificate.  Given that pin,
# the fig2 pool filter (two rank-2 pairs plus a vertex identification
# landing in fig3's class) left exactly one class.
FIG2_CERTIFICATE: dict = {
    "cellulation": {
        "vertices": 5,
        "edges": [[0, 1], [0, 1], [0, 2], [0, 3], [1, 2], [1, 3],
                  [2, 3], [2, 4], [3, 4]],
        "faces": [[[0, 1], [4, 1], [6, 1], [3, -1]],
                  [[0, 1], [1, -1]],
                  [[1, 1], [5, 1], [6, -1], [2, -1]],
                  [[2, 1], [7, 1], [8, -1], [3, -1]],
                  [[4, 1], [7, 1], [8, -1], [5, -1]]],
    },
    "surface": "projective plane",
    "vertices": 5,
    "edges": 9,
    "faces": 5,
    "primal_systole": 3,
    "dual_systole": 3,
    "bigon_faces": 1,
    "valence2_vertices": 1,
    "rank2_pairs": 2,
    "pool_size": 3,
    "survivor_count": 1,
    "ambiguous": False,
}
FIG3_CERTIFICATE: dict = {
    "cellulation": {
        "vertices": 4,
        "edges": [[0, 1], [1, 2], [2, 3], [3, 0], [0, 2], [2, 3],
                  [3, 1], [1, 3], [3, 0]],
        "faces": [[[0, 1], [1, 1], [2, 1], [3, 1]],
                  [[0, -1], [4, 1], [5, 1], [6, 1]],
                  [[1, -1], [7, 1], [8, 1], [4, 1]],
                  [[2, -1], [5, 1]],
                  [[3, -1], [8, 1]],
                  [[6, -1], [7, -1]]],
    },
    "surface": "projective plane",
    "vertices": 4,
    "edges": 9,
    "faces": 6,
    "primal_systole": 3,
    "dual_systole": 3,
    "bigon_faces": 3,
    "valence2_vertices": 0,
    "rank2_pairs": 3,
    "pool_size": 2,
    "survivor_count": 2,
    "ambiguous": True,
}

_TORIC_RE = re.compile(r"^toric\((\d+),(\d+)\)$")

# Name -> builder, in catalog order; catalog() also parses any toric(m,n).
_CATALOG = {
    "rp2_minimal": rp2_minimal,
    "fig1_hemi_icosahedron": hemi_icosahedron,
    "fig2_nine_edge": lambda: Cellulation.from_json_dict(
        FIG2_CERTIFICATE["cellulation"]),
    "fig3_nine_edge": lambda: Cellulation.from_json_dict(
        FIG3_CERTIFICATE["cellulation"]),
    "fig4_shor": fig4_shor,
    "cube_sphere": cube_sphere,
    "toric(3,3)": lambda: toric(3, 3),
}


def catalog(name: str) -> Cellulation:
    """Named cellulations used throughout the package and its tests."""
    if name in _CATALOG:
        return _CATALOG[name]()
    m = _TORIC_RE.match(name.replace(" ", ""))
    if m:
        return toric(int(m.group(1)), int(m.group(2)))
    raise KeyError(f"unknown catalog name: {name}")


def closed_catalog_names() -> list[str]:
    """Concrete closed-surface catalog entries (toric pinned at 3,3)."""
    return list(_CATALOG)
