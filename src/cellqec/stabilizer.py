"""CSS stabilizer codes of cellulations and planar punctured-disk codes.

Convention (fixed throughout): face operators are X-type, vertex
operators are Z-type.  d_z (bit-flip distance) is the primal systole,
d_x (phase distance) the dual systole.  logical_x vectors live in
ker(vertex_edge) \\ rowspace(face_edge); logical_z dually.

A ``CssCode`` is its two check matrices; everything else is derived
from them on first read and cached.  n is their column count (X and Z
checks of different lengths are rejected when the code is built).  The
first read of k or a logical operator builds each side's
``homology.CheckGraph`` (every check column must have weight <= 2, even
when k = 0) and runs one tree-cotree split, ``homology._tree_cotree``,
which gives logical_z and logical_x already paired as the identity; the
checks must commute for this, which is why ``build_code`` validates its
cellulation first, by building its flag system (``surface.build_flags``)
without classifying the surface.  k is their number, and each distance
is one parity-cover search, ``homology._min_weight_logical``, run on the
first read of d_x or d_z.  The logical operators are valid, not necessarily
of minimum weight, and deriving them does no GF(2) elimination.

Every code's checks are read from a cellulation's incidences by
``surface.incidence_matrices``.  A closed surface gives all its face and
vertex rows; a planar patch is cellulated by its unit squares and one
face per hole (``surface.from_vertex_faces``), and the hole rows are
dropped.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import xor

from . import gf2, homology, surface
from .gf2 import Gf2Matrix, Gf2Vector
# UnsupportedCheckStructure is re-exported: reading a code's k raises it;
# _min_weight_logical is called by this name, which perfbench traces
from .homology import UnsupportedCheckStructure, _min_weight_logical  # noqa: F401
from .surface import Cellulation


@dataclass(frozen=True)
class CssCode:
    """A CSS code given by its X and Z checks; n is their column count.

    k, the logical operators and both distances are derived from the
    checks on first read (see the module docstring).
    """

    x_stabilizers: Gf2Matrix
    z_stabilizers: Gf2Matrix

    def __post_init__(self):
        if self.x_stabilizers.cols != self.z_stabilizers.cols:
            raise gf2.LengthMismatch(
                f"X checks have {self.x_stabilizers.cols} columns,"
                f" Z checks {self.z_stabilizers.cols}")

    @property
    def n(self) -> int:
        return self.x_stabilizers.cols

    @cached_property
    def _split(self) -> tuple:
        """(x graph, z graph, logical_x, logical_z) of one split."""
        x_graph = homology.CheckGraph.of(self.x_stabilizers)
        z_graph = homology.CheckGraph.of(self.z_stabilizers)
        # Z logicals commute with the X checks: ker(x_stab) / rowspace(z_stab)
        logical_z, logical_x = homology._tree_cotree(x_graph, z_graph)
        return x_graph, z_graph, tuple(logical_x), tuple(logical_z)

    @property
    def logical_x(self) -> tuple[Gf2Vector, ...]:
        return self._split[2]

    @property
    def logical_z(self) -> tuple[Gf2Vector, ...]:
        return self._split[3]

    @property
    def k(self) -> int:
        return len(self.logical_z)

    @cached_property
    def d_x(self) -> int | None:
        """The dual systole; None when k = 0."""
        x_graph, _, lx, _ = self._split
        return _min_weight_logical(x_graph, lx)[0] if lx else None

    @cached_property
    def d_z(self) -> int | None:
        """The primal systole; None when k = 0."""
        _, z_graph, _, lz = self._split
        return _min_weight_logical(z_graph, lz)[0] if lz else None

    def parameters(self) -> tuple:
        return (self.n, self.k, self.d_x, self.d_z)

    def pauli_strings(self) -> list[str]:
        """Each X check as I/X letters, then each Z check as I/Z."""
        return ["".join(letters[(r >> q) & 1] for q in range(self.n))
                for letters, m in (("IX", self.x_stabilizers),
                                   ("IZ", self.z_stabilizers))
                for r in m.row_bits]

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "d_x": self.d_x,
            "d_z": self.d_z,
            "x_stabilizers": self.x_stabilizers.to_lists(),
            "z_stabilizers": self.z_stabilizers.to_lists(),
            "logical_x": [v.to_list() for v in self.logical_x],
            "logical_z": [v.to_list() for v in self.logical_z],
        }


def build_code(c: Cellulation) -> CssCode:
    """The CSS code of a cellulation: X on faces, Z on vertices.

    Raises CellulationError unless c is a valid cellulation.  Building
    its flag system runs every check of ``surface.validate`` that can
    raise; the surface is not classified, as the code never reads it.
    """
    surface.build_flags(c)
    return CssCode(*surface.incidence_matrices(c))


def check_relations(code: CssCode) -> bool:
    """XOR of all face rows and of all vertex rows must both vanish."""
    return not any(reduce(xor, m.row_bits, 0)
                   for m in (code.x_stabilizers, code.z_stabilizers))


def commutes(code: CssCode) -> bool:
    """Every X generator commutes with every Z generator."""
    z_rows_of = code.z_stabilizers.transpose().row_bits
    # bit i of each XOR: the parity of an X row's overlap with Z row i
    return not any(gf2.xor_rows(z_rows_of, xr)
                   for xr in code.x_stabilizers.row_bits)


def hadamard_dual_equivalent(c: Cellulation) -> bool:
    """Code of the dual cellulation = Hadamard-rotated original code.

    Checked as row-space equality after the edge <-> dual edge
    identification (dual edge i corresponds to primal edge i).
    """
    code = build_code(c)
    dcode = build_code(surface.dual(c))
    return (gf2.rowspace_equal(code.x_stabilizers, dcode.z_stabilizers)
            and gf2.rowspace_equal(code.z_stabilizers, dcode.x_stabilizers))


# ---------------------------------------------------------------------------
# generic CSS distance via the incidence graph of the check matrices
# ---------------------------------------------------------------------------

def css_distance(code: CssCode) -> tuple[int, int]:
    """(d_x, d_z) computed from the check matrices alone.

    d_z = min weight in ker(z_stabilizers) \\ rowspace(x_stabilizers);
    d_x with the roles swapped.  These are the code's own d_x and d_z,
    found by the parity-cover graph search, so it scales to the large
    planar instances.  Raises ValueError when k < 1 or when the X and Z
    checks do not commute, since k, both distances and the pairing all
    assume they do.
    """
    if code.k < 1:
        raise ValueError("distance undefined for k = 0")
    if not commutes(code):
        raise ValueError("X and Z checks do not commute")
    return code.d_x, code.d_z


# ---------------------------------------------------------------------------
# puncturing: planarization by discarding one face and one vertex
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PunctureResult:
    code: CssCode
    row_spaces_preserved: bool
    planar: bool


def _drop_row(m: Gf2Matrix, i: int) -> Gf2Matrix:
    rows = m.row_bits[:i] + m.row_bits[i + 1:]
    return Gf2Matrix(m.rows - 1, m.cols, rows)


def _tanner_planar(x_stab: Gf2Matrix, z_stab: Gf2Matrix) -> bool:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(("q", q) for q in range(x_stab.cols))
    for side, m in (("x", x_stab), ("z", z_stab)):
        for i, r in enumerate(m.row_bits):
            for q in range(m.cols):
                if (r >> q) & 1:
                    g.add_edge((side, i), ("q", q))
    ok, _ = nx.check_planarity(g)
    return ok


def puncture(c: Cellulation, face_id: int, vertex_id: int) -> PunctureResult:
    """Delete one face row and one vertex row; the code is unchanged.

    The product relations make any single face and vertex generator
    redundant, so the stabilizer row spaces -- and hence all code
    parameters -- are preserved; the punctured checks give the full
    code's logical operators too, since dropping a row only makes that
    node the boundary node.  The planarity flag reports whether the
    remaining generators admit a planar Tanner-graph layout.  Raises
    ValueError when face_id or vertex_id is out of range.
    """
    for what, index, count in (("face", face_id, c.face_count),
                               ("vertex", vertex_id, c.vertex_count)):
        if not 0 <= index < count:
            raise ValueError(f"{what} {index} is out of range 0..{count - 1}")
    full = build_code(c)
    x2 = _drop_row(full.x_stabilizers, face_id)
    z2 = _drop_row(full.z_stabilizers, vertex_id)
    preserved = (gf2.rowspace_equal(full.x_stabilizers, x2)
                 and gf2.rowspace_equal(full.z_stabilizers, z2))
    return PunctureResult(CssCode(x2, z2), preserved, _tanner_planar(x2, z2))


# ---------------------------------------------------------------------------
# planar punctured-disk codes on the square lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarPatch:
    """A width x height block of unit squares with rectangular holes.

    Holes are (x, y, w, h) rectangles in face coordinates; they neither
    overlap nor touch the outer boundary.  Qubits live on the edges of
    the punctured region; X generators are the kept unit squares, Z
    generators all vertices not strictly inside a hole.  Closing the
    patch with its h hole faces and one outer face gives a sphere, whose
    face rows span its cycle space with a single relation, the sum of
    all faces.  Dropping the hole faces and the outer face removes h + 1
    rows and that relation, so the squares span h dimensions fewer than
    the cycle space: k = h.
    """

    width: int
    height: int
    holes: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("patch must have positive size")
        for x, y, w, h in self.holes:
            if w < 1 or h < 1:
                raise ValueError("hole must have positive size")
            if x < 1 or y < 1 or x + w > self.width - 1 or y + h > self.height - 1:
                raise ValueError("hole touches the outer boundary")
        for i, a in enumerate(self.holes):
            for b in self.holes[i + 1:]:
                if (a[0] < b[0] + b[2] and b[0] < a[0] + a[2]
                        and a[1] < b[1] + b[3] and b[1] < a[1] + a[3]):
                    raise ValueError("holes overlap")

    def to_json_dict(self) -> dict:
        return {"width": self.width, "height": self.height,
                "holes": [list(h) for h in self.holes]}

    @classmethod
    def from_json_dict(cls, doc: dict) -> "PlanarPatch":
        try:
            width, height = doc["width"], doc["height"]
            holes = tuple(tuple(h) for h in doc["holes"])
        except KeyError as exc:
            raise ValueError(f"missing key {exc.args[0]!r}") from None
        except TypeError as exc:
            raise ValueError(f"malformed patch: {exc}") from None
        for v in (width, height, *(v for h in holes for v in h)):
            if type(v) is not int:
                raise ValueError(f"malformed patch: {v!r} is not an integer")
        for h in holes:
            if len(h) != 4:
                raise ValueError(f"malformed patch: hole {list(h)} is not"
                                 " [x, y, w, h]")
        return cls(width, height, holes)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "PlanarPatch":
        try:
            doc = json.loads(text)
        except RecursionError:
            raise ValueError("malformed patch: JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed patch: {exc}") from None
        return cls.from_json_dict(doc)


def _ring(x: int, y: int, w: int, h: int) -> list[tuple[int, int]]:
    """The lattice points around a w x h rectangle, counterclockwise."""
    if w == h == 1:
        return [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
    return ([(x + a, y) for a in range(w)] + [(x + w, y + b) for b in range(h)]
            + [(x + w - a, y + h) for a in range(w)]
            + [(x, y + h - b) for b in range(h)])


def build_punctured_disk_code(patch: PlanarPatch) -> CssCode:
    """CSS code of a punctured disk; k = number of holes.

    The kept unit squares and one face per hole boundary form a
    cellulation of the patch; its incidences give the checks, X on the
    squares only and Z on every vertex.  The hole faces supply the
    edges between two adjacent holes, which border no square.  Two
    sets, built once, hold the geometry: the lattice points strictly
    inside a hole and the unit squares a hole covers.
    """
    holes = patch.holes
    inside = {(i, j) for x, y, w, h in holes
              for i in range(x + 1, x + w) for j in range(y + 1, y + h)}
    covered = {(i, j) for x, y, w, h in holes
               for i in range(x, x + w) for j in range(y, y + h)}
    vid: dict[tuple[int, int], int] = {}
    for i in range(patch.width + 1):
        for j in range(patch.height + 1):
            if (i, j) not in inside:
                vid[i, j] = len(vid)
    squares = [(i, j, 1, 1) for i in range(patch.width)
               for j in range(patch.height) if (i, j) not in covered]
    cells = surface.from_vertex_faces(
        len(vid), [[vid[p] for p in _ring(*r)] for r in squares + list(holes)])
    fe, ve = surface.incidence_matrices(cells)
    x_stab = Gf2Matrix(len(squares), fe.cols, fe.row_bits[:len(squares)])
    code = CssCode(x_stab, ve)
    if code.k != len(holes):
        raise AssertionError(
            f"expected k = {len(holes)} holes, computed {code.k}")
    return code


def planar_two_holes_patch() -> PlanarPatch:
    """The shipped two-qubit planar instance: d_x = 7, d_z = 4.

    Unit holes with margin 6 to the boundary and separation 7, the
    smallest axis-aligned layout whose hole-to-boundary and hole-to-hole
    dual paths all cost at least 7 edges.
    """
    return PlanarPatch(20, 13, ((6, 6, 1, 1), (13, 6, 1, 1)))
