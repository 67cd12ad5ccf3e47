"""CSS stabilizer codes of cellulations and planar punctured-disk codes.

Convention (fixed throughout): face operators are X-type, vertex
operators are Z-type.  d_z (bit-flip distance) is the primal systole,
d_x (phase distance) the dual systole.  logical_x vectors live in
ker(vertex_edge) \\ rowspace(face_edge); logical_z dually.

Closed-surface and planar codes are finished by the same code,
``_code_from_checks``.  It builds each side's ``homology.CheckGraph``
once (every check column must have weight <= 2, even when k = 0), and
all that follows reads those two graphs: one tree-cotree split,
``homology._tree_cotree``, gives logical_z and logical_x already paired
as the identity (the checks must commute, which is why ``build_code``
validates its cellulation first), k is their number, and both
distances come from the parity-cover search
``homology._min_weight_logical``.  The logical operators are valid, not
necessarily of minimum weight, and building a code does no GF(2)
elimination.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from . import gf2, homology, surface
from .gf2 import Gf2Matrix, Gf2Vector
# UnsupportedCheckStructure is re-exported: building a code raises it;
# _min_weight_logical is called by this name, which perfbench traces
from .homology import UnsupportedCheckStructure, _min_weight_logical  # noqa: F401
from .surface import Cellulation


@dataclass(frozen=True)
class PauliOperator:
    """Symplectic representation of a tensor product of Pauli matrices."""

    n: int
    x_bits: int
    z_bits: int

    @classmethod
    def x_type(cls, support: Gf2Vector) -> "PauliOperator":
        return cls(support.n, support.bits, 0)

    @classmethod
    def z_type(cls, support: Gf2Vector) -> "PauliOperator":
        return cls(support.n, 0, support.bits)

    def commutes_with(self, other: "PauliOperator") -> bool:
        s = (self.x_bits & other.z_bits).bit_count()
        s += (self.z_bits & other.x_bits).bit_count()
        return s % 2 == 0

    def to_string(self) -> str:
        out = []
        for i in range(self.n):
            x = (self.x_bits >> i) & 1
            z = (self.z_bits >> i) & 1
            out.append("IXZY"[x + 2 * z])
        return "".join(out)


@dataclass(frozen=True)
class CssCode:
    n: int
    x_stabilizers: Gf2Matrix
    z_stabilizers: Gf2Matrix
    k: int
    d_x: int | None
    d_z: int | None
    logical_x: tuple[Gf2Vector, ...] = field(default=())
    logical_z: tuple[Gf2Vector, ...] = field(default=())

    def parameters(self) -> tuple:
        return (self.n, self.k, self.d_x, self.d_z)

    def pauli_strings(self) -> list[str]:
        return ([PauliOperator.x_type(r).to_string()
                 for r in self.x_stabilizers.row_vectors()]
                + [PauliOperator.z_type(r).to_string()
                   for r in self.z_stabilizers.row_vectors()])

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

    Raises CellulationError unless c is a valid cellulation.
    """
    surface.validate(c)
    fe, ve = surface.incidence_matrices(c)
    return _code_from_checks(fe, ve)


def _code_from_checks(x_stab: Gf2Matrix, z_stab: Gf2Matrix) -> CssCode:
    """k, both distances and paired logical operators of a CSS code.

    The checks must commute (as a valid cellulation's do), so that k is
    the number of logical classes on either side, and every check column
    must have weight <= 2; UnsupportedCheckStructure is raised otherwise,
    also when k = 0.
    """
    n = x_stab.cols
    x_graph = homology.CheckGraph.of(x_stab)
    z_graph = homology.CheckGraph.of(z_stab)
    # Z-type logicals commute with the X checks: ker(x_stab) / rowspace(z_stab)
    logical_z, logical_x = homology._tree_cotree(x_graph, z_graph)
    k = len(logical_z)
    if k == 0:
        return CssCode(n, x_stab, z_stab, 0, None, None)
    d_z, _ = _min_weight_logical(z_graph, logical_z)
    d_x, _ = _min_weight_logical(x_graph, logical_x)
    return CssCode(n, x_stab, z_stab, k, d_x, d_z,
                   tuple(logical_x), tuple(logical_z))


def check_relations(code: CssCode) -> bool:
    """XOR of all face rows and of all vertex rows must both vanish."""
    x = 0
    for r in code.x_stabilizers.row_bits:
        x ^= r
    z = 0
    for r in code.z_stabilizers.row_bits:
        z ^= r
    return x == 0 and z == 0


def commutes(code: CssCode) -> bool:
    """Every X generator commutes with every Z generator."""
    for xr in code.x_stabilizers.row_bits:
        for zr in code.z_stabilizers.row_bits:
            if (xr & zr).bit_count() & 1:
                return False
    return True


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
    d_x with the roles swapped.  These are the distances that
    ``_code_from_checks`` finds with the parity-cover graph search, so
    it scales to the large planar instances.
    """
    if code.k < 1:
        raise ValueError("distance undefined for k = 0")
    fresh = _code_from_checks(code.x_stabilizers, code.z_stabilizers)
    return fresh.d_x, fresh.d_z


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
    n = x_stab.cols
    for q in range(n):
        g.add_node(("q", q))
    for i, r in enumerate(x_stab.row_bits):
        for q in range(n):
            if (r >> q) & 1:
                g.add_edge(("x", i), ("q", q))
    for i, r in enumerate(z_stab.row_bits):
        for q in range(n):
            if (r >> q) & 1:
                g.add_edge(("z", i), ("q", q))
    ok, _ = nx.check_planarity(g)
    return ok


def puncture(c: Cellulation, face_id: int, vertex_id: int) -> PunctureResult:
    """Delete one face row and one vertex row; the code is unchanged.

    The product relations make any single face and vertex generator
    redundant, so the stabilizer row spaces -- and hence all code
    parameters -- are preserved.  The planarity flag reports whether the
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
    code = CssCode(full.n, x2, z2, full.k, full.d_x, full.d_z,
                   full.logical_x, full.logical_z)
    return PunctureResult(code, preserved, _tanner_planar(x2, z2))


# ---------------------------------------------------------------------------
# planar punctured-disk codes on the square lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarPatch:
    """A width x height block of unit squares with rectangular holes.

    Holes are (x, y, w, h) rectangles in face coordinates.  Qubits live
    on the edges of the punctured region; X generators are the kept unit
    squares, Z generators all vertices.  The discarded outer face and the
    closed-surface completion vertex are exactly the redundant
    generators, so k equals the number of holes.
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
        return cls.from_json_dict(doc)


def _patch_in_hole(patch: PlanarPatch, fx: int, fy: int) -> bool:
    for x, y, w, h in patch.holes:
        if x <= fx < x + w and y <= fy < y + h:
            return True
    return False


def build_punctured_disk_code(patch: PlanarPatch) -> CssCode:
    """CSS code of a punctured disk; k = number of holes."""
    W, H = patch.width, patch.height
    # vertices strictly inside a hole are absent
    vid: dict[tuple[int, int], int] = {}
    for i in range(W + 1):
        for j in range(H + 1):
            interior = any(x < i < x + w and y < j < y + h
                           for x, y, w, h in patch.holes)
            if not interior:
                vid[(i, j)] = len(vid)
    edges: list[tuple[int, int]] = []
    eid: dict[tuple, int] = {}
    # horizontal edge ('h', i, j): (i,j)-(i+1,j); interior to a hole iff
    # its open segment lies inside one
    for i in range(W):
        for j in range(H + 1):
            inside = any(x <= i < x + w and y < j < y + h
                         for x, y, w, h in patch.holes)
            if not inside:
                eid[("h", i, j)] = len(edges)
                edges.append((vid[(i, j)], vid[(i + 1, j)]))
    for i in range(W + 1):
        for j in range(H):
            inside = any(x < i < x + w and y <= j < y + h
                         for x, y, w, h in patch.holes)
            if not inside:
                eid[("v", i, j)] = len(edges)
                edges.append((vid[(i, j)], vid[(i, j + 1)]))
    n = len(edges)
    x_rows = []
    for i in range(W):
        for j in range(H):
            if _patch_in_hole(patch, i, j):
                continue
            bits = (1 << eid[("h", i, j)]) | (1 << eid[("h", i, j + 1)])
            bits |= (1 << eid[("v", i, j)]) | (1 << eid[("v", i + 1, j)])
            x_rows.append(bits)
    z_rows = [0] * len(vid)
    for e, (a, b) in enumerate(edges):
        z_rows[a] ^= 1 << e
        z_rows[b] ^= 1 << e
    x_stab = Gf2Matrix(len(x_rows), n, tuple(x_rows))
    z_stab = Gf2Matrix(len(z_rows), n, tuple(z_rows))
    code = _code_from_checks(x_stab, z_stab)
    if code.k != len(patch.holes):
        raise AssertionError(
            f"expected k = {len(patch.holes)} holes, computed {code.k}")
    return code


def planar_two_holes_patch() -> PlanarPatch:
    """The shipped two-qubit planar instance: d_x = 7, d_z = 4.

    Unit holes with margin 6 to the boundary and separation 7, the
    smallest axis-aligned layout whose hole-to-boundary and hole-to-hole
    dual paths all cost at least 7 edges.
    """
    return PlanarPatch(20, 13, ((6, 6, 1, 1), (13, 6, 1, 1)))
