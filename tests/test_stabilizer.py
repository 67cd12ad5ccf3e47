import dataclasses
import hashlib
import itertools
import random
import re

import pytest
from construction_oracle import scanned_disk_checks
from coset_oracle import coset_min_essential
from sampling import planar_and_punctured_codes

from cellqec import decoder, gf2, homology, invariants, stabilizer, surface
from cellqec.gf2 import Gf2Matrix
from cellqec.stabilizer import PlanarPatch


class TestBuildCode:
    @pytest.mark.parametrize("name,params", [
        ("rp2_minimal", (1, 1, 1, 1)),
        ("fig1_hemi_icosahedron", (15, 1, 5, 3)),
        ("fig4_shor", (9, 1, 3, 3)),
        ("toric(3,3)", (18, 2, 3, 3)),
        ("toric(6,6)", (72, 2, 6, 6)),
        ("toric(8,8)", (128, 2, 8, 8)),
        ("toric(12,12)", (288, 2, 12, 12)),
        ("toric(3,5)", (30, 2, 3, 3)),
        ("toric(2,7)", (28, 2, 2, 2)),
    ])
    def test_parameters(self, name, params):
        code = stabilizer.build_code(surface.catalog(name))
        assert code.parameters() == params

    def test_invalid_cellulation_is_rejected(self):
        # edge 0 is traversed once, so this is no closed surface
        c = surface.Cellulation(2, ((0, 1),), (((0, 1),),))
        with pytest.raises(surface.CellulationError,
                           match="edge 0 is traversed 1 times"):
            stabilizer.build_code(c)

    def test_sphere_encodes_nothing(self):
        code = stabilizer.build_code(surface.cube_sphere())
        assert code.k == 0
        assert code.d_x is None and code.d_z is None

    def test_k_equals_h1(self):
        for name in surface.closed_catalog_names():
            c = surface.catalog(name)
            code = stabilizer.build_code(c)
            assert code.k == homology.h1_dim(c)

    def test_relations(self):
        for name in surface.closed_catalog_names():
            code = stabilizer.build_code(surface.catalog(name))
            assert stabilizer.check_relations(code)

    def test_commutation(self):
        for name in surface.closed_catalog_names():
            code = stabilizer.build_code(surface.catalog(name))
            assert stabilizer.commutes(code)

    def test_corrupted_row_breaks_commutation(self):
        code = stabilizer.build_code(surface.fig4_shor())
        rows = list(code.x_stabilizers.row_bits)
        rows[0] ^= 1 << 3  # bigon row now overlaps a vertex row oddly
        bad = stabilizer.CssCode(
            Gf2Matrix(len(rows), code.n, tuple(rows)), code.z_stabilizers)
        assert not stabilizer.commutes(bad)

    def test_commutes_matches_the_pairwise_definition(self):
        rng = random.Random(5)
        shapes = [(0, 0, 3), (0, 2, 4), (2, 0, 4), (1, 1, 1), (3, 2, 1),
                  (0, 3, 1)]
        shapes += [(rng.randrange(5), rng.randrange(5), rng.randrange(1, 13))
                   for _ in range(300)]
        seen = set()
        for rx, rz, n in shapes:
            x = Gf2Matrix(rx, n, tuple(rng.getrandbits(n) for _ in range(rx)))
            z = Gf2Matrix(rz, n, tuple(rng.getrandbits(n) for _ in range(rz)))
            expected = all((a & b).bit_count() % 2 == 0
                           for a in x.row_bits for b in z.row_bits)
            code = stabilizer.CssCode(x, z)
            assert stabilizer.commutes(code) == expected, (x, z)
            seen.add(expected)
        assert seen == {True, False}

    def test_n_is_read_from_the_checks(self):
        code = stabilizer.build_code(surface.fig4_shor())
        names = tuple(f.name for f in dataclasses.fields(code))
        assert names == ("x_stabilizers", "z_stabilizers")
        assert code.n == code.x_stabilizers.cols == code.z_stabilizers.cols

    def test_check_lengths_must_agree(self):
        # a 3-column X check beside a 2-column Z check is no code
        with pytest.raises(gf2.LengthMismatch,
                           match="^X checks have 3 columns, Z checks 2$"):
            stabilizer.CssCode(Gf2Matrix.from_rows([[1, 1, 0]]),
                               Gf2Matrix.from_rows([[1, 1]]))

    def test_pauli_strings_read_the_check_rows(self):
        code = stabilizer.CssCode(Gf2Matrix.from_rows([[1, 1, 0]]),
                                  Gf2Matrix.from_rows([[0, 1, 1], [1, 0, 1]]))
        assert code.pauli_strings() == ["XXI", "IZZ", "ZIZ"]

    # the logical-operator contract, on every code the suites build
    def test_logicals_anticommute_pairwise(self):
        for code in _contract_codes():
            assert len(code.logical_x) == len(code.logical_z) == code.k
            for i, lx in enumerate(code.logical_x):
                for j, lz in enumerate(code.logical_z):
                    assert lx.dot(lz) == (1 if i == j else 0)

    def test_logicals_commute_with_stabilizers(self):
        for code in _contract_codes():
            for lx in code.logical_x:
                for row in code.z_stabilizers.row_vectors():
                    assert lx.dot(row) == 0
            for lz in code.logical_z:
                for row in code.x_stabilizers.row_vectors():
                    assert lz.dot(row) == 0

    def test_building_a_code_does_no_elimination(self, monkeypatch):
        # checks, cellulations and a patch are made before the patching,
        # since puncture compares row spaces by elimination
        cellulations = [surface.catalog(name) for name in _closed_names()]
        checks = [(code.x_stabilizers, code.z_stabilizers)
                  for _, code in planar_and_punctured_codes()]
        patch = stabilizer.planar_two_holes_patch()

        def no_elimination(rows):
            raise AssertionError("GF(2) elimination while building a code")

        monkeypatch.setattr(gf2, "_forward", no_elimination)
        codes = [stabilizer.build_code(c) for c in cellulations]
        codes += [stabilizer.CssCode(x_stab, z_stab)
                  for x_stab, z_stab in checks]
        codes.append(stabilizer.build_punctured_disk_code(patch))
        for code in codes:
            assert len(code.logical_x) == len(code.logical_z) == code.k
            assert (code.d_x is None) == (code.d_z is None) == (code.k == 0)
        assert codes[-1].k == 2

    def test_each_distance_is_searched_once(self, monkeypatch):
        calls = []

        def counted(graph, functionals):
            calls.append(len(functionals))
            return homology._min_weight_logical(graph, functionals)

        monkeypatch.setattr(stabilizer, "_min_weight_logical", counted)
        code = stabilizer.build_code(surface.fig4_shor())
        assert calls == []
        assert code.parameters() == code.parameters() == (9, 1, 3, 3)
        assert calls == [1, 1]  # one search per side, each cached


def _closed_names():
    return list(dict.fromkeys(surface.closed_catalog_names()
                              + [f"toric({m},{m})" for m in range(1, 9)]))


def _contract_codes():
    """Every closed catalog code, toric(1,1)..toric(8,8), and the planar
    and punctured codes."""
    return ([stabilizer.build_code(surface.catalog(name))
             for name in _closed_names()]
            + [code for _, code in planar_and_punctured_codes()])


class TestShorIdentification:
    def test_row_spaces_match_textbook_generators(self):
        code = stabilizer.build_code(surface.fig4_shor())
        n = 9
        blocks = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]

        def bits(qubits):
            out = 0
            for q in qubits:
                out |= 1 << q
            return out

        x_rows = []
        for blk in blocks:
            x_rows.append(bits([blk[0], blk[1]]))
            x_rows.append(bits([blk[1], blk[2]]))
        z_rows = [bits(blocks[0] + blocks[1]), bits(blocks[1] + blocks[2])]
        # the cellulation's X side comes from faces (weight-2 bigons and
        # the hexagon); Z side from vertices
        shor_z = Gf2Matrix(len(x_rows), n, tuple(x_rows))
        shor_x = Gf2Matrix(len(z_rows), n, tuple(z_rows))
        ok_direct = (gf2.rowspace_equal(code.x_stabilizers, shor_x)
                     and gf2.rowspace_equal(code.z_stabilizers, shor_z))
        ok_swapped = (gf2.rowspace_equal(code.x_stabilizers, shor_z)
                      and gf2.rowspace_equal(code.z_stabilizers, shor_x))
        assert ok_direct or ok_swapped


class TestDistance:
    def test_css_distance_matches_systoles(self):
        # side 0 is the Z checks' graph with logical_z (bit flips), side 1
        # the X checks' graph with logical_x (phase flips): each distance
        # reads its side, and the decoder matches on the code's own graphs
        cells = {name: surface.catalog(name) for name in
                 surface.closed_catalog_names() + ["toric(2,2)", "toric(4,4)"]}
        codes = {name: stabilizer.build_code(c) for name, c in cells.items()}
        codes["fig4_shor punctured at 6,0"] = stabilizer.puncture(
            cells["fig4_shor"], 6, 0).code
        codes["planar two holes"] = stabilizer.build_punctured_disk_code(
            stabilizer.planar_two_holes_patch())
        distances = {}
        for label, code in codes.items():
            tables = decoder.DecodingTables.build(code)
            for i, (checks, other, logicals) in enumerate((
                    (code.z_stabilizers, code.x_stabilizers, code.logical_z),
                    (code.x_stabilizers, code.z_stabilizers,
                     code.logical_x))):
                graph, side_logicals = code.sides[i]
                assert graph == homology.CheckGraph.of(checks), label
                assert side_logicals == logicals, label
                assert all(other.mul_vector(v).is_zero() for v in logicals)
                assert tables.sides[i].graph is graph, label
            if not code.k:
                assert (code.d_x, code.d_z) == (None, None), label
                continue
            d_x, d_z = stabilizer.css_distance(code)
            assert d_z == homology._min_weight_logical(*code.sides[0])[0]
            assert d_x == homology._min_weight_logical(*code.sides[1])[0]
            assert (code.d_x, code.d_z) == (d_x, d_z)
            distances[label] = d_x, d_z
        assert set(codes) - set(distances) == {"cube_sphere"}
        for name, c in cells.items():
            if name in distances:
                fe, ve = surface.incidence_matrices(c)
                d_x, d_z = distances[name]
                # the coset search is an independent oracle for the graph
                # search
                assert d_z == homology.systole(c)[0] == (
                    coset_min_essential(fe, ve))
                assert d_x == homology.dual_systole(c)[0] == (
                    coset_min_essential(ve, fe))
        assert distances["fig4_shor punctured at 6,0"] == \
            distances["fig4_shor"]
        assert distances["planar two holes"] == (7, 4)

    def test_weight_three_column_is_rejected(self):
        # qubit 0 is in three Z checks, so its column is no graph edge
        z_stab = Gf2Matrix(3, 4, (0b0011, 0b0101, 0b1001))
        x_stab = Gf2Matrix(0, 4, ())
        code = stabilizer.CssCode(x_stab, z_stab)
        with pytest.raises(stabilizer.UnsupportedCheckStructure):
            code.d_z

    def test_weight_three_column_is_rejected_when_k_is_zero(self):
        # columns 0 and 1 are in all three X checks; the Z check commutes
        # with each, and ker(x_stab) = rowspace(z_stab), so k = 0
        x_stab = Gf2Matrix(3, 2, (0b11, 0b11, 0b11))
        z_stab = Gf2Matrix(1, 2, (0b11,))
        code = stabilizer.CssCode(x_stab, z_stab)
        assert stabilizer.commutes(code)
        with pytest.raises(stabilizer.UnsupportedCheckStructure,
                           match="column 0 touches 3 generators"):
            code.k

    def test_non_commuting_checks_are_rejected(self):
        # qubit 1 is the only overlap of the X and the Z check
        code = stabilizer.CssCode(Gf2Matrix.from_rows([[1, 1, 0]]),
                                  Gf2Matrix.from_rows([[0, 1, 1]]))
        with pytest.raises(ValueError,
                           match="^X and Z checks do not commute$"):
            stabilizer.css_distance(code)


class TestHadamardDuality:
    @pytest.mark.parametrize("name", ["rp2_minimal", "fig1_hemi_icosahedron",
                                      "fig4_shor", "toric(3,3)",
                                      "cube_sphere"])
    def test_dual_code_is_hadamard_equivalent(self, name):
        assert stabilizer.hadamard_dual_equivalent(surface.catalog(name))


class TestPuncture:
    def test_code_unchanged(self):
        c = surface.fig4_shor()
        base = stabilizer.build_code(c)
        hexagon = max(range(c.face_count), key=lambda f: len(c.faces[f]))
        for vertex in range(c.vertex_count):
            res = stabilizer.puncture(c, hexagon, vertex)
            assert res.row_spaces_preserved
            assert res.code.parameters() == base.parameters()

    def test_shor_puncture_is_planar(self):
        c = surface.fig4_shor()
        hexagon = max(range(c.face_count), key=lambda f: len(c.faces[f]))
        assert stabilizer.puncture(c, hexagon, 0).planar

    def test_any_face_vertex_choice_preserves_row_spaces(self):
        c = surface.catalog("toric(3,3)")
        res = stabilizer.puncture(c, 0, 0)
        assert res.row_spaces_preserved
        assert res.code.parameters() == (18, 2, 3, 3)

    def test_relations_break_on_purpose(self):
        res = stabilizer.puncture(surface.fig4_shor(), 6, 0)
        assert not stabilizer.check_relations(res.code)

    def test_minimal_projective_plane(self):
        res = stabilizer.puncture(surface.rp2_minimal(), 0, 0)
        assert res.code.parameters() == (1, 1, 1, 1)
        assert res.code.x_stabilizers.rows == 0
        assert res.code.z_stabilizers.rows == 0

    def test_bad_ids(self, monkeypatch):
        # the range is checked before the code is built, with the CLI's text
        def no_build(c):
            raise AssertionError("code built before the range check")

        monkeypatch.setattr(stabilizer, "build_code", no_build)
        for face, vertex, message in [
                (99, 0, "face 99 is out of range 0..6"),
                (7, 0, "face 7 is out of range 0..6"),
                (-1, 0, "face -1 is out of range 0..6"),
                (6, 3, "vertex 3 is out of range 0..2"),
                (6, -1, "vertex -1 is out of range 0..2")]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                stabilizer.puncture(surface.fig4_shor(), face, vertex)


class TestPlanarPatch:
    def test_validation(self):
        with pytest.raises(ValueError):
            PlanarPatch(5, 5, ((0, 2, 1, 1),))  # touches the boundary
        with pytest.raises(ValueError):
            PlanarPatch(8, 8, ((2, 2, 2, 2), (3, 3, 1, 1)))  # overlap

    @pytest.mark.parametrize("doc,message", [
        ({"width": 3}, "missing key 'height'"),
        ({"width": 3, "height": 3, "holes": 5}, "malformed patch: "),
    ], ids=["missing-key", "wrong-type"])
    def test_bad_json(self, doc, message):
        with pytest.raises(ValueError, match=message):
            PlanarPatch.from_json_dict(doc)

    def test_json_round_trip(self):
        p = stabilizer.planar_two_holes_patch()
        assert PlanarPatch.from_json(p.to_json()) == p

    def test_smallest_single_hole_patch(self):
        code = stabilizer.build_punctured_disk_code(
            PlanarPatch(3, 3, ((1, 1, 1, 1),)))
        assert code.k == 1

    def test_single_hole_code(self):
        code = stabilizer.build_punctured_disk_code(
            PlanarPatch(7, 7, ((3, 3, 1, 1),)))
        assert code.k == 1
        assert code.d_z == 4  # the hole perimeter
        assert code.d_x == 4  # shortest dual path hole-to-boundary

    def test_no_holes_means_no_logicals(self):
        code = stabilizer.build_punctured_disk_code(PlanarPatch(3, 3, ()))
        assert code.k == 0

    def test_shipped_two_hole_instance(self):
        code = stabilizer.build_punctured_disk_code(
            stabilizer.planar_two_holes_patch())
        assert code.k == 2
        assert code.d_x >= 7
        assert code.d_z >= 3


def _small_patches():
    """Every patch up to 5 x 5 with at most two holes of side <= 2."""
    for width, height in itertools.product(range(1, 6), repeat=2):
        holes = [(x, y, w, h) for w in (1, 2) for h in (1, 2)
                 for x in range(1, width - w) for y in range(1, height - h)]
        for count in range(3):
            for chosen in itertools.combinations(holes, count):
                try:
                    yield PlanarPatch(width, height, chosen)
                except ValueError:  # overlapping holes
                    pass


def _weights(m):
    """Sorted row weights and sorted column weights of a check matrix."""
    return (sorted(r.bit_count() for r in m.row_bits),
            sorted(c.bit_count() for c in m.transpose().row_bits))


class TestPlanarBuilderPin:
    def test_column_order_free_values_are_pinned(self):
        # parameters, check weights and the rank-profile histogram do
        # not depend on how the edges are numbered, so any planar builder
        # must reproduce them; the histogram is taken on the 228 patches
        # of at most 20 squares, which keeps the test near a second
        small = list(_small_patches())
        assert len(small) == 454
        values = []
        for patch in small + [stabilizer.planar_two_holes_patch()]:
            code = stabilizer.build_punctured_disk_code(patch)
            item = [patch.to_json(), code.parameters(),
                    _weights(code.x_stabilizers),
                    _weights(code.z_stabilizers)]
            if patch.width * patch.height <= 20:
                item.append(sorted(
                    invariants.rank_profile(code).histogram.items()))
            values.append(item)
        assert hashlib.sha256(repr(values).encode()).hexdigest() == (
            "5e3986eacffd6de793848139fda31ffb96cc4da17f897f503ae4fb8c7e631042")


class TestPlanarGeometryOracle:
    # the set-based geometry against a scan of every hole per lattice
    # point and per unit square
    @pytest.mark.parametrize("patch", [
        PlanarPatch(6, 5, ((1, 1, 3, 1),)),                # wide
        PlanarPatch(5, 7, ((2, 1, 1, 4),)),                # tall
        # both wider and taller than 1, one cell from the border
        PlanarPatch(8, 8, ((1, 1, 3, 2), (4, 5, 2, 2))),
        PlanarPatch(6, 4, ((1, 1, 2, 2), (3, 1, 2, 2))),   # a shared side
        PlanarPatch(7, 7, ((2, 2, 1, 3), (3, 2, 2, 1), (3, 3, 1, 2))),
        PlanarPatch(9, 9, ((1, 1, 7, 1), (1, 2, 1, 5), (7, 2, 1, 6))),
        PlanarPatch(5, 5, ((1, 1, 3, 3),)),                # one cell wide ring
        stabilizer.planar_two_holes_patch(),
    ], ids=["wide", "tall", "near-border", "shared-side", "three-touching",
            "border-frame", "thin-ring", "two-holes"])
    def test_matches_the_scan_oracle(self, patch):
        code = stabilizer.build_punctured_disk_code(patch)
        assert (code.x_stabilizers, code.z_stabilizers) == (
            scanned_disk_checks(patch))

    def test_matches_the_scan_oracle_on_small_patches(self):
        for patch in _small_patches():
            code = stabilizer.build_punctured_disk_code(patch)
            assert (code.x_stabilizers, code.z_stabilizers) == (
                scanned_disk_checks(patch))
