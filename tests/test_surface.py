import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonical_oracle import full_scan_form
from construction_oracle import keyed_vertex_faces
from sampling import sample_small_cellulations
from cellqec import search, surface
from cellqec.surface import Cellulation, CellulationError, FlagMap


def _every_scheme(max_edges):
    """Flag maps of every matching scheme with at most max_edges edges.

    The unreduced scheme search reaches each closed cellulation under
    many flag labellings, so most classes appear many times.
    """
    maps = []

    def keep(s0, s1, girth):
        maps.append(FlagMap(s0, s1, [f ^ 1 for f in range(len(s0))]))

    for e in range(1, max_edges + 1):
        for v in range(1, e + 2):
            for degrees in search._partitions(2 * e, v, 2 * e):
                search._scheme_search(degrees, keep, None, False)
    return maps


def _conjugate(flags, perm):
    """The same map with flag f renamed perm[f]."""
    def move(s):
        out = [0] * flags.n
        for f, t in enumerate(s):
            out[perm[f]] = perm[t]
        return out
    return FlagMap(move(flags.s0), move(flags.s1), move(flags.s2))


_CONJUGATION_POOL = (
    [surface.catalog(n) for n in surface.closed_catalog_names()]
    + [surface.toric(m, m) for m in range(2, 6)]
    + sample_small_cellulations(20, seed=11))


_CLOSED_AND_SAMPLED = (
    [surface.catalog(n) for n in surface.closed_catalog_names()]
    + sample_small_cellulations(20, seed=11))


def _fixed_point_free_involution(s, n):
    return len(s) == n and all(0 <= j < n and j != i and s[j] == i
                               for i, j in enumerate(s))


class TestValidation:
    def test_minimal_projective_plane(self):
        info = surface.validate(surface.rp2_minimal())
        assert info.euler_characteristic == 1
        assert not info.orientable
        assert info.connected
        assert info.surface_name == "projective plane"

    def test_hemi_icosahedron_counts(self):
        c = surface.hemi_icosahedron()
        assert (c.vertex_count, c.edge_count, c.face_count) == (6, 15, 10)
        info = surface.validate(c)
        assert info.surface_name == "projective plane"

    def test_cube_is_a_sphere(self):
        info = surface.validate(surface.cube_sphere())
        assert (info.euler_characteristic, info.orientable) == (2, True)
        assert info.surface_name == "sphere"

    def test_nine_edge_shor_cellulation(self):
        c = surface.fig4_shor()
        assert (c.vertex_count, c.edge_count, c.face_count) == (3, 9, 7)
        info = surface.validate(c)
        assert info.surface_name == "projective plane"

    def test_torus(self):
        info = surface.validate(surface.toric(3, 3))
        assert (info.euler_characteristic, info.orientable) == (0, True)
        assert info.surface_name == "torus"

    def test_square_torus(self):
        # one vertex, two loops, one face a b a- b-
        t = Cellulation(1, ((0, 0), (0, 0)),
                        (((0, 1), (1, 1), (0, -1), (1, -1)),))
        info = surface.validate(t)
        assert (info.euler_characteristic, info.orientable) == (0, True)
        assert info.surface_name == "torus"

    def test_single_cover_rejected(self):
        # an edge traversed only once cannot close a surface
        bad = Cellulation(2, ((0, 1),), (((0, 1),),))
        with pytest.raises(CellulationError, match=(
                "^edge 0 is traversed 1 times; closed surfaces need"
                " exactly 2$")):
            surface.validate(bad)

    def test_triple_cover_rejected(self):
        bad = Cellulation(1, ((0, 0),), (((0, 1), (0, 1), (0, 1)),))
        with pytest.raises(CellulationError,
                           match="^edge 0 is traversed 3 times"):
            surface.validate(bad)

    def test_unclosed_walk_rejected(self):
        bad = Cellulation(3, ((0, 1), (1, 2), (2, 0)),
                          (((0, 1), (1, 1), (2, 1)),
                           ((0, -1), (2, -1), (1, -1))))
        surface.validate(bad)  # coherent double cover of a triangle: fine
        worse = Cellulation(3, ((0, 1), (1, 2), (2, 0)),
                            (((0, 1), (2, 1), (1, 1)),
                             ((0, -1), (2, -1), (1, -1))))
        with pytest.raises(CellulationError,
                           match="^face 0 walk is not closed at step 0$"):
            surface.validate(worse)

    @pytest.mark.parametrize("second,message", [
        # 0 -> 3 -> 2, then a step out of 1
        ([((3, -1), (2, -1), (0, -1), (1, -1))],
         "face 1 walk is not closed at step 1"),
        # 0 -> 3 -> 2 -> 1 never returns to 0: the last step fails
        ([((3, -1), (2, -1), (1, -1)), ((0, -1),)],
         "face 1 walk is not closed at step 2"),
    ], ids=["inner-step", "last-step"])
    def test_unclosed_step_is_named(self, second, message):
        # face 0 runs round the square 0 -> 1 -> 2 -> 3 -> 0
        bad = Cellulation(4, ((0, 1), (1, 2), (2, 3), (3, 0)),
                          (((0, 1), (1, 1), (2, 1), (3, 1)), *second))
        with pytest.raises(CellulationError, match=f"^{message}$"):
            surface.validate(bad)

    def test_isolated_vertex_rejected(self):
        bad = Cellulation(2, ((0, 0),), (((0, 1), (0, 1)),))
        with pytest.raises(CellulationError,
                           match="^vertex 1 lies on no edge$"):
            surface.validate(bad)

    def test_pinched_complex_rejected(self):
        # two loops at one vertex, each its own handle pair: the star at
        # the vertex splits into two circles
        bad = Cellulation(1, ((0, 0), (0, 0)),
                          (((0, 1), (0, -1)), ((1, 1), (1, -1))))
        with pytest.raises(CellulationError, match=(
                r"^vertex 0 has a disconnected star \(pinched complex\)$")):
            surface.validate(bad)


class TestClassify:
    @pytest.mark.parametrize("chi,orientable,name", [
        (2, True, "sphere"),
        (0, True, "torus"),
        (-2, True, "orientable genus 2"),
        (1, False, "projective plane"),
        (0, False, "Klein bottle"),
        (-1, False, "non-orientable genus 3"),
    ])
    def test_names(self, chi, orientable, name):
        assert surface.classify_surface(chi, orientable) == name


class TestJson:
    def test_round_trip(self):
        c = surface.fig4_shor()
        assert Cellulation.from_json(c.to_json()) == c

    def test_schema_fields(self):
        doc = surface.rp2_minimal().to_json_dict()
        assert doc == {"vertices": 1, "edges": [[0, 0]],
                       "faces": [[[0, 1], [0, 1]]]}


class TestDuality:
    @pytest.mark.parametrize("name", ["rp2_minimal", "fig1_hemi_icosahedron",
                                      "fig4_shor", "cube_sphere", "toric(3,3)"])
    def test_double_dual_is_identity(self, name):
        c = surface.catalog(name)
        assert surface.isomorphic(surface.dual(surface.dual(c)), c)

    def test_minimal_projective_plane_is_self_dual(self):
        c = surface.rp2_minimal()
        assert surface.isomorphic(surface.dual(c), c)

    def test_hemi_icosahedron_dual_counts(self):
        d = surface.dual(surface.hemi_icosahedron())
        assert (d.vertex_count, d.edge_count, d.face_count) == (10, 15, 6)
        assert surface.validate(d).surface_name == "projective plane"

    def test_dual_swaps_vertices_and_faces(self):
        c = surface.fig4_shor()
        d = surface.dual(c)
        assert (d.vertex_count, d.edge_count, d.face_count) == (7, 9, 3)
        info = surface.validate(d)
        assert info.surface_name == "projective plane"

    def test_dual_preserves_edge_labels(self):
        # dual edge i crosses primal edge i, so the dual's vertex-edge
        # incidence rows are the primal's face-edge rows (cells renamed)
        c = surface.toric(2, 3)
        d = surface.dual(c)
        fe, ve = surface.incidence_matrices(c)
        dfe, dve = surface.incidence_matrices(d)
        assert sorted(dve.row_bits) == sorted(fe.row_bits)
        assert sorted(dfe.row_bits) == sorted(ve.row_bits)


class TestFlagBuilders:
    # FlagMap stores its involutions unchecked, so every builder must
    # make them fixed-point-free involutions by construction
    def test_builders_make_fixed_point_free_involutions(self):
        maps = _every_scheme(4)
        for c in _CLOSED_AND_SAMPLED:
            flags = surface.build_flags(c)
            maps += [flags, flags.dual()]
        for m in maps:
            for s in (m.s0, m.s1, m.s2):
                assert _fixed_point_free_involution(s, m.n)

    def test_edge_slides_are_valid(self):
        for c in _CLOSED_AND_SAMPLED:
            for m in [c, *search.all_identifications(c)]:
                for slid in search.edge_slides(m):
                    surface.validate(slid)


def _orbit_count(m, gens):
    """Orbits of the group generated by gens, by union-find (an oracle
    independent of the cycle walk in FlagMap._cells)."""
    parent = list(range(m.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for g in gens:
        for f in range(m.n):
            parent[find(f)] = find(g[f])
    return len({find(f) for f in range(m.n)})


def _disjoint_union(a, b):
    def shifted(s):
        return [t + a.n for t in s]
    return FlagMap(a.s0 + shifted(b.s0), a.s1 + shifted(b.s1),
                   a.s2 + shifted(b.s2))


class TestCells:
    def test_cells_are_the_alternating_cycles(self):
        maps = _every_scheme(3)
        for c in _CLOSED_AND_SAMPLED:
            flags = surface.build_flags(c)
            maps += [flags, flags.dual()]
        for m in maps:
            for a, b in ((m.s2, m.s1), (m.s0, m.s2), (m.s0, m.s1)):
                cell, colour, count = m._cells(a, b)
                assert count == _orbit_count(m, (a, b))
                firsts = []
                for f in range(m.n):
                    assert cell[a[f]] == cell[b[f]] == cell[f]
                    assert colour[a[f]] != colour[f] != colour[b[f]]
                    if cell[f] == len(firsts):
                        firsts.append(f)
                        assert colour[f] == 0
                    assert cell[f] < len(firsts)  # numbered by minimum flag
                assert len(firsts) == count
            edge, _, count = m._cells(m.s0, m.s2)
            assert sorted(edge) == sorted(list(range(count)) * 4)

    def test_components_and_orientability(self):
        torus = surface.build_flags(surface.toric(2, 3))
        plane = surface.build_flags(surface.rp2_minimal())
        assert _disjoint_union(torus, torus).components() == (2, True)
        assert _disjoint_union(torus, plane).components() == (2, False)
        assert _disjoint_union(plane, torus).components() == (2, False)
        for name in surface.closed_catalog_names():
            orientable = name in ("cube_sphere", "toric(3,3)")  # else RP2
            flags = surface.build_flags(surface.catalog(name))
            assert flags.components() == (1, orientable)
        for c in _CLOSED_AND_SAMPLED:
            flags = surface.build_flags(c)
            assert flags.components()[0] == _orbit_count(
                flags, (flags.s0, flags.s1, flags.s2))

    def test_empty_cellulation(self):
        empty = Cellulation(0, (), ())
        assert surface.dual(empty) == empty
        info = surface.validate(empty)
        assert (info.euler_characteristic, info.orientable,
                info.connected) == (0, True, False)
        flags = surface.build_flags(empty)
        assert flags.components() == (0, True)
        assert flags._cells(flags.s2, flags.s1) == ([], [], 0)
        assert flags.euler_characteristic() == 0


class TestCanonicalForm:
    def test_relabeling_invariance(self):
        c = surface.fig4_shor()
        perm = [2, 0, 1]
        edges = tuple((perm[a], perm[b]) for a, b in c.edges)
        relabeled = Cellulation(3, edges, c.faces)
        assert surface.isomorphic(c, relabeled)

    def test_distinct_catalog_entries(self):
        names = ["rp2_minimal", "fig1_hemi_icosahedron", "fig4_shor",
                 "cube_sphere", "toric(3,3)"]
        forms = {surface.canonical_form(surface.catalog(n)) for n in names}
        assert len(forms) == len(names)

    def test_form_is_start_independent(self):
        # rotating a face walk does not change the map
        c = surface.fig4_shor()
        walk = c.faces[-1]
        rotated = c.faces[:-1] + (walk[2:] + walk[:2],)
        assert surface.isomorphic(c, Cellulation(3, c.edges, rotated))

    def test_same_classes_as_the_full_scan_oracle(self):
        # the forms split every labelled map with E <= 4 into the same
        # classes as the BFS from every flag
        pairs = {(m.canonical_form(), full_scan_form(m))
                 for m in _every_scheme(4)}
        assert len(pairs) == 3 + 11 + 63 + 514
        assert len({form for form, _ in pairs}) == len(pairs)
        assert len({oracle for _, oracle in pairs}) == len(pairs)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_relabelling_flags_keeps_the_form(self, data):
        c = data.draw(st.sampled_from(_CONJUGATION_POOL))
        flags = surface.build_flags(c)
        perm = data.draw(st.permutations(range(flags.n)))
        assert (_conjugate(flags, perm).canonical_form()
                == flags.canonical_form())

    def test_two_byte_labels_above_256_flags(self):
        small = surface.canonical_form(surface.toric(4, 8))  # 256 flags
        assert len(small) == 3 * 256
        square = surface.canonical_form(surface.toric(8, 8))  # 512 flags
        long = surface.canonical_form(surface.toric(4, 16))
        assert len(square) == len(long) == 3 * 512 * 2
        assert square != long
        # a closed 91 x 91 grid sphere (squares plus one outer face) has
        # 66,976 flags, more than two-byte labels hold
        m = 91
        grid = [[i * (m + 1) + j, (i + 1) * (m + 1) + j,
                 (i + 1) * (m + 1) + j + 1, i * (m + 1) + j + 1]
                for i in range(m) for j in range(m)]
        ring = ([i * (m + 1) for i in range(m)]
                + [m * (m + 1) + j for j in range(m)]
                + [(m - i) * (m + 1) + m for i in range(m)]
                + [m - j for j in range(m)])
        sphere = surface.from_vertex_faces((m + 1) ** 2, grid + [ring[::-1]])
        n = surface.build_flags(sphere).n
        assert n == 66976
        assert len(surface.canonical_form(sphere)) == 3 * n * 3

    def test_disconnected_map_is_rejected(self):
        # two disjoint copies of rp2_minimal: a BFS code from one start
        # flag sees only its copy, the same code as rp2_minimal's
        twice = Cellulation(2, ((0, 0), (1, 1)),
                            (((0, 1), (0, 1)), ((1, 1), (1, 1))))
        with pytest.raises(CellulationError, match="has 2 components"):
            surface.canonical_form(twice)
        with pytest.raises(CellulationError, match="has 2 components"):
            surface.isomorphic(surface.rp2_minimal(), twice)

    def test_empty_map(self):
        empty = Cellulation(0, (), ())
        assert surface.canonical_form(empty) == b""
        assert FlagMap([], [], []).canonical_form() == b""
        assert surface.isomorphic(empty, empty)
        assert not surface.isomorphic(empty, surface.rp2_minimal())


class TestIncidence:
    def test_boundary_of_boundary_vanishes(self):
        for name in ["rp2_minimal", "fig4_shor", "toric(3,3)", "cube_sphere"]:
            fe, ve = surface.incidence_matrices(surface.catalog(name))
            for row in fe.row_vectors():
                assert ve.mul_vector(row).is_zero()

    def test_doubly_traversed_edge_cancels(self):
        fe, _ = surface.incidence_matrices(surface.rp2_minimal())
        assert fe.to_lists() == [[0]]

    def test_loop_cancels_in_vertex_incidence(self):
        _, ve = surface.incidence_matrices(surface.rp2_minimal())
        assert ve.to_lists() == [[0]]


class TestCatalog:
    def test_toric_parsing(self):
        c = surface.catalog("toric(2,5)")
        assert (c.vertex_count, c.edge_count, c.face_count) == (10, 20, 10)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            surface.catalog("dodecahedron")

    def test_closed_catalog_all_validate(self):
        for name in surface.closed_catalog_names():
            info = surface.validate(surface.catalog(name))
            assert info.connected


class TestFromVertexFaces:
    # one step lookup per walk step against a (min, max) key per step
    def test_catalog_faces_match_the_keyed_oracle(self):
        for count, faces in [(6, surface._HEMI_ICOSAHEDRON_FACES),
                             (3, [(0, 1, 2), (0, 2, 1)]), (2, [(0, 1)])]:
            assert surface.from_vertex_faces(count, faces) == (
                keyed_vertex_faces(count, faces))

    def test_random_cycles_match_the_keyed_oracle(self):
        # cycles that reuse edges in either direction, and loops
        rng = random.Random(35)
        for _ in range(300):
            count = rng.randint(1, 5)
            faces = [[rng.randrange(count) for _ in range(rng.randint(1, 5))]
                     for _ in range(rng.randint(1, 4))]
            assert surface.from_vertex_faces(count, faces) == (
                keyed_vertex_faces(count, faces))
