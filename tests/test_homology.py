import pytest

from cellqec import homology, surface
from cellqec.gf2 import Gf2Matrix, Gf2Vector
from cellqec.surface import Cellulation


class TestH1:
    @pytest.mark.parametrize("name,h1", [
        ("rp2_minimal", 1),
        ("fig1_hemi_icosahedron", 1),
        ("fig4_shor", 1),
        ("cube_sphere", 0),
        ("toric(3,3)", 2),
    ])
    def test_dimensions(self, name, h1):
        assert homology.h1_dim(surface.catalog(name)) == h1

    def test_klein_bottle(self):
        # square with both side pairs glued, one pair reversed
        kb = Cellulation(1, ((0, 0), (0, 0)),
                         (((0, 1), (1, 1), (0, -1), (1, 1)),))
        info = surface.validate(kb)
        assert info.surface_name == "Klein bottle"
        assert homology.h1_dim(kb) == 2


class TestEssential:
    def test_loop_on_projective_plane(self):
        c = surface.rp2_minimal()
        assert homology.is_essential(c, Gf2Vector.from_list([1]))

    def test_boundary_is_not_essential(self):
        c = surface.hemi_icosahedron()
        fe, _ = surface.incidence_matrices(c)
        assert not homology.is_essential(c, fe.row(0))

    def test_non_cycle_rejected(self):
        c = surface.hemi_icosahedron()
        with pytest.raises(homology.NonCycleError):
            homology.is_essential(c, Gf2Vector.from_support(15, [0]))

    def test_triangle_on_shor_cellulation(self):
        # one edge from each parallel class closes an essential triangle
        c = surface.fig4_shor()
        tri = Gf2Vector.from_support(9, [0, 3, 6])
        assert homology.is_essential(c, tri)

    def test_parallel_pair_is_a_boundary(self):
        c = surface.fig4_shor()
        bigon = Gf2Vector.from_support(9, [0, 1])
        assert not homology.is_essential(c, bigon)


class TestSystole:
    @pytest.mark.parametrize("name,primal,dual", [
        ("rp2_minimal", 1, 1),
        ("fig1_hemi_icosahedron", 3, 5),
        ("fig4_shor", 3, 3),
        ("toric(3,3)", 3, 3),
    ])
    def test_catalog_values(self, name, primal, dual):
        c = surface.catalog(name)
        assert homology.systole(c)[0] == primal
        assert homology.dual_systole(c)[0] == dual

    @pytest.mark.parametrize("m", [6, 8, 12])
    def test_large_toric_witnesses(self, m):
        c = surface.catalog(f"toric({m},{m})")
        w, witness = homology.systole(c)
        assert w == witness.weight == m
        assert homology.is_essential(c, witness)
        w, witness = homology.dual_systole(c)
        assert w == witness.weight == m
        assert homology.is_essential(surface.dual(c), witness)

    def test_witness_is_essential(self):
        for name in ["fig1_hemi_icosahedron", "fig4_shor", "toric(3,3)"]:
            c = surface.catalog(name)
            w, witness = homology.systole(c)
            assert witness.weight == w
            assert homology.is_essential(c, witness)

    def test_dual_witness_lives_on_the_dual(self):
        c = surface.catalog("fig1_hemi_icosahedron")
        w, witness = homology.dual_systole(c)
        d = surface.dual(c)
        assert homology.is_essential(d, witness)
        assert w == homology.systole(d)[0]

    def test_sphere_has_no_essential_cycles(self):
        with pytest.raises(homology.TrivialHomologyError):
            homology.systole(surface.cube_sphere())

    def test_toric_dual_route_matches(self):
        # systole computed directly and via the dual's dual systole
        for name in ["fig4_shor", "toric(3,3)", "fig1_hemi_icosahedron"]:
            c = surface.catalog(name)
            assert homology.systole(c)[0] == homology.dual_systole(
                surface.dual(c))[0]


class TestCheckGraph:
    def test_column_ends(self):
        # columns: rows 0 and 2, row 1 alone, no row, rows 1 and 2
        check = Gf2Matrix(3, 4, (0b0001, 0b1010, 0b1001))
        assert homology._check_graph(check) == [(0, 2), (1, 3), None, (1, 2)]

    def test_incidence_columns_are_edges(self):
        c = surface.catalog("toric(3,3)")
        _, ve = surface.incidence_matrices(c)
        assert homology._check_graph(ve) == [tuple(sorted(e))
                                             for e in c.edges]

    def test_weight_three_column_is_rejected(self):
        check = Gf2Matrix(3, 2, (0b01, 0b01, 0b11))
        with pytest.raises(homology.UnsupportedCheckStructure,
                           match="column 0 touches 3 generators"):
            homology._check_graph(check)
