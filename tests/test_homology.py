import random

import pytest
from construction_oracle import transpose_check_graph
from coset_oracle import (coset_min_essential, greedy_representatives,
                          support_min_essential)
from sampling import planar_and_punctured_codes, small_cellulation_pool

from cellqec import homology, stabilizer, surface
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

    # every torus up to 12 x 12, square and rectangular, both parities
    # of d: beyond the reach of the coset oracle
    @pytest.mark.parametrize("m", range(2, 13))
    def test_large_toric_witnesses(self, m):
        for n in range(2, 13):
            c = surface.catalog(f"toric({m},{n})")
            d = min(m, n)
            assert stabilizer.build_code(c).parameters() == (2 * m * n, 2, d, d)
            w, witness = homology.systole(c)
            assert w == witness.weight == d
            assert homology.is_essential(c, witness)
            w, witness = homology.dual_systole(c)
            assert w == witness.weight == d
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
        graph = homology.CheckGraph.of(check)
        assert graph.ends == ((0, 2), (1, 3), None, (1, 2))
        assert graph.boundary == 3
        assert graph.columns == (0b101, 0b010, 0b000, 0b110)
        # each node lists its columns in column order
        assert graph.adj == (((2, 0),), ((3, 1), (2, 3)), ((0, 0), (1, 3)),
                             ((1, 1),))

    def test_incidence_columns_are_edges(self):
        c = surface.catalog("toric(3,3)")
        _, ve = surface.incidence_matrices(c)
        assert homology.CheckGraph.of(ve).ends == tuple(tuple(sorted(e))
                                                        for e in c.edges)

    def test_weight_three_column_is_rejected(self):
        check = Gf2Matrix(3, 2, (0b01, 0b01, 0b11))
        with pytest.raises(homology.UnsupportedCheckStructure,
                           match="column 0 touches 3 generators"):
            homology.CheckGraph.of(check)


def _representative_cases():
    """pytest params (fe, ve): both sides of catalog, toric, planar,
    punctured and sampled checks."""
    checks = []
    names = dict.fromkeys(
        surface.closed_catalog_names()
        + ["toric(1,1)", "toric(1,5)", "toric(2,7)", "toric(3,5)"]
        + [f"toric({m},{m})" for m in range(2, 9)])
    for name in names:
        checks.append((name, surface.incidence_matrices(surface.catalog(name))))
    for label, code in planar_and_punctured_codes():
        checks.append((label, (code.x_stabilizers, code.z_stabilizers)))
    for i, c in enumerate(small_cellulation_pool()):
        checks.append((f"pool-{i}", surface.incidence_matrices(c)))
    cases = []
    for label, (fe, ve) in checks:
        cases += [pytest.param(fe, ve, id=f"{label}-primal"),
                  pytest.param(ve, fe, id=f"{label}-dual")]
    return cases


class TestCheckGraphOracle:
    # the one-pass build against the column-by-column transpose build
    @pytest.mark.parametrize("fe,ve", _representative_cases())
    def test_matches_the_transpose_oracle(self, fe, ve):
        # each check comes first in one case: its primal or its dual one
        assert homology.CheckGraph.of(fe) == transpose_check_graph(fe)

    def test_matches_the_transpose_oracle_on_random_checks(self):
        # columns of weight 0, 1 and 2 in every mix, empty checks included
        rng = random.Random(35)
        for _ in range(400):
            rows, cols = rng.randint(0, 7), rng.randint(0, 12)
            check = _random_check(rng, rows, cols, [0, 1, 2])
            assert homology.CheckGraph.of(check) == transpose_check_graph(
                check)

    @pytest.mark.parametrize("weight", [3, 4])
    def test_heavy_column_names_its_full_weight(self, weight):
        # the lowest heavy column is named, with every row it touches
        rng = random.Random(weight)
        for _ in range(100):
            rows, cols = rng.randint(weight, 8), rng.randint(1, 10)
            heavy = sorted(rng.sample(range(cols), rng.randint(1, cols)))
            check = _random_check(rng, rows, cols, [0, 1, 2],
                                  {e: weight for e in heavy})
            with pytest.raises(homology.UnsupportedCheckStructure) as exc:
                transpose_check_graph(check)
            message = f"column {heavy[0]} touches {weight} generators"
            assert str(exc.value) == message
            with pytest.raises(homology.UnsupportedCheckStructure,
                               match=f"^{message}$"):
                homology.CheckGraph.of(check)


def _random_check(rng, rows, cols, weights, fixed=None):
    """A rows x cols check whose column e has weight fixed[e], or else a
    weight drawn from weights (at most rows)."""
    bits = [0] * rows
    for e in range(cols):
        weight = (fixed or {}).get(e)
        if weight is None:
            weight = min(rng.choice(weights), rows)
        for r in rng.sample(range(rows), weight):
            bits[r] |= 1 << e
    return Gf2Matrix(rows, cols, tuple(bits))


class TestClassRepresentatives:
    # the forest/cotree rule must keep exactly the kernel vectors, in the
    # same order, that a greedy pass over the GF(2) kernel basis keeps
    @pytest.mark.parametrize("fe,ve", _representative_cases())
    def test_matches_the_greedy_kernel_oracle(self, fe, ve):
        first, _ = homology._tree_cotree(homology.CheckGraph.of(ve),
                                         homology.CheckGraph.of(fe))
        assert first == greedy_representatives(fe, ve)

    # the second basis, the cycles the same columns close in the second
    # forest, lies in ker(fe) and pairs with the first as the identity
    @pytest.mark.parametrize("fe,ve", _representative_cases())
    def test_second_basis_is_dual_to_the_first(self, fe, ve):
        first, second = homology._tree_cotree(homology.CheckGraph.of(ve),
                                              homology.CheckGraph.of(fe))
        assert len(second) == len(first)
        for v in second:
            assert fe.mul_vector(v).is_zero()
        assert [[a.dot(b) for b in second] for a in first] == [
            [int(i == j) for j in range(len(first))]
            for i in range(len(first))]


def _searched_sides(label, x_stab, z_stab):
    """pytest params (check, functionals) of both distance searches."""
    x_graph = homology.CheckGraph.of(x_stab)
    z_graph = homology.CheckGraph.of(z_stab)
    x_side, z_side = homology._tree_cotree(x_graph, z_graph)
    if not x_side:
        return []
    return [pytest.param(z_stab, x_side, id=f"{label}-d_z"),
            pytest.param(x_stab, z_side, id=f"{label}-d_x")]


def _start_rule_cases():
    cases = []
    names = dict.fromkeys(surface.closed_catalog_names()
                          + [f"toric({m},{m})" for m in range(2, 6)])
    for name in names:
        fe, ve = surface.incidence_matrices(surface.catalog(name))
        cases += _searched_sides(name, fe, ve)
    punctured = stabilizer.puncture(surface.fig4_shor(), 6, 0).code
    cases += _searched_sides("puncture-fig4_shor-6-0",
                             punctured.x_stabilizers, punctured.z_stabilizers)
    planar = stabilizer.build_punctured_disk_code(
        stabilizer.planar_two_holes_patch())
    cases += _searched_sides("planar-two-holes",
                             planar.x_stabilizers, planar.z_stabilizers)
    return cases


def _shifted(check, functionals, rng):
    """Each functional plus a random half of check's rows: the same class
    on ker(check), with other columns and so other starts."""
    shifted = []
    for f in functionals:
        bits = f.bits
        for row in check.row_bits:
            if rng.random() < 0.5:
                bits ^= row
        shifted.append(Gf2Vector(f.n, bits))
    return shifted


class TestStartRule:
    # the search starts only at the lower end of each column a functional
    # hits, so moving a functional within its class moves the starts
    @pytest.mark.parametrize("check,functionals", _start_rule_cases())
    def test_shifted_functionals_keep_the_distance(self, check,
                                                    functionals):
        graph = homology.CheckGraph.of(check)
        d, witness = homology._min_weight_logical(graph, functionals)
        assert witness.weight == d
        assert check.mul_vector(witness).is_zero()
        rng = random.Random(12)
        for _ in range(5):
            shifted = _shifted(check, functionals, rng)
            assert homology._min_weight_logical(graph, shifted)[0] == d

    def test_planar_two_holes_witnesses(self):
        code = stabilizer.build_punctured_disk_code(
            stabilizer.planar_two_holes_patch())
        x_graph = homology.CheckGraph.of(code.x_stabilizers)
        z_graph = homology.CheckGraph.of(code.z_stabilizers)
        z_side, x_side = homology._tree_cotree(x_graph, z_graph)
        for check, graph, functionals, expected in (
                (code.z_stabilizers, z_graph, z_side, 4),
                (code.x_stabilizers, x_graph, x_side, 7)):
            d, witness = homology._min_weight_logical(graph, functionals)
            assert d == witness.weight == expected
            assert check.mul_vector(witness).is_zero()
            assert any(witness.dot(f) for f in functionals)

    def test_zero_column_in_the_support_gives_distance_one(self):
        # columns: rows 0 and 1, row 1 alone, no row
        check = Gf2Matrix(2, 3, (0b001, 0b011))
        d, witness = homology._min_weight_logical(
            homology.CheckGraph.of(check),
            [Gf2Vector.from_support(3, [0, 2])])
        assert (d, witness) == (1, Gf2Vector.from_support(3, [2]))

    def test_zero_column_outside_the_support_is_skipped(self):
        # columns 0 and 1 both join row 0 to the boundary, column 2 is zero
        check = Gf2Matrix(1, 3, (0b011,))
        d, witness = homology._min_weight_logical(
            homology.CheckGraph.of(check),
            [Gf2Vector.from_support(3, [0])])
        assert (d, witness) == (2, Gf2Vector.from_support(3, [0, 1]))


def _random_graph_case(rng):
    """(check, columns, functionals): a random check matrix with columns
    of weight <= 2 on at most 12 columns, its column bit sets, and 1 to
    3 random functionals."""
    rows, n = rng.randrange(9), rng.randrange(1, 13)
    columns = []
    for _ in range(n):
        weight = min(rng.choice((0, 1, 2, 2, 2)), rows)
        columns.append(sum(1 << r for r in rng.sample(range(rows), weight)))
    check = Gf2Matrix(rows, n, tuple(
        sum(((col >> r) & 1) << e for e, col in enumerate(columns))
        for r in range(rows)))
    functionals = [Gf2Vector(n, rng.getrandbits(n))
                   for _ in range(rng.randrange(1, 4))]
    return check, columns, functionals


class TestMinWeightOracle:
    # brute force over all 2^n vectors: the lightest kernel vector that
    # pairs oddly with some functional
    def test_matches_brute_force(self):
        rng = random.Random(2024)
        seen = set()
        for _ in range(400):
            check, columns, functionals = _random_graph_case(rng)
            n = check.cols
            syndrome = [0] * (1 << n)
            lightest = None
            for v in range(1, 1 << n):
                low = v & -v
                syndrome[v] = syndrome[v ^ low] ^ columns[low.bit_length() - 1]
                if syndrome[v] == 0 and any((v & f.bits).bit_count() & 1
                                            for f in functionals):
                    w = v.bit_count()
                    lightest = w if lightest is None else min(lightest, w)
            graph = homology.CheckGraph.of(check)
            if lightest is None:
                with pytest.raises(ValueError, match="inconsistent"):
                    homology._min_weight_logical(graph, functionals)
                seen.add("none")
                continue
            d, witness = homology._min_weight_logical(graph, functionals)
            assert d == lightest, (check, functionals)
            assert witness.weight == d
            assert check.mul_vector(witness).is_zero()
            assert any(witness.dot(f) for f in functionals)
            seen.add(("d mod 2", d % 2))
            seen.update(("column weight", col.bit_count()) for col in columns)
            seen.add(("functionals", len(functionals)))
        assert seen >= {("d mod 2", 0), ("d mod 2", 1), ("column weight", 0),
                        ("column weight", 1), ("column weight", 2), "none",
                        ("functionals", 1), ("functionals", 2),
                        ("functionals", 3)}

    def test_later_start_one_shorter(self):
        # a square on rows 0-3 (columns 0-3) and, apart from it, a
        # triangle on rows 4-6 (columns 4-6); the functional hits column
        # 0 and column 4, so the search from row 0 meets the square
        # first, and the one from row 4 must still run to level 2 to
        # meet the triangle
        check = Gf2Matrix(7, 7, (0b0001001, 0b0000011, 0b0000110,
                                 0b0001100, 0b1010000, 0b0110000,
                                 0b1100000))
        graph = homology.CheckGraph.of(check)
        assert homology._min_weight_logical(
            graph, [Gf2Vector.from_support(7, [0, 4])]) == (
            3, Gf2Vector.from_support(7, [4, 5, 6]))
        assert homology._min_weight_logical(
            graph, [Gf2Vector.from_support(7, [0])]) == (
            4, Gf2Vector.from_support(7, [0, 1, 2, 3]))


class TestStartBlockingOracle:
    # each search blocks its start for the later searches of the same
    # functional only; the coset search and the support scan know
    # nothing of starts.  Shifting the functionals within their classes
    # gives each one many starts, on the lightest cycles too
    @staticmethod
    def _assert_engine(x_stab, z_stab, d_z, d_x):
        x_side, z_side = homology._tree_cotree(
            homology.CheckGraph.of(x_stab), homology.CheckGraph.of(z_stab))
        rng = random.Random(38)
        for check, functionals, d in ((z_stab, x_side, d_z),
                                      (x_stab, z_side, d_x)):
            graph = homology.CheckGraph.of(check)
            assert homology._min_weight_logical(graph, functionals)[0] == d
            for _ in range(8):
                shifted = _shifted(check, functionals, rng)
                assert homology._min_weight_logical(graph, shifted)[0] == d

    @pytest.mark.parametrize("name", ["toric(2,5)", "toric(3,4)",
                                      "toric(4,3)"])
    def test_non_square_tori(self, name):
        c = surface.catalog(name)
        fe, ve = surface.incidence_matrices(c)
        d_z, d_x = coset_min_essential(fe, ve), coset_min_essential(ve, fe)
        assert stabilizer.build_code(c).parameters()[2:] == (d_x, d_z)
        assert (homology.systole(c)[0], homology.dual_systole(c)[0]) == (
            d_z, d_x)
        self._assert_engine(fe, ve, d_z, d_x)

    # d_x by a scan of supports: rowspace(z_stabilizers) is too large
    # for a coset search
    @pytest.mark.parametrize("patch", [
        stabilizer.PlanarPatch(3, 3, ((1, 1, 1, 1),)),
        stabilizer.PlanarPatch(4, 4, ((1, 1, 2, 2),)),
        stabilizer.PlanarPatch(5, 3, ((1, 1, 2, 1),)),
        stabilizer.PlanarPatch(4, 3, ((1, 1, 1, 1), (2, 1, 1, 1))),
        stabilizer.PlanarPatch(5, 3, ((1, 1, 1, 1), (3, 1, 1, 1))),
        stabilizer.PlanarPatch(5, 4, ((1, 1, 1, 1), (3, 2, 1, 1))),
    ], ids=["3x3-one", "4x4-one-2x2", "5x3-one-2x1", "4x3-two-adjacent",
            "5x3-two-apart", "5x4-two-diagonal"])
    def test_planar_patches(self, patch):
        code = stabilizer.build_punctured_disk_code(patch)
        x_stab, z_stab = code.x_stabilizers, code.z_stabilizers
        d_z = coset_min_essential(x_stab, z_stab)
        d_x = support_min_essential(z_stab, x_stab)
        assert (code.d_x, code.d_z) == (d_x, d_z)
        self._assert_engine(x_stab, z_stab, d_z, d_x)
