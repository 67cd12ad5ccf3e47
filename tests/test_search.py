import collections
import dataclasses
import hashlib
import itertools

import pytest

from cellqec import homology, search, surface
from cellqec.search import EnumerationConstraints
from cellqec.surface import CellulationError


class TestPartitions:
    def test_matches_brute_force(self):
        for total, parts, cap in [(6, 3, 6), (8, 4, 5), (5, 2, 3)]:
            got = sorted(search._partitions(total, parts, cap))
            want = sorted(
                p for p in itertools.product(range(1, cap + 1), repeat=parts)
                if sum(p) == total and all(a >= b for a, b in zip(p, p[1:])))
            assert got == want

    def test_empty_cases(self):
        assert list(search._partitions(0, 0, 5)) == [()]
        assert list(search._partitions(3, 0, 5)) == []


def _search_inputs(max_edges=4):
    """(degrees, f_target) for every degree sequence with at most
    max_edges edges: unconstrained, and at the projective plane's face
    count e - v + 1 where it is positive."""
    for e in range(1, max_edges + 1):
        for v in range(1, 2 * e + 1):
            for degs in search._partitions(2 * e, v, 2 * e):
                yield degs, None
                if e - v + 1 > 0:
                    yield degs, e - v + 1


def _leaves(degs, f_target, reduce_symmetry, max_bigons=None, visit=None):
    """(returned count, every accepted leaf's s0 as bytes, in order)."""
    leaves = []

    def collect(s0, s1):
        leaves.append(bytes(s0))
        if visit is not None:
            visit(s0, s1)

    n = search._scheme_search(degs, collect, f_target, reduce_symmetry,
                              max_bigons)
    return n, leaves


class TestSchemeSearch:
    def test_leaf_stream_is_pinned(self):
        # every leaf, in order, of every small search; the digest was
        # taken before the search dropped its class table, its per-node
        # offered set and its path lengths
        digest = hashlib.sha256()
        total = 0
        for degs, f_target in _search_inputs():
            for max_bigons in (None, 0, 1):
                for reduced in (False, True):
                    n, leaves = _leaves(degs, f_target, reduced, max_bigons)
                    digest.update(n.to_bytes(4, "little"))
                    for leaf in leaves:
                        digest.update(leaf)
                    total += len(leaves)
        assert total == 34987
        assert digest.hexdigest() == (
            "dac905e1b50abe3a985f1fb55b64c05a3c94504cc28b9e883e671228cedbde3b")

    def test_bigon_bound_keeps_exactly_the_leaves_within_it(self):
        # oracle: count the faces of size 2 (face cycles of 4 flags) of
        # every unrestricted leaf on its flag map
        for degs, f_target in _search_inputs():
            for reduced in (False, True):
                bigons = []

                def count_bigons(s0, s1):
                    fm = surface.FlagMap(s0, s1, [f ^ 1 for f in
                                                  range(len(s0))])
                    cell, _, faces = fm._cells(s0, s1)
                    bigons.append([cell.count(i)
                                   for i in range(faces)].count(4))

                _, every = _leaves(degs, f_target, reduced,
                                   visit=count_bigons)
                for b in (0, 1, 2):
                    n, got = _leaves(degs, f_target, reduced, b)
                    assert got == [leaf for leaf, k in zip(every, bigons)
                                   if k <= b], (degs, f_target, reduced, b)
                    assert n == len(got)


    def test_face_bounds_keep_exactly_the_leaves_with_the_target_faces(self):
        # oracle: the search with neither a face target nor a bigon
        # bound, filtered to the leaves whose flag maps have exactly
        # f_target face cells and at most max_bigons of 4 flags; every
        # target from 1 to the sphere's e - v + 2 up to 4 edges, and the
        # projective plane's 6 - v at 5 edges
        cases = [(degs, range(1, e - len(degs) + 3))
                 for e in range(1, 5) for v in range(1, 2 * e + 1)
                 for degs in search._partitions(2 * e, v, 2 * e)]
        cases += [(degs, (6 - v,)) for v in range(1, 6)
                  for degs in search._partitions(10, v, 10)]
        cut = 0
        for degs, targets in cases:
            s2 = [f ^ 1 for f in range(2 * sum(degs))]
            for reduced in (False, True):
                cells = []

                def count_cells(s0, s1):
                    cell, _, faces = surface.FlagMap(s0, s1, s2)._cells(s0, s1)
                    sizes = collections.Counter(cell).values()
                    cells.append((faces, list(sizes).count(4)))

                _, every = _leaves(degs, None, reduced, visit=count_cells)
                for f_target in targets:
                    for max_bigons in (None, 0, 1):
                        n, got = _leaves(degs, f_target, reduced, max_bigons)
                        want = [leaf for leaf, (k, b) in zip(every, cells)
                                if k == f_target
                                and (max_bigons is None or b <= max_bigons)]
                        assert got == want, (degs, f_target, reduced,
                                             max_bigons)
                        assert n == len(got)
                        cut += 0 < len(want) < len(every)
        assert cut > 0


class TestEnumerate:
    @pytest.mark.parametrize("edges,classes", [(1, 3), (2, 11), (3, 63)])
    def test_unfiltered_class_counts(self, edges, classes):
        found = search.enumerate_cellulations(EnumerationConstraints(edges))
        assert len(found) == classes
        forms = set()
        for c in found:
            surface.validate(c)
            forms.add(surface.canonical_form(c))
        assert len(forms) == classes

    @pytest.mark.parametrize("edges,classes", [(2, 4), (3, 19)])
    def test_projective_plane_counts(self, edges, classes):
        found = search.enumerate_cellulations(EnumerationConstraints.rp2(edges))
        assert len(found) == classes
        for c in found:
            info = surface.validate(c)
            assert info.surface_name == "projective plane"

    def test_reductions_change_nothing(self):
        # twist reduction and duality must not alter the class list
        def forms(edges, **kw):
            return {surface.canonical_form(c) for c in
                    search.enumerate_cellulations(
                        EnumerationConstraints.rp2(edges), **kw)}

        for edges in (3, 4):
            baseline = forms(edges, reduce_symmetry=False,
                             use_duality=False)
            assert forms(edges) == baseline
            assert forms(edges, reduce_symmetry=False) == baseline
            assert forms(edges, use_duality=False) == baseline

    @pytest.mark.parametrize("cons", [
        EnumerationConstraints(1), EnumerationConstraints(2),
        EnumerationConstraints(3), EnumerationConstraints(4),
        EnumerationConstraints.rp2(2), EnumerationConstraints.rp2(3),
        EnumerationConstraints.rp2(4), EnumerationConstraints.rp2(5),
        EnumerationConstraints(4, chi=0, orientable=True),
        EnumerationConstraints(4, chi=0, orientable=False),
        EnumerationConstraints(4, chi=-1),
        EnumerationConstraints(4, chi=2),
        EnumerationConstraints.rp2(5, bigon_faces=1),
        EnumerationConstraints.rp2(5, valence2_vertices=2),
    ], ids=["all-1", "all-2", "all-3", "all-4", "rp2-2", "rp2-3", "rp2-4",
            "rp2-5", "torus-4", "klein-4", "chi-1-4", "sphere-4",
            "rp2-5-bigon", "rp2-5-valence2"])
    def test_reductions_keep_representatives_and_order(self, cons):
        # the first leaf of each class is never pruned, so the reduced
        # search lists the very same cellulations in the same order
        def docs(**kw):
            return [c.to_json()
                    for c in search.enumerate_cellulations(cons, **kw)]

        assert docs() == docs(reduce_symmetry=False)

    def test_shor_class_is_unique_at_its_counts(self):
        found = search.enumerate_cellulations(EnumerationConstraints.rp2(
            9, min_primal_systole=3, min_dual_systole=3,
            vertex_count=3, bigon_faces=6))
        assert len(found) == 1
        assert surface.isomorphic(found[0], surface.fig4_shor())

    def test_infeasible_vertex_count(self):
        assert search.enumerate_cellulations(
            EnumerationConstraints.rp2(3, vertex_count=9)) == []

    def test_budget(self):
        with pytest.raises(search.EnumerationBudgetError):
            search.enumerate_cellulations(EnumerationConstraints(11))

    def test_bad_constraints(self):
        with pytest.raises(ValueError):
            EnumerationConstraints(0)
        with pytest.raises(ValueError):
            EnumerationConstraints(3, min_primal_systole=0)

    @pytest.mark.parametrize("field", ["vertex_count", "bigon_faces",
                                       "valence2_vertices"])
    def test_negative_counts_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            EnumerationConstraints(3, **{field: -1})
        EnumerationConstraints(3, **{field: 0})  # zero is a real demand


class TestCensus:
    def test_five_edges_has_no_survivors(self):
        report = search.census_report(5)
        assert report["survivor_count"] == 0
        assert report["survivors"] == []
        assert report["classes_examined"] > 0
        assert report["schemes_examined"] >= report["classes_examined"]

    # (schemes_examined, classes_examined) pinned so that changes to the
    # search state or its undo trail cannot move them unnoticed
    @pytest.mark.parametrize("edges,counts", [
        (3, (22, 19)), (4, (109, 106)), (5, (1263, 709)), (6, (8822, 5356))])
    def test_report_counts_are_pinned(self, edges, counts):
        report = search.census_report(edges)
        assert (report["schemes_examined"],
                report["classes_examined"]) == counts

    @pytest.mark.parametrize("cons,reduced,counts", [
        (EnumerationConstraints.rp2(3), False, (162, 19, 19)),
        (EnumerationConstraints.rp2(4), False, (2169, 106, 106)),
        (EnumerationConstraints(1), True, (3, 3, 3)),
        (EnumerationConstraints(2), True, (13, 11, 11)),
        (EnumerationConstraints(3), True, (94, 63, 63)),
        # the only runs that prune on the bigon counter
        (EnumerationConstraints.rp2(4, bigon_faces=0), True, (135, 67, 67)),
        (EnumerationConstraints.rp2(4, bigon_faces=1), True, (154, 73, 30)),
        (EnumerationConstraints.rp2(5, bigon_faces=2, valence2_vertices=1),
         True, (623, 226, 16)),
        # chi = 0 leaves differ only in orientability: torus, Klein bottle
        (EnumerationConstraints(4, chi=0, orientable=True), True,
         (282, 40, 40)),
        (EnumerationConstraints(4, chi=0, orientable=False), True,
         (282, 137, 137)),
    ], ids=["rp2-3-unreduced", "rp2-4-unreduced", "all-1", "all-2",
            "all-3", "rp2-4-no-bigons", "rp2-4-bigons",
            "rp2-5-bigons-valence2", "torus-4", "klein-4"])
    def test_scheme_and_class_counts_are_pinned(self, cons, reduced, counts):
        found, schemes, classes = search._enumerate_with_stats(
            cons, reduce_symmetry=reduced, use_duality=reduced)
        assert (schemes, classes, len(found)) == counts

    @pytest.mark.parametrize("cons", [
        EnumerationConstraints.rp2(6),
        EnumerationConstraints(4, chi=0, orientable=False),
    ], ids=["rp2-6", "klein-4"])
    def test_each_search_runs_once(self, cons, monkeypatch):
        # a side and its dual are served by one search, not one each
        calls = []
        real = search._scheme_search

        def spy(degrees, visit, f_target, reduce_symmetry,
                max_bigons=None, orientable=None):
            calls.append((degrees, f_target, reduce_symmetry,
                          max_bigons, orientable))
            return real(degrees, visit, f_target, reduce_symmetry,
                        max_bigons, orientable)

        monkeypatch.setattr(search, "_scheme_search", spy)
        search._enumerate_with_stats(cons)
        assert calls
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("edges,leaves,digest", [
        (5, 1263,
         "6c86a83ab44d15a80f131298f86d93774856c3c263de47c6077a4e949c47b0a3"),
        (6, 8822,
         "348007c9d2407088b615bf8dfc94fb729e7966117ad1a510fa1ed62f2bfd7a5d"),
    ])
    def test_census_leaf_stream_is_pinned(self, edges, leaves, digest,
                                          monkeypatch):
        # every search census_report runs, with every leaf in order; the
        # digests were taken before the face bound counted the unions
        # still needed and before a node offered only face-closing matches
        real = search._scheme_search
        h = hashlib.sha256()
        total = 0

        def spy(degrees, visit, f_target, reduce_symmetry,
                max_bigons=None, orientable=None):
            nonlocal total
            h.update(repr((degrees, f_target, reduce_symmetry, max_bigons,
                           orientable)).encode())

            def collect(s0, s1):
                nonlocal total
                h.update(bytes(s0))
                total += 1
                visit(s0, s1)

            n = real(degrees, collect, f_target, reduce_symmetry,
                     max_bigons, orientable)
            h.update(n.to_bytes(4, "little"))
            return n

        monkeypatch.setattr(search, "_scheme_search", spy)
        search.census_report(edges)
        assert total == leaves
        assert h.hexdigest() == digest

    def test_filters_reach_the_report(self):
        report = search.census_report(4, min_systole=1, vertex_count=1)
        assert report["survivor_count"] > 0
        for doc in report["survivors"]:
            assert doc["vertices"] == 1


class TestIdentifyVertices:
    def test_counts_shift(self):
        c = surface.fig4_shor()
        hexagon = max(range(c.face_count), key=lambda f: len(c.faces[f]))
        m = search.identify_vertices(c, hexagon, 0, 1)
        assert m.vertex_count == c.vertex_count - 1
        assert m.edge_count == c.edge_count
        assert m.face_count == c.face_count + 1
        assert surface.validate(m).euler_characteristic == 1

    def test_same_vertex_rejected(self):
        c = surface.fig4_shor()
        hexagon = max(range(c.face_count), key=lambda f: len(c.faces[f]))
        with pytest.raises(CellulationError):
            search.identify_vertices(c, hexagon, 0, 3)  # both at vertex a

    @pytest.mark.parametrize("face", [-1, 7])
    def test_face_index_out_of_range_rejected(self, face):
        c = surface.fig4_shor()  # faces 0..6
        with pytest.raises(CellulationError, match="out of range"):
            search.identify_vertices(c, face, 0, 1)

    # corners are range-checked like the face index; taken modulo the
    # walk length, corner 100 would pinch corner 4 of the hexagon
    @pytest.mark.parametrize("corner_a,corner_b", [(0, 100), (0, 6),
                                                   (-1, 1), (1, -2)])
    def test_corner_out_of_range_rejected(self, corner_a, corner_b):
        c = surface.fig4_shor()  # face 6 is the hexagon, corners 0..5
        assert len(c.faces[6]) == 6
        with pytest.raises(CellulationError, match="out of range 0..5"):
            search.identify_vertices(c, 6, corner_a, corner_b)

    def test_identification_classes_are_pinned(self):
        # the digest was taken from an independent construction, which
        # split the face walk and relabelled the vertices by hand
        digest = hashlib.sha256()
        count = 0
        for name in surface.closed_catalog_names() + ["toric(2,3)"]:
            c = surface.catalog(name)
            for m in search.all_identifications(c):
                surface.validate(m)
                assert (m.vertex_count, m.edge_count, m.face_count) == (
                    c.vertex_count - 1, c.edge_count, c.face_count + 1)
                digest.update(surface.canonical_form(m))
                count += 1
        assert count == 220
        assert digest.hexdigest() == (
            "489cb7460a2337c17c1b0bce10ccaadc51747516d910e00b7c182e223a1ff64c")

    def test_reaches_its_own_products(self):
        c = surface.fig4_shor()
        products = list(search.all_identifications(c))
        assert products
        assert search.identification_reaches(c, products[0])

    def test_unreachable_target(self):
        assert not search.identification_reaches(
            surface.fig4_shor(), surface.rp2_minimal())


class TestLabelling:
    # the cell numbering of FlagMap.to_cellulation reaches every printed
    # cellulation; both digests were taken before the cells were found
    # by one walk, with the orbit search they replace
    def test_flag_moves_keep_their_labels(self):
        digest = hashlib.sha256()
        for name in surface.closed_catalog_names() + ["toric(2,3)"]:
            c = surface.catalog(name)
            digest.update(surface.dual(c).to_json().encode())
            for m in search.all_identifications(c):
                digest.update(m.to_json().encode())
            for m in search.edge_slides(c):
                digest.update(m.to_json().encode())
        assert digest.hexdigest() == (
            "6e028542d0167c3a78b501f8c972b35455d8e4276ca7c8386c7a2b57c5260a9c")

    def test_census_classes_keep_their_labels(self):
        digest = hashlib.sha256()
        for e in range(1, 5):
            for c in search.enumerate_cellulations(EnumerationConstraints(e)):
                digest.update(c.to_json().encode())
                digest.update(surface.dual(c).to_json().encode())
        assert digest.hexdigest() == (
            "d1006fe1a8499e87dcb0cf85aae8939defa1d47582d541e6898715930d7db79c")


class TestEdgeSlides:
    def test_slides_preserve_everything_but_the_class(self):
        c = surface.fig4_shor()
        key = surface.canonical_form(c)
        slid = list(search.edge_slides(c))
        assert slid
        for s in slid:
            info = surface.validate(s)
            assert info.surface_name == "projective plane"
            assert (s.vertex_count, s.edge_count, s.face_count) == (3, 9, 7)
            assert surface.canonical_form(s) != key

    def test_slides_are_reversible(self):
        c = surface.fig4_shor()
        key = surface.canonical_form(c)
        for s in search.edge_slides(c):
            back = {surface.canonical_form(t) for t in search.edge_slides(s)}
            assert key in back


class TestFilters:
    def test_systole_filter(self):
        cons = EnumerationConstraints.rp2(2, min_primal_systole=2)
        for c in search.enumerate_cellulations(cons):
            assert homology.systole(c)[0] >= 2

    def test_bigon_filter(self):
        cons = EnumerationConstraints.rp2(3, bigon_faces=1)
        found = search.enumerate_cellulations(cons)
        assert found
        for c in found:
            assert search._face_sizes(c).count(2) == 1

    @pytest.mark.parametrize("cons", [
        EnumerationConstraints.rp2(e, min_primal_systole=p,
                                   min_dual_systole=d)
        for e in (3, 4, 5) for p, d in ((2, 2), (3, 3), (2, 1), (1, 3))
    ] + [
        EnumerationConstraints(4, chi=chi, orientable=orientable,
                               min_primal_systole=b, min_dual_systole=b)
        for chi, orientable in ((0, True), (0, False), (-1, None))
        for b in (2, 3)
    ], ids=lambda cons: (f"chi{cons.chi}-{cons.orientable}-"
                         f"{cons.edge_count}-{cons.min_primal_systole}"
                         f"{cons.min_dual_systole}"))
    def test_flag_test_drops_only_what_the_filter_drops(self, cons):
        # the flag-level reject must leave exactly the classes, in the
        # same order, that the homology filter keeps on its own
        unbounded = dataclasses.replace(cons, min_primal_systole=1,
                                        min_dual_systole=1)
        want = [c.to_json() for c in search.enumerate_cellulations(unbounded)
                if search._passes_filters(c, cons)]
        got = [c.to_json() for c in search.enumerate_cellulations(cons)]
        assert got == want
        if cons == EnumerationConstraints.rp2(5, min_primal_systole=2,
                                              min_dual_systole=2):
            assert len(got) == 13


def _flag_test_cases():
    """(name, cellulation) for every class with E <= 5 on every surface,
    the closed catalog and toric(2..4)."""
    for e in range(1, 6):
        for i, c in enumerate(search.enumerate_cellulations(
                EnumerationConstraints(e))):
            yield f"census-{e}-{i}", c
    for name in surface.closed_catalog_names() + [
            f"toric({m},{m})" for m in (2, 3, 4)]:
        yield name, surface.catalog(name)


class TestShortReversingCycle:
    def test_agrees_with_the_systoles(self):
        # sound on every surface; exact on RP2, where every essential
        # cycle reverses orientation, for bounds up to 3
        rejected = {2: 0, 3: 0}
        rp2_kept = {2: 0, 3: 0}
        for name, c in _flag_test_cases():
            rp2 = surface.validate(c).surface_name == "projective plane"
            fm = surface.build_flags(c)
            for side, systole in ((fm, homology.systole),
                                  (fm.dual(), homology.dual_systole)):
                try:
                    length = systole(c)[0]
                except homology.TrivialHomologyError:
                    length = None
                for bound in (2, 3):
                    if search._short_reversing_cycle(side, bound):
                        rejected[bound] += 1
                        assert length is not None and length < bound, name
                    elif rp2:
                        rp2_kept[bound] += 1
                        assert length >= bound, name
        assert min(rejected.values()) > 0 and min(rp2_kept.values()) > 0
