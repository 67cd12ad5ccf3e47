import collections
import dataclasses
import hashlib
import itertools
import sys

import pytest
import rooted_oracle
from sampling import small_cellulation_pool

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

    def collect(s0, s1, girth):
        leaves.append(bytes(s0))
        if visit is not None:
            visit(s0, s1)

    n = search._scheme_search(degs, collect, f_target, reduce_symmetry,
                              max_bigons)
    return n, leaves


class TestSchemeSearch:
    def test_leaf_stream_is_pinned(self):
        # every leaf, in order, of every small search; the digest was
        # derived before the orderly test moved into the search, from the
        # leaves its leaf-level form accepted
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
        assert total == 32970
        assert digest.hexdigest() == (
            "d6f726deda7762f666de7f67dbbdc7d760e16a05cd64c3421202ee332bc1b2a8")

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
        # target from 1 to the sphere's e - v + 2 up to 4 edges, the
        # projective plane's 6 - v at 5 edges, and its 7 - v at 6 edges
        # in the reduced search only, as the census runs it
        both = (False, True)
        cases = [(degs, range(1, e - len(degs) + 3), both)
                 for e in range(1, 5) for v in range(1, 2 * e + 1)
                 for degs in search._partitions(2 * e, v, 2 * e)]
        cases += [(degs, (6 - v,), both) for v in range(1, 6)
                  for degs in search._partitions(10, v, 10)]
        cases += [(degs, (7 - v,), (True,)) for v in range(1, 7)
                  for degs in search._partitions(12, v, 12)]
        cut = 0
        for degs, targets, reductions in cases:
            s2 = [f ^ 1 for f in range(2 * sum(degs))]
            for reduced in reductions:
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

    def test_circle_bound_cuts_only_states_that_cannot_finish(self):
        # every child state with at most 8 free slots that reaches the
        # boundary-circle bound in the reduced searches up to 5 edges, at
        # each target from 1 to the sphere's e - v + 2, read off apply's
        # frame as it returns: apply sets slack only for a child that
        # passes the too-many-faces test, and with no bigon bound it
        # returns None after that either from the bound or, with walks
        # None, from the orderly test.  No completion of a cut state may
        # be connected with exactly f_target faces, and the singles s
        # must be the free slots x whose path, traced afresh from the
        # child's matches, runs from 2x to 2x + 1.  Some cuts must come
        # from the O(1) bound on the circles and some only from their
        # exact count, and the bound makes the cuts at complete leaves
        # too, where no slot is left
        cut = []

        def trace(frame, event, arg):
            if (frame.f_code.co_name != "apply"
                    or frame.f_globals is not vars(search)):
                return None
            frame.f_trace_lines = False

            def returned(frame, event, arg):
                state = frame.f_locals
                if (event != "return" or "slack" not in state
                        or state["r"] > 8):
                    return
                a, b, t, s1 = state["a"], state["b"], state["t"], state["s1"]
                match = list(state["match"])
                match[a], match[b] = 2 * b + t, 2 * a + t
                assert state["s"] == _singles(s1, match)
                if arg is None and state["walks"] is not None:
                    cut.append((s1, match, state["f_target"],
                                [state[k] for k in ("r", "faces", "u", "s")]))
            return returned

        for e in range(1, 6):
            for v in range(1, 2 * e + 1):
                for degs in search._partitions(2 * e, v, 2 * e):
                    for f_target in range(1, e - v + 3):
                        sys.settrace(trace)
                        try:
                            _leaves(degs, f_target, True)
                        finally:
                            sys.settrace(None)
        memos = {}
        cheap = set()
        for s1, match, f_target, (r, faces, u, s) in cut:
            memo = memos.setdefault((tuple(s1), f_target), {})
            assert not _completes(s1, match, f_target, memo), (match, f_target)
            m = max(u, (s + 1) // 2)
            cheap.add(2 * u > r or 2 * (f_target - faces) > 2 * r + s - 4 * m)
        assert {match.count(-1) for _, match, _, _ in cut} == {0, 2, 4, 6, 8}
        assert cheap == {False, True}


def _singles(s1, match):
    """The free slots x of match (-1) whose boundary path, which
    alternates s1 and the matched s0 edges from flag 2x, ends at 2x + 1."""
    n = 0
    for x, m in enumerate(match):
        if m < 0:
            f = s1[2 * x]
            while match[f >> 1] >= 0:
                f = s1[match[f >> 1] ^ (f & 1) ^ 1]
            n += f == 2 * x + 1
    return n


def _completes(s1, match, f_target, memo):
    """Brute force: does some pairing and twisting of the free slots of
    match (-1) give a connected map with exactly f_target faces?  memo
    holds the answers for match tuples of one s1 and f_target."""
    key = tuple(match)
    if key not in memo:
        free = [x for x, m in enumerate(match) if m < 0]
        if free:
            a = free[0]
            found = False
            for b, t in itertools.product(free[1:], (0, 1)):
                child = list(match)
                child[a], child[b] = 2 * b + t, 2 * a + t
                if _completes(s1, child, f_target, memo):
                    found = True
                    break
        else:
            s0 = [f for m in match for f in (m ^ 1, m)]
            fm = surface.FlagMap(s0, s1, [f ^ 1 for f in range(len(s0))])
            found = (fm._cells(s0, s1)[2] == f_target
                     and fm.components()[0] == 1)
        memo[key] = found
    return memo[key]


def _orderly_cases():
    """(degrees, f_target, max_bigons): every degree sequence up to 5
    edges with no face target and at each target from 1 to the
    sphere's e - v + 2, and the projective plane's e - v + 1 up to 6
    edges with max_bigons 0 and 1."""
    for e in range(1, 7):
        for v in range(1, 2 * e + 1):
            for degs in search._partitions(2 * e, v, 2 * e):
                if e <= 5:
                    yield degs, None, None
                    for f_target in range(1, e - v + 3):
                        yield degs, f_target, None
                if e - v + 1 > 0:
                    for max_bigons in (0, 1):
                        yield degs, e - v + 1, max_bigons


class TestFirstOfClass:
    def test_accepts_exactly_the_first_leaf_of_each_class(self, monkeypatch):
        # oracle: the same search with the orderly cut switched off (R2
        # and R3 only), every leaf keyed by its canonical form.  The
        # reduced search must reach exactly the leaves of that stream
        # whose forms are new to it, in order, so each of its leaves
        # opens a class and it finds them all; up to 4 edges the classes
        # must also be those of the unreduced search.  The cut must fire
        # on (5, 3, 2) below a seed (a vertex i > 0 whose slot 0 is the
        # lower end of its match) and below a twisted loop at the root,
        # and leaves of both kinds must come out
        real = search._first_of_class
        cut, kept = set(), set()

        def spy(degrees, match):
            seeded, extend = real(degrees, match)
            starts = list(itertools.accumulate(degrees, initial=0))

            def extend_and_record(walks, a, b):
                kids = extend(walks, a, b)
                if kids is None:
                    if degrees == (5, 3, 2) and any(
                            match[s] >> 1 > s for s in starts[1:-1]):
                        cut.add("seeded")
                    if match[0] & 1 and match[0] >> 1 < degrees[0]:
                        cut.add("twisted")
                return kids
            return seeded, extend_and_record

        def uncut(degrees, match):
            return (lambda j, touched: []), (lambda walks, a, b: walks)

        for degs, f_target, max_bigons in _orderly_cases():
            starts = list(itertools.accumulate(degs, initial=0))
            s2 = [f ^ 1 for f in range(2 * sum(degs))]
            keyed = []

            def key(s0, s1, girth):
                keyed.append((bytes(s0), surface.FlagMap(s0, s1, s2)
                              .canonical_form()))

            monkeypatch.setattr(search, "_first_of_class", uncut)
            search._scheme_search(degs, key, f_target, True, max_bigons)
            forms, want = set(), []
            for leaf, form in keyed:
                if form not in forms:
                    forms.add(form)
                    want.append(leaf)
            monkeypatch.setattr(search, "_first_of_class", spy)
            n, got = _leaves(degs, f_target, True, max_bigons)
            assert got == want, (degs, f_target, max_bigons)
            assert n == len(got)
            for s0 in got:
                if degs == (5, 3, 2) and any(s0[2 * s + 1] >> 1 > s
                                             for s in starts[1:-1]):
                    kept.add("seeded")
                if s0[1] & 1 and s0[1] >> 1 < degs[0]:
                    kept.add("twisted")
            if sum(degs) <= 8:
                keyed.clear()
                search._scheme_search(degs, key, f_target, False, max_bigons)
                assert {form for _, form in keyed} == forms
        assert cut == kept == {"seeded", "twisted"}

    @pytest.mark.parametrize("degs,f_target,max_bigons", [
        ((5, 3, 2), 3, 1), ((3, 3, 2, 2), 2, None), ((4, 3, 2, 1), 2, None),
        ((3, 3, 2, 1, 1), 2, None), ((6, 3, 2, 1), 3, None)])
    def test_search_resets_its_live_lists(self, degs, f_target, max_bigons,
                                          monkeypatch):
        # match and touched are written in place and reset after each
        # child: once the search returns, the match list the orderly test
        # reads is all -1 and the touched list seeded reads all False, and
        # a second run in the same process reaches the same leaves; each
        # case reaches a seed, where seeded is handed the touched list
        real = search._first_of_class
        live = []

        def spy(degrees, match):
            seeded, extend = real(degrees, match)

            def seeded_and_record(j, touched):
                live.append(touched)
                return seeded(j, touched)

            live.append(match)
            return seeded_and_record, extend

        monkeypatch.setattr(search, "_first_of_class", spy)
        runs = []
        for _ in range(2):
            live.clear()
            runs.append(_leaves(degs, f_target, True, max_bigons))
            match, *touched = live
            assert match == [-1] * sum(degs)
            assert touched and all(t == [False] * len(degs) for t in touched)
        assert runs[0] == runs[1]
        assert runs[0][0] == len(runs[0][1]) > 0


class TestRootedMaps:
    def test_closed_forms_give_the_known_counts(self):
        n = range(1, 6)
        assert [rooted_oracle.rooted_all(e) for e in n] == [
            3, 24, 297, 4896, 100278]
        assert [rooted_oracle.rooted_orientable(e) for e in n] == [
            2, 10, 74, 706, 8162]
        assert [rooted_oracle.rooted_planar(e) for e in n] == [
            2, 9, 54, 378, 2916]

    @pytest.mark.parametrize("edges", range(1, 6))
    def test_census_counts_every_rooted_map(self, edges):
        # each class weighed 4e / |Aut| must give the closed-form counts,
        # unconstrained and summed over the searches at each fixed chi
        # from 2 - e to 2, whose face targets prune; the sphere's own
        # search must give Tutte's count
        want = {"all": rooted_oracle.rooted_all(edges),
                "orientable": rooted_oracle.rooted_orientable(edges),
                "sphere": rooted_oracle.rooted_planar(edges)}
        assert rooted_oracle.rooted_counts(edges) == want
        by_chi = [rooted_oracle.rooted_counts(edges, chi)
                  for chi in range(2 - edges, 3)]
        assert {key: sum(c[key] for c in by_chi) for key in want} == want
        assert by_chi[-1]["all"] == want["sphere"]


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
        # the search's girth lets some classes through, and a dualized
        # side reads it against the other bound
        EnumerationConstraints.rp2(5, min_primal_systole=2,
                                   min_dual_systole=2),
        EnumerationConstraints(5, chi=0, min_primal_systole=1,
                               min_dual_systole=3),
        EnumerationConstraints(5, chi=0, min_primal_systole=3,
                               min_dual_systole=1),
        EnumerationConstraints(5, chi=2, min_primal_systole=2,
                               min_dual_systole=3),
    ], ids=["all-1", "all-2", "all-3", "all-4", "rp2-2", "rp2-3", "rp2-4",
            "rp2-5", "torus-4", "klein-4", "chi-1-4", "sphere-4",
            "rp2-5-bigon", "rp2-5-valence2", "rp2-5-systole22",
            "chi0-5-systole13", "chi0-5-systole31", "sphere-5-systole23"])
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
        with pytest.raises(ValueError, match="even chi"):
            EnumerationConstraints(3, chi=1, orientable=True)
        EnumerationConstraints(3, chi=1, orientable=False)

    @pytest.mark.parametrize("orientable", [True, False])
    def test_orientability_alone_filters_the_unconstrained_list(
            self, orientable):
        # with chi unset every leaf's flag map decides; the list is the
        # unconstrained one, in order, less the cellulations of the
        # other kind
        for e in range(1, 5):
            every = search.enumerate_cellulations(EnumerationConstraints(e))
            got = search.enumerate_cellulations(
                EnumerationConstraints(e, orientable=orientable))
            assert [c.to_json() for c in got] == [
                c.to_json() for c in every
                if surface.validate(c).orientable == orientable]

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

    @pytest.mark.parametrize("edges,classes", [(5, 709), (6, 5356)])
    def test_every_reduced_leaf_opens_a_class(self, edges, classes):
        # without duality each class is searched once, and the orderly
        # test inside the search lets only its first leaf through
        _, schemes, found = search._enumerate_with_stats(
            EnumerationConstraints.rp2(edges), use_duality=False)
        assert schemes == found == classes

    # (schemes_examined, classes_examined) pinned so that changes to the
    # search state, its per-node copies or its in-place resets cannot
    # move them unnoticed; the scheme counts were derived before the
    # orderly test moved into the search, as the leaves its leaf-level
    # form accepted
    @pytest.mark.parametrize("edges,counts", [
        (3, (14, 19)), (4, (53, 106)), (5, (502, 709)), (6, (2678, 5356))])
    def test_report_counts_are_pinned(self, edges, counts):
        report = search.census_report(edges)
        assert (report["schemes_examined"],
                report["classes_examined"]) == counts

    @pytest.mark.parametrize("cons,reduced,counts", [
        (EnumerationConstraints.rp2(3), False, (162, 19, 19)),
        (EnumerationConstraints.rp2(4), False, (2169, 106, 106)),
        (EnumerationConstraints(1), True, (3, 3, 3)),
        (EnumerationConstraints(2), True, (11, 11, 11)),
        (EnumerationConstraints(3), True, (63, 63, 63)),
        # the only runs that prune on the bigon counter
        (EnumerationConstraints.rp2(4, bigon_faces=0), True, (67, 67, 67)),
        (EnumerationConstraints.rp2(4, bigon_faces=1), True, (73, 73, 30)),
        (EnumerationConstraints.rp2(5, bigon_faces=2, valence2_vertices=1),
         True, (226, 226, 16)),
        # chi = 0 leaves differ only in orientability: torus, Klein bottle;
        # schemes count the leaves of both, classes those of one
        (EnumerationConstraints(4, chi=0, orientable=True), True,
         (134, 40, 40)),
        (EnumerationConstraints(4, chi=0, orientable=False), True,
         (134, 137, 137)),
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

        def spy(degrees, visit, f_target, reduce_symmetry, max_bigons=None):
            calls.append((degrees, f_target, reduce_symmetry, max_bigons))
            return real(degrees, visit, f_target, reduce_symmetry,
                        max_bigons)

        monkeypatch.setattr(search, "_scheme_search", spy)
        search._enumerate_with_stats(cons)
        assert calls
        assert len(set(calls)) == len(calls)

    @pytest.mark.parametrize("edges,leaves,digest", [
        (5, 502,
         "c4eca205dea8c09d5553486edbf9f0232c44063704c6a34541fd5508fbade6b2"),
        (6, 2678,
         "8453ba47f3326a11eae3937348e3ffb90776a9b48452c3f512844d9927e05cb9"),
        (7, 30347,
         "cf7416ee7cc023d03733e39026cd3ff9c6446b2b3d74ada85caac9cade918a1f"),
    ])
    def test_census_leaf_stream_is_pinned(self, edges, leaves, digest,
                                          monkeypatch):
        # every search census_report runs, with every leaf in order; the
        # digests were taken with this spy on the search that still
        # tracked orientation parity, whose leaf stream had been pinned
        # since before the orderly test moved into the search; the e=7
        # digest with the same spy, on the search whose apply still
        # copied a child's lists before its boundary-circle bound
        real = search._scheme_search
        h = hashlib.sha256()
        total = 0

        def spy(degrees, visit, f_target, reduce_symmetry, max_bigons=None):
            nonlocal total
            h.update(repr((degrees, f_target, reduce_symmetry,
                           max_bigons)).encode())

            def collect(s0, s1, girth):
                nonlocal total
                h.update(bytes(s0))
                total += 1
                visit(s0, s1, girth)

            n = real(degrees, collect, f_target, reduce_symmetry,
                     max_bigons)
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

    def test_systole_filter_agrees_with_the_homology_systoles(self):
        # the filter reads both systoles off one code; the oracle reads
        # them off homology.systole and dual_systole, where trivial H1
        # means no essential cycle and so passes every bound
        cells = small_cellulation_pool(4) + [
            surface.catalog(name) for name in surface.closed_catalog_names()
            + ["toric(4,4)"]]
        kept = collections.Counter()
        for c in cells:
            lengths = []
            for systole in (homology.systole, homology.dual_systole):
                try:
                    lengths.append(systole(c)[0])
                except homology.TrivialHomologyError:
                    lengths.append(None)
            for p, d in itertools.product(range(1, 5), repeat=2):
                cons = EnumerationConstraints(c.edge_count,
                                              min_primal_systole=p,
                                              min_dual_systole=d)
                expected = all(length is None or length >= bound
                               for length, bound in zip(lengths, (p, d)))
                assert search._passes_filters(c, cons) == expected
                kept[expected] += 1
        assert kept[True] and kept[False]

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

    def test_search_girth_agrees_with_the_flag_test(self):
        # the capped girth the search hands to visit, read off its own
        # matches, against the flag-map test, on every leaf of every
        # surface with at most 5 edges; no orientable leaf has an
        # orientation-reversing cycle, and non-orientable leaves come
        # out at every capped girth
        found = collections.Counter()
        for e in range(1, 6):
            s2 = [f ^ 1 for f in range(4 * e)]

            def visit(s0, s1, girth):
                fm = surface.FlagMap(s0, s1, s2)
                found[girth, fm.components()[1]] += 1
                for bound in (2, 3):
                    assert ((girth < bound)
                            == search._short_reversing_cycle(fm, bound))

            for v in range(1, 2 * e + 1):
                for degs in search._partitions(2 * e, v, 2 * e):
                    search._scheme_search(degs, visit, None, True)
        assert set(found) == {(1, False), (2, False), (3, False),
                              (3, True)}
