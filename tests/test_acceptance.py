"""Twelve end-to-end criteria, one reported pass/fail line each.

Runtime limits are wall-clock on a single core.  The exact tolerances:
criterion 1 < 1 s, criterion 2 < 5 s, criterion 6 < 30 s with singular
value threshold 1e-9, criterion 7 < 600 s for the 5- and 7-edge runs,
criterion 10 < 120 s.  The full 9-edge census is opt-in via the
environment variable CELLQEC_E9_CENSUS=1.  Measured single-core runs
(Python 3.11, 2-vCPU VM whose speed drifts with the host's load): the
7-, 8- and 9-edge censuses examine 30,347, 198,573 and 2,460,402
schemes in about 1.1 s, 6 s and 74 s (one run), and the two
constrained 9-edge pools of the figure reconstruction 57,751 and
406,721 schemes (about 25 s for the whole reconstruction).  Census
time grows about 6 times from 7 to 8 edges and 12 times from 8 to 9,
so the full 9-edge census takes some 1.2 min.  The always-on
control checks that the three frozen nine-edge catalog classes are
pairwise distinct and pass the census filter.
"""
import json
import os
import time

import dense_oracle
import pytest
from coset_oracle import coset_min_essential
from sampling import sample_small_cellulations

from cellqec import decoder, gf2, homology, invariants, search, stabilizer, surface
from cellqec.decoder import ErrorPattern
from cellqec.gf2 import Gf2Matrix, Gf2Vector


@pytest.fixture
def record(request):
    def _run(num, label, fn):
        try:
            fn()
        except BaseException:
            request.config.acceptance_lines.append(
                f"criterion {num:2d} ({label}): FAIL")
            raise
        request.config.acceptance_lines.append(
            f"criterion {num:2d} ({label}): PASS")
    return _run


def _code(name):
    return stabilizer.build_code(surface.catalog(name))


def test_criterion_01_hemi_icosahedron(record):
    def check():
        t0 = time.perf_counter()
        code = _code("fig1_hemi_icosahedron")
        assert code.parameters() == (15, 1, 5, 3)
        assert time.perf_counter() - t0 < 1.0
    record(1, "hemi-icosahedron parameters", check)


def test_criterion_02_toric_baseline(record):
    def check():
        t0 = time.perf_counter()
        code = _code("toric(3,3)")
        assert code.parameters() == (18, 2, 3, 3)
        assert stabilizer.css_distance(code) == (3, 3)
        assert time.perf_counter() - t0 < 5.0
    record(2, "toric 3x3 baseline", check)


def test_criterion_03_shor_identification(record):
    def check():
        code = _code("fig4_shor")
        assert code.parameters() == (9, 1, 3, 3)
        blocks = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]

        def bits(qs):
            out = 0
            for q in qs:
                out |= 1 << q
            return out

        pair_rows = []
        for blk in blocks:
            pair_rows.append(bits(blk[:2]))
            pair_rows.append(bits(blk[1:]))
        six_rows = [bits(blocks[0] + blocks[1]), bits(blocks[1] + blocks[2])]
        pairs = Gf2Matrix(6, 9, tuple(pair_rows))
        sixes = Gf2Matrix(2, 9, tuple(six_rows))
        # textbook generators: X_iX_j within blocks, Z^(x)6 across block
        # pairs; the cellulation realizes them with X and Z exchanged
        # relative to that common orientation, so accept either matching
        direct = (gf2.rowspace_equal(code.x_stabilizers, sixes)
                  and gf2.rowspace_equal(code.z_stabilizers, pairs))
        swapped = (gf2.rowspace_equal(code.x_stabilizers, pairs)
                   and gf2.rowspace_equal(code.z_stabilizers, sixes))
        assert direct or swapped
    record(3, "Shor code identification", check)


def test_criterion_04_relations(record):
    def check():
        for name in surface.closed_catalog_names():
            assert stabilizer.check_relations(_code(name)), name
    record(4, "product relations", check)


def test_criterion_05_inequivalence_triple(record):
    def check():
        p2 = invariants.rank_profile(_code("fig2_nine_edge"))
        p3 = invariants.rank_profile(_code("fig3_nine_edge"))
        code4 = _code("fig4_shor")
        p4 = invariants.rank_profile(code4)
        assert len(p2.rank2_pairs) == 2
        assert len(p3.rank2_pairs) == 3
        bigon_pairs = {(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)}
        assert len(p4.rank2_pairs) >= 6
        assert bigon_pairs <= set(p4.rank2_pairs)
        dense4 = sum(dense_oracle.pair_rank_dense(code4, (i, j)) == 2
                     for i in range(9) for j in range(i + 1, 9))
        assert len(p4.rank2_pairs) == dense4 == 9
    record(5, "rank-2 counts 2/3/9", check)


def test_criterion_06_oracle_equivalence(record):
    def check():
        assert dense_oracle.SINGULAR_VALUE_THRESHOLD == 1e-9
        t0 = time.perf_counter()
        comparisons = 0
        for name in ["fig2_nine_edge", "fig3_nine_edge", "fig4_shor"]:
            code = _code(name)
            for i in range(9):
                for j in range(i + 1, 9):
                    assert (invariants.pair_rank_stabilizer(code, (i, j))
                            == dense_oracle.pair_rank_dense(code, (i, j)))
                    comparisons += 1
        assert comparisons == 108
        assert time.perf_counter() - t0 < 30.0
    record(6, "stabilizer/dense rank oracles", check)


def test_criterion_07_nonexistence_census(record, verify_paper_run):
    def check():
        assert verify_paper_run.code == 0
        report = json.loads(verify_paper_run.stdout)
        assert [r["edge_count"] for r in report["reports"]] == [5, 7]
        for r in report["reports"]:
            assert r["survivor_count"] == 0
            assert r["classes_examined"] > 0
        assert verify_paper_run.seconds < 600.0
        # control at nine edges: three known pairwise distinct classes
        # pass the same filter
        trio = [surface.catalog(n) for n in
                ["fig2_nine_edge", "fig3_nine_edge", "fig4_shor"]]
        forms = set()
        for c in trio:
            info = surface.validate(c)
            assert info.surface_name == "projective plane"
            assert c.edge_count == 9
            assert homology.systole(c)[0] >= 3
            assert homology.dual_systole(c)[0] >= 3
            forms.add(surface.canonical_form(c))
        assert len(forms) == 3
        if os.environ.get("CELLQEC_E9_CENSUS") == "1":
            full = search.census_report(9)
            assert full["survivor_count"] >= 3
            keys = {surface.canonical_form(c) for c in trio}
            found = {surface.canonical_form(
                surface.Cellulation.from_json_dict(d))
                for d in full["survivors"]}
            assert keys <= found
    record(7, "5/7-edge nonexistence census", check)


def test_criterion_08_hadamard_duality(record):
    def check():
        for name in ["fig1_hemi_icosahedron", "fig2_nine_edge",
                     "fig3_nine_edge", "fig4_shor", "toric(3,3)"]:
            assert stabilizer.hadamard_dual_equivalent(
                surface.catalog(name)), name
    record(8, "Hadamard dual equivalence", check)


def test_criterion_09_puncture_invariance(record):
    def check():
        c = surface.fig4_shor()
        base = _code("fig4_shor")
        hexagon = max(range(c.face_count), key=lambda f: len(c.faces[f]))
        for vertex in range(c.vertex_count):
            res = stabilizer.puncture(c, hexagon, vertex)
            assert res.row_spaces_preserved
            assert res.code.parameters() == base.parameters()
        assert stabilizer.puncture(c, hexagon, 0).planar
    record(9, "puncture invariance", check)


def test_criterion_10_planar_two_holes(record):
    def check():
        t0 = time.perf_counter()
        code = stabilizer.build_punctured_disk_code(
            stabilizer.planar_two_holes_patch())
        assert code.k == 2
        d_x, d_z = stabilizer.css_distance(code)
        assert d_z >= 3
        assert d_x >= 7
        assert (code.d_x, code.d_z) == (d_x, d_z)
        assert time.perf_counter() - t0 < 120.0
    record(10, "planar two-hole code", check)


def test_criterion_11_decoder_soundness(record):
    def check():
        c = surface.fig4_shor()
        code = stabilizer.build_code(c)
        rows = decoder.exhaustive_weight_sweep(code, 1)
        assert rows[1].x_failures == 0
        assert rows[1].z_failures == 0
        _, witness = homology.systole(c)
        err = ErrorPattern(witness, Gf2Vector.zero(9))
        syn = decoder.syndrome(code, err)
        corr = decoder.correct(code, syn)
        assert corr.x_errors.is_zero() and corr.z_errors.is_zero()
        assert decoder.is_failure(code, err, corr) == (True, False)
    record(11, "decoder soundness", check)


def test_criterion_12_property_suites(record):
    def check():
        import random

        pool = [surface.catalog(n) for n in surface.closed_catalog_names()]
        pool += sample_small_cellulations(100, seed=20260825,
                                          max_edges=4)
        # non-orientable genus 4 and orientable genus 2 reach k = 4
        assert max(homology.h1_dim(c) for c in pool) == 4
        rng = random.Random(987)
        for c in pool:
            fe, ve = surface.incidence_matrices(c)
            for row in fe.row_vectors():
                assert ve.mul_vector(row).is_zero()
            code = stabilizer.build_code(c)
            assert stabilizer.commutes(code)
            assert code.k == homology.h1_dim(c)
            if code.k > 0:
                # the parity-cover engine against the coset-search oracle
                expected = (coset_min_essential(ve, fe),
                            coset_min_essential(fe, ve))
                assert stabilizer.css_distance(code) == expected
                assert (code.d_x, code.d_z) == expected
                assert (homology.dual_systole(c)[0],
                        homology.systole(c)[0]) == expected
            else:
                with pytest.raises(homology.TrivialHomologyError):
                    homology.systole(c)
            # the failure verdict must not depend on which valid
            # correction the decoder happens to return
            n = code.n
            for _ in range(5):
                err = ErrorPattern(Gf2Vector(n, rng.randrange(1 << n)),
                                  Gf2Vector(n, rng.randrange(1 << n)))
                corr = decoder.correct(code, decoder.syndrome(code, err))
                verdict = decoder.is_failure(code, err, corr)
                alt_x, alt_z = corr.x_errors, corr.z_errors
                for row in code.z_stabilizers.row_vectors():
                    alt_z = alt_z ^ row
                for row in code.x_stabilizers.row_vectors():
                    alt_x = alt_x ^ row
                alt = ErrorPattern(alt_x, alt_z)
                assert decoder.is_failure(code, err, alt) == verdict
    record(12, "property suites", check)
