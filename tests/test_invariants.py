import dense_oracle
import pytest
from sampling import sample_small_cellulations

from cellqec import gf2, invariants, stabilizer, surface
from cellqec.gf2 import Gf2Matrix, Gf2Vector
from cellqec.stabilizer import CssCode, PlanarPatch


def _code(name):
    return stabilizer.build_code(surface.catalog(name))


class TestPairRankStabilizer:
    def test_shor_cellulation_has_nine_rank2_pairs(self):
        profile = invariants.rank_profile(_code("fig4_shor"))
        expected = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5),
                    (6, 7), (6, 8), (7, 8)]
        assert profile.rank2_pairs == expected
        assert profile.histogram == {1: 0, 2: 9, 4: 27}

    def test_histogram_covers_all_pairs(self):
        for name in ["fig4_shor", "toric(2,2)"]:
            code = _code(name)
            h = invariants.rank_profile(code).histogram
            assert sum(h.values()) == code.n * (code.n - 1) // 2

    def test_rank_one_pair(self):
        # X and Z weight-2 generators on the same pair leave a pure
        # reduced state
        code = CssCode(Gf2Matrix(1, 2, (0b11,)),
                       Gf2Matrix(1, 2, (0b11,)), 0, None, None)
        assert invariants.pair_rank_stabilizer(code, (0, 1)) == 1
        assert dense_oracle.pair_rank_dense(code, (0, 1)) == 1

    def test_bad_pairs_rejected(self):
        code = _code("fig4_shor")
        with pytest.raises(ValueError):
            invariants.pair_rank_stabilizer(code, (3, 3))
        with pytest.raises(ValueError):
            invariants.pair_rank_stabilizer(code, (0, 9))

    def test_pair_order_irrelevant(self):
        code = _code("fig4_shor")
        assert (invariants.pair_rank_stabilizer(code, (5, 2))
                == invariants.pair_rank_stabilizer(code, (2, 5)))


def _span_pair_rank(code, i, j):
    """4 / |S_pair|, with S_pair counted by span tests of e_i, e_j and
    e_i + e_j against each side's generators."""
    size = 1
    for m in (code.x_stabilizers, code.z_stabilizers):
        basis = m.row_vectors()
        size *= 1 + sum(gf2.in_span(basis, Gf2Vector(code.n, bits))
                        for bits in (1 << i, 1 << j, (1 << i) | (1 << j)))
    return 4 // size


class TestSpanOracle:
    def test_every_pair_matches_span_counting(self):
        codes = [_code(name) for name in surface.closed_catalog_names()]
        codes += [_code(f"toric({m},{m})") for m in (2, 3, 4)]
        codes.append(stabilizer.puncture(surface.fig4_shor(), 6, 0).code)
        codes.append(stabilizer.build_punctured_disk_code(
            PlanarPatch(3, 3, ((1, 1, 1, 1),))))
        codes += [stabilizer.build_code(c)
                  for c in sample_small_cellulations(20, seed=7)]
        seen = set()
        for code in codes:
            profile = invariants.rank_profile(code)
            for i in range(code.n):
                for j in range(i + 1, code.n):
                    want = _span_pair_rank(code, i, j)
                    assert profile.pair_ranks[(i, j)] == want
                    assert invariants.pair_rank_stabilizer(
                        code, (i, j)) == want
                    seen.add(want)
        assert seen == {1, 2, 4}


class TestDenseOracle:
    @pytest.mark.parametrize("name", ["fig4_shor", "toric(2,2)"])
    def test_agrees_with_stabilizer_counting(self, name):
        code = _code(name)
        for i in range(code.n):
            for j in range(i + 1, code.n):
                assert (dense_oracle.pair_rank_dense(code, (i, j))
                        == invariants.pair_rank_stabilizer(code, (i, j)))

    def test_agrees_on_sampled_cellulations(self):
        for c in sample_small_cellulations(10, seed=7):
            code = stabilizer.build_code(c)
            if code.n < 2:
                continue
            for i in range(code.n):
                for j in range(i + 1, code.n):
                    assert (dense_oracle.pair_rank_dense(code, (i, j))
                            == invariants.pair_rank_stabilizer(code, (i, j)))

    def test_size_cap(self):
        code = _code("toric(3,3)")
        with pytest.raises(ValueError):
            dense_oracle.pair_rank_dense(code, (0, 1))


class TestCertificates:
    def test_identical_codes_are_inconclusive(self):
        code = _code("fig4_shor")
        assert invariants.certify_inequivalent(code, code) is None

    def test_hadamard_dual_is_inconclusive(self):
        a = _code("fig4_shor")
        b = stabilizer.build_code(surface.dual(surface.fig4_shor()))
        assert invariants.certify_inequivalent(a, b) is None

    def test_distinct_histograms_certify(self):
        a = CssCode(Gf2Matrix(1, 2, (0b11,)), Gf2Matrix(0, 2, ()),
                    1, None, None)
        b = CssCode(Gf2Matrix(0, 2, ()), Gf2Matrix(0, 2, ()),
                    2, None, None)
        cert = invariants.certify_inequivalent(a, b)
        assert cert is not None
        assert cert.histogram_a != cert.histogram_b
        assert "histogram_a" in cert.to_json_dict()

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            invariants.certify_inequivalent(_code("fig4_shor"),
                                            _code("toric(2,2)"))
