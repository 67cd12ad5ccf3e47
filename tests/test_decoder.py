import functools
import itertools
import random

import numpy as np
import pytest
from coset_oracle import coset_min_weight_chain
from hypothesis import given, settings
from hypothesis import strategies as st
from sampling import sample_small_cellulations

from cellqec import decoder, gf2, homology, stabilizer, surface
from cellqec.decoder import ErrorPattern, Syndrome
from cellqec.gf2 import Gf2Vector


def _code(name):
    return stabilizer.build_code(surface.catalog(name))


@functools.cache
def _oracle_codes() -> dict:
    """Codes small enough for the coset oracle, keyed by a label."""
    codes = {name: _code(name) for name in surface.closed_catalog_names()}
    for m in (2, 3, 4):
        codes[f"toric({m},{m})"] = _code(f"toric({m},{m})")
    # punctured codes have weight-1 columns: edges to the boundary node
    for name, face, vertex in (("fig4_shor", 6, 0),
                               ("fig1_hemi_icosahedron", 0, 0),
                               ("toric(3,3)", 0, 0), ("cube_sphere", 0, 0)):
        codes[f"{name} punctured at {face},{vertex}"] = stabilizer.puncture(
            surface.catalog(name), face, vertex).code
    codes["planar 3x3, one hole"] = stabilizer.build_punctured_disk_code(
        stabilizer.PlanarPatch(3, 3, ((1, 1, 1, 1),)))
    for i, c in enumerate(sample_small_cellulations(30, seed=4,
                                                    max_edges=4)):
        codes[f"sample {i}"] = stabilizer.build_code(c)
    return codes


def _tables(name):
    return decoder.DecodingTables.build(_code(name))


def _oracle_bits(seed, trial, n, p_x, p_z):
    """(x_bits, z_bits) of one trial by the RNG contract, qubit by qubit."""
    draws = np.random.Generator(
        np.random.Philox(key=seed, counter=trial << 64)).random((2, n))
    x = z = 0
    for q in range(n):
        if draws[0][q] < p_x:
            x |= 1 << q
        if draws[1][q] < p_z:
            z |= 1 << q
    return x, z


def _matching_graph(checks):
    return decoder.MatchingGraph.build(homology.CheckGraph.of(checks))


def _random_bits(data, n):
    return Gf2Vector(n, data.draw(st.integers(0, (1 << n) - 1)))


class TestSyndrome:
    def test_zero_error_zero_syndrome(self):
        code = _code("fig4_shor")
        s = decoder.syndrome(code, ErrorPattern.zero(code.n))
        assert s.z_checks.is_zero() and s.x_checks.is_zero()

    def test_linearity(self):
        code = _code("fig4_shor")
        a = ErrorPattern(Gf2Vector.from_support(9, [0, 4]), Gf2Vector.zero(9))
        b = ErrorPattern(Gf2Vector.from_support(9, [4, 7]), Gf2Vector.zero(9))
        ab = ErrorPattern(a.x_errors ^ b.x_errors, Gf2Vector.zero(9))
        sa, sb = decoder.syndrome(code, a), decoder.syndrome(code, b)
        sab = decoder.syndrome(code, ab)
        assert sab.z_checks == sa.z_checks ^ sb.z_checks

    def test_length_check(self):
        with pytest.raises(Exception):
            decoder.syndrome(_code("fig4_shor"), ErrorPattern.zero(5))

    def test_syndrome_and_failure_build_no_shortest_paths(self,
                                                           monkeypatch):
        # both read the check graphs alone, never the all-pairs tables
        c = surface.fig4_shor()
        code = stabilizer.build_code(c)
        zero = Gf2Vector.zero(9)
        errors = [ErrorPattern(Gf2Vector.from_support(9, [1]), zero),
                  ErrorPattern(Gf2Vector.from_support(9, [0, 4]),
                               Gf2Vector.from_support(9, [2, 7])),
                  ErrorPattern(homology.systole(c)[1], zero)]
        expected = []
        for err in errors:
            syn = decoder.syndrome(code, err)
            corr = decoder.correct(code, syn)
            expected.append((err, corr, syn,
                             decoder.is_failure(code, err, corr)))
        assert {verdict for *_, verdict in expected} == {(False, False),
                                                         (True, False)}

        def refuse(cls, graph):
            raise AssertionError("shortest paths were built")

        monkeypatch.setattr(decoder.MatchingGraph, "build",
                            classmethod(refuse))
        for err, corr, syn, verdict in expected:
            assert decoder.syndrome(code, err) == syn
            assert decoder.is_failure(code, err, corr) == verdict
        with pytest.raises(decoder.SyndromeMismatch):
            decoder.is_failure(code, errors[1], ErrorPattern.zero(9))
        with pytest.raises(AssertionError, match="shortest paths"):
            decoder.correct(code, expected[1][2])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_syndrome_is_the_matrix_product(self, data):
        # the XOR of check-graph columns against the row-by-row product
        codes = _oracle_codes()
        code = codes[data.draw(st.sampled_from(sorted(codes)))]
        err = ErrorPattern(_random_bits(data, code.n),
                           _random_bits(data, code.n))
        assert decoder.syndrome(code, err) == Syndrome(
            code.z_stabilizers.mul_vector(err.x_errors),
            code.x_stabilizers.mul_vector(err.z_errors))


class TestCorrect:
    def test_every_weight_one_error_is_corrected(self):
        code = _code("fig4_shor")
        n = code.n
        for q in range(n):
            v = Gf2Vector.from_support(n, [q])
            assert decoder.decode_error(
                code, ErrorPattern(v, Gf2Vector.zero(n))) == (False, False)
            assert decoder.decode_error(
                code, ErrorPattern(Gf2Vector.zero(n), v)) == (False, False)

    def test_correction_may_differ_by_a_stabilizer(self):
        # X on edge 1 and X on edge 0 share a syndrome; the residual is
        # the bigon face operator, so no logical failure
        code = _code("fig4_shor")
        err = ErrorPattern(Gf2Vector.from_support(9, [1]), Gf2Vector.zero(9))
        corr = decoder.correct(code, decoder.syndrome(code, err))
        assert corr.x_errors.weight == 1
        assert decoder.is_failure(code, err, corr) == (False, False)

    def test_systole_witness_fails_silently(self):
        # an essential cycle has zero syndrome, so the decoder applies no
        # correction and the logical state is corrupted
        c = surface.fig4_shor()
        code = stabilizer.build_code(c)
        _, witness = homology.systole(c)
        err = ErrorPattern(witness, Gf2Vector.zero(9))
        syn = decoder.syndrome(code, err)
        assert syn.z_checks.is_zero()
        corr = decoder.correct(code, syn)
        assert corr.x_errors.is_zero()
        assert decoder.is_failure(code, err, corr) == (True, False)

    def test_inconsistent_syndrome_rejected(self):
        code = _code("fig4_shor")
        bad = Syndrome(z_checks=Gf2Vector.from_support(3, [0]),
                       x_checks=Gf2Vector.zero(7))
        with pytest.raises(decoder.InconsistentSyndrome):
            decoder.correct(code, bad)

    def test_mismatched_correction_rejected(self):
        code = _code("fig4_shor")
        err = ErrorPattern(Gf2Vector.from_support(9, [0]), Gf2Vector.zero(9))
        with pytest.raises(decoder.SyndromeMismatch):
            decoder.is_failure(code, err, ErrorPattern.zero(9))

    def test_mismatched_phase_correction_rejected(self):
        # the residual's syndrome is checked on both sides
        code = _code("fig4_shor")
        err = ErrorPattern(Gf2Vector.zero(9), Gf2Vector.from_support(9, [0]))
        with pytest.raises(decoder.SyndromeMismatch):
            decoder.is_failure(code, err, ErrorPattern.zero(9))

    @pytest.mark.parametrize("name", ["fig4_shor", "toric(3,3)",
                                      "fig1_hemi_icosahedron"])
    def test_failure_is_the_row_space_test(self, name):
        # every X-only and Z-only error of weight <= 2: a residual fails
        # iff it is outside the stabilizer row space of its side
        code = _code(name)
        n, zero = code.n, Gf2Vector.zero(code.n)
        x_rows = code.x_stabilizers.row_vectors()
        z_rows = code.z_stabilizers.row_vectors()
        for w in range(3):
            for support in itertools.combinations(range(n), w):
                v = Gf2Vector.from_support(n, support)
                for err in (ErrorPattern(v, zero), ErrorPattern(zero, v)):
                    corr = decoder.correct(code, decoder.syndrome(code, err))
                    expected = (
                        not gf2.in_span(x_rows, err.x_errors ^ corr.x_errors),
                        not gf2.in_span(z_rows, err.z_errors ^ corr.z_errors))
                    assert decoder.is_failure(code, err, corr) == expected

    def test_code_without_logical_operators_rejected(self):
        full = _code("fig4_shor")
        bare = stabilizer.CssCode(full.x_stabilizers,
                                  full.z_stabilizers, 1, 3, 3)
        err = ErrorPattern.zero(full.n)
        with pytest.raises(ValueError, match="logical operators"):
            decoder.is_failure(bare, err, err)
        with pytest.raises(ValueError, match="logical operators"):
            decoder.correct(bare, decoder.syndrome(bare, err))
        with pytest.raises(ValueError, match="logical operators"):
            decoder.decode_error(bare, err)

    def test_toric_weight_one(self):
        code = _code("toric(3,3)")
        for q in range(code.n):
            v = Gf2Vector.from_support(code.n, [q])
            assert decoder.decode_error(
                code, ErrorPattern(v, Gf2Vector.zero(code.n))) == (False, False)

    @pytest.mark.parametrize("name", surface.closed_catalog_names()
                             + ["toric(4,4)"])
    def test_odd_defect_count_on_closed_surface_rejected(self, name):
        # every column of a closed surface's checks has weight 2, so any
        # chain has an even number of defects
        code = _code(name)
        for checks in (code.z_stabilizers, code.x_stabilizers):
            matching = _matching_graph(checks)
            supports = [[i] for i in range(checks.rows)]
            if checks.rows >= 3:
                supports.append([0, 1, 2])
            for support in supports:
                syn = Gf2Vector.from_support(checks.rows, support)
                assert gf2.solve(checks, syn) is None
                with pytest.raises(decoder.InconsistentSyndrome):
                    matching.min_weight_chain(syn)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_correction_equals_the_coset_oracle(self, data):
        codes = _oracle_codes()
        code = codes[data.draw(st.sampled_from(sorted(codes)))]
        err = ErrorPattern(_random_bits(data, code.n),
                           _random_bits(data, code.n))
        syn = decoder.syndrome(code, err)
        corr = decoder.correct(code, syn)
        # the same chain, not only the same weight: the sweeps' output
        # depends on the tie-break
        assert corr.x_errors == coset_min_weight_chain(code.z_stabilizers,
                                                       syn.z_checks)
        assert corr.z_errors == coset_min_weight_chain(code.x_stabilizers,
                                                       syn.x_checks)
        # failure verdicts from the logical operators agree with a fresh
        # span test
        expected = (
            not gf2.in_span(code.x_stabilizers.row_vectors(),
                            err.x_errors ^ corr.x_errors),
            not gf2.in_span(code.z_stabilizers.row_vectors(),
                            err.z_errors ^ corr.z_errors))
        assert decoder.is_failure(code, err, corr) == expected
        tables = decoder.DecodingTables.build(code)
        assert tables.failures(err.x_errors.bits,
                               err.z_errors.bits) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_any_syndrome_matches_the_coset_oracle(self, data):
        # arbitrary syndromes, consistent or not, on one side
        codes = _oracle_codes()
        code = codes[data.draw(st.sampled_from(sorted(codes)))]
        checks = data.draw(st.sampled_from([code.z_stabilizers,
                                            code.x_stabilizers]))
        syn = _random_bits(data, checks.rows)
        expected = coset_min_weight_chain(checks, syn)
        matching = _matching_graph(checks)
        if expected is None:
            with pytest.raises(decoder.InconsistentSyndrome):
                matching.min_weight_chain(syn)
        else:
            assert matching.min_weight_chain(syn) == expected

    @pytest.mark.parametrize("name", ["toric(8,8)", "planar two holes"])
    def test_subset_dp_equals_the_blossom(self, name):
        # networkx's blossom is the oracle at every size, also above the
        # DP's cutoff and the coset search's reach
        import networkx as nx

        if name == "toric(8,8)":  # closed: the boundary node is isolated
            checks = _code(name).z_stabilizers
        else:  # weight-1 columns: edges to the boundary node
            checks = stabilizer.build_punctured_disk_code(
                stabilizer.planar_two_holes_patch()).x_stabilizers
        matching = _matching_graph(checks)
        n, boundary = checks.cols, matching.graph.boundary
        pool = [v for v in range(boundary + 1)
                if matching.dist[0][v] is not None]
        assert (boundary in pool) == (name != "toric(8,8)")
        rng = random.Random(14)
        for size in range(2, 21, 2):
            for _ in range(3):
                nodes = sorted(rng.sample(pool, size))
                weight, bits = matching._min_matching(nodes)
                g = nx.Graph()
                for a, b in itertools.combinations(nodes, 2):
                    g.add_edge(a, b, weight=matching.dist[a][b])
                pairs = nx.min_weight_matching(g)
                assert weight == sum(matching.dist[a][b] for a, b in pairs)
                blossom = 0
                for a, b in pairs:
                    blossom ^= matching.path[a][b]
                syn = Gf2Vector.from_support(
                    boundary, [v for v in nodes if v != boundary])
                chain = matching.min_weight_chain(syn)
                assert chain.bits == bits == blossom
                # the matched paths are edge-disjoint
                assert weight == sum((1 << n) - (1 << (n - 1 - j))
                                     for j in chain.support())

    def test_even_defects_in_two_components_rejected(self):
        # check graph 0 - 1 - 2 (columns 0, 1) and 3 - 4 (column 2); no
        # weight-1 column, so the boundary node is isolated
        checks = gf2.Gf2Matrix.from_rows([[1, 0, 0], [1, 1, 0], [0, 1, 0],
                                          [0, 0, 1], [0, 0, 1]])
        matching = _matching_graph(checks)
        for support in ([0, 3], [2, 4], [0, 1, 2, 3]):
            syn = Gf2Vector.from_support(5, support)
            assert gf2.solve(checks, syn) is None
            with pytest.raises(decoder.InconsistentSyndrome):
                matching.min_weight_chain(syn)
        for support, chain in (([0, 2], [0, 1]), ([3, 4], [2])):
            assert matching.min_weight_chain(
                Gf2Vector.from_support(5, support)) == \
                Gf2Vector.from_support(3, chain)

    def test_weight_three_column_is_rejected(self):
        checks = gf2.Gf2Matrix.from_rows([[1], [1], [1]])
        with pytest.raises(homology.UnsupportedCheckStructure):
            _matching_graph(checks)


class TestExhaustiveSweep:
    def test_weight_one_sweep(self):
        rows = decoder.exhaustive_weight_sweep(_code("fig4_shor"), 1)
        assert rows[0] == decoder.ExhaustiveSweepRow(0, 1, 0, 1, 0)
        assert rows[1].x_patterns == rows[1].z_patterns == 9
        assert rows[1].x_failures == rows[1].z_failures == 0

    def test_weight_two_sees_failures(self):
        # distance 3: some weight-2 errors decode to the wrong class
        rows = decoder.exhaustive_weight_sweep(_code("fig4_shor"), 2)
        assert rows[2].x_failures > 0
        assert rows[2].z_failures > 0


class TestMonteCarlo:
    def test_deterministic_in_seed(self):
        tables = _tables("fig4_shor")
        a = decoder.monte_carlo(tables, 0.1, 0.1, trials=40, seed=11)
        b = decoder.monte_carlo(tables, 0.1, 0.1, trials=40, seed=11)
        assert a == b
        c = decoder.monte_carlo(tables, 0.1, 0.1, trials=40, seed=12)
        assert (a.x_failures, a.z_failures) != (c.x_failures, c.z_failures) \
            or a.seed != c.seed

    def test_zero_rate_never_fails(self):
        res = decoder.monte_carlo(_tables("fig4_shor"), 0.0, 0.0,
                                  trials=25, seed=3)
        assert res.x_failures == res.z_failures == 0

    def test_trial_streams_are_position_independent(self):
        # trial t draws from its own keyed stream, so any partition of
        # the trial range reproduces the same per-trial randomness
        r1 = list(decoder._error_bits(5, range(17, 18), 64, 0.5, 0.5))
        r2 = list(decoder._error_bits(5, range(17, 18), 64, 0.5, 0.5))
        r3 = list(decoder._error_bits(5, range(18, 19), 64, 0.5, 0.5))
        assert r1 == r2
        assert r1 != r3

    def test_packed_draws_equal_the_per_qubit_loop(self):
        for n in (0, 1, 7, 8, 9, 64, 130):
            expected = [_oracle_bits(8, t, n, 0.3, 0.3) for t in range(3)]
            assert list(decoder._error_bits(8, range(3), n, 0.3, 0.3)) \
                == expected

    @pytest.mark.parametrize("seed", [0, 5, 2**64 + 3])
    @pytest.mark.parametrize("n", [1, 9, 15, 18, 128])
    def test_sampler_follows_the_per_trial_streams(self, seed, n,
                                                   monkeypatch):
        # the RNG contract: trial t's bits come from
        # Generator(Philox(key=seed, counter=t << 64)).random((2, n)),
        # whatever the chunk size and wherever the range starts
        # 2, 5 and (for these n) all 13 trials per draws array
        chunks = (2 * n * 3 - 1, 2 * n * 5, decoder._CHUNK_DRAWS)
        for p_x, p_z in ((0.0, 0.3), (0.3, 1.0), (1.0, 0.0)):
            expected = [_oracle_bits(seed, t, n, p_x, p_z) for t in range(13)]
            for chunk in chunks:
                monkeypatch.setattr(decoder, "_CHUNK_DRAWS", chunk)
                assert list(decoder._error_bits(
                    seed, range(13), n, p_x, p_z)) == expected
                for a, b in ((0, 0), (4, 13), (5, 9), (12, 13)):
                    assert list(decoder._error_bits(
                        seed, range(a, b), n, p_x, p_z)) == expected[a:b]

    def test_sampler_crosses_the_real_chunk_size(self):
        # 128 qubits: 256 trials per draws array
        n = 128
        per_chunk = decoder._CHUNK_DRAWS // (2 * n)
        trials = range(per_chunk - 3, 2 * per_chunk + 2)
        expected = [_oracle_bits(2**64 + 3, t, n, 0.3, 0.3) for t in trials]
        got = list(decoder._error_bits(2**64 + 3, range(trials.stop), n,
                                       0.3, 0.3))
        assert got[trials.start:] == expected
        assert list(decoder._error_bits(2**64 + 3, trials, n, 0.3, 0.3)) \
            == expected

    @pytest.mark.parametrize("trials,seed", [(-3, 1), (5, -1), (5, 2**128),
                                             (5, 2**130)])
    def test_trials_and_seed_validation(self, trials, seed, monkeypatch):
        def no_sampling(*args):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(decoder, "_error_bits", no_sampling)
        with pytest.raises(ValueError):
            decoder.monte_carlo(_tables("fig4_shor"), 0.1, 0.1, trials, seed)

    def test_largest_seed_is_accepted(self):
        res = decoder.monte_carlo(_tables("fig4_shor"), 0.1, 0.1, 3,
                                  2**128 - 1)
        assert res.seed == 2**128 - 1 and res.trials == 3

    def test_code_without_logical_operators_rejected_before_trials(self):
        full = _code("fig4_shor")
        bare = stabilizer.CssCode(full.x_stabilizers,
                                  full.z_stabilizers, 1, 3, 3)
        with pytest.raises(ValueError, match="logical operators"):
            decoder.DecodingTables.build(bare)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            decoder.monte_carlo(_tables("fig4_shor"), 1.5, 0.0, 1, 0)

    def test_csv_format(self):
        res = decoder.monte_carlo(_tables("fig4_shor"), 0.05, 0.0,
                                  trials=10, seed=2)
        text = decoder.sweep_csv([res])
        lines = text.strip().split("\n")
        assert lines[0] == "p_x,p_z,trials,x_failures,z_failures,seed"
        assert lines[1].startswith("0.05,0.0,10,")
        assert lines[1].endswith(",2")
