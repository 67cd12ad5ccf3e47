import dataclasses
import functools
import itertools
import random
from collections import Counter

import numpy as np
import pytest
from coset_oracle import coset_min_weight_chain, dijkstra_shortest_paths
from hypothesis import given, settings
from hypothesis import strategies as st
from sampling import planar_and_punctured_codes, sample_small_cellulations

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


def _sampled_bits(seed, trials, n, p_x, p_z):
    """(x_bits, z_bits) of each trial, thresholded and packed here from
    the chunks of ``decoder._draws``, whose shapes are checked."""
    per_chunk = max(1, decoder._CHUNK_DRAWS // max(2 * n, 1))
    bits = []
    for chunk in decoder._draws(seed, trials, n):
        assert chunk.dtype == np.float64 and chunk.shape[1:] == (2, n)
        assert 1 <= len(chunk) <= per_chunk
        errors = chunk < [[p_x], [p_z]]
        bits += [tuple(sum(1 << int(q) for q in np.flatnonzero(side))
                       for side in trial) for trial in errors]
    return bits


@functools.cache
def _monte_carlo_codes() -> dict:
    """The codes whose Monte Carlo counts are checked trial by trial.

    toric(2,30), toric(2,31) and toric(3,21) have images of 62, 64 and
    65 bits on both sides, either side of the first 64-bit word's end;
    the planar two-hole code's are 260 and 296 bits."""
    codes = {name: _code(name) for name in (
        "fig4_shor", "fig1_hemi_icosahedron", "toric(3,3)", "cube_sphere",
        "toric(2,30)", "toric(2,31)", "toric(3,21)")}
    codes.update(planar_and_punctured_codes())
    return codes


@functools.cache
def _shared_matching_graphs() -> dict:
    """The matching graphs of both sides of toric(4,4) (closed) and of
    the planar two-hole code (weight-1 columns), keyed by the checks of
    the side, built once, so that their DP memos fill across tests."""
    planar = stabilizer.build_punctured_disk_code(
        stabilizer.planar_two_holes_patch())
    tables = {"toric(4,4)": _tables("toric(4,4)"),
              "planar two holes": decoder.DecodingTables.build(planar)}
    return {f"{label} {checks}": side for label, t in tables.items()
            for checks, side in zip("zx", t.sides)}


def _matching_graph(checks):
    """The matching graph of checks alone, judged by no logical."""
    return decoder.MatchingGraph.build(homology.CheckGraph.of(checks), ())


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

        def refuse(cls, graph, logicals):
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
        assert decoder.decode_error(code, err) == expected

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
                weight, bits = matching._min_matching(
                    sum(1 << v for v in nodes))
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

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_a_warm_shared_memo_gives_the_fresh_chain(self, data):
        # _matchings is shared by every syndrome of one MatchingGraph; up
        # to 6 error qubits give at most 13 nodes, all matched by the DP
        graphs = _shared_matching_graphs()
        graph = graphs[data.draw(st.sampled_from(sorted(graphs)))]
        qubits = data.draw(st.sets(st.integers(0, len(graph.graph.columns)
                                               - 1), max_size=6))
        syn = gf2.xor_rows(graph.graph.columns, sum(1 << q for q in qubits))
        fresh = dataclasses.replace(graph)  # the same fields, empty memos
        assert graph.chain(syn) == fresh.chain(syn)
        # the warm memo holds every sub-matching of this DP, and agrees
        assert fresh._matchings.items() <= graph._matchings.items()

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

    def test_layered_shortest_paths_equal_dijkstra(self):
        # both checks of every oracle code and of toric(8,8): the closed
        # codes' isolated boundary node has an all-None row of dist
        codes = dict(_oracle_codes(), **{"toric(8,8)": _code("toric(8,8)")})
        isolated = 0
        for label, code in codes.items():
            for graph, logicals in code.sides:
                matching = decoder.MatchingGraph.build(graph, logicals)
                assert (matching.dist, matching.path) == \
                    dijkstra_shortest_paths(graph), label
                boundary = graph.boundary
                if not graph.adj[boundary]:
                    isolated += 1
                    assert matching.dist[boundary] == \
                        (None,) * boundary + (0,)
                    assert {row[boundary] for row in matching.dist[:-1]} \
                        <= {None}
        assert isolated > 0

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

    def test_the_budget_is_checked_before_any_decode(self, monkeypatch):
        # fig4_shor up to weight 2: 1 + 9 + 36 = 46 patterns per side
        code = _code("fig4_shor")
        monkeypatch.setattr(decoder, "MAX_EXHAUSTIVE_PATTERNS", 46)
        assert len(decoder.exhaustive_weight_sweep(code, 2)) == 3
        monkeypatch.setattr(decoder, "MAX_EXHAUSTIVE_PATTERNS", 45)
        monkeypatch.setattr(decoder.DecodingTables, "build", None)
        with pytest.raises(ValueError, match="^more than 45 error patterns"
                                             " per side up to weight 2$"):
            decoder.exhaustive_weight_sweep(code, 2)


class TestMonteCarlo:
    def test_deterministic_in_seed(self):
        tables = _tables("fig4_shor")
        [a] = decoder.monte_carlo(tables, [(0.1, 0.1)], trials=40, seed=11)
        [b] = decoder.monte_carlo(tables, [(0.1, 0.1)], trials=40, seed=11)
        assert a == b
        [c] = decoder.monte_carlo(tables, [(0.1, 0.1)], trials=40, seed=12)
        assert (a.x_failures, a.z_failures) != (c.x_failures, c.z_failures) \
            or a.seed != c.seed

    def test_zero_rate_never_fails(self):
        [res] = decoder.monte_carlo(_tables("fig4_shor"), [(0.0, 0.0)],
                                    trials=25, seed=3)
        assert res.x_failures == res.z_failures == 0

    def test_trial_streams_are_position_independent(self):
        # trial t draws from its own keyed stream, so any partition of
        # the trial range reproduces the same per-trial randomness
        r1 = _sampled_bits(5, range(17, 18), 64, 0.5, 0.5)
        r2 = _sampled_bits(5, range(17, 18), 64, 0.5, 0.5)
        r3 = _sampled_bits(5, range(18, 19), 64, 0.5, 0.5)
        assert r1 == r2
        assert r1 != r3

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, 2**64, 2**128 - 1])
    @pytest.mark.parametrize("first", [0, 2**32, 2**63])
    @pytest.mark.parametrize("n", [1, 9, 33])
    def test_draws_are_the_per_trial_doubles(self, seed, first, n):
        # the doubles themselves, bit for bit: the hand-built key words
        # (seed mod 2^64, seed >> 64) and counter words (0, t, 0, 0)
        trials = range(first, first + 3)
        [chunk] = decoder._draws(seed, trials, n)
        for t, row in zip(trials, chunk):
            expected = np.random.Generator(np.random.Philox(
                key=seed, counter=t << 64)).random((2, n))
            assert row.tobytes() == expected.tobytes()

    def test_packed_draws_equal_the_per_qubit_loop(self):
        for n in (0, 1, 7, 8, 9, 64, 130):
            expected = [_oracle_bits(8, t, n, 0.3, 0.3) for t in range(3)]
            assert _sampled_bits(8, range(3), n, 0.3, 0.3) == expected

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
                assert _sampled_bits(seed, range(13), n, p_x,
                                     p_z) == expected
                for a, b in ((0, 0), (4, 13), (5, 9), (12, 13)):
                    assert _sampled_bits(seed, range(a, b), n, p_x,
                                         p_z) == expected[a:b]

    def test_sampler_crosses_the_real_chunk_size(self):
        # 128 qubits: 256 trials per draws array
        n = 128
        per_chunk = decoder._CHUNK_DRAWS // (2 * n)
        trials = range(per_chunk - 3, 2 * per_chunk + 2)
        expected = [_oracle_bits(2**64 + 3, t, n, 0.3, 0.3) for t in trials]
        got = _sampled_bits(2**64 + 3, range(trials.stop), n, 0.3, 0.3)
        assert got[trials.start:] == expected
        assert _sampled_bits(2**64 + 3, trials, n, 0.3, 0.3) == expected

    def test_counts_equal_the_failures_of_each_trial(self, monkeypatch):
        # the oracle: the residual verdict of is_failure, with no memo, on
        # each side of each trial's bits, drawn qubit by qubit; 6 trials a
        # chunk, so 20 trials cross three chunk boundaries, and one call
        # runs every point, as a sweep does
        build = decoder.DecodingTables.build
        # correct builds tables per call; one set per code serves it here
        monkeypatch.setattr(decoder.DecodingTables, "build",
                            staticmethod(functools.cache(build)))
        seen = set()
        for label, code in _monte_carlo_codes().items():
            tables = build(code)

            @functools.cache  # p = 1 repeats
            def failures(x, z, code=code):
                err = ErrorPattern(Gf2Vector(code.n, x), Gf2Vector(code.n, z))
                corr = decoder.correct(code, decoder.syndrome(code, err))
                return decoder.is_failure(code, err, corr)

            monkeypatch.setattr(decoder, "_CHUNK_DRAWS", 2 * code.n * 7 - 1)
            rate = min(0.3, 10 / code.n)  # about 10 errors a side at most
            points = ((0.0, rate), (1.0, rate / 3), (rate / 2, 1.0))
            results = decoder.monte_carlo(tables, points, 20, 7)
            assert len(results) == len(points)
            for (p_x, p_z), res in zip(points, results):
                expected = [0, 0]
                for t in range(20):
                    x, z = _oracle_bits(7, t, code.n, p_x, p_z)
                    expected[0] += failures(x, 0)[0]
                    expected[1] += failures(0, z)[1]
                assert (res.p_x, res.p_z, res.trials, res.seed) == \
                    (p_x, p_z, 20, 7)
                assert [res.x_failures, res.z_failures] == expected, \
                    (label, p_x, p_z)
                seen.update(expected)
        assert {0, 20} < seen  # and counts strictly between

    @pytest.mark.parametrize("label,p", [("fig4_shor", 0.2),
                                         ("planar two holes", 0.02)])
    def test_each_verdict_gets_the_distinct_images_of_a_chunk(
            self, label, p, monkeypatch):
        # the keying of monte_carlo: per chunk, point and side, in that
        # order, one _failed call with each distinct image of the chunk's
        # trials once, as a Python int, with its count, as gf2.xor_rows
        # gives them from the per-qubit bits; 5 trials a chunk, so 12
        # trials make three chunks.  The planar code's images take five
        # 64-bit words, and p = 1 and p = 0 repeat one image per chunk
        if label == "fig4_shor":
            code = _code(label)
        else:
            code = stabilizer.build_punctured_disk_code(
                stabilizer.planar_two_holes_patch())
        tables = decoder.DecodingTables.build(code)
        failed, calls = decoder.MatchingGraph._failed, []

        def spy(self, images):
            side = [s is self for s in tables.sides].index(True)
            calls.append((side, list(images)))
            return failed(self, calls[-1][1])

        monkeypatch.setattr(decoder.MatchingGraph, "_failed", spy)
        monkeypatch.setattr(decoder, "_CHUNK_DRAWS", 2 * code.n * 5)
        points = ((p, p / 2), (1.0, 0.0))
        decoder.monte_carlo(tables, points, 12, 4)
        expected = []
        for chunk in (range(5), range(5, 10), range(10, 12)):
            for p_x, p_z in points:
                bits = [_oracle_bits(4, t, code.n, p_x, p_z) for t in chunk]
                for side, matching in enumerate(tables.sides):
                    expected.append((side, len(chunk), Counter(
                        gf2.xor_rows(matching.rows, b[side]) for b in bits)))
        assert len(calls) == len(expected) == 3 * 2 * 2
        for (side, images), (want_side, trials, want) in zip(calls,
                                                            expected):
            assert side == want_side
            assert all(type(image) is int and type(count) is int
                       for image, count in images)
            assert len({image for image, _ in images}) == len(images)
            assert sum(count for _, count in images) == trials
            assert dict(images) == want
        widest = max(image.bit_length() for _, images in calls
                     for image, _ in images)
        assert widest > 64 * (label != "fig4_shor")

    @pytest.mark.parametrize("name", ["fig4_shor", "fig1_hemi_icosahedron",
                                      "toric(3,3)"])
    def test_a_sweep_equals_its_points_run_one_at_a_time(self, name,
                                                         monkeypatch):
        # 5 trials a chunk, so 23 trials cross four chunk boundaries
        code = _code(name)
        monkeypatch.setattr(decoder, "_CHUNK_DRAWS", 2 * code.n * 5)
        points = [(0.1, 0.1), (0.0, 0.05), (0.02, 0.2), (0.1, 0.1)]
        sweep = decoder.monte_carlo(_tables(name), points, 23, 3)
        alone = [decoder.monte_carlo(_tables(name), [point], 23, 3)[0]
                 for point in points]
        assert sweep == alone
        assert sweep[0] == sweep[3]
        assert decoder.monte_carlo(_tables("fig4_shor"), [], 23, 3) == []

    @pytest.mark.parametrize("name,distinct", [
        ("fig4_shor", 41), ("fig1_hemi_icosahedron", 154),
        ("toric(3,3)", 253)])
    def test_each_distinct_syndrome_is_matched_once(self, name, distinct,
                                                    monkeypatch):
        # the benchmark's decode_small sweeps: 448 chains in all, where a
        # chain per trial and side makes 5,400
        points = (0.02, 0.05, 0.1)
        code = _code(name)
        syndromes = set()
        for p in points:
            for t in range(300):
                bits = _oracle_bits(1, t, code.n, p, p)
                syndromes |= {(side, gf2.xor_rows(graph.columns, b))
                              for side, ((graph, _), b) in enumerate(
                                  zip(code.sides, bits))}
        calls = []
        chain = decoder.MatchingGraph.chain
        monkeypatch.setattr(decoder.MatchingGraph, "chain",
                            lambda graph, syn: calls.append(syn)
                            or chain(graph, syn))
        decoder.monte_carlo(_tables(name), [(p, p) for p in points], 300, 1)
        assert len(calls) == len(syndromes) == distinct

    @pytest.mark.parametrize("name,rows", [
        ("fig4_shor", [(3, 2), (14, 9), (46, 30)]),
        ("fig1_hemi_icosahedron", [(2, 0), (23, 3), (60, 17)]),
        ("toric(3,3)", [(4, 3), (16, 12), (67, 65)])])
    def test_a_capped_memo_changes_no_count(self, name, rows, monkeypatch):
        # the pinned decode_small sweeps (tests/test_cli.py) with both
        # memos capped at 3 entries: the syndrome memo stops filling, and
        # the DP memo is cleared before a DP, so it never holds more than
        # the cap and one DP's sub-matchings
        monkeypatch.setattr(decoder, "_MEMO_ENTRIES", 3)
        tables, sizes = _tables(name), []
        min_matching = decoder.MatchingGraph._min_matching

        def bounded(graph, nodes):
            result = min_matching(graph, nodes)
            sizes.append(len(graph._matchings))
            assert len(graph._matchings) < 3 + 2 ** nodes.bit_count()
            return result

        monkeypatch.setattr(decoder.MatchingGraph, "_min_matching", bounded)
        results = decoder.monte_carlo(tables, [(0.02, 0.02), (0.05, 0.05),
                                               (0.1, 0.1)], 300, 1)
        assert [(r.x_failures, r.z_failures) for r in results] == rows
        assert [len(side._parities) for side in tables.sides] == [3, 3]
        assert max(sizes) > 3  # a DP filled the memo past the cap

    def test_a_chain_that_misses_its_syndrome_is_rejected(self, monkeypatch):
        monkeypatch.setattr(decoder.MatchingGraph, "chain",
                            lambda graph, syn: 0)
        with pytest.raises(decoder.SyndromeMismatch):
            decoder.monte_carlo(_tables("fig4_shor"), [(0.1, 0.1)], 40, 1)

    @pytest.mark.parametrize("points,trials,seed", [
        ([(0.1, 0.1)], -3, 1), ([(0.1, 0.1)], 5, -1),
        ([(0.1, 0.1)], 5, 2**128), ([(0.1, 0.1)], 5, 2**130),
        ([(0.1, 0.1), (0.2, 0.2), (0.05, 1.5)], 5, 1),
        ([(0.1, 0.1), (float("nan"), 0.2)], 5, 1)])
    def test_trials_and_seed_validation(self, points, trials, seed,
                                        monkeypatch):
        # also a bad probability at a later point: nothing is drawn
        def no_sampling(*args):
            raise AssertionError("sampled before validating")

        monkeypatch.setattr(decoder, "_draws", no_sampling)
        with pytest.raises(ValueError):
            decoder.monte_carlo(_tables("fig4_shor"), points, trials, seed)

    def test_largest_seed_is_accepted(self):
        [res] = decoder.monte_carlo(_tables("fig4_shor"), [(0.1, 0.1)], 3,
                                    2**128 - 1)
        assert res.seed == 2**128 - 1 and res.trials == 3

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            decoder.monte_carlo(_tables("fig4_shor"), [(1.5, 0.0)], 1, 0)

    def test_csv_format(self):
        [res] = decoder.monte_carlo(_tables("fig4_shor"), [(0.05, 0.0)],
                                    trials=10, seed=2)
        text = decoder.sweep_csv([res])
        lines = text.strip().split("\n")
        assert lines[0] == "p_x,p_z,trials,x_failures,z_failures,seed"
        assert lines[1].startswith("0.05,0.0,10,")
        assert lines[1].endswith(",2")
