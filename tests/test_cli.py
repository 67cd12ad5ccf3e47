import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from math import comb

import pytest
from coset_oracle import coset_min_essential, support_min_essential
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cellqec
from cellqec import cli, decoder, gf2, homology, search, stabilizer, surface
from cellqec.gf2 import Gf2Matrix, Gf2Vector


@st.composite
def _small_patch_docs(draw):
    """A planar patch spec: up to two holes at any position in or
    around a patch of width and height 1..4."""
    width, height = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    holes = draw(st.lists(st.tuples(st.integers(-1, width),
                                    st.integers(-1, height),
                                    st.integers(1, 2), st.integers(1, 2)),
                          max_size=2))
    return {"width": width, "height": height,
            "holes": [list(h) for h in holes]}


# a value of the wrong JSON type, for any field of a document
_JUNK = st.one_of(st.none(), st.booleans(), st.floats(), st.text(max_size=2),
                  st.dictionaries(st.text(max_size=1), st.integers(),
                                  max_size=1))


@st.composite
def _small_cellulation_docs(draw):
    """A cellulation document of up to 4 edges and 3 faces with small,
    possibly out-of-range ids; half of them also hold wrongly typed or
    shaped values and may miss a key."""
    junk = draw(st.booleans())

    def maybe(strategy):
        return st.one_of(strategy, strategy, strategy, _JUNK) if junk \
            else strategy

    def pair(first, second):
        typed = st.tuples(first, second).map(list)
        return st.one_of(typed, st.lists(first, max_size=3)) if junk \
            else typed

    vertex = maybe(st.integers(-1, 3))
    step = pair(maybe(st.integers(-1, 4)), maybe(st.sampled_from([1, -1, 0])))
    doc = {
        "vertices": draw(vertex),
        "edges": draw(maybe(st.lists(maybe(pair(vertex, vertex)),
                                     max_size=4))),
        "faces": draw(maybe(st.lists(maybe(st.lists(maybe(step),
                                                    max_size=4)),
                                     max_size=3))),
    }
    if junk:
        missing = draw(st.sampled_from([None] * 5 + sorted(doc)))
        if missing is not None:
            del doc[missing]
    return doc


# command-line tokens: catalog names, small tori, inline documents and
# junk; numbers with negatives, nan and 2**128, bounded where an option
# sets the cost (--edges, --trials); a large --weight is a full sweep of
# up to 2^18 patterns or past decoder.MAX_EXHAUSTIVE_PATTERNS (exit 1)
_BIG = str(2 ** 128)
_JUNK_TOKENS = st.sampled_from(["", "-", "--", "-h", "--workers", "x", "nan",
                                "toric(", "toric(1)", "{", "{}", "[1]", "."])
_CELLULATIONS = st.one_of(
    st.sampled_from(surface.closed_catalog_names()),
    st.builds("toric({},{})".format, st.integers(0, 4), st.integers(0, 4)),
    _small_cellulation_docs().map(json.dumps),
    _JUNK_TOKENS)


@st.composite
def _spec_files(draw):
    """A _small_patch_docs document, half of them with one field of the
    wrong JSON type; in an argv it stands for a file holding it."""
    doc = draw(_small_patch_docs())
    if draw(st.booleans()):
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JUNK)
    return doc


def _numbers(bound=None):
    words = ["nan", "-0", "1.5", "x", "", str(-2 ** 128)]
    if bound is None:
        return st.one_of(st.integers(-3, 12).map(str),
                         st.sampled_from(words + [_BIG]))
    return st.one_of(st.integers(-3, bound).map(str), st.sampled_from(words))


_WEIGHTS = st.one_of(_numbers(2),
                     st.sampled_from(["6", "1000000000", _BIG]))
_PROBABILITIES = st.lists(st.sampled_from(["0", "0.05", "0.1", "1", "-0.1",
                                          "2", "nan", "x", _BIG]),
                          min_size=1, max_size=3).map(",".join)
# per subcommand: the words, then the required and the optional
# arguments, each a list of tokens or strategies
_GRAMMAR = [
    (["catalog", "list"], [], []),
    (["catalog", "show"], [_CELLULATIONS], []),
    (["code", "params"], [_CELLULATIONS], []),
    (["code", "stabilizers"], [_CELLULATIONS], []),
    (["code", "invariants"], [_CELLULATIONS], []),
    (["code", "compare"], [_CELLULATIONS, _CELLULATIONS], []),
    (["decode", "sweep"], [_CELLULATIONS, "--p", _PROBABILITIES,
                           "--trials", _numbers(20), "--seed", _numbers()], []),
    (["decode", "exhaustive"], [_CELLULATIONS, "--weight", _WEIGHTS], []),
    (["search", "census"], ["--edges", _numbers(5)],
     [["--min-systole", _numbers()], ["--vertices", _numbers()],
      ["--bigons", _numbers()]]),
    (["search", "verify-paper"], [], []),
    (["planar", "puncture"], [_CELLULATIONS, "--face", _numbers(),
                              "--vertex", _numbers()], []),
    (["planar", "holes"], [], [["--spec",
                                st.one_of(_spec_files(), _JUNK_TOKENS)]]),
]


@st.composite
def _argvs(draw):
    """An argv from _GRAMMAR; one in four drops a token, and one in four
    gets a junk token.  No edit moves a value to another option."""
    words, required, optional = draw(st.sampled_from(_GRAMMAR))
    parts = list(required)
    for group in optional:
        if draw(st.booleans()):
            parts += group
    argv = words + [p if isinstance(p, str) else draw(p) for p in parts]
    if draw(st.integers(0, 3)) == 0:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(_JUNK_TOKENS))
    return argv


def run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestCatalog:
    def test_list(self, capsys):
        code, out, _ = run(capsys, ["catalog", "list"])
        assert code == 0
        assert out == ('{"catalog":["rp2_minimal","fig1_hemi_icosahedron",'
                       '"fig2_nine_edge","fig3_nine_edge","fig4_shor",'
                       '"cube_sphere","toric(3,3)"]}\n')

    def test_show(self, capsys):
        code, out, err = run(capsys, ["catalog", "show", "fig4_shor"])
        assert code == 0
        doc = json.loads(out)
        assert doc["cellulation"]["vertices"] == 3
        assert doc["surface"]["surface_name"] == "projective plane"
        assert "E=9" in err


class TestCode:
    def test_params_shor(self, capsys):
        code, out, err = run(capsys, ["code", "params", "fig4_shor"])
        assert code == 0
        doc = json.loads(out)
        assert doc == {"parameters": [9, 1, 3, 3], "relations_ok": True,
                       "commuting": True}
        assert "[[9,1,3,3]]" in err

    def test_params_large_toric(self, capsys):
        code, out, _ = run(capsys, ["code", "params", "toric(8,8)"])
        assert code == 0
        assert json.loads(out)["parameters"] == [128, 2, 8, 8]

    def test_params_inline_json(self, capsys):
        inline = surface.rp2_minimal().to_json()
        code, out, _ = run(capsys, ["code", "params", inline])
        assert code == 0
        assert json.loads(out)["parameters"] == [1, 1, 1, 1]

    def test_params_empty_cellulation(self, capsys):
        code, out, _ = run(capsys, ["code", "params",
                                    '{"vertices":0,"edges":[],"faces":[]}'])
        assert code == 0
        assert json.loads(out)["parameters"] == [0, 0, None, None]

    def test_params_from_file(self, capsys, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(surface.fig4_shor().to_json())
        code, out, _ = run(capsys, ["code", "params", str(p)])
        assert code == 0
        assert json.loads(out)["parameters"] == [9, 1, 3, 3]

    def test_stabilizers(self, capsys):
        code, out, _ = run(capsys, ["code", "stabilizers", "fig4_shor"])
        assert code == 0
        doc = json.loads(out)
        assert doc["n"] == 9
        assert len(doc["pauli_strings"]) == 10  # 7 faces + 3 vertices
        assert all(len(s) == 9 for s in doc["pauli_strings"])

    def test_invariants(self, capsys):
        code, out, err = run(capsys, ["code", "invariants", "fig4_shor"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rank2_pairs"]) == 9
        assert doc["histogram"] == {"1": 0, "2": 9, "4": 27}
        assert "rank-2 pairs: 9" in err

    def test_invariants_large_toric(self, capsys):
        code, out, _ = run(capsys, ["code", "invariants", "toric(6,6)"])
        assert code == 0
        assert json.loads(out)["histogram"] == {"1": 0, "2": 0, "4": 2556}

    def test_compare_figures(self, capsys):
        code, out, _ = run(capsys, ["code", "compare", "fig2_nine_edge",
                                    "fig3_nine_edge"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"] == "inequivalent"
        assert doc["certificate"]["histogram_a"]["2"] == 2
        assert doc["certificate"]["histogram_b"]["2"] == 3

    def test_json_output_is_byte_stable(self, capsys):
        _, out1, _ = run(capsys, ["code", "params", "fig4_shor"])
        _, out2, _ = run(capsys, ["code", "params", "fig4_shor"])
        assert out1 == out2

    def test_compare_self_inconclusive(self, capsys):
        code, out, _ = run(capsys, ["code", "compare", "fig4_shor",
                                    "fig4_shor"])
        assert code == 0
        assert json.loads(out) == {"result": "inconclusive"}


class TestDecode:
    def test_sweep_is_byte_stable(self, capsys):
        argv = ["decode", "sweep", "fig4_shor", "--p", "0.0,0.1",
                "--trials", "8", "--seed", "3"]
        code, out1, err = run(capsys, argv)
        assert code == 0
        code, out2, _ = run(capsys, argv)
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "p_x,p_z,trials,x_failures,z_failures,seed"
        assert lines[1] == "0.0,0.0,8,0,0,3"
        assert "rng" in err

    def test_exhaustive(self, capsys):
        code, out, _ = run(capsys, ["decode", "exhaustive", "fig4_shor",
                                    "--weight", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"][1]["x_failures"] == 0
        assert doc["rows"][1]["z_failures"] == 0


    def test_sweep_matches_pinned_output(self, capsys):
        # stdout of the exhaustive coset-search decoder this one replaced
        code, out, _ = run(capsys, ["decode", "sweep", "toric(4,4)", "--p",
                                    "0.02,0.05,0.1", "--trials", "40",
                                    "--seed", "1"])
        assert code == 0
        assert out == ("p_x,p_z,trials,x_failures,z_failures,seed\n"
                       "0.02,0.02,40,0,0,1\n"
                       "0.05,0.05,40,2,0,1\n"
                       "0.1,0.1,40,12,8,1\n")

    @pytest.mark.parametrize("name,rows", [
        ("fig4_shor", ["0.02,0.02,300,3,2,1", "0.05,0.05,300,14,9,1",
                       "0.1,0.1,300,46,30,1"]),
        ("fig1_hemi_icosahedron", ["0.02,0.02,300,2,0,1",
                                   "0.05,0.05,300,23,3,1",
                                   "0.1,0.1,300,60,17,1"]),
        ("toric(3,3)", ["0.02,0.02,300,4,3,1", "0.05,0.05,300,16,12,1",
                        "0.1,0.1,300,67,65,1"]),
    ])
    def test_decode_small_sweeps_match_pinned_output(self, capsys, name,
                                                      rows):
        # the benchmark's decode_small ops; stdout of the decoder that
        # built a Philox generator per trial
        code, out, _ = run(capsys, ["decode", "sweep", name, "--p",
                                    "0.02,0.05,0.1", "--trials", "300",
                                    "--seed", "1"])
        assert code == 0
        assert out == "\n".join(
            ["p_x,p_z,trials,x_failures,z_failures,seed"] + rows) + "\n"

    @pytest.mark.parametrize("seed", [str(2**128), str(2**130)])
    def test_seed_beyond_the_philox_key_is_a_usage_error(self, capsys, seed):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", "sweep", "fig4_shor", "--p", "0.1",
                      "--trials", "2", "--seed", seed])
        assert exc.value.code == 2
        assert "--seed: must be less than 2**128" in capsys.readouterr().err

    def test_sweep_with_both_matchings_matches_pinned_output(self, capsys):
        # stdout of the blossom-only decoder; 30 of these chains have more
        # than 14 defects, so both the subset DP and the blossom run
        code, out, _ = run(capsys, ["decode", "sweep", "toric(8,8)", "--p",
                                    "0.1", "--trials", "20", "--seed", "1"])
        assert code == 0
        assert out == ("p_x,p_z,trials,x_failures,z_failures,seed\n"
                       "0.1,0.1,20,5,3,1\n")

    def test_exhaustive_matches_pinned_output(self, capsys):
        code, out, _ = run(capsys, ["decode", "exhaustive", "fig4_shor",
                                    "--weight", "2"])
        assert code == 0
        assert out == (
            '{"n":9,"rows":['
            '{"weight":0,"x_failures":0,"x_patterns":1,"z_failures":0,'
            '"z_patterns":1},'
            '{"weight":1,"x_failures":0,"x_patterns":9,"z_failures":0,'
            '"z_patterns":9},'
            '{"weight":2,"x_failures":27,"x_patterns":36,"z_failures":9,'
            '"z_patterns":36}]}\n')

    @pytest.mark.parametrize("name,weight,n,failures", [
        ("fig1_hemi_icosahedron", 15, 15, [
            (0, 0), (0, 0), (49, 0), (255, 130), (704, 724), (1476, 1723),
            (2465, 2637), (3195, 3181), (3240, 3090), (2560, 2370),
            (1507, 1460), (645, 704), (216, 266), (60, 83), (11, 15),
            (1, 1)]),
        ("toric(3,3)", 5, 18, [
            (0, 0), (0, 0), (18, 18), (570, 570), (2403, 2403),
            (6102, 6102)])])
    def test_exhaustive_rows_are_pinned(self, capsys, name, weight, n,
                                        failures):
        # (x, z) failures per weight as the per-error decoder printed them
        # before every decode went through one memoised verdict: all of
        # fig1's rows, and toric(3,3)'s up to weight 5
        code, out, _ = run(capsys, ["decode", "exhaustive", name,
                                    "--weight", str(weight)])
        assert code == 0
        rows = ",".join(
            f'{{"weight":{w},"x_failures":{xf},"x_patterns":{comb(n, w)},'
            f'"z_failures":{zf},"z_patterns":{comb(n, w)}}}'
            for w, (xf, zf) in enumerate(failures))
        assert out == f'{{"n":{n},"rows":[{rows}]}}\n'

    @pytest.mark.parametrize("weight", ["12", "1000000000"])
    def test_exhaustive_stops_at_the_code_length(self, capsys, weight):
        # no error on 9 qubits weighs more than 9: rows 0..9, whatever
        # the weight asked for, and the first three are the pinned ones
        code, out, _ = run(capsys, ["decode", "exhaustive", "fig4_shor",
                                    "--weight", weight])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["weight"] for r in rows] == list(range(10))
        _, pinned, _ = run(capsys, ["decode", "exhaustive", "fig4_shor",
                                    "--weight", "2"])
        assert rows[:3] == json.loads(pinned)["rows"]

    @pytest.mark.parametrize("name,weight,top", [
        ("toric(8,8)", "6", 6), ("toric(4,4)", "1000000000", 32)])
    def test_exhaustive_over_budget_is_a_computation_error(
            self, capsys, monkeypatch, name, weight, top):
        # sum of C(n, w) up to the weight: 5.7e9 on toric(8,8) and 2^32
        # on toric(4,4), refused before any pattern is decoded
        monkeypatch.setattr(decoder.DecodingTables, "build", None)
        code, out, err = run(capsys, ["decode", "exhaustive", name,
                                      "--weight", weight])
        assert (code, out) == (1, "")
        assert err == ("error: more than 1048576 error patterns per side"
                       f" up to weight {top}\n")

    def test_sweep_builds_the_tables_once(self, capsys, monkeypatch):
        # one DecodingTables per command, shared by every --p point, one
        # check graph per check matrix, from the code's sides, and each
        # trial drawn once for all the points
        calls, graphs, rows = [], [], []
        build, of = decoder.DecodingTables.build, homology.CheckGraph.of
        draws = decoder._draws

        def counted(code):
            calls.append(code)
            return build(code)

        def counted_of(check):
            graphs.append(check)
            return of(check)

        def counted_draws(*args):
            for chunk in draws(*args):
                rows.extend(chunk)
                yield chunk

        monkeypatch.setattr(decoder.DecodingTables, "build", counted)
        monkeypatch.setattr(homology.CheckGraph, "of", counted_of)
        monkeypatch.setattr(decoder, "_draws", counted_draws)
        code, out, _ = run(capsys, ["decode", "sweep", "fig4_shor", "--p",
                                    "0.02,0.05,0.1", "--trials", "5",
                                    "--seed", "1"])
        assert code == 0
        assert len(out.strip().split("\n")) == 4
        assert len(calls) == 1
        assert len(graphs) == 2
        assert len(rows) == 5  # not 3 points x 5 trials

    def test_sweep_large_toric(self, capsys):
        # 2^37 coset combinations per trial for an exhaustive decoder
        code, out, _ = run(capsys, ["decode", "sweep", "toric(6,6)", "--p",
                                    "0.1", "--trials", "2", "--seed", "1"])
        assert code == 0
        assert out.split("\n")[1].startswith("0.1,0.1,2,")

    def test_cli_import_does_not_load_networkx(self):
        src = os.path.dirname(os.path.dirname(cellqec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, cellqec.cli; "
                 "sys.exit('networkx' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", probe], env=env,
                              timeout=60).returncode == 0

    def test_cli_import_does_not_load_numpy(self):
        # numpy is loaded only by monte_carlo
        src = os.path.dirname(os.path.dirname(cellqec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, cellqec.cli; "
                 "sys.exit('numpy' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", probe], env=env,
                              timeout=60).returncode == 0

    def test_commands_without_sampling_do_not_load_numpy(self):
        src = os.path.dirname(os.path.dirname(cellqec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys; from cellqec import cli; "
                 "codes = [cli.main(['decode', 'exhaustive', 'fig4_shor', "
                 "'--weight', '1']), cli.main(['code', 'params', "
                 "'fig4_shor'])]; "
                 "sys.exit(codes != [0, 0] or 'numpy' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0
        assert '"x_failures":0' in done.stdout
        assert '"parameters":[9,1,3,3]' in done.stdout


class TestSearch:
    def test_census(self, capsys):
        code, out, _ = run(capsys, ["search", "census", "--edges", "3",
                                    "--min-systole", "1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["edge_count"] == 3
        assert doc["survivor_count"] == len(doc["survivors"]) > 0

    def test_census_survivors_in_canonical_order(self, capsys):
        code, out, _ = run(capsys, ["search", "census", "--edges", "3",
                                    "--min-systole", "1", "--vertices", "2"])
        assert code == 0
        assert out == (
            '{"classes_examined":9,"edge_count":3,"min_systole":1,'
            '"schemes_examined":9,"survivor_count":9,"survivors":['
            '{"edges":[[0,0],[0,1],[1,1]],"faces":[[[0,1],[1,1],[2,1],'
            '[2,1],[1,-1]],[[0,1]]],"vertices":2},'
            '{"edges":[[0,0],[0,0],[0,1]],"faces":[[[0,1],[0,1],[1,1]],'
            '[[1,1],[2,1],[2,-1]]],"vertices":2},'
            '{"edges":[[0,0],[0,0],[0,1]],"faces":[[[0,1],[1,1],[1,1],'
            '[2,1],[2,-1]],[[0,1]]],"vertices":2},'
            '{"edges":[[0,0],[0,0],[0,1]],"faces":[[[0,1],[1,1],[2,1],'
            '[2,-1],[1,1]],[[0,1]]],"vertices":2},'
            '{"edges":[[0,0],[0,0],[0,1]],"faces":[[[0,1],[1,1],[2,1],'
            '[2,-1]],[[0,1],[1,-1]]],"vertices":2},'
            '{"edges":[[0,0],[0,1],[0,1]],"faces":[[[0,1],[0,1],[1,1],'
            '[2,-1]],[[1,1],[2,-1]]],"vertices":2},'
            '{"edges":[[0,1],[0,1],[0,1]],"faces":[[[0,1],[1,-1],[0,1],'
            '[2,-1]],[[1,1],[2,-1]]],"vertices":2},'
            '{"edges":[[0,0],[0,1],[0,1]],"faces":[[[0,1],[1,1],[2,-1],'
            '[1,1],[2,-1]],[[0,1]]],"vertices":2},'
            '{"edges":[[0,0],[0,1],[0,1]],"faces":[[[0,1],[1,1],[2,-1]],'
            '[[0,1],[2,1],[1,-1]]],"vertices":2}]}\n')

    def test_census_with_survivors_is_pinned(self, capsys):
        # both the flag-level reject and the homology filter decide
        # classes here, and 13 survive
        code, out, _ = run(capsys, ["search", "census", "--edges", "5",
                                    "--min-systole", "2"])
        assert code == 0
        assert json.loads(out)["survivor_count"] == 13
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "4cdb2a477e5a22cb63268593012aed9819030b6f86ba247ef5972484e8a98b4c")

    @pytest.mark.parametrize("flag,value,message", [
        ("--edges", "0", "must be positive, got 0"),
        ("--edges", "-2", "must be positive, got -2"),
        ("--min-systole", "0", "must be positive, got 0"),
        ("--vertices", "-1", "must be non-negative, got -1"),
        ("--bigons", "-1", "must be non-negative, got -1"),
        ("--bigons", "x", "not an integer: 'x'"),
    ], ids=["edges-0", "edges-negative", "min-systole-0", "vertices",
            "bigons", "bigons-word"])
    def test_bad_count_is_usage_error(self, capsys, flag, value, message):
        argv = ["search", "census", "--edges", "3", flag, value]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"{flag}: {message}" in err

    @pytest.mark.parametrize("argv", [["--vertices", "0"], ["--bigons", "0"],
                                      ["--min-systole", "1"]])
    def test_smallest_valid_counts_run(self, capsys, argv):
        code, out, _ = run(capsys, ["search", "census", "--edges", "3"]
                           + argv)
        assert code == 0
        assert json.loads(out)["edge_count"] == 3

    def test_edges_over_budget_is_a_computation_error(self, capsys):
        code, out, err = run(capsys, ["search", "census", "--edges", "11"])
        assert (code, out) == (1, "")
        assert err == "error: edge count 11 exceeds the budget of 10\n"

    def test_verify_nonexistence(self, verify_paper_run):
        assert verify_paper_run.code == 0
        reports = json.loads(verify_paper_run.stdout)["reports"]
        assert [r["edge_count"] for r in reports] == [5, 7]
        for r in reports:
            assert r["survivor_count"] == 0
            assert r["classes_examined"] > 0


class TestPlanar:
    def test_puncture(self, capsys):
        code, out, _ = run(capsys, ["planar", "puncture", "fig4_shor",
                                    "--face", "6", "--vertex", "0"])
        assert code == 0
        doc = json.loads(out)
        assert doc["parameters"] == [9, 1, 3, 3]
        assert doc["row_spaces_preserved"] is True
        assert doc["planar"] is True

    def test_holes_default(self, capsys):
        code, out, _ = run(capsys, ["planar", "holes"])
        assert code == 0
        doc = json.loads(out)
        assert doc["parameters"][1] == 2

    # holes anywhere in and around small patches, so most are invalid;
    # d_x is checked by a scan of supports, since d_x <= 2 at these sizes
    # while rowspace(z_stabilizers) is too large for a coset search
    @settings(max_examples=60, deadline=None)
    @given(doc=_small_patch_docs())
    @example(doc={"width": 4, "height": 4, "holes": [[1, 1, 1, 1],
                                                     [2, 2, 1, 1]]})
    @example(doc={"width": 4, "height": 3, "holes": [[1, 1, 1, 1],
                                                     [2, 1, 1, 1]]})
    @example(doc={"width": 4, "height": 4, "holes": [[1, 1, 2, 2]]})
    def test_holes_spec_against_the_oracles(self, tmp_path_factory, doc):
        spec = tmp_path_factory.mktemp("spec") / "patch.json"
        spec.write_text(json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["planar", "holes", "--spec", str(spec)])
        assert code in (0, 1)
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert out.getvalue() == ""
            return
        built = stabilizer.build_punctured_disk_code(
            stabilizer.PlanarPatch.from_json_dict(doc))
        assert json.loads(out.getvalue())["parameters"] == list(
            built.parameters())
        assert built.k == len(doc["holes"])
        if built.k:
            x_stab, z_stab = built.x_stabilizers, built.z_stabilizers
            assert built.d_z == coset_min_essential(x_stab, z_stab)
            assert built.d_x == support_min_essential(z_stab, x_stab)


class TestLogicalOperators:
    # sha256 of stdout, which carries the paired logical operators; these
    # bytes are what the order of the tree-cotree split's forests decides
    @pytest.mark.parametrize("argv,digest", [
        (["code", "stabilizers", "fig1_hemi_icosahedron"],
         "bfa7d793247767ed92777820307e6a5f43b7001cbdffac8ee9b14248a7418678"),
        (["code", "stabilizers", "fig2_nine_edge"],
         "5bcd903f948926ad1a727364028f9b29e43cf056e61bcd0e69685541b4f98aa1"),
        (["code", "stabilizers", "toric(3,3)"],
         "cfe70773239a579f6b41f3f6fb11087b944349c980466083b9575001a8f7937a"),
        (["planar", "puncture", "toric(3,3)", "--face", "0", "--vertex", "0"],
         "175b6c47f8763e120a491d5532848d4a779e3e01eff4e45465c79c2e32aa8594"),
        (["code", "stabilizers", "toric(8,8)"],
         "074a6d46182b429f1793423b4fff0591ec763993e79e4532e51836db543c6c21"),
        (["planar", "holes"],
         "fc751b7ebc91ffe36d5244508bc5f519ca2cb46c47113e318377f305474d9143"),
        (["planar", "puncture", "fig4_shor", "--face", "6", "--vertex", "0"],
         "363615b2908b130e68491c416b628554466790e24c75a290723c77fd7f47217a"),
        (["planar", "puncture", "toric(3,3)", "--face", "4", "--vertex", "7"],
         "916172a8d4ac0b15ad13b3ecf87eb4e03105978d2a4cc6da5cbc5483d5e85bfb"),
    ], ids=["fig1", "fig2", "toric33", "puncture-toric33", "toric88",
            "planar-holes", "puncture-shor", "puncture-toric33-interior"])
    def test_stdout_is_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # the logical_x supports these commands printed while the X side was
    # paired to the Z side by a Gram solve; the tree-cotree split prints
    # other vectors, but each is the same logical operator up to X
    # stabilizers
    @pytest.mark.parametrize("argv,supports", [
        (["code", "stabilizers", "fig1_hemi_icosahedron"], [[0, 5, 10]]),
        (["code", "stabilizers", "fig2_nine_edge"], [[0, 2, 4]]),
        (["code", "stabilizers", "toric(3,3)"], [[0, 3, 6], [9, 10, 11]]),
        (["planar", "puncture", "toric(3,3)", "--face", "0", "--vertex", "0"],
         [[0, 3, 6], [9, 10, 11]]),
        (["code", "stabilizers", "toric(8,8)"],
         [list(range(0, 64, 8)), list(range(64, 72))]),
    ], ids=["fig1", "fig2", "toric33", "puncture-toric33", "toric88"])
    def test_logical_x_keeps_its_class(self, capsys, argv, supports):
        code, out, _ = run(capsys, argv)
        assert code == 0
        doc = json.loads(out)["code"]
        rows = Gf2Matrix.from_rows(doc["x_stabilizers"]).row_vectors()
        logical_x = [Gf2Vector.from_list(v) for v in doc["logical_x"]]
        assert len(logical_x) == len(supports)
        for v, support in zip(logical_x, supports):
            assert gf2.in_span(rows, v ^ Gf2Vector.from_support(v.n, support))


class TestCodesOutputs:
    # sha256 of stdout of every code params, invariants and compare
    # command the codes benchmark runs, recorded before the one-pass
    # check graph and the set-based patch geometry
    @pytest.mark.parametrize("argv,digest", [
        (["code", "params", "rp2_minimal"],
         "e0f9267c5e266fb5cec0b2cf79c653795ecfc37a2a20ae07f83361af813ca823"),
        (["code", "params", "fig1_hemi_icosahedron"],
         "874212ebe8be73326386f0a1d26cd141a15fae5a264d032c116008b4a2f96efb"),
        (["code", "params", "fig2_nine_edge"],
         "25d121da47a01e0a8283d5186e1909212cba18b584453f318bc4346103ec0ff7"),
        (["code", "params", "fig3_nine_edge"],
         "25d121da47a01e0a8283d5186e1909212cba18b584453f318bc4346103ec0ff7"),
        (["code", "params", "fig4_shor"],
         "25d121da47a01e0a8283d5186e1909212cba18b584453f318bc4346103ec0ff7"),
        (["code", "params", "cube_sphere"],
         "2704a6c721700372c11fbf0fb0e5ca8b2623447051f5bd1f16d0552041fa8892"),
        (["code", "params", "toric(2,2)"],
         "889cca86001c45c1ef9ab66309aa248686b694ba7bc1d8f12c135d45e3ee0263"),
        (["code", "params", "toric(3,3)"],
         "ee3558b8e8d1ff97cf08f2cc4a2001482baf9f96f7129da64feb74d4596d89fb"),
        (["code", "params", "toric(4,4)"],
         "291fb3f02b8e6b7782cbfafddbd969560d820b3aa132a788b30a1ce2353557a9"),
        (["code", "params", "toric(5,5)"],
         "bda8f122efceb0609513fca99702d0bdd21435a884de22b6815adcaca5998713"),
        (["code", "params", "toric(6,6)"],
         "a5a328f25fc285911da78fbd702e1bf9d525e81861a800ef8fa8449155194576"),
        (["code", "params", "toric(8,8)"],
         "608b2d387e0072ede9e94a2615a062de11405368ec58f3673796b97d0a806505"),
        (["code", "invariants", "rp2_minimal"],
         "b972dae368f3618385e4d10fd59c8622356c0c1c442e45a3c92384ae71da78c6"),
        (["code", "invariants", "fig1_hemi_icosahedron"],
         "6e576dfb37c1ca537426edf1331d65a77664ccc019800f02eda15903aae9f810"),
        (["code", "invariants", "fig2_nine_edge"],
         "e67e4a050aaaa6454d17078cb49c42035716f7802f38ba64e31f58a1786e0b8b"),
        (["code", "invariants", "fig3_nine_edge"],
         "ef2494937e45ce66733271997bae151d85e27c5a29b1fa38d73b5e335d4f9a48"),
        (["code", "invariants", "fig4_shor"],
         "4b447cda93121ae4c316cab8279b1a37fa15003f74cf02b0e8cca49d322db8ef"),
        (["code", "invariants", "cube_sphere"],
         "68081ae5584ffb9ffdae22308a978e369045c221052884f99622e3c9396efead"),
        (["code", "invariants", "toric(4,4)"],
         "78d65f95562ee76b14fc382d7cc4df4921a09e38c42b4d6d79823a4f6004e619"),
        (["code", "invariants", "toric(3,3)"],
         "96faa9ea08d9e6d8e76dc57a68d1860762d2ca4dc54316a4f798b5fa7d3f60b1"),
        (["code", "invariants", "toric(8,8)"],
         "003aae88ed23444ccb88d51f4180a04fe19602a9d2a673aeefbe0300556b38d1"),
        (["code", "compare", "fig2_nine_edge", "fig3_nine_edge"],
         "0705602b76739999abae6df38661bdb1febf1fb291051ba029b6a6fa025b4c3f"),
    ], ids=["params-rp2_minimal", "params-fig1_hemi_icosahedron",
            "params-fig2_nine_edge", "params-fig3_nine_edge",
            "params-fig4_shor", "params-cube_sphere", "params-toric22",
            "params-toric33", "params-toric44", "params-toric55",
            "params-toric66", "params-toric88", "invariants-rp2_minimal",
            "invariants-fig1_hemi_icosahedron", "invariants-fig2_nine_edge",
            "invariants-fig3_nine_edge", "invariants-fig4_shor",
            "invariants-cube_sphere", "invariants-toric44",
            "invariants-toric33", "invariants-toric88",
            "compare-fig2_nine_edge-fig3_nine_edge"])
    def test_stdout_is_pinned(self, capsys, argv, digest):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_compare_on_the_catalog_is_pinned(self, capsys):
        # every ordered pair of catalog entries; pairs of different
        # qubit counts exit 1 with nothing on stdout
        names = surface.closed_catalog_names()
        h = hashlib.sha256()
        for a in names:
            for b in names:
                code, out, _ = run(capsys, ["code", "compare", a, b])
                h.update(f"{a} {b} {code} {out}".encode())
        assert h.hexdigest() == (
            "4ca6c788ab709c0dac35f6eb028eb3d9ef5d366ef5b59561f0b3468ebb522fae")


class TestDerivedOnRead:
    # these commands print no distance, so they must run no distance
    # search: the code derives its distances only when they are read
    @pytest.mark.parametrize("argv", [
        ["code", "invariants", "fig4_shor"],
        ["code", "compare", "fig2_nine_edge", "fig3_nine_edge"],
        ["decode", "sweep", "toric(3,3)", "--p", "0.05,0.1", "--trials", "30",
         "--seed", "4"],
        ["decode", "exhaustive", "fig4_shor", "--weight", "2"],
    ], ids=["invariants", "compare", "sweep", "exhaustive"])
    def test_no_distance_search(self, capsys, monkeypatch, argv):
        expected = run(capsys, argv)
        assert expected[0] == 0

        def no_search(graph, functionals):
            raise AssertionError("distance search for no printed distance")

        monkeypatch.setattr(stabilizer, "_min_weight_logical", no_search)
        assert run(capsys, argv) == expected


class TestErrors:
    def test_unknown_catalog_name(self, capsys):
        code, out, err = run(capsys, ["code", "params", "dodecahedron"])
        assert code == 1
        assert out == ""
        assert err == "error: unknown catalog name: dodecahedron\n"

    def test_catalog_name_is_not_shadowed_by_a_file(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "fig4_shor").write_text(surface.rp2_minimal().to_json())
        code, out, _ = run(capsys, ["code", "params", "fig4_shor"])
        assert code == 0
        assert json.loads(out)["parameters"] == [9, 1, 3, 3]
        code, out, _ = run(capsys, ["code", "params", "./fig4_shor"])
        assert code == 0
        assert json.loads(out)["parameters"] == [1, 1, 1, 1]

    @pytest.mark.parametrize("doc,message", [
        ({"width": 3}, "missing key 'height'"),
        ({"width": 3, "height": 3, "holes": 5},
         "malformed patch: 'int' object is not iterable"),
        ({"width": 5, "height": 5, "holes": [[1, 2]]},
         "malformed patch: hole [1, 2] is not [x, y, w, h]"),
        ({"width": "a", "height": 5, "holes": []},
         "malformed patch: 'a' is not an integer"),
        ("{bad", "malformed patch: Expecting property name enclosed in"
                 " double quotes: line 1 column 2 (char 1)"),
        ("", "malformed patch: Expecting value: line 1 column 1 (char 0)"),
    ], ids=["missing-key", "wrong-type", "short-hole", "non-integer",
            "invalid-json", "empty-file"])
    def test_bad_patch_json(self, capsys, tmp_path, doc, message):
        # a str doc is the file's text as it stands, not a JSON document
        p = tmp_path / "patch.json"
        p.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(capsys, ["planar", "holes", "--spec", str(p)])
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @settings(max_examples=150, deadline=None)
    @given(doc=_small_cellulation_docs())
    @example(doc=surface.rp2_minimal().to_json_dict())
    @example(doc=surface.fig4_shor().to_json_dict())
    def test_cellulation_json_never_escapes_main(self, doc):
        # the exit-code contract on arbitrary small documents: 0 or 1,
        # nothing on stdout after an error, and the same stdout twice
        spec = json.dumps(doc)
        for argv in (["catalog", "show", spec], ["code", "params", spec]):
            outs = []
            for _ in range(2):
                out = io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                assert code in (0, 1)
                assert code == 0 or out.getvalue() == ""
                outs.append(out.getvalue())
            assert outs[0] == outs[1]

    @settings(max_examples=150, deadline=None)
    @given(argv=_argvs())
    @example(argv=["search", "verify-paper"])
    @example(argv=["code", "compare", "--", "rp2_minimal", "--"])
    @example(argv=["decode", "sweep", "toric(4,4)", "--p", "0.1,0.05",
                   "--trials", "20", "--seed", _BIG])
    def test_argv_never_escapes_main(self, tmp_path_factory, argv):
        # the exit-code contract over the whole command line: 0, 1 or 2
        # (argparse's SystemExit), no traceback, nothing on stdout after
        # an error, and the same stdout twice.  verify-paper's census at
        # 5 and 7 edges takes seconds, and the verify_paper_run fixture
        # checks it, so here it runs the census at 3 and 4 edges.
        for i, token in enumerate(argv):
            if isinstance(token, dict):  # a patch spec: pass a file
                spec = tmp_path_factory.mktemp("spec") / "patch.json"
                spec.write_text(json.dumps(token))
                argv[i] = str(spec)

        def small_census():
            return {"reports": [search.census_report(e) for e in (3, 4)]}

        outs = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "verify_no_small_codes", small_census)
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(argv)
                    except SystemExit as exc:
                        code = exc.code
                assert code in (0, 1, 2)
                assert "Traceback" not in err.getvalue()
                assert code == 0 or out.getvalue() == ""
                outs.append(out.getvalue())
        assert outs[0] == outs[1]

    def test_positional_left_empty_after_double_dash(self, capsys):
        # argparse fills b with [] here rather than reporting it missing
        with pytest.raises(SystemExit) as exc:
            cli.main(["code", "compare", "--", "rp2_minimal", "--"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error: argument b: expected one argument" in err

    def test_workers_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--workers", "2", "catalog", "list"])
        assert exc.value.code == 2
        assert "usage: cellqec" in capsys.readouterr().err

    @pytest.mark.parametrize("face,vertex,message", [
        ("99", "0", "face 99 is out of range 0..6"),
        ("-1", "0", "face -1 is out of range 0..6"),
        ("6", "3", "vertex 3 is out of range 0..2"),
    ])
    def test_puncture_index_out_of_range(self, capsys, face, vertex, message):
        code, out, err = run(capsys, ["planar", "puncture", "fig4_shor",
                                      "--face", face, "--vertex", vertex])
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("doc,message", [
        ({"vertices": 2, "edges": [[0, 1]], "faces": [[[0, 1]]]},
         "edge 0 is traversed 1 times"),
        ({"vertices": 1, "faces": [[[0, 1], [0, 1]]]},
         "missing key 'edges'"),
        ({"vertices": 1, "edges": 5, "faces": []},
         "malformed cellulation"),
        ({"vertices": 1.7, "edges": [[0, 0.2]],
          "faces": [[[0, 1], ["0", True]]]},
         "malformed cellulation: 1.7 is not an integer"),
        ({"vertices": 1, "edges": [[0, 0]], "faces": [[[0, 1], ["0", 1]]]},
         "malformed cellulation: '0' is not an integer"),
        ({"vertices": 1, "edges": [[0, 0]], "faces": [[[0, 1], [0, True]]]},
         "malformed cellulation: True is not an integer"),
        ({"vertices": 1, "edges": [[0]], "faces": [[[0, 1], [0, 1]]]},
         "malformed cellulation: not enough values to unpack"),
        ({"vertices": -1, "edges": [], "faces": []},
         "vertex count -1 is negative"),
        ("{bad", "malformed cellulation: Expecting property name enclosed"
                 " in double quotes: line 1 column 2 (char 1)\n"),
        ('{"vertices": }',
         "malformed cellulation: Expecting value: line 1 column 14"
         " (char 13)\n"),
    ], ids=["single-cover", "missing-key", "wrong-type", "float", "string",
            "boolean", "short-edge", "negative-vertices", "invalid-json",
            "missing-value"])
    def test_bad_cellulation_json(self, capsys, tmp_path, doc, message):
        # a str doc is the text as it stands, not a JSON document
        text = doc if isinstance(doc, str) else json.dumps(doc)
        p = tmp_path / "c.json"
        p.write_text(text)
        for spec in (str(p), text):
            for argv in (["code", "params", spec], ["catalog", "show", spec]):
                code, out, err = run(capsys, argv)
                assert code == 1
                assert out == ""
                assert err.startswith(f"error: {message}")

    def test_deeply_nested_json(self, capsys, tmp_path):
        # deeper than json.loads recurses; written by hand, as json.dumps
        # cannot build it either
        depth = 200_000
        text = '{"vertices":' + "[" * depth + "]" * depth + "}"
        p = tmp_path / "deep.json"
        p.write_text(text)
        cases = [(argv, "cellulation") for spec in (str(p), text)
                 for argv in (["code", "params", spec],
                              ["catalog", "show", spec])]
        cases.append((["planar", "holes", "--spec", str(p)], "patch"))
        for argv, what in cases:
            code, out, err = run(capsys, argv)
            assert code == 1
            assert out == ""
            assert err == f"error: malformed {what}: JSON nested too deeply\n"

    @pytest.mark.parametrize("argv", [
        ["decode", "sweep", "fig4_shor", "--p", "0.1", "--trials", "-3",
         "--seed", "1"],
        ["decode", "sweep", "fig4_shor", "--p", "0.1", "--trials", "3",
         "--seed", "-1"],
        ["decode", "exhaustive", "fig4_shor", "--weight", "-1"],
    ], ids=["trials", "seed", "weight"])
    def test_negative_count_is_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("p,message", [
        ("abc", "not a number: 'abc'"),
        ("0.1,,0.2", "not a number: ''"),
        ("1.5", "not in [0, 1]: '1.5'"),
        ("-0.1", "not in [0, 1]: '-0.1'"),
        ("nan", "not in [0, 1]: 'nan'"),
    ], ids=["word", "empty-item", "above-one", "negative", "nan"])
    def test_bad_probability_is_usage_error(self, capsys, p, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", "sweep", "fig4_shor", "--p", p,
                      "--trials", "3", "--seed", "1"])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", "sweep"])  # missing required flags
        assert exc.value.code == 2


class TestParserReuse:
    def test_calls_share_one_parser_and_no_state(self, capsys):
        assert cli.build_parser() is cli.build_parser()
        a = ["code", "stabilizers", "fig4_shor"]
        first = run(capsys, a)
        assert first[0] == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["decode", "sweep"])
        assert exc.value.code == 2
        assert "usage: cellqec" in capsys.readouterr().err
        code, out, _ = run(capsys, ["search", "census", "--edges", "3",
                                    "--vertices", "2"])
        assert code == 0 and json.loads(out)["classes_examined"] == 9
        # --vertices must not carry over into the next call
        code, out, _ = run(capsys, ["search", "census", "--edges", "3"])
        assert code == 0 and json.loads(out)["classes_examined"] == 19
        assert run(capsys, a) == first


class TestModuleEntry:
    def _module(self, *argv):
        src = os.path.dirname(os.path.dirname(cellqec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "cellqec", *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60)

    def test_python_m_runs_the_cli(self, capsys):
        done = self._module("catalog", "list")
        code, out, _ = run(capsys, ["catalog", "list"])
        assert done.returncode == code == 0
        assert done.stdout == out

    def test_python_m_keeps_the_usage_exit_code(self):
        done = self._module("search", "census")  # --edges is required
        assert done.returncode == 2
        assert "--edges" in done.stderr and done.stdout == ""

    def test_python_m_empty_positional_is_a_usage_error(self):
        done = self._module("code", "compare", "--", "rp2_minimal", "--")
        assert done.returncode == 2
        assert "Traceback" not in done.stderr and done.stdout == ""

    def test_python_m_edges_over_budget_is_a_computation_error(self):
        # the budget error is a ValueError, so main's except names no layer
        done = self._module("search", "census", "--edges", "11")
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == "error: edge count 11 exceeds the budget of 10\n"

    @pytest.mark.parametrize("argv,layers", [
        ([], []),
        (["catalog", "list"], ["gf2", "surface"]),
        (["code", "params", "fig4_shor"],
         ["gf2", "homology", "stabilizer", "surface"]),
        # no class of 4 edges reaches the systole filter, so the census
        # never loads the code layers
        (["search", "census", "--edges", "4"], ["gf2", "search", "surface"]),
        (["decode", "exhaustive", "fig4_shor", "--weight", "1"],
         ["decoder", "gf2", "homology", "stabilizer", "surface"]),
    ], ids=["import", "catalog-list", "code-params", "census", "exhaustive"])
    def test_each_command_loads_only_its_layers(self, argv, layers):
        # a fresh interpreter imports cellqec.cli and, given an argv, runs
        # it through main with its output captured; it prints its exit
        # code and the cellqec modules loaded
        src = os.path.dirname(os.path.dirname(cellqec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import contextlib, io, json, sys; from cellqec import cli\n"
                 "code = None\n"
                 "if sys.argv[1:]:\n"
                 "    with contextlib.redirect_stdout(io.StringIO()):\n"
                 "        code = cli.main(sys.argv[1:])\n"
                 "print(json.dumps([code, sorted(m for m in sys.modules\n"
                 "                                if m.startswith('cellqec'))]))")
        done = subprocess.run([sys.executable, "-c", probe, *argv], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        code, loaded = json.loads(done.stdout)
        assert code == (0 if argv else None)
        assert loaded == sorted(["cellqec", "cellqec.cli"] + [
            f"cellqec.{layer}" for layer in layers])
