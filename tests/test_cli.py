import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from coset_oracle import coset_min_essential, support_min_essential
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cellqec
from cellqec import cli, decoder, gf2, search, stabilizer, surface
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
# sets the cost (--edges, --trials, --weight)
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
    (["decode", "exhaustive"], [_CELLULATIONS, "--weight", _numbers(2)], []),
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

    def test_sweep_builds_the_tables_once(self, capsys, monkeypatch):
        # one DecodingTables per command, shared by every --p point
        calls = []
        build = decoder.DecodingTables.build

        def counted(code):
            calls.append(code)
            return build(code)

        monkeypatch.setattr(decoder.DecodingTables, "build", counted)
        code, out, _ = run(capsys, ["decode", "sweep", "fig4_shor", "--p",
                                    "0.02,0.05,0.1", "--trials", "5",
                                    "--seed", "1"])
        assert code == 0
        assert len(out.strip().split("\n")) == 4
        assert len(calls) == 1

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
        # numpy is loaded only to sample monte_carlo's errors
        src = os.path.dirname(os.path.dirname(cellqec.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = ("import sys, cellqec.cli; "
                 "sys.exit('numpy' in sys.modules)")
        assert subprocess.run([sys.executable, "-c", probe], env=env,
                              timeout=60).returncode == 0


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
            '"schemes_examined":16,"survivor_count":9,"survivors":['
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
            "00f8e5486bf0f6f031ef6e1bd32f5271101c5c5dacac1e10de32046f3589ca8e")

    @pytest.mark.parametrize("flag,field", [("--vertices", "vertex_count"),
                                            ("--bigons", "bigon_faces")])
    def test_negative_count_is_an_error(self, capsys, flag, field):
        code, out, err = run(capsys, ["search", "census", "--edges", "3",
                                      flag, "-1"])
        assert (code, out) == (1, "")
        assert err == f"error: {field} must be non-negative\n"

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
    ], ids=["fig1", "fig2", "toric33", "puncture-toric33", "toric88",
            "planar-holes"])
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
    ], ids=["missing-key", "wrong-type", "short-hole", "non-integer"])
    def test_bad_patch_json(self, capsys, tmp_path, doc, message):
        p = tmp_path / "patch.json"
        p.write_text(json.dumps(doc))
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
    ], ids=["single-cover", "missing-key", "wrong-type", "float", "string",
            "boolean", "short-edge", "negative-vertices"])
    def test_bad_cellulation_json(self, capsys, tmp_path, doc, message):
        p = tmp_path / "c.json"
        p.write_text(json.dumps(doc))
        for spec in (str(p), json.dumps(doc)):
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
