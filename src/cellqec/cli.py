"""Command-line interface.

JSON results go to standard output (byte-stable for fixed inputs and
seeds); human-readable summaries go to standard error.  Exit codes:
0 success, 1 computation error, 2 usage error.

Importing this module loads no layer of the package, only argparse and
the parser.  Each handler imports the layers it runs, so a command loads
only those: ``catalog list`` loads surface and gf2, and ``search
census`` loads search, surface and gf2, and the code layers only once a
class reaches the systole filter.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys


def _load_cellulation(spec: str):
    """The Cellulation a catalog name, JSON file path or inline JSON
    document names.

    Catalog names come first, so a file named like one is read only by a
    path such as ./fig4_shor.  JSON input is not validated here:
    `catalog show` validates in its handler and every other command
    builds a code, which validates.
    """
    from . import surface

    try:
        return surface.catalog(spec)
    except KeyError:
        if os.path.exists(spec):
            with open(spec) as fh:
                text = fh.read()
        elif spec.lstrip().startswith("{"):
            text = spec
        else:
            raise
    return surface.Cellulation.from_json(text)


def _emit(payload, summary: str) -> int:
    print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    if summary:
        print(summary, file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _cmd_catalog_list(args) -> int:
    from . import surface

    names = surface.closed_catalog_names()
    return _emit({"catalog": names}, "\n".join(names))


def _cmd_catalog_show(args) -> int:
    from . import surface

    c = _load_cellulation(args.name)
    info = surface.validate(c)
    payload = {"cellulation": c.to_json_dict(),
               "surface": info.to_json_dict()}
    summary = (f"{args.name}: V={c.vertex_count} E={c.edge_count}"
               f" F={c.face_count} ({info.surface_name})")
    return _emit(payload, summary)


def _cmd_code_params(args) -> int:
    from . import stabilizer

    c = _load_cellulation(args.cellulation)
    code = stabilizer.build_code(c)
    payload = {
        "parameters": list(code.parameters()),
        "relations_ok": stabilizer.check_relations(code),
        "commuting": stabilizer.commutes(code),
    }
    n, k, dx, dz = code.parameters()
    summary = f"[[{n},{k},{dx},{dz}]] relations={payload['relations_ok']}"
    return _emit(payload, summary)


def _cmd_code_stabilizers(args) -> int:
    from . import stabilizer

    c = _load_cellulation(args.cellulation)
    code = stabilizer.build_code(c)
    payload = {"n": code.n, "pauli_strings": code.pauli_strings(),
               "code": code.to_json_dict()}
    return _emit(payload, "\n".join(payload["pauli_strings"]))


def _cmd_code_invariants(args) -> int:
    from . import invariants, stabilizer

    c = _load_cellulation(args.cellulation)
    code = stabilizer.build_code(c)
    profile = invariants.rank_profile(code)
    payload = profile.to_json_dict()
    summary = (f"n={profile.n} rank-2 pairs:"
               f" {len(profile.rank2_pairs)}")
    return _emit(payload, summary)


def _cmd_code_compare(args) -> int:
    from . import invariants, stabilizer

    ca = _load_cellulation(args.a)
    cb = _load_cellulation(args.b)
    code_a = stabilizer.build_code(ca)
    code_b = stabilizer.build_code(cb)
    cert = invariants.certify_inequivalent(code_a, code_b)
    if cert is None:
        return _emit({"result": "inconclusive"},
                     "rank profiles agree: inconclusive")
    payload = {"result": "inequivalent",
               "certificate": cert.to_json_dict()}
    return _emit(payload, "inequivalent: rank histograms differ")


def _cmd_decode_sweep(args) -> int:
    from . import decoder, stabilizer

    c = _load_cellulation(args.cellulation)
    tables = decoder.DecodingTables.build(stabilizer.build_code(c))
    results = decoder.monte_carlo(tables, [(p, p) for p in args.p],
                                  args.trials, args.seed)
    sys.stdout.write(decoder.sweep_csv(results))
    print(f"{len(results)} sweep points, {args.trials} trials each,"
          f" rng {decoder.RNG_ALGORITHM}", file=sys.stderr)
    return 0


def _cmd_decode_exhaustive(args) -> int:
    from . import decoder, stabilizer

    c = _load_cellulation(args.cellulation)
    code = stabilizer.build_code(c)
    rows = decoder.exhaustive_weight_sweep(code, args.weight)
    payload = {"n": code.n, "rows": [vars(r) for r in rows]}
    lines = ["weight x_patterns x_failures z_patterns z_failures"]
    for r in rows:
        lines.append(f"{r.weight} {r.x_patterns} {r.x_failures}"
                     f" {r.z_patterns} {r.z_failures}")
    return _emit(payload, "\n".join(lines))


def _cmd_search_census(args) -> int:
    from . import search

    report = search.census_report(args.edges, min_systole=args.min_systole,
                                  vertex_count=args.vertices,
                                  bigon_faces=args.bigons)
    summary = (f"e={args.edges}: {report['classes_examined']} classes,"
               f" {report['survivor_count']} survivors")
    return _emit(report, summary)


def _cmd_search_verify(args) -> int:
    from . import search

    report = search.verify_no_small_codes()
    lines = [f"e={r['edge_count']}: survivors {r['survivor_count']}"
             f" of {r['classes_examined']} classes"
             for r in report["reports"]]
    return _emit(report, "\n".join(lines))


def _cmd_planar_puncture(args) -> int:
    from . import stabilizer

    c = _load_cellulation(args.cellulation)
    result = stabilizer.puncture(c, args.face, args.vertex)
    code = result.code
    payload = {
        "parameters": list(code.parameters()),
        "row_spaces_preserved": result.row_spaces_preserved,
        "planar": result.planar,
        "code": code.to_json_dict(),
    }
    n, k, dx, dz = code.parameters()
    summary = (f"punctured [[{n},{k},{dx},{dz}]] planar={result.planar}"
               f" preserved={result.row_spaces_preserved}")
    return _emit(payload, summary)


def _cmd_planar_holes(args) -> int:
    from . import stabilizer

    if args.spec:
        with open(args.spec) as fh:
            patch = stabilizer.PlanarPatch.from_json(fh.read())
    else:
        patch = stabilizer.planar_two_holes_patch()
    code = stabilizer.build_punctured_disk_code(patch)
    payload = {"patch": patch.to_json_dict(),
               "parameters": list(code.parameters())}
    n, k, dx, dz = code.parameters()
    return _emit(payload, f"planar patch code [[{n},{k},{dx},{dz}]]")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _int_at_least(least: int, what: str):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be {what}, got {value}")
        return value
    return parse


_non_negative_int = _int_at_least(0, "non-negative")
_positive_int = _int_at_least(1, "positive")


def _seed(text: str) -> int:
    value = _non_negative_int(text)
    if value >> 128:  # the Philox key of every trial stream of a sweep
        raise argparse.ArgumentTypeError(
            f"must be less than 2**128, got {value}")
    return value


def _probabilities(text: str) -> list[float]:
    values = []
    for item in text.split(","):
        try:
            values.append(float(item))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"not a number: {item!r}") from None
        if not 0.0 <= values[-1] <= 1.0:  # NaN fails too
            raise argparse.ArgumentTypeError(f"not in [0, 1]: {item!r}")
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    parse_args never changes the parser and returns a fresh Namespace,
    so one parser serves every call of main.
    """
    parser = argparse.ArgumentParser(
        prog="cellqec",
        description="CSS codes from cellulations of closed surfaces")
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("catalog", help="inspect the cellulation catalog")
    cat_sub = cat.add_subparsers(dest="subcommand", required=True)
    cat_sub.add_parser("list").set_defaults(func=_cmd_catalog_list)
    p = cat_sub.add_parser("show")
    p.add_argument("name")
    p.set_defaults(func=_cmd_catalog_show)

    code = sub.add_parser("code", help="stabilizer code analysis")
    code_sub = code.add_subparsers(dest="subcommand", required=True)
    p = code_sub.add_parser("params")
    p.add_argument("cellulation")
    p.set_defaults(func=_cmd_code_params)
    p = code_sub.add_parser("stabilizers")
    p.add_argument("cellulation")
    p.set_defaults(func=_cmd_code_stabilizers)
    p = code_sub.add_parser("invariants")
    p.add_argument("cellulation")
    p.set_defaults(func=_cmd_code_invariants)
    p = code_sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_code_compare)

    dec = sub.add_parser("decode", help="decoding simulation")
    dec_sub = dec.add_subparsers(dest="subcommand", required=True)
    p = dec_sub.add_parser("sweep")
    p.add_argument("cellulation")
    p.add_argument("--p", type=_probabilities, required=True,
                   help="comma-separated error probabilities")
    p.add_argument("--trials", type=_non_negative_int, required=True)
    p.add_argument("--seed", type=_seed, required=True)
    p.set_defaults(func=_cmd_decode_sweep)
    p = dec_sub.add_parser("exhaustive")
    p.add_argument("cellulation")
    p.add_argument("--weight", type=_non_negative_int, required=True)
    p.set_defaults(func=_cmd_decode_exhaustive)

    srch = sub.add_parser("search", help="cellulation census")
    srch_sub = srch.add_subparsers(dest="subcommand", required=True)
    p = srch_sub.add_parser("census")
    # --edges above the enumeration budget is a computation limit (exit 1)
    p.add_argument("--edges", type=_positive_int, required=True)
    p.add_argument("--min-systole", type=_positive_int, default=3)
    p.add_argument("--vertices", type=_non_negative_int, default=None)
    p.add_argument("--bigons", type=_non_negative_int, default=None)
    p.set_defaults(func=_cmd_search_census)
    srch_sub.add_parser("verify-paper").set_defaults(func=_cmd_search_verify)

    planar = sub.add_parser("planar", help="planar code constructions")
    planar_sub = planar.add_subparsers(dest="subcommand", required=True)
    p = planar_sub.add_parser("puncture")
    p.add_argument("cellulation")
    p.add_argument("--face", type=int, required=True)
    p.add_argument("--vertex", type=int, required=True)
    p.set_defaults(func=_cmd_planar_puncture)
    p = planar_sub.add_parser("holes")
    p.add_argument("--spec", default=None,
                   help="patch JSON file (default: shipped two-hole patch)")
    p.set_defaults(func=_cmd_planar_holes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # after a second "--", argparse can fill a positional with [] where
    # a token was missing (code compare -- rp2_minimal --)
    for name, value in vars(args).items():
        if value == []:
            parser.error(f"argument {name}: expected one argument")
    try:
        return args.func(args)
    except (KeyError, ValueError, OSError) as exc:
        # str() of a KeyError quotes its message; print the message itself
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
