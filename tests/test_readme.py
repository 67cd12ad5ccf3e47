import ast
import importlib
import json
import re
import shlex
from pathlib import Path

from cellqec import cli

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "cellqec"
# a dotted name, maybe called: ``gf2.xor_rows``, ``gf2.kernel_basis(x)``
DOTTED = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")


def _block(heading: str, lang: str) -> str:
    """The first ``lang`` code block after a README heading."""
    section = README.read_text().split(heading, 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0]


def _run_tour():
    """Run the README's library tour; (namespace, values of its bare
    expression lines, in order)."""
    block = _block("## Library tour", "python")
    namespace: dict = {}
    values = []
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            values.append(eval(compile(ast.Expression(node.value),
                                       "README.md", "eval"), namespace))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"),
                 namespace)
    return namespace, values


def test_library_tour_gives_what_its_comments_say():
    namespace, values = _run_tour()
    systole, rank2_pairs, punctured, planar, sweep = values
    info, code = namespace["info"], namespace["code"]
    assert info.surface_name == "projective plane"
    assert info.euler_characteristic == 1
    assert code.parameters() == (9, 1, 3, 3)
    assert systole[0] == 3
    assert len(rank2_pairs) == 9
    assert punctured.planar and punctured.row_spaces_preserved
    assert punctured.code.parameters() == code.parameters()
    assert planar.parameters() == (553, 2, 7, 4)
    assert (sweep.x_failures, sweep.z_failures) == (14, 9)


def _run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_cellulation_json_example_is_a_sphere(capsys):
    doc = _block("## Cellulation JSON", "json")
    code, out, err = _run(["catalog", "show", doc], capsys)
    assert code == 0
    assert err.endswith(": V=2 E=2 F=2 (sphere)\n")
    assert json.loads(out)["cellulation"] == json.loads(doc)


def test_command_line_examples_exit_zero(capsys, verify_paper_run):
    lines = _block("## Command line", "sh").splitlines()
    assert len(lines) == 10
    checked = []
    for line in lines:
        comment = line.partition("#")[2]
        argv = shlex.split(line, comments=True)
        assert argv[0] == "cellqec"
        if argv[1:] == ["search", "verify-paper"]:
            # the slowest command: checked through its one shared run
            assert verify_paper_run.code == 0, line
            continue
        code, out, err = _run(argv[1:], capsys)
        assert code == 0, line
        # bracketed values in a line's comment are what the command prints
        for value in re.findall(r"\[[\[\]\d,]+\]", comment):
            assert value in out + err, line
            checked.append(value)
    assert checked == ["[[9,1,3,3]]", "[553,2,7,4]"]


def _backticked() -> list[tuple[str, str]]:
    """(file, text) of every backticked span of README.md and of every
    module, class and function docstring in the package."""
    spans = [("README.md", text)
             for text in re.findall(r"`([^`\n]+)`", README.read_text())]
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                spans += [(path.name, text) for text in re.findall(
                    r"`+([^`]+)`+", ast.get_docstring(node) or "")]
    return spans


def test_backticked_names_and_test_paths_exist():
    # a dotted name whose head is a module of the package, or a class
    # defined in one, must resolve attribute by attribute (a dataclass
    # field counts), and a capitalised head must be such a class; each
    # tests/...py path must be a file
    modules = {path.stem: importlib.import_module(f"cellqec.{path.stem}")
               for path in SRC.glob("*.py") if not path.stem.startswith("_")}
    classes = {name: obj for module in modules.values()
               for name, obj in vars(module).items()
               if isinstance(obj, type) and obj.__module__ == module.__name__}
    stale, resolved = [], 0
    for where, text in _backticked():
        stale += [(where, path) for path in re.findall(r"tests/[\w/]+\.py",
                                                       text)
                  if not (README.parent / path).is_file()]
        match = DOTTED.fullmatch(text)
        if match is None:
            continue
        head, *attrs = match.group(1).split(".")
        obj = modules.get(head, classes.get(head))
        if obj is None:
            if head[0].isupper():
                stale.append((where, text))
            continue
        for attr in attrs:
            if attr in getattr(obj, "__dataclass_fields__", {}):
                break
            if not hasattr(obj, attr):
                stale.append((where, text))
                break
            obj = getattr(obj, attr)
        resolved += 1
    assert stale == []
    assert resolved > 30
