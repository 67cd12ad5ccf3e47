import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _run_tour():
    """Run the README's library tour; (namespace, values of its bare
    expression lines, in order)."""
    text = README.read_text()
    block = text.split("## Library tour", 1)[1]
    block = block.split("```python\n", 1)[1].split("```", 1)[0]
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
