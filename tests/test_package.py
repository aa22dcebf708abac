"""The package's public surface and the README's library example."""

import ast
from pathlib import Path

import practica
from practica import Interval

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_binds_every_exported_name():
    assert len(practica.__all__) == len(set(practica.__all__))
    namespace: dict = {}
    exec("from practica import *", namespace)
    assert [name for name in practica.__all__ if name not in namespace] == []


def _library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library"):]
    start = section.index("```python\n") + len("```python\n")
    return section[start:section.index("```", start)]


def test_readme_library_block_does_what_its_comments_say():
    # run the block statement by statement, keeping each bare expression's
    # value under its source text
    namespace: dict = {}
    values = {}
    for stmt in ast.parse(_library_block()).body:
        if isinstance(stmt, ast.Expr):
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            values[ast.unparse(stmt.value)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([stmt], type_ignores=[]), "README.md", "exec"), namespace)
    assert values["b.sides"] == 206158430208
    assert values["heron_area_bounds(TriangleSides(3, 4, 5))"] == Interval(6, 6)
    assert values["res.residual1"].contains(0)
    assert values["extract_root(80621568000, 3, divisor_mode='simplified').root_string()"] == "4320"
