"""The package's public surface and the README's library example."""

import ast
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import practica
from practica import (
    Interval,
    PiBounds,
    Precision,
    circle_area_bounds,
    cissoid_arc_defect,
    cissoid_points,
    conchoid_points,
    pi_bounds,
)

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


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


_WINDOW = PiBounds(Fraction(223, 71), Fraction(22, 7), 96, Precision(1))
_CISSOID_POINT = cissoid_points(1, 2)[0]

_RATIONAL_ARGUMENTS = {
    "pi_bounds-target_width": lambda v: pi_bounds(target_width=v),
    "circle_area_bounds-radius": lambda v: circle_area_bounds(v, _WINDOW),
    "cissoid_points-radius": lambda v: cissoid_points(v, 2),
    "cissoid_points-span0": lambda v: cissoid_points(1, 2, span=(v, 1)),
    "cissoid_points-span1": lambda v: cissoid_points(1, 2, span=(0, v)),
    "cissoid_arc_defect-radius": lambda v: cissoid_arc_defect(_CISSOID_POINT, v),
    "conchoid_points-pole_distance": lambda v: conchoid_points(v, 1, 2, (0, 1)),
    "conchoid_points-offset": lambda v: conchoid_points(1, v, 2, (0, 1)),
    "conchoid_points-x_range0": lambda v: conchoid_points(1, 1, 2, (v, 1)),
    "conchoid_points-x_range1": lambda v: conchoid_points(1, 1, 2, (0, v)),
}


@pytest.mark.parametrize("inexact", [0.1, "1/10"], ids=["float", "string"])
@pytest.mark.parametrize("call", _RATIONAL_ARGUMENTS.values(), ids=_RATIONAL_ARGUMENTS.keys())
def test_circle_and_curve_arguments_refuse_inexact_numbers(call, inexact):
    # A float would be taken at its binary value: 0.1 as a 2**-55 multiple
    # whose square carries a 110-bit denominator into every bound.
    with pytest.raises(TypeError, match="^expected an exact rational, got (float|str)$"):
        call(inexact)


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names that the module's imports bind but that it never reads, nor
    exports through ``__all__``."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return sorted(bound - read)


def test_modules_import_only_what_they_use():
    modules = sorted((ROOT / "src" / "practica").glob("*.py"))
    assert len(modules) >= 9
    unused = {}
    for path in modules:
        names = _unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            unused[path.name] = names
    assert unused == {}


def _private_definitions(tree: ast.Module) -> set[str]:
    """The private names a module binds at its top level: functions,
    classes and assignment targets, without dunders."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_private_names_are_read_by_the_library():
    # A private name that no library module reads is dead code, even when
    # a test still reaches it.  A bare read counts for its own module, an
    # import for the module it names, and an attribute read for any.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted((ROOT / "src" / "practica").glob("*.py"))}
    read = {stem: set() for stem in trees}
    attributes = set()
    for stem, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read[stem].add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module in trees:
                read[node.module].update(alias.name for alias in node.names)
    dead = {stem: sorted(_private_definitions(tree) - read[stem] - attributes)
            for stem, tree in trees.items()}
    assert {stem: names for stem, names in dead.items() if names} == {}


#: What the library's own imports load; a module any of these loads on
#: some Python version is not held against the package.
_STDLIB_IMPORTS = "argparse, collections.abc, decimal, fractions, functools, itertools, math, operator, re"
_START_UP = f"""
import sys
import {_STDLIB_IMPORTS}
before = set(sys.modules)
sys.path.insert(0, {str(ROOT / "src")!r})
import practica.cli
heavy = ("dataclasses", "inspect", "typing")
print(",".join(name for name in heavy if name in sys.modules and name not in before))
"""


def test_importing_the_cli_loads_no_code_generator():
    # Every command pays for what `import practica.cli` loads: dataclasses
    # and the inspect it imports took about 12 ms of a 64 ms command
    # (medians of 21 spawns, shared 2-core x86-64 host, CPython 3.11.7).
    # -I -S: no user site, no .pth hooks, nothing from the environment.
    child = subprocess.run([sys.executable, "-I", "-S", "-c", _START_UP],
                           capture_output=True, text=True, timeout=60, check=True)
    assert child.stdout.strip() == ""
