"""Size of the package's settable surface and of its data types.

A parameter with a default is a knob some caller may set, and so is a
dataclass field with a default; every dataclass field is state some code
must fill and carry.  Each count over `src/bspdelab/*.py` may only fall: a
change that adds a knob or a field raises its cap in its own diff, so the
addition is visible in review.
"""

import ast
from pathlib import Path

import bspdelab

MAX_SETTABLE = 34
MAX_DATACLASS_DEFAULTS = 35
MAX_DATACLASS_FIELDS = 98


def _modules():
    for path in sorted(Path(bspdelab.__file__).parent.glob("*.py")):
        yield ast.parse(path.read_text())


def settable_values() -> int:
    """Parameters with a default in every def of the package; lambdas excluded."""
    total = 0
    for tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                total += len(args.defaults)
                total += sum(d is not None for d in args.kw_defaults)
    return total


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def _dataclass_fields():
    """The annotated fields of every @dataclass of the package."""
    for tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                yield from (stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign))


def dataclass_defaults() -> int:
    """Fields with a default in every @dataclass of the package."""
    return sum(stmt.value is not None for stmt in _dataclass_fields())


def dataclass_fields() -> int:
    return sum(1 for _ in _dataclass_fields())


def test_settable_values_do_not_grow():
    assert settable_values() <= MAX_SETTABLE


def test_dataclass_defaults_do_not_grow():
    assert dataclass_defaults() <= MAX_DATACLASS_DEFAULTS


def test_dataclass_fields_do_not_grow():
    assert dataclass_fields() <= MAX_DATACLASS_FIELDS
