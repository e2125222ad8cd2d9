"""Size of the package's settable surface and of its data types.

A parameter with a default is a knob some caller may set, and so is a
dataclass field with a default; every dataclass field is state some code
must fill and carry.  A run config's [scenario.<id>] key and a command-line
option are knobs a user may set.  Each count may only fall: a change that
adds a knob or a field raises its cap in its own diff, so the addition is
visible in review.

Data constructors may default data: a CoefficientSet without b, c or a
driver, a ScenarioSpec's grid, a one-dimensional isotropic diffusion.  A
routine may not default how it runs: a parameter keeps a default only if
the run path calls it both with and without that argument.  A knob no run
sets is a module constant, and an input that changes the answer (the
paths of a stochastic solve, a kernel's horizon, a seed) is required.
"""

import ast
from pathlib import Path

import bspdelab
from bspdelab import cli

MAX_SETTABLE = 21
MAX_DATACLASS_DEFAULTS = 31
MAX_DATACLASS_FIELDS = 90
MAX_OVERRIDE_KEYS = 9
MAX_CLI_OPTIONS = 5


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


def cli_options() -> int:
    """The add_argument calls of cli.py that declare a --option."""
    tree = ast.parse(Path(cli.__file__).read_text())
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "add_argument" and bool(node.args)
               and isinstance(node.args[0], ast.Constant)
               and str(node.args[0].value).startswith("--")
               for node in ast.walk(tree))


def test_override_keys_do_not_grow():
    assert len(cli._OVERRIDE_TYPES) <= MAX_OVERRIDE_KEYS


def test_cli_options_do_not_grow():
    assert cli_options() <= MAX_CLI_OPTIONS
