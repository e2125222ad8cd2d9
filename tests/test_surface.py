"""Size of the package's settable surface.

A parameter with a default is a knob some caller may set.  The count over
`src/bspdelab/*.py` may only fall: a change that adds a knob raises
MAX_SETTABLE in its own diff, so the addition is visible in review.
"""

import ast
from pathlib import Path

import bspdelab

MAX_SETTABLE = 40


def settable_values() -> int:
    """Parameters with a default in every def of the package; lambdas excluded."""
    total = 0
    for path in sorted(Path(bspdelab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                total += len(args.defaults)
                total += sum(d is not None for d in args.kw_defaults)
    return total


def test_settable_values_do_not_grow():
    assert settable_values() <= MAX_SETTABLE
