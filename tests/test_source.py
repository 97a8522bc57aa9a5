"""Source checks: soundness gates must survive python -O."""

import ast
from pathlib import Path

import trifactor

SRC = Path(trifactor.__file__).parent


def _asserts(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Assert):
            yield node.lineno, "assert statement"
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                yield node.lineno, "raise AssertionError"


def test_no_asserts_in_package():
    # python -O strips assert statements; a gate must raise a real error
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py"))
             for line, what in _asserts(ast.parse(path.read_text(), str(path)))]
    assert found == []
    assert len(list(SRC.glob("*.py"))) > 1
