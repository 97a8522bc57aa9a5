"""Source checks: soundness gates must survive python -O, the package
holds no private helper that nothing calls, and every entry point the
bench tracer wraps exists."""

import ast
import importlib
from collections import Counter
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


def _names(node):
    """Every name the node's code mentions, as a name, an attribute or an import."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_no_unreferenced_private_definitions():
    # a module-level _private function or class that nothing else in the
    # package names is dead code; its own body does not count as a use
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    found = [f"{module}:{node.lineno}: {node.name}"
             for module, tree in trees.items()
             for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name.startswith("_") and not node.name.startswith("__")
             and uses[node.name] == Counter(_names(node))[node.name]]
    assert found == []


def test_bench_tracer_entry_points_resolve(monkeypatch):
    # the traced bench run wraps these names; a deleted one would crash it
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "bench"))
    tracer = importlib.import_module("tracer")

    def lookup():
        out = {}
        for module, owner, attr, _, _ in tracer.ENTRY_POINTS:
            target = importlib.import_module(module)
            if owner:
                target = getattr(target, owner)
            out[(module, owner, attr)] = getattr(target, attr)
        return out

    before = lookup()
    assert all(callable(fn) for fn in before.values())
    t = tracer.Tracer()
    t.install()
    try:
        assert all(fn is not before[key] for key, fn in lookup().items())
    finally:
        t.uninstall()
    after = lookup()
    assert all(after[key] is fn for key, fn in before.items())
