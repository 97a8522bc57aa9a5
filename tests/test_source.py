"""Source checks: soundness gates must survive python -O, the package
holds no private helper that nothing calls and no parameter that nothing
reads, and every entry point the bench tracer wraps exists."""

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


def _unread_parameters(module, tree):
    """(line, function, parameter) for every parameter that its function's
    body never reads.  A method's first parameter is exempt, and so is the
    (args, cfg) signature that cli's _cmd_* handlers share for dispatch."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
            continue
        name = getattr(node, "name", "<lambda>")
        if module == "cli.py" and name.startswith("_cmd_"):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        params = [p.arg for p in params][id(node) in methods:]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        yield from ((node.lineno, name, p) for p in params if p not in read)


def test_no_unread_parameters():
    # a parameter the body never reads is a caller-side cost with no effect
    found = [f"{path.name}:{line}: {name}({param})"
             for path in sorted(SRC.glob("*.py"))
             for line, name, param in _unread_parameters(
                 path.name, ast.parse(path.read_text(), str(path)))]
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
