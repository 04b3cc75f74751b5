"""Rules on the package source, read with ast: no assert statements, no
hasattr calls, and no module-level functools cache outside a named
allowlist."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "toricdescent").glob("*.py"))

#: module-level functools caches, each with the reason it pays.  The
#: prime-sweep benchmark clears every such cache before each request, so a
#: new one costs its fill on every request there.
CACHE_ALLOWLIST = {
    "finite_field._cached_field": "GF(p^m) and its elements of given orders, per (p, m)",
    "finite_field._cached_embedding": "the matrix of an embedding between plain fields",
    "oracle._orbit_roots": "the random divisors of one fiber draw the same orbits again",
}

CACHE_DECORATORS = {"cache", "lru_cache"}


def _names(node):
    """The names and attribute names node mentions."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def caches_in(tree):
    """The module-level functions of a module under a functools cache
    decorator, and the module-level names assigned from a call to one."""
    found = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(CACHE_DECORATORS & set(_names(d)) for d in stmt.decorator_list):
                found.add(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value is not None:
            if CACHE_DECORATORS & set(_names(stmt.value)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                found.update(name for t in targets for name in _names(t))
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    # python -O strips them, so a check the program relies on must raise
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements at lines {lines}"


def hasattr_calls(tree):
    """The line numbers of the calls to hasattr in a module."""
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "hasattr"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_hasattr_calls(path):
    # derived data lives on the object that owns it, as a cached_property,
    # not in attributes that a hasattr test fills on first use
    lines = hasattr_calls(ast.parse(path.read_text(), filename=str(path)))
    assert lines == [], f"{path.name} calls hasattr at lines {lines}"


def test_hasattr_detection_sees_each_call():
    tree = ast.parse("if not hasattr(x, 'a'):\n    x.a = 1\n"
                     "y = [hasattr(v, 'b') for v in z]\n"
                     "getattr(x, 'hasattr')\n")
    assert hasattr_calls(tree) == [1, 3]


def test_module_caches_are_the_allowlist():
    found = {f"{path.stem}.{name}" for path in SOURCES
             for name in caches_in(ast.parse(path.read_text(), filename=str(path)))}
    assert found == set(CACHE_ALLOWLIST)


def test_cache_detection_sees_each_form():
    tree = ast.parse("import functools\nfrom functools import cache, lru_cache\n"
                     "@lru_cache(maxsize=4)\ndef a(x): return x\n"
                     "@functools.cache\ndef b(x): return x\n"
                     "@cache\ndef c(x): return x\n"
                     "d = functools.lru_cache(None)(len)\n"
                     "def e(x): return x\n"
                     "class F:\n    @lru_cache\n    def g(self): return 1\n")
    assert caches_in(tree) == {"a", "b", "c", "d"}
