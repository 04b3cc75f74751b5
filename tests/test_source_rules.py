"""Rules on the package source, read with ast: no assert statements, no
hasattr calls, no module-level functools cache outside a named allowlist,
and every program name the benchmark's tracer groups or rebinds exists."""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "toricdescent").glob("*.py"))
TRACER = ROOT / "bench" / "tracer.py"

#: module-level functools caches, each with the reason it pays.  The
#: prime-sweep benchmark clears every such cache before each request, so a
#: new one costs its fill on every request there.
CACHE_ALLOWLIST = {
    "finite_field._cached_field": "GF(p^m) and its elements of given orders, per (p, m)",
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


#: names the tracer reads that the program no longer has, each with its
#: reason; a name here reads 0 in every per-layer row it feeds
TRACER_ALLOWLIST = {
    "finite_field.discrete_log": "the function is gone; its two per-layer rows "
                                 "and the mapping are retired with the benchmark "
                                 "refresh (ROADMAP item 1)",
}


def _strings(node):
    return [sub.value for sub in ast.walk(node)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)]


def tracer_names(tree):
    """The program names a tracer module groups or rebinds, as dotted
    "module.attr" strings: the module list MODULES (as bare names), the
    names in GROUPS and UNTRACED, the span names it opens (self._span),
    compares with == or looks up in its per-span Counter (calls[...]), and
    the methods it rebinds, written (alias.Class, "method", wrapper) with
    alias = mods["module"]."""
    names = set()
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets[0]
            pairs = (zip(targets.elts, node.value.elts)
                     if isinstance(targets, ast.Tuple) and isinstance(node.value, ast.Tuple)
                     else [(targets, node.value)])
            for target, value in pairs:
                if not isinstance(target, ast.Name):
                    continue
                if target.id in ("MODULES", "UNTRACED", "GROUPS"):
                    value = value.values if isinstance(value, ast.Dict) else [value]
                    names.update(s for v in value for s in _strings(v))
                elif (isinstance(value, ast.Subscript) and isinstance(value.value, ast.Name)
                      and value.value.id == "mods" and isinstance(value.slice, ast.Constant)):
                    aliases[target.id] = value.slice.value
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "_span" and node.args
              and isinstance(node.args[0], ast.Constant)):
            names.add(node.args[0].value)
        elif isinstance(node, ast.Compare) and isinstance(node.ops[0], ast.Eq):
            names.update(_strings(node))
        elif (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
              and node.value.id == "calls" and isinstance(node.slice, ast.Constant)):
            names.add(node.slice.value)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 3
                and isinstance(node.elts[0], ast.Attribute)
                and isinstance(node.elts[0].value, ast.Name)
                and node.elts[0].value.id in aliases
                and isinstance(node.elts[1], ast.Constant)):
            owner = node.elts[0]
            names.add(f"{aliases[owner.value.id]}.{owner.attr}.{node.elts[1].value}")
    return names


def resolves(name):
    """Whether a dotted name is a module of the package, or an attribute
    path inside one."""
    module, *path = name.split(".")
    if not (ROOT / "src" / "toricdescent" / f"{module}.py").is_file():
        return False
    obj = importlib.import_module(f"toricdescent.{module}")
    for attr in path:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_tracer_names_exist_in_the_program():
    # a renamed function would silently zero a per-layer row, and a renamed
    # method would crash a traced run
    names = tracer_names(ast.parse(TRACER.read_text(), filename=str(TRACER)))
    missing = {name for name in names if not resolves(name)}
    assert missing == set(TRACER_ALLOWLIST)


def test_tracer_name_detection_sees_each_form():
    tree = ast.parse(
        'MODULES = ["zmat", "torus"]\n'
        'UNTRACED = {"zmat.gcd"}\n'
        'GROUPS = {"zmat.snf": ["zmat.smith_normal_form"], "x": ["torus.torus_order"]}\n'
        'class T:\n'
        '    def plan(self, mods):\n'
        '        zm = mods["zmat"]\n'
        '        tor, dg = mods["torus"], mods["dual_graph"]\n'
        '        if name == "torus.enumerate_rational_points":\n'
        '            pass\n'
        '        methods = [(tor.CharacterLattice, "apply", self._count("count.label", f)),\n'
        '                   (dg.DualGraph, "__init__", self._span("dual_graph.DualGraph.x", f))]\n'
        '        out = {"zmat.calls": calls["zmat.det"], "y": counts["counter.label"]}\n')
    assert tracer_names(tree) == {
        "zmat", "torus", "zmat.gcd", "zmat.smith_normal_form", "torus.torus_order",
        "torus.enumerate_rational_points", "torus.CharacterLattice.apply",
        "dual_graph.DualGraph.__init__", "dual_graph.DualGraph.x", "zmat.det"}
