"""Rules on the package source, read with ast: no assert statements, no
hasattr calls, no module-level functools cache outside a named allowlist,
every cache of shared structure emptied by the cold_shape_caches fixture,
the oracle's imports from the engine named, and every program name the
benchmark's tracer groups or rebinds exists."""

import ast
import importlib
from pathlib import Path

import pytest

from conftest import SHAPE_CACHES

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "toricdescent").glob("*.py"))
TRACER = ROOT / "bench" / "tracer.py"

#: module-level functools caches, each with the reason it pays.  The
#: prime-sweep benchmark clears every such cache before each request, so a
#: new one costs its fill on every request there.
CACHE_ALLOWLIST = {
    "finite_field._cached_field": "GF(p^m) and its elements of given orders, per (p, m)",
    "oracle._orbit_roots": "the random divisors of one fiber draw the same orbits again",
    "families._two_line_graph": "a two-line shape's graph, component group and "
                                "principal decomposition: Smith forms per small-q "
                                "request fell from 5.04 to 0.95",
    "families._genus4_structure": "a residue field's genus-4 fiber, frame and "
                                  "component group: small-q genus-4 requests took "
                                  "1.7 ms with it, 2.5 ms without",
    "oracle._shared_torus": "an oracle torus per shape graph, k and oracle field, "
                            "enumerated and verified once: oracle-crosscheck "
                            "requests took 8.0 ms of CPU with it, 9.9 ms without",
}

#: allowlisted caches that hold no structure a test patches its way into
#: (fields by size, orbit roots by polynomial), so cold_shape_caches leaves
#: them warm
NOT_SHAPE_CACHES = {"finite_field._cached_field", "oracle._orbit_roots"}

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


def test_shape_caches_are_the_allowlist_but_the_exempt():
    # a cache outside SHAPE_CACHES stays warm under cold_shape_caches, and a
    # test that patches a function it calls would pass on a warm entry
    shape = {f"{cache.__module__.rsplit('.', 1)[-1]}.{cache.__name__}"
             for cache in SHAPE_CACHES}
    assert shape == set(CACHE_ALLOWLIST) - NOT_SHAPE_CACHES
    assert NOT_SHAPE_CACHES <= set(CACHE_ALLOWLIST)


def test_cache_detection_sees_each_form():
    tree = ast.parse("import functools\nfrom functools import cache, lru_cache\n"
                     "@lru_cache(maxsize=4)\ndef a(x): return x\n"
                     "@functools.cache\ndef b(x): return x\n"
                     "@cache\ndef c(x): return x\n"
                     "d = functools.lru_cache(None)(len)\n"
                     "def e(x): return x\n"
                     "class F:\n    @lru_cache\n    def g(self): return 1\n")
    assert caches_in(tree) == {"a", "b", "c", "d"}


#: the names oracle.py imports from the engine's modules, "*" standing for
#: the module itself: the oracle re-derives the torus points, evaluation and
#: membership, so a new engine import needs an edit here
ORACLE_ENGINE_IMPORTS = {
    "descent": {"DivisorMeetsNode", "SpecialFiber", "SpecializedDivisor", "_view",
                "phi_r_table", "translate_to_degree_zero"},
    "dual_graph": {"chain_decomposition"},
    "torus": {"ENUMERATION_LIMIT"},
    "families": set(),
}


def imported_names(tree, modules):
    """The names a module imports from each of the package's modules given,
    by relative or absolute import; "*" stands for the module itself
    (from . import m, import toricdescent.m) and for a star import."""
    found = {module: set() for module in modules}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("toricdescent").lstrip(".")
            if node.level == 0 and not (node.module or "").startswith("toricdescent"):
                continue
            if source in found:
                found[source].update(alias.name for alias in node.names)
            elif not source:
                for alias in node.names:
                    if alias.name in found:
                        found[alias.name].add("*")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                module = alias.name.removeprefix("toricdescent.")
                if alias.name.startswith("toricdescent.") and module in found:
                    found[module].add("*")
    return found


def test_the_oracle_engine_imports_are_named():
    path = ROOT / "src" / "toricdescent" / "oracle.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    assert imported_names(tree, ORACLE_ENGINE_IMPORTS) == ORACLE_ENGINE_IMPORTS


def test_import_detection_sees_each_form():
    tree = ast.parse("from .descent import a, b\nfrom . import families\n"
                     "import toricdescent.torus\nfrom toricdescent.dual_graph import c\n"
                     "from .finite_field import d\nimport math\n"
                     "def f():\n    from .torus import e\n")
    assert imported_names(tree, ORACLE_ENGINE_IMPORTS) == {
        "descent": {"a", "b"}, "dual_graph": {"c"}, "torus": {"*", "e"},
        "families": {"*"}}


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
