"""Spans and counts around the program's public functions, installed from the
benchmark's own files: nothing under src/ changes.

`Tracer.install()` wraps every public module-level function of the program's
modules and rebinds the wrapper under every name that binds the original in
any of those modules (`families` imports `roots_in_extension` by name, for
instance).  A few methods get a span or a count as well.  `remove()` puts the
originals back, so untraced rounds run the unmodified program.

A span is (name, start, end, parent index, request id), kept in memory.  The
self time of a span is its duration minus the durations of its direct
children.  A module's self time is the self time of its spans: time spent in
its unwrapped helpers is charged to the wrapped function that called them.
"""

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ["finite_field", "zmat", "torus", "dual_graph", "descent", "families",
           "oracle", "parsing", "cli"]

#: trivial helpers called in inner loops: a span each would cost more than
#: their work, so their time stays with the caller
UNTRACED = {"zmat.gcd", "zmat.lcm", "zmat.identity", "zmat.mat_copy",
            "zmat.mat_vec", "zmat.mat_mul", "zmat.poly_eval_int",
            "finite_field.field_limit", "finite_field.is_prime"}

#: metric prefix -> span names; its time is that of the outermost spans of
#: the group (a nested one is not counted twice), its calls count every span
GROUPS = {
    "finite_field.roots_in_extension": ["finite_field.roots_in_extension"],
    "finite_field.factor": ["finite_field.factor"],
    "finite_field.field_build": ["finite_field.FiniteField.__init__"],
    "finite_field.embed": ["finite_field.embed"],
    "finite_field.discrete_log": ["finite_field.discrete_log"],
    "descent.gamma_class": ["descent.gamma_class"],
    "descent.divisibility_verdict": ["descent.divisibility_verdict"],
    "descent.torsion_structure": ["descent.torsion_structure"],
    "families.validate": ["families.validate_hyperelliptic", "families.validate_genus4"],
    "families.closed_form": ["families.theta_bd", "families.torsion_bd",
                             "families.genus4_table_eval", "families.genus4_theta",
                             "families.genus4_cuberoot", "families.genus4_torsion"],
    "families.fiber_build": ["families.hyperelliptic_fiber", "families.genus4_fiber"],
    "families.engine_check": ["families.theta_bd_engine", "families.torsion_bd_engine",
                              "families.genus4_direct_table",
                              "families.genus4_theta_engine",
                              "families.genus4_cuberoot_engine",
                              "families.genus4_torsion_engine"],
    "oracle.enumerate_torus": ["oracle.enumerate_torus"],
    "oracle.exhaustive_divisibility": ["oracle.exhaustive_divisibility"],
}

class Tracer:
    def __init__(self):
        self.spans = []
        # open spans as (index, name), innermost last
        self.stack = []
        self.request = None
        # request id -> Counter of counts and summed sizes
        self.counts = defaultdict(Counter)
        self._mods = {name: importlib.import_module(f"toricdescent.{name}")
                      for name in MODULES}
        self._plan = self._build_plan()

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else None
            stack.append((index, name))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request)
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _count(self, name, fn, size=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter = self.counts[self.request]
            counter[name] += 1
            if size is not None:
                counter[name + ".sum"] += size(args)
            return fn(*args, **kwargs)
        return wrapper

    def _add(self, name, value):
        self.counts[self.request][name] += value

    def _on_result(self, name):
        if name == "descent.phi_r_table":
            def rows(result):
                # only the tables a verdict searches; the oracle builds its own
                if self.stack and self.stack[-1][1] == "descent.divisibility_verdict":
                    self._add("descent.phi_r_rows", len(result))
            return rows
        if name == "oracle.enumerate_torus":
            return lambda result: self._add("oracle.torus_points", len(result))
        return None

    # -- install and remove ------------------------------------------------

    def install(self):
        for owner, attr, _original, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _wrapper in reversed(self._plan):
            setattr(owner, attr, original)

    def _build_plan(self):
        """(owner, attribute, original, wrapper) for every rebinding."""
        plan = []
        mods = self._mods
        for modname, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{modname}.{attr}"
                if (attr.startswith("_") or name in UNTRACED or not callable(obj)
                        or inspect.isclass(obj)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                wrapper = self._span(name, obj, self._on_result(name))
                for other in mods.values():
                    for other_attr, other_obj in vars(other).items():
                        if other_obj is obj:
                            plan.append((other, other_attr, obj, wrapper))
        ff, descent = mods["finite_field"], mods["descent"]
        methods = [
            (ff.FiniteField, "__init__",
             self._span("finite_field.FiniteField.__init__", ff.FiniteField.__init__)),
            (ff.Poly, "pow_mod", self._count("finite_field.pow_mod", ff.Poly.pow_mod)),
            (ff.FieldElement, "inverse",
             self._count("finite_field.inverse", ff.FieldElement.inverse)),
            # SpecialFiber(graph, base_field, eval_field, ...): record the
            # degree of the evaluation field over GF(p)
            (descent.SpecialFiber, "__init__",
             self._count("descent.fiber", descent.SpecialFiber.__init__,
                         size=lambda args: args[3].m)),
        ]
        plan += [(owner, attr, getattr(owner, attr), wrapper)
                 for owner, attr, wrapper in methods]
        return plan

    # -- per-layer metrics -------------------------------------------------

    def layer_metrics(self, requests):
        """Per-operation layer figures over the given request ids."""
        keep = set(requests)
        n = len(keep) or 1
        spans = self.spans
        child = defaultdict(float)
        for name, start, end, parent, req in spans:
            if req in keep and parent is not None:
                child[parent] += end - start
        self_s = Counter()
        calls = Counter()
        for index, (name, start, end, parent, req) in enumerate(spans):
            if req in keep:
                self_s[name.split(".")[0]] += end - start - child[index]
                calls[name] += 1
        out = {f"{mod}.self_s": self_s[mod] / n for mod in MODULES}
        for prefix, names in GROUPS.items():
            members = set(names)
            total = 0.0
            for name, start, end, parent, req in spans:
                if req in keep and name in members and not self._inside(parent, members):
                    total += end - start
            out[f"{prefix}.s"] = total / n
            out[f"{prefix}.calls"] = sum(calls[name] for name in names) / n
        counts = Counter()
        for req in keep:
            counts.update(self.counts.get(req, {}))
        out["finite_field.pow_mod.calls"] = counts["finite_field.pow_mod"] / n
        out["finite_field.inverse.calls"] = counts["finite_field.inverse"] / n
        out["finite_field.fields_built"] = calls["finite_field.FiniteField.__init__"] / n
        out["zmat.smith_normal_form.calls"] = calls["zmat.smith_normal_form"] / n
        out["oracle.torus_points"] = counts["oracle.torus_points"] / n
        fibers = counts["descent.fiber"]
        out["descent.eval_field_degree"] = (counts["descent.fiber.sum"] / fibers
                                            if fibers else 0.0)
        verdicts = calls["descent.divisibility_verdict"]
        out["descent.phi_r_size"] = (counts["descent.phi_r_rows"] / verdicts
                                     if verdicts else 0.0)
        return out

    def _inside(self, index, members):
        while index is not None:
            name, _start, _end, parent, _req = self.spans[index]
            if name in members:
                return True
            index = parent
        return False
