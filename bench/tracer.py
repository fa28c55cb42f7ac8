"""Layer tracing for the benchmark: spans around the public functions of
each nlsphere module, recorded from outside the package.

A span is (name, parent, start, end).  Spans stay in memory for one
invocation and are reduced to per-name counts, inclusive time and self
time (span time minus the time covered by its direct children), plus
parent -> child call counts, when the invocation ends.

Callers bind many layer functions at import (``models._spectrum``,
``timestep.synthesis``, ``spectrum.cc_weights``, ``sht.gauss_legendre``
and so on), so wrapping only the defining module would miss those calls.
``install`` therefore rebinds every name in every loaded nlsphere module
that refers to a wrapped function, and then verifies that no original
function object is left reachable from a module or class namespace.
"""

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

#: The package's modules, in dependency order; these are the layers.
LAYERS = ("specfun", "quadrature", "spectrum", "sht", "timestep", "models", "cli")

#: Functions whose return value is itself a layer function to trace.
_RETURNS_FUNCTION = {"timestep.pseudospectral": "timestep.nonlinearity"}


class TraceError(RuntimeError):
    """The trace cannot be trusted: a layer went unrecorded or a count is impossible."""


class Tracer:
    """Collects spans of one invocation in a single thread."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self._stack = []
        self._patches = []  # (owner, attribute, original value)

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        returns_fn = _RETURNS_FUNCTION.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, perf_counter(), 0.0])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index][3] = perf_counter()
                stack.pop()
            if returns_fn is not None:
                result = self.wrap(returns_fn, result)
            return result

        return traced

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------

    def install(self, only=None):
        """Wrap every public function and method of every layer (or only the
        span names in ``only``) and rebind all references to them; raises
        TraceError if one is left unwrapped."""
        wanted = (lambda span: True) if only is None else set(only).__contains__
        wrappers = {}
        class_patches = []
        for layer in LAYERS:
            module = importlib.import_module(f"nlsphere.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    if wanted(f"{layer}.{attr}"):
                        wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj):
                    for method, fn in vars(obj).items():
                        if not inspect.isfunction(fn):
                            continue
                        if method == "__init__":
                            span = f"{layer}.{attr}"
                        elif method == "__call__" or not method.startswith("_"):
                            span = f"{layer}.{attr}.{method}"
                        else:
                            continue
                        if wanted(span):
                            class_patches.append((obj, method, fn, self.wrap(span, fn)))
        for owner, method, fn, traced in class_patches:
            self._patch(owner, method, traced)
        for namespace_owner in _package_modules():
            for attr, obj in list(vars(namespace_owner).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(namespace_owner, attr, wrappers[obj])
        originals = set(wrappers) | {fn for _, _, fn, _ in class_patches}
        leftover = [
            f"{owner.__name__}.{attr}"
            for owner in _package_namespaces()
            for attr, obj in vars(owner).items()
            if inspect.isfunction(obj) and obj in originals
        ]
        if leftover:
            self.uninstall()
            raise TraceError(f"untraced references remain: {', '.join(leftover)}")
        return self

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # ------------------------------------------------------------------
    # reduction
    # ------------------------------------------------------------------

    def summary(self):
        """Per-name calls / total_s / self_s, parent->child edge counts, and
        the time covered by root spans."""
        if self._stack:
            raise TraceError("summary requested while spans are open")
        calls = defaultdict(int)
        total = defaultdict(float)
        child_time = defaultdict(float)
        edges = defaultdict(int)
        root_s = 0.0
        for name, parent, start, end in self.spans:
            duration = end - start
            calls[name] += 1
            total[name] += duration
            if parent < 0:
                root_s += duration
            else:
                parent_name = self.spans[parent][0]
                child_time[parent] += duration
                edges[f"{parent_name}>{name}"] += 1
        self_s = defaultdict(float)
        for index, (name, _, start, end) in enumerate(self.spans):
            self_s[name] += (end - start) - child_time[index]
        layers = {
            name: {"calls": calls[name], "total_s": total[name], "self_s": self_s[name]}
            for name in calls
        }
        return {"layers": layers, "edges": dict(edges), "root_s": root_s}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nlsphere" or name.startswith("nlsphere."))]


def _package_namespaces():
    """Every loaded nlsphere module and every class defined in one."""
    out = []
    for module in _package_modules():
        out.append(module)
        out.extend(obj for obj in vars(module).values()
                   if inspect.isclass(obj) and obj.__module__ == module.__name__)
    return out


def scaled(summary, factor):
    """An invocation summary with every time multiplied by ``factor``."""
    layers = {name: {**row, "total_s": factor * row["total_s"], "self_s": factor * row["self_s"]}
              for name, row in summary["layers"].items()}
    return {"layers": layers, "edges": summary["edges"], "root_s": factor * summary["root_s"]}


def merge(summaries):
    """Sum several invocation summaries into one."""
    layers = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    edges = defaultdict(int)
    root_s = 0.0
    for s in summaries:
        for name, row in s["layers"].items():
            for key, value in row.items():
                layers[name][key] += value
        for edge, count in s["edges"].items():
            edges[edge] += count
        root_s += s["root_s"]
    return {"layers": dict(layers), "edges": dict(edges), "root_s": root_s}
