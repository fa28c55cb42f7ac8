"""Every public name the package advertises resolves: each lazy export of
``nlsphere`` and each name in a submodule's ``__all__``, so that a name
deleted from a module cannot stay behind in an export list.  So does each
span name the benchmark in bench/ traces or looks up."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

import nlsphere

PACKAGE = Path(nlsphere.__file__).resolve().parent
SUBMODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def test_every_package_export_resolves():
    missing = []
    for name, modname in sorted(nlsphere._EXPORTS.items()):
        module = importlib.import_module(f"nlsphere.{modname}")
        if not hasattr(module, name):
            missing.append(f"{modname}.{name}")
        elif getattr(nlsphere, name) is not getattr(module, name):
            missing.append(f"nlsphere.{name} is not {modname}.{name}")
    assert not missing, missing
    assert set(nlsphere.__all__) == set(nlsphere._EXPORTS) | {"__version__"}


@pytest.mark.parametrize("modname", SUBMODULES)
def test_submodule_all_names_exist(modname):
    module = importlib.import_module(f"nlsphere.{modname}")
    names = getattr(module, "__all__", [])
    assert len(set(names)) == len(names), names
    assert [name for name in names if not hasattr(module, name)] == []


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    """The benchmark's tracer, workloads and metrics modules, imported with
    bench/ on sys.path as bench/run.py imports them, and forgotten after."""
    names = ("tracer", "workloads", "metrics")
    monkeypatch.syspath_prepend(str(BENCH))
    for name in names:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield [importlib.import_module(name) for name in names]
    for name in names:
        sys.modules.pop(name, None)


def _public_span(span):
    """Whether a benchmark span name, ``layer.function``, ``layer.Class``
    or ``layer.Class.method``, names a public function, class or method
    defined in the nlsphere module ``layer``."""
    layer, _, rest = span.partition(".")
    name, _, method = rest.partition(".")
    try:
        module = importlib.import_module(f"nlsphere.{layer}")
    except ModuleNotFoundError:
        return False
    obj = vars(module).get(name)
    if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
        return False
    if not method:
        return inspect.isfunction(obj) or inspect.isclass(obj)
    return (inspect.isclass(obj) and (method == "__call__" or not method.startswith("_"))
            and inspect.isfunction(vars(obj).get(method)))


def test_benchmark_span_names_resolve(bench_modules):
    # a rename in the package would otherwise show only in the traced
    # benchmark run; a span of a returned function resolves by its maker
    tracer, workloads, metrics = bench_modules
    made_by = {made: maker for maker, made in tracer._RETURNS_FUNCTION.items()}
    spans = {metrics.LOOKUP, *workloads.PHASE_SPANS, *workloads.IO_SPANS}
    spans.update(span for w in workloads.WORKLOADS.values() for span in w.exercised)
    assert "specfun.assoc_legendre_table" in spans
    assert [s for s in sorted(spans) if not _public_span(made_by.get(s, s))] == []
