"""Every public name the package advertises resolves: each lazy export of
``nlsphere`` and each name in a submodule's ``__all__``, so that a name
deleted from a module cannot stay behind in an export list."""

import importlib
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
