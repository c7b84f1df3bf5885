import importlib
import pkgutil

import pytest

import qmds

MODULES = [
    module.__name__
    for module in [qmds] + [
        importlib.import_module(f"qmds.{info.name}")
        for info in pkgutil.iter_modules(qmds.__path__)
    ]
    if hasattr(module, "__all__")
]


def test_package_and_core_modules_declare_exports():
    assert {"qmds", "qmds.quat", "qmds.gek", "qmds.harness"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"
