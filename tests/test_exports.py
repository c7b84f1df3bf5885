import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

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


def test_every_traced_name_is_wrapped_and_restored(monkeypatch):
    # The benchmark's span tracer refuses to run when a name it wraps is
    # gone; installing it here makes such a rename fail in the unit tests.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)

    def current():
        return {name: getattr(importlib.import_module(f"qmds.{mod}"), fn)
                for name in spans.SPAN_NAMES for mod, fn in [name.split(".")]}

    originals = current()
    restore = spans.Tracer().install()
    try:
        wrapped = current()
    finally:
        restore()
    assert all(wrapped[name] is not fn for name, fn in originals.items())
    assert current() == originals
