import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
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


def test_library_imports_no_scipy():
    # numpy is the only runtime dependency; scipy is for the tests alone.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "import qmds, qmds.cli\n"
        "qmds.epsilon_to_rho(30.0)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


def test_readme_example_runs():
    # The README's python block is the package's first-contact example; an
    # API trim must not break it without a failing test.
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", blocks[0]], capture_output=True,
                         text=True, check=True, env=env).stdout
    xi = float(out.strip().splitlines()[-1])
    assert 0.0 <= xi < 1.5


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
