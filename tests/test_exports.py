import ast
import importlib
import importlib.util
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qmds
import qmds.cli

# The library modules: the submodules that declare a public surface, in the
# (alphabetical) order the package re-exports them.
LIBRARY = [
    module
    for module in (importlib.import_module(f"qmds.{info.name}")
                   for info in pkgutil.iter_modules(qmds.__path__))
    if hasattr(module, "__all__")
]
MODULES = ["qmds"] + [module.__name__ for module in LIBRARY]


def test_package_and_core_modules_declare_exports():
    assert {"qmds", "qmds.quat", "qmds.gek", "qmds.harness"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names undefined attributes: {missing}"


def top_level_definitions(module) -> set[str]:
    """Names a module's own source binds at top level."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_package_exports_are_declared_where_defined():
    # Each public name is declared once, in the __all__ of the module that
    # defines it, and the package re-exports exactly those declarations.
    owners = {}
    for module in LIBRARY:
        defined = top_level_definitions(module)
        undefined = [n for n in module.__all__ if n not in defined]
        assert not undefined, f"{module.__name__}.__all__ names {undefined}"
        for name in module.__all__:
            assert name not in owners, f"{name} in {owners[name]} and {module.__name__}"
            owners[name] = module.__name__
    assert qmds.__all__ == [name for module in LIBRARY for name in module.__all__]


def test_placement_and_masking_helpers_are_private_but_traced_by_name():
    # They left the surface under their names: the benchmark's tracer looks
    # each up in its own module and never reads __all__.
    assert len(qmds.__all__) == 47
    for module, name in [(qmds.solvers, "anchored_inversion"),
                         (qmds.solvers, "procrustes_align"), (qmds.gek, "apply_mask")]:
        assert name not in qmds.__all__
        assert callable(getattr(module, name))


def test_every_public_callable_has_a_census_entry():
    # tests/test_census.py calls each public callable with bad inputs; a name
    # added to (or dropped from) the surface must add (or drop) its entry.
    import test_census

    public = {name for name in qmds.__all__ if callable(getattr(qmds, name))}
    assert set(test_census.TRACED) <= set(test_census.CENSUS)
    assert public == set(test_census.CENSUS) - set(test_census.TRACED)


def test_library_imports_no_scipy(tmp_path):
    # numpy is the only runtime dependency; scipy is for the tests alone. With
    # scipy unimportable, a masked run and a converge run still go through.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r})\n"
        "sys.modules['scipy'] = None\n"
        "import qmds, qmds.cli\n"
        "qmds.epsilon_to_rho(30.0)\n"
        "grid = ['--sigma-d', '2', '--epsilon', '50', '--trials', '1']\n"
        f"out = {str(tmp_path)!r}\n"
        "assert qmds.cli.main(['run', '--scenario', 'II', '--missing', '0.3',\n"
        "                      '--out', out + '/run.csv', *grid]) == 0\n"
        "assert qmds.cli.main(['converge', '--tau-max', '2',\n"
        "                      '--out', out + '/conv.csv', *grid]) == 0\n"
    )
    subprocess.run([sys.executable, "-c", code], capture_output=True, check=True)


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


@pytest.fixture
def spans(monkeypatch):
    """perfbench's span tracer, loaded by path as the benchmark loads it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_wrapped_and_restored(spans):
    # The benchmark's span tracer refuses to run when a name it wraps is
    # gone; installing it here makes such a rename fail in the unit tests.
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


def test_names_the_benchmark_reads_resolve(spans):
    # Beside the traced layers, perfbench/run.py reads these names, and the
    # tracer reads the completion wrappers' second return value.
    assert issubclass(qmds.NonConvergenceWarning, Warning)
    assert all(map(callable, (qmds.epsilon_to_rho, qmds.config_from_mapping,
                              qmds.cli.main)))

    rng = np.random.default_rng(7)
    anchors = rng.uniform([0, 0, 0], [30, 30, 10], size=(4, 3))
    targets = rng.uniform([0, 0, 0], [30, 30, 10], size=(5, 3))
    ms = qmds.synthesize(qmds.true_parameters(qmds.NetworkGeometry(anchors, targets)),
                         qmds.NoiseConfig(), "II", rng)
    mask = qmds.missing_mask(ms.m, 0.3, rng)
    kr, kq = qmds.build_real_gek(ms), qmds.quat_gek_from_measurements(ms)

    tracer = spans.Tracer()
    restore = tracer.install()
    try:  # through the wrappers, so that Tracer._observe reads both results
        res = qmds.complete_real_gek(kr, mask)[1]
        info = qmds.complete_quat_gek(kq, mask)[1]
    finally:
        restore()
    assert tracer.calls["gek.apply_mask"] == 2  # one masking step per completion
    assert tracer.completion_calls == 2
    assert tracer.completion_sweeps == res.iterations + info["iterations"] > 0
    assert tracer.completion_converged == res.converged + info["converged"]


@pytest.mark.parametrize("solve", ["smds", "qd_smds", "scenario_one_pipeline"])
def test_each_placement_runs_through_the_traced_names(spans, solve):
    # The placement steps left the surface under their names; a solve that
    # placed through any other name would leave the benchmark's inversion and
    # alignment series empty, with no error. Tracing changes no output.
    rng = np.random.default_rng(11)
    anchors = np.array(qmds.harness.DEFAULT_ANCHORS)
    targets = rng.uniform(0.0, qmds.harness.DEFAULT_ROOM, size=(6, 3))
    params = qmds.true_parameters(qmds.NetworkGeometry(anchors, targets))
    structure = qmds.structure_matrices(len(anchors), len(targets))
    if solve == "scenario_one_pipeline":  # smds, then qd_smds: two placements
        args, placements = (qmds.synthesize(params, qmds.NoiseConfig(), "I", rng),), 2
    else:
        ms = qmds.synthesize(params, qmds.NoiseConfig(), "II", rng)
        kernel = (qmds.build_real_gek if solve == "smds"
                  else qmds.quat_gek_from_measurements)(ms)
        args, placements = (kernel,), 1
    untraced = getattr(qmds, solve)(*args, anchors, structure)

    tracer = spans.Tracer()
    restore = tracer.install()
    try:
        traced = getattr(qmds, solve)(*args, anchors, structure)
    finally:
        restore()
    assert tracer.calls["solvers.anchored_inversion"] == placements
    assert tracer.calls["solvers.procrustes_align"] == placements
    np.testing.assert_array_equal(traced.targets, untraced.targets)
