import ast
from pathlib import Path

import numpy as np
import pytest

from qmds import errors
from qmds.errors import ShapeMismatch
from qmds.gek import QuatGek, RealGek
from qmds.measurement import MeasurementSet
from qmds.network import NetworkGeometry
from qmds.quat import QuaternionMatrix

SRC = Path(__file__).resolve().parents[1] / "src" / "qmds"

# One class per failure cause a caller can act on.
TAXONOMY = {
    "QmdsError", "ShapeMismatch", "OutOfRange", "DegenerateEdge",
    "DegenerateAnchors", "AsymmetricMask", "RankDeficient",
    "AmbiguityResolutionFailure", "NonConvergenceWarning",
}

# Raised outside the taxonomy on purpose: `cli.main` turns both into exit
# status 2 before any grid runs.
CLI_ONLY = {("cli.py", "argparse.ArgumentTypeError"), ("cli.py", "FileNotFoundError")}


def test_error_module_exports_exactly_the_taxonomy():
    assert len(errors.__all__) == len(TAXONOMY)
    assert set(errors.__all__) == TAXONOMY


def raised_names(path: Path) -> list[tuple[str, int]]:
    """The dotted callee of every `raise Callee(...)` in a source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
            names.append((ast.unparse(node.exc.func), node.lineno))
    return names


def test_library_raises_only_package_errors():
    stray = [f"{path.name}:{line} raises {name}"
             for path in sorted(SRC.glob("*.py"))
             for name, line in raised_names(path)
             if name not in errors.__all__ and (path.name, name) not in CLI_ONLY]
    assert not stray


@pytest.mark.parametrize("build", [
    lambda: RealGek([[1.0]]),
    lambda: QuatGek(np.eye(2)),
    lambda: MeasurementSet([1.0, 2.0], np.zeros((2, 2))),
    lambda: MeasurementSet(np.ones(2), [[0.0, 1.0], [1.0, 0.0]]),
    lambda: MeasurementSet(np.ones(2), np.zeros((2, 2)), [[0.0] * 2] * 3,
                           np.zeros((3, 2))),
    lambda: NetworkGeometry("ab", np.zeros((0, 3))),
    lambda: QuaternionMatrix("ab", "cd"),
    lambda: QuaternionMatrix(np.array([object(), object()]), np.zeros(2)),
    lambda: QuaternionMatrix(np.ones(2, dtype=object), np.zeros(2)),
    lambda: RealGek(np.array([["a"]])),
    lambda: RealGek(np.ones((1, 1), dtype=object)),
    lambda: MeasurementSet(np.array(["a", "b"]), np.zeros((2, 2))),
    lambda: MeasurementSet(np.ones(2), np.zeros((2, 2), dtype=object)),
], ids=["real-gek-list", "quat-gek-ndarray", "distances-list", "adoa-list",
        "azimuths-list", "anchors-str", "quat-str", "quat-object",
        "quat-numeric-object", "real-gek-str", "real-gek-object",
        "distances-str", "adoa-object"])
def test_constructors_reject_non_array_fields(build):
    with pytest.raises(ShapeMismatch):
        build()
