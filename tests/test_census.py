"""A typed-input census of the public surface.

Every callable in `qmds.__all__` has an entry in `CENSUS`, and so does each
internal step in `TRACED`: a valid call on one seeded Scenario II instance,
and the names of the arguments a bad value replaces. An array argument takes each of `BAD_ARRAYS` and a number argument
each of `BAD_NUMBERS`, one argument at a time, with every warning an error.
Each case must return finite output or raise a `QmdsError`; an untyped
exception, a warning, or a non-finite value in the result fails it.

Kernel, measurement-set, structure, config and generator arguments are not
replaced, because their own constructors check them (their constructors'
arrays and numbers are census entries of their own). Neither are the fields
of the result records (`Estimate`, `TrialResult` and the like) and of the
error classes, which the library fills; their entries name no argument.
`tests/test_exports.py` fails when a public callable has no entry here.
"""

import dataclasses
import functools
import math
import numbers
import os
import tracemalloc
import warnings

import numpy as np
import pytest

import qmds
from qmds import errors
from qmds.errors import OutOfRange, QmdsError
from qmds.harness import DEFAULT_ANCHORS, DEFAULT_ROOM, ExperimentConfig, TrialResult
from qmds.quat import QuaternionMatrix

ANCHORS = np.array(DEFAULT_ANCHORS)


def _nan_anchor():
    a = ANCHORS.copy()
    a[2, 1] = np.nan
    return a


def _opposite_anchors():
    a = ANCHORS.copy()
    a[:2, 0] = 1.7e308, -1.7e308
    return a


# Factories, so that a constructor that freezes its arrays gets fresh ones.
BAD_ARRAYS = {
    "empty": lambda: np.array([]),
    "0x0": lambda: np.zeros((0, 0)),
    "3-vector": lambda: np.array([1.0, 2.0, 3.0]),
    "5x2": lambda: np.ones((5, 2)),
    "4x3": lambda: np.vstack([np.zeros(3), np.eye(3)]),
    "85x85": lambda: np.ones((85, 85)),
    "nan-3x3": lambda: np.full((3, 3), np.nan),
    "nan-5x3": _nan_anchor,
    "inf-85": lambda: np.full(85, np.inf),
    "3-d": lambda: np.ones((5, 3, 2)),
    "complex": lambda: ANCHORS + 1j,
    "complex-85x85": lambda: np.ones((85, 85), complex),
    "str": lambda: ANCHORS.astype(str),
    "nested-list": lambda: ANCHORS.tolist(),
    # finite, but every anchor edge's square overflows
    "huge-5x3": lambda: ANCHORS * 1e160,
    # every square is finite, but the kernel norm bound of a room config is not
    "large-5x3": lambda: ANCHORS * 1e80,
    # finite, but the edge between anchors 0 and 1 overflows in the product
    "opposite-5x3": _opposite_anchors,
}

BAD_NUMBERS = {
    "-1.0": -1.0, "0.0": 0.0, "True": True, "1e9": 10**9,
    "nan": math.nan, "inf": math.inf, "-3": -3, "2.5": 2.5,
    '"20"': "20", "None": None, "1j": 1j,
    # float() of an int past the float range raised an untyped OverflowError
    "10**400": 10**400,
    # sigma_d^2 overflows: an OverflowError from the Gamma draw or the seed key
    "1e200": 1e200, "1e303": 1e303,
    # past 4,300 digits: a ValueError from formatting the message
    "10**5000": 10**5000, "-10**5000": -10**5000,
}


@functools.cache
def instance():
    """The valid inputs every call is built from."""
    rng = np.random.default_rng(37)
    targets = rng.uniform(0.0, DEFAULT_ROOM, size=(15, 3))
    geometry = qmds.NetworkGeometry(ANCHORS, targets)
    params = qmds.true_parameters(geometry)
    noise = qmds.NoiseConfig(1.0, 20.0)
    ms = qmds.synthesize(params, noise, "II", rng)
    kr = qmds.build_real_gek(ms)
    kq = qmds.quat_gek_from_measurements(ms)
    mask = qmds.missing_mask(ms.m, 0.05, rng)
    config = ExperimentConfig(n_targets=4, sigma_d_grid=(1.0,), epsilon_grid=(20.0,),
                              scenarios=("II",), trials=1, tau_max=2)
    return dict(
        geometry=geometry, params=params, noise=noise, ms=ms, kr=kr, kq=kq,
        mask=mask, config=config, structure=qmds.structure_matrices(5, 15),
        ms_one=qmds.synthesize(params, noise, "I", rng),
        estimate=qmds.qd_smds(kq, ANCHORS, qmds.structure_matrices(5, 15)),
        qsvd=qmds.qsvd(QuaternionMatrix(kq.k.a[:6, :4], kq.k.b[:6, :4])),
        trial=qmds.run_trial(config, "II", 1.0, 20.0, 0)["qdsmds"],
    )


def _fields(record) -> dict:
    return {f.name: getattr(record, f.name) for f in dataclasses.fields(record)}


# name -> (valid keyword arguments from the instance, array arguments,
# number arguments)
CENSUS = {
    **{name: (lambda i: {}, (), ()) for name in errors.__all__},
    # quat
    "QuaternionMatrix": (lambda i: dict(a=i["kq"].k.a.copy(), b=i["kq"].k.b.copy()),
                         ("a", "b"), ()),
    "complex_adjoint": (lambda i: dict(q=i["kq"].k), (), ()),
    "qsvd": (lambda i: dict(q=i["qsvd"][0]), (), ()),
    "dominant_eigpair": (lambda i: dict(k=i["kq"].k), (), ()),
    # network
    "NetworkGeometry": (lambda i: dict(anchors=ANCHORS.copy(),
                                       targets=i["geometry"].targets.copy()),
                        ("anchors", "targets"), ()),
    "StructureMatrices": (lambda i: dict(n_anchors=5, n_targets=15),
                          (), ("n_anchors", "n_targets")),
    "TrueParameters": (lambda i: _fields(i["params"]), (), ()),
    "structure_matrices": (lambda i: dict(n_anchors=5, n_targets=15),
                           (), ("n_anchors", "n_targets")),
    "true_parameters": (lambda i: dict(geometry=i["geometry"]), (), ()),
    # measurement
    "NoiseConfig": (lambda i: dict(sigma_d=1.0, epsilon_deg=20.0),
                    (), ("sigma_d", "epsilon_deg")),
    "MeasurementSet": (lambda i: {name: getattr(i["ms"], name).copy() for name in
                                  ("distances", "adoa", "azimuths", "elevations")},
                       ("distances", "adoa", "azimuths", "elevations"), ()),
    "epsilon_to_rho": (lambda i: dict(epsilon_deg=20.0), (), ("epsilon_deg",)),
    "synthesize": (lambda i: dict(params=i["params"], config=i["noise"], scenario="II",
                                  rng=np.random.default_rng(1)), (), ()),
    "missing_mask": (lambda i: dict(m=85, fraction=0.3, rng=np.random.default_rng(2)),
                     (), ("m", "fraction")),
    # gek
    "RealGek": (lambda i: dict(k=i["kr"].k.copy()), ("k",), ()),
    "QuatGek": (lambda i: dict(k=i["kq"].k), (), ()),
    "build_real_gek": (lambda i: dict(ms=i["ms"]), (), ()),
    "build_quat_gek": (lambda i: dict(kr=i["kr"], planes=i["ms"].plane_components()),
                       ("planes",), ()),
    "quat_gek_from_measurements": (lambda i: dict(ms=i["ms"]), (), ()),
    "apply_mask": (lambda i: dict(gek=i["kr"], mask=i["mask"].copy()), ("mask",), ()),
    # completion
    "CompletionResult": (lambda i: dict(matrix=np.eye(2), iterations=3, converged=True,
                                        rel_change=0.0), (), ()),
    "complete_real_gek": (lambda i: dict(kr=i["kr"], mask=i["mask"].copy()),
                          ("mask",), ()),
    "complete_quat_gek": (lambda i: dict(kq=i["kq"], mask=i["mask"].copy()),
                          ("mask",), ()),
    # solvers
    "Estimate": (lambda i: dict(targets=np.zeros((1, 3)), diagnostics={}), (), ()),
    "smds": (lambda i: dict(kr=i["kr"], anchors=ANCHORS.copy(),
                            structure=i["structure"]), ("anchors",), ()),
    "qd_smds": (lambda i: dict(kq=i["kq"], anchors=ANCHORS.copy(),
                               structure=i["structure"]), ("anchors",), ()),
    "qd_mrc_smds": (lambda i: dict(kq=i["kq"], anchors=ANCHORS.copy(),
                                   structure=i["structure"]), ("anchors",), ()),
    "qd_mrc_smds_iterative": (lambda i: dict(kq=i["kq"], anchors=ANCHORS.copy(),
                                             structure=i["structure"], tau_max=3),
                              ("anchors",), ("tau_max",)),
    "scenario_one_pipeline": (lambda i: dict(ms=i["ms_one"], anchors=ANCHORS.copy(),
                                             structure=i["structure"],
                                             algorithm="mrciter", tau_max=2),
                              ("anchors",), ("tau_max",)),
    "anchored_inversion": (lambda i: dict(v_hat=i["params"].vectors.copy(),
                                          anchors=ANCHORS.copy(),
                                          structure=i["structure"]),
                           (), ()),
    "procrustes_align": (lambda i: dict(x_hat=i["geometry"].stacked,
                                        anchors=ANCHORS.copy()), (), ()),
    # harness
    "ExperimentConfig": (lambda i: dict(room=np.array(DEFAULT_ROOM),
                                        anchors=ANCHORS.copy(), n_targets=15, trials=2,
                                        missing_fraction=0.0, tau_max=1, master_seed=0),
                         ("room", "anchors"),
                         ("n_targets", "trials", "missing_fraction", "tau_max",
                          "master_seed")),
    "TrialResult": (lambda i: _fields(i["trial"]), (), ()),
    "config_from_mapping": (lambda i: dict(data={"trials": 1}), (), ()),
    "metric_xi": (lambda i: dict(x_hat=i["estimate"].targets.copy(),
                                 x_true=i["geometry"].targets.copy()),
                  ("x_hat", "x_true"), ()),
    "run_trial": (lambda i: dict(config=i["config"], scenario="II", sigma_d=1.0,
                                 epsilon=20.0, trial_index=0),
                  (), ("sigma_d", "epsilon", "trial_index")),
    "run_grid": (lambda i: dict(config=i["config"]), (), ()),
    "run_convergence": (lambda i: dict(config=i["config"]), (), ()),
    "write_csv": (lambda i: dict(rows=[], path=os.devnull), (), ()),
}

# The internal steps the benchmark traces by name, by the module that defines
# each. apply_mask still checks the mask its callers hand it; the placement
# steps take the arrays `_solver_inputs` checked, so their entries name no
# argument.
TRACED = {"apply_mask": qmds.gek, "anchored_inversion": qmds.solvers,
          "procrustes_align": qmds.solvers}

CASES = [
    pytest.param(name, arg, bad, id=f"{name}-{arg}-{bad}")
    for name, (_, arrays, nums) in CENSUS.items()
    for arg, bads in ([(a, BAD_ARRAYS) for a in arrays]
                      + [(n, BAD_NUMBERS) for n in nums])
    for bad in bads
]


def finite(value) -> bool:
    """Whether every number a result holds is finite. A failed `TrialResult`
    is the harness's typed record of a failure, and counts as one."""
    if isinstance(value, TrialResult) and not value.ok:
        return True
    if isinstance(value, (str, bytes, type(None), BaseException)):
        return True
    if isinstance(value, numbers.Integral):  # np.isfinite fails on one past int64
        return True
    if isinstance(value, numbers.Number):
        return bool(np.isfinite(value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    if isinstance(value, dict):
        return all(map(finite, value.values()))
    if isinstance(value, (list, tuple)):
        return all(map(finite, value))
    if dataclasses.is_dataclass(value):
        return all(finite(getattr(value, f.name)) for f in dataclasses.fields(value))
    raise TypeError(f"the census cannot judge a {type(value).__name__}")


def call(name, **kwargs):
    """Call the public or traced `name` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return getattr(TRACED.get(name, qmds), name)(**kwargs)


@pytest.mark.parametrize("name", list(CENSUS))
def test_census_valid_call_returns_finite_output(name):
    # Each case below differs from this call in one argument alone.
    assert finite(call(name, **CENSUS[name][0](instance())))


@pytest.mark.parametrize("name, arg, bad", CASES)
def test_bad_input_raises_a_typed_error_or_returns_finite_output(name, arg, bad):
    kwargs = CENSUS[name][0](instance())
    kwargs[arg] = BAD_ARRAYS[bad]() if bad in BAD_ARRAYS else BAD_NUMBERS[bad]
    try:
        out = call(name, **kwargs)
    except QmdsError:
        return
    assert finite(out), f"{name}({arg}={bad}) returned non-finite output silently"


@pytest.mark.parametrize("name, arg", [
    ("structure_matrices", "n_anchors"),
    ("structure_matrices", "n_targets"),
    ("missing_mask", "m"),
    ("qd_mrc_smds_iterative", "tau_max"),
    ("ExperimentConfig", "tau_max"),
    ("ExperimentConfig", "trials"),
])
def test_a_huge_count_is_refused_before_any_allocation(name, arg):
    # Each once raised MemoryError from the allocation attempt itself.
    kwargs = CENSUS[name][0](instance())
    kwargs[arg] = 10**9
    tracemalloc.start()
    try:
        with pytest.raises(OutOfRange, match="entries"):
            call(name, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
