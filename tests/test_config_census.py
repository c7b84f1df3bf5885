"""A census of config files through the command line.

Each `ExperimentConfig` field in turn takes each value of `BAD`, and each
list field also takes it as a one-element list; each field also takes one
large valid value, `LARGE`. A case writes the one-cell, one-trial `BASE`
with that one field replaced to a JSON file and runs `qmds run` and
`qmds converge` on it, with every warning an error. It passes when the
command exits 0 with a CSV, or exits 2 with exactly one `qmds:` line and no
CSV: a config is either run or refused, never accepted and then crashed.
"""

import json
import math
import warnings

import pytest

from qmds import cli
from qmds.harness import ExperimentConfig

BASE = {"scenarios": ["II"], "sigma_d_grid": [1.0], "epsilon_grid": [10.0],
        "trials": 1}

BAD = {
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1, "0": 0,
    "0.5": 0.5, "-0.0": -0.0, "1e308": 1e308, "10**400": 10**400, "True": True,
    '"1"': "1", "None": None, "[]": [], "{}": {},
}

LARGE = {
    "n_targets": 60, "trials": 3, "tau_max": 10_000, "master_seed": 2**200,
    "sigma_d_grid": [1.3e154], "epsilon_grid": [161.9], "room": [1e75] * 3,
    "missing_fraction": 0.99,
}

FIELDS = list(ExperimentConfig.__dataclass_fields__)
LISTS = [name for name in FIELDS if isinstance(getattr(ExperimentConfig, name), tuple)]

CASES = [
    *[pytest.param(name, value, id=f"{name}={label}")
      for name in FIELDS for label, value in BAD.items()],
    *[pytest.param(name, [value], id=f"{name}=[{label}]")
      for name in LISTS for label, value in BAD.items()],
    *[pytest.param(name, value, id=f"{name}=large") for name, value in LARGE.items()],
]


def test_every_field_and_every_list_field_is_covered():
    assert set(LARGE) <= set(FIELDS)
    assert set(LISTS) == {"room", "anchors", "sigma_d_grid", "epsilon_grid",
                          "scenarios", "algorithms"}


@pytest.mark.parametrize("command", ["run", "converge"])
@pytest.mark.parametrize("name, value", CASES)
def test_a_config_is_run_or_refused_in_one_line(tmp_path, capsys, command, name,
                                                value):
    config, out = tmp_path / "config.json", tmp_path / "out.csv"
    config.write_text(json.dumps({**BASE, name: value}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    if code == 0:
        assert out.is_file() and not err
    else:
        assert code == 2, err
        assert len(err.splitlines()) == 1 and err.startswith("qmds: "), err
        assert not out.exists()
