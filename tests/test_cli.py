import json
import tracemalloc
import warnings

import pytest

from qmds import cli, harness
from qmds.cli import main

FAST = [
    "--sigma-d", "1.0",
    "--epsilon", "30",
    "--trials", "2",
]


def run_args(tmp_path, *extra):
    out = tmp_path / "results.csv"
    code = main(["run", "--out", str(out), *FAST, *extra])
    return code, out


def test_run_writes_csv(tmp_path):
    code, out = run_args(
        tmp_path, "--scenario", "II", "--algorithms", "smds,mrc"
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("scenario,algorithm,sigma_d_m")
    assert len(lines) == 3
    assert lines[1].startswith("II,smds,1.0,30.0,")


def test_run_byte_identical_repeats(tmp_path):
    _, first = run_args(tmp_path, "--scenario", "II", "--algorithms", "mrc",
                        "--seed", "11")
    text = first.read_bytes()
    _, second = run_args(tmp_path, "--scenario", "II", "--algorithms", "mrc",
                         "--seed", "11")
    assert second.read_bytes() == text


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "scenarios": ["II"],
        "algorithms": ["mrc"],
        "sigma_d_grid": [2.0],
        "epsilon_grid": [40.0],
        "trials": 1,
        "n_targets": 6,
    }))
    out = tmp_path / "o.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out),
                 "--trials", "3", "--seed", "5"])
    assert code == 0
    row = out.read_text().splitlines()[1].split(",")
    assert row[:4] == ["II", "mrc", "2.0", "40.0"]
    assert row[5] == "3"


def test_every_override_flag_sets_its_config_field():
    args = cli.build_parser().parse_args([
        "run", "--seed", "3", "--sigma-d", "1,2", "--epsilon", "5",
        "--trials", "4", "--tau-max", "2", "--scenario", "II",
        "--algorithms", "mrc", "--missing", "0.2", "--timing", "wall",
        "--out", "x.csv", "--config", "c.json",
    ])
    assert cli._apply_overrides({"n_targets": 6, "trials": 9}, args) == {
        "n_targets": 6, "master_seed": 3, "sigma_d_grid": (1.0, 2.0),
        "epsilon_grid": (5.0,), "trials": 4, "tau_max": 2,
        "scenarios": ("II",), "algorithms": ("mrc",),
        "missing_fraction": 0.2, "timing": "wall",
    }
    unset = cli.build_parser().parse_args(["converge"])
    assert cli._apply_overrides({"trials": 9}, unset) == {"trials": 9}


def test_converge_emits_per_sweep_rows(tmp_path):
    out = tmp_path / "conv.csv"
    code = main(["converge", "--out", str(out), "--sigma-d", "2",
                 "--epsilon", "30", "--tau-max", "3", "--trials", "2"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sigma_d_m,epsilon_deg,tau,trials_ok,trials_failed,mean_xi_m"
    assert [line.split(",")[2] for line in lines[1:]] == ["0", "1", "2", "3"]


def test_converge_accepts_masked_config(tmp_path):
    # converge runs Scenario II only, so a masked config needs no
    # `scenarios` field to pass the Scenario I mask check.
    cfg = tmp_path / "masked.json"
    cfg.write_text(json.dumps({"missing_fraction": 0.3, "n_targets": 6}))
    out = tmp_path / "conv.csv"
    code = main(["converge", "--config", str(cfg), "--out", str(out),
                 "--sigma-d", "2", "--epsilon", "30", "--tau-max", "2",
                 "--trials", "2", "--seed", "4"])
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [row[2] for row in rows] == ["0", "1", "2"]
    assert all(int(row[3]) + int(row[4]) == 2 and row[5] for row in rows)


def test_bad_grid_value_fails_cleanly(tmp_path, capsys):
    code, _ = run_args(tmp_path, "--epsilon", "170")
    assert code == 2
    assert "qmds:" in capsys.readouterr().err


def test_epsilon_too_narrow_for_any_concentration_fails_cleanly(tmp_path, capsys):
    # Below about 0.0094 degrees even the largest concentration searched
    # holds less than 90% of the angle error mass.
    code, out = run_args(tmp_path, "--epsilon", "0.005")
    assert code == 2
    assert "qmds: epsilon_deg 0.005 is narrower" in capsys.readouterr().err
    assert not out.exists()


def test_room_without_generic_placement_still_writes_csv(tmp_path):
    # No target draw in a 1e-13 m footprint is generic: every trial fails,
    # and the run still exits 0 with a full CSV.
    cfg = tmp_path / "room.json"
    cfg.write_text(json.dumps({"room": [1e-13, 1e-13, 10]}))
    code, out = run_args(tmp_path, "--config", str(cfg))
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert len(rows) == 8
    assert all(row[5:8] == ["0", "2", ""] for row in rows)


def test_largest_rooms_still_run(tmp_path):
    # 1e75 m is under the kernel-norm bound, which refuses from about 7e75 m.
    cfg, out = tmp_path / "room.json", tmp_path / "room.csv"
    cfg.write_text(json.dumps({"room": [1e75] * 3}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["run", "--config", str(cfg), "--sigma-d", "1", "--epsilon", "10",
                     "--trials", "1", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 9


def test_unknown_config_key_fails(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"trails": 5}))
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "trails" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    [{"room": 5}, {"epsilon_grid": 30}, {"trials": 2.5},
     {"sigma_d_grid": [float("nan")]}],
    ids=["scalar-room", "scalar-grid", "fractional-trials", "nan-sigma"],
)
def test_mistyped_config_value_fails_cleanly(tmp_path, capsys, bad):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    out = tmp_path / "x.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("qmds: ")
    assert not out.exists()


@pytest.mark.parametrize("command, bad, message", [
    # float() of the 400-digit int raised OverflowError, a traceback
    ("run", {"sigma_d_grid": [10**400]}, "sigma_d_grid must be a finite real number"),
    # M = 49,350 edges: true_parameters asked for an 18.1 GiB v @ v.T and
    # died with MemoryError, after a 44,850-pair anchor loop
    ("run", {"anchors": [[i, 0.0, 0.0] for i in range(300)]}, "M x M edge kernel"),
    # 10**8 + 1 sweeps of 85 edges: run failed every mrciter trial and exited
    # 0; converge was killed while building 10**8 rows per cell
    ("run", {"tau_max": 10**8}, "the sweeps' edge estimates"),
    # every trial warned "overflow encountered in dot" in the power iteration
    # and, without -W error, wrote rows that all counted as ok
    ("run", {"room": [1e100] * 3},
     "room and anchors must give the kernel a finite norm"),
    # 8.5e6 sweep entries pass the sweeps' ceiling, but the default 100 cells
    # give 10**7 rows of 6 columns: every trial ran first, then about 3.5 GB
    # of row dicts
    ("converge", {"trials": 1, "tau_max": 100_000}, "the convergence rows"),
], ids=["400-digit-sigma", "300-anchors", "tau-max-1e8", "1e100-room",
        "converge-tau-max-1e5"])
def test_oversized_config_value_fails_before_allocating(tmp_path, capsys, monkeypatch,
                                                        command, bad, message):
    def no_trial(*args):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(harness, "run_trial", no_trial)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    out = tmp_path / "x.csv"
    tracemalloc.start()
    try:
        code = main([command, "--config", str(cfg), "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("qmds: ") and message in err
    assert peak < 2**20 and not out.exists()


@pytest.mark.parametrize("text", [
    '{"sigma_d_grid": [1' + "0" * 4999 + "]}",
    '{"sigma_d_grid": [1.0,',
], ids=["5000-digit-sigma", "malformed"])
def test_unreadable_config_json_fails_cleanly(tmp_path, capsys, text):
    # json.load raised ValueError on an integer past 4,300 digits, which main
    # did not catch: exit 1 and a traceback.
    cfg = tmp_path / "bad.json"
    cfg.write_text(text)
    out = tmp_path / "x.csv"
    code = main(["run", "--config", str(cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("qmds: ") and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize("sigma_d", ["1e155", "1e200", "1e303"])
def test_noise_level_with_an_overflowing_variance_fails_before_the_grid(
        tmp_path, capsys, sigma_d):
    # 1e200 raised OverflowError from the Gamma draw, 1e303 from the seed key.
    out = tmp_path / "x.csv"
    code = main(["run", "--sigma-d", sigma_d, "--epsilon", "20", "--trials", "1",
                 "--scenario", "II", "--algorithms", "mrc", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("qmds: sigma_d") and len(err.splitlines()) == 1
    assert not out.exists()


def test_missing_config_file_fails(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.json")])
    assert code == 2


def test_masking_with_scenario_one_rejected(tmp_path, capsys):
    code, _ = run_args(tmp_path, "--scenario", "I", "--missing", "0.3")
    assert code == 2


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["plot"])


@pytest.mark.parametrize("command", ["run", "converge"])
def test_missing_output_directory_fails_before_the_grid(tmp_path, capsys,
                                                        monkeypatch, command):
    def never(config):
        raise AssertionError("the grid ran before the output path was checked")

    monkeypatch.setattr(cli, "run_grid", never)
    monkeypatch.setattr(cli, "run_convergence", never)
    out = tmp_path / "missing-dir" / "x.csv"
    code = main([command, "--out", str(out), *FAST])
    assert code == 2
    assert capsys.readouterr().err.startswith("qmds: output directory does not exist")


@pytest.mark.parametrize("command", ["run", "converge"])
def test_directory_output_path_fails_before_the_grid(tmp_path, capsys,
                                                     monkeypatch, command):
    def never(config):
        raise AssertionError("the grid ran before the output path was checked")

    monkeypatch.setattr(cli, "run_grid", never)
    monkeypatch.setattr(cli, "run_convergence", never)
    code = main([command, "--out", str(tmp_path), *FAST])
    assert code == 2
    assert capsys.readouterr().err.startswith("qmds: output path is a directory")
