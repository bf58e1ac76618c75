"""End-to-end command-line checks driven through ``phdfuse.cli.main``."""

import csv
import json

import pytest

import phdfuse.experiment as experiment
from phdfuse.cli import main
from phdfuse.scenario import read_measurements, read_truth


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(
        json.dumps(
            {
                "algorithm": "full",
                "alpha": 1,
                "mc_runs": 1,
                "scenario_overrides": {"horizon": 3},
            }
        )
    )
    return path


def test_missing_subcommand_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    assert "command" in capsys.readouterr().err


def test_run_writes_campaign_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["run", "--config", str(tiny_config), "--output-dir", str(out)])
    assert code == 0
    for name in ("rows.csv", "runs.csv", "summary.csv", "manifest.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["algorithm"] == "full"
    assert manifest["runs"] == {"0": "ok"}
    stdout = capsys.readouterr().out
    assert "full_a1: 1/1 runs ok" in stdout


def test_run_override_flags_take_effect(tiny_config, tmp_path):
    out = tmp_path / "out"
    code = main(
        [
            "run",
            "--config",
            str(tiny_config),
            "--algorithm",
            "partial_rank",
            "--alpha",
            "2",
            "--bandwidth",
            "3",
            "--seed",
            "7",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["algorithm"] == "partial_rank"
    assert manifest["config"]["alpha"] == 2
    assert manifest["config"]["bandwidth"] == 3
    assert manifest["master_seed"] == 7


def test_run_rejects_unknown_algorithm(tiny_config, tmp_path, capsys):
    code = main(
        [
            "run",
            "--config",
            str(tiny_config),
            "--algorithm",
            "bogus",
            "--output-dir",
            str(tmp_path / "out"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_compare_writes_pairwise_outputs(tiny_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(
        [
            "compare",
            "--config",
            str(tiny_config),
            "--algorithms",
            "full,no_consensus",
            "--alphas",
            "1",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 0
    assert (out / "summary.csv").exists()
    assert (out / "comparison.csv").exists()
    assert (out / "full_a1_runs.csv").exists()
    assert (out / "no_consensus_a0_runs.csv").exists()
    with open(out / "comparison.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 2
    assert rows[1][0] == "full_a1" and rows[1][1] == "no_consensus_a0"
    # One paired run: no standard error, so no interval and never separated.
    fields = dict(zip(rows[0], rows[1]))
    assert [fields[k] for k in ("se_diff", "ci_low", "ci_high")] == ["nan"] * 3
    assert fields["separated"] == "0"
    stdout = capsys.readouterr().out
    assert "full_a1 vs no_consensus_a0" in stdout


def test_compare_with_failed_runs_writes_outputs_and_exits_1(tmp_path, monkeypatch, capsys):
    original = experiment._single_run

    def flaky(scenario, config, run_index):
        if (config.algorithm, run_index) in (("full", 1), ("no_consensus", 2)):
            raise ArithmeticError("synthetic numerical failure")
        return original(scenario, config, run_index)

    monkeypatch.setattr(experiment, "_single_run", flaky)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"mc_runs": 4, "scenario_overrides": {"horizon": 2}}))
    out = tmp_path / "out"
    code = main(
        [
            "compare",
            "--config",
            str(config),
            "--algorithms",
            "full,no_consensus",
            "--alphas",
            "1",
            "--output-dir",
            str(out),
        ]
    )
    assert code == 1
    with open(out / "comparison.csv", newline="") as handle:
        rows = list(csv.reader(handle))
    assert len(rows) == 2 and rows[1][:2] == ["full_a1", "no_consensus_a0"]
    assert "2 runs failed" in capsys.readouterr().out


def test_simulate_writes_replayable_files(tiny_config, tmp_path):
    out = tmp_path / "out"
    code = main(["simulate", "--config", str(tiny_config), "--output-dir", str(out)])
    assert code == 0
    with open(out / "truth.txt") as handle:
        truth = read_truth(handle, horizon=3)
    with open(out / "measurements.txt") as handle:
        frames = read_measurements(handle, horizon=3, sensor_count=6)
    assert len(truth.frames) == 3 and len(frames) == 3
    assert truth.frames[0].timestep == 1
    assert len(frames[0].per_sensor) == 6


def test_console_script_is_installed():
    import subprocess

    proc = subprocess.run(
        ["phdfuse", "--help"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "run" in proc.stdout and "compare" in proc.stdout and "simulate" in proc.stdout
