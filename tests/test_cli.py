"""End-to-end command-line checks driven through ``phdfuse.cli.main``."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import phdfuse
import phdfuse.experiment as experiment
from phdfuse.cli import main
from phdfuse.scenario import (
    generate_measurements,
    simulate_truth,
    write_measurements,
    write_truth,
)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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


def test_run_rejects_invalid_sampling_setting_before_any_run(tmp_path, capsys):
    # A configuration error: exit 2 before any run, with nothing written,
    # also for an algorithm that never reads the draw mode.
    for algorithm in ("sample_replacement", "full"):
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "algorithm": algorithm,
                    "alpha": 1,
                    "mc_runs": 1,
                    "draw_mode": "bogus",
                    "scenario_overrides": {"horizon": 2},
                }
            )
        )
        out = tmp_path / "out"
        code = main(["run", "--config", str(config), "--output-dir", str(out)])
        assert code == 2, algorithm
        assert "unknown draw_mode" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [
        {"phd": {"bogus": 1}},
        {"scenario_overrides": {"bogus": 1}},
        {"alpha": "3"},
        [],
        {"bandwidth": 2.5},
        {"alpha": True},
        {"phd": {"max_components": 2.5}},
        {"scenario_overrides": {"horizon": 2.5}},
    ],
)
def test_run_rejects_malformed_config_with_exit_2(payload, tmp_path, capsys):
    # A key the nested config does not have, a value of the wrong type or a
    # file that holds no JSON object is a configuration error, not a failed
    # run: exit 2 with nothing written.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / "out"
    code = main(["run", "--config", str(config), "--runs", "1", "--output-dir", str(out)])
    assert code == 2
    assert "invalid experiment config" in capsys.readouterr().err
    assert not out.exists()


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
    truth_lines = (out / "truth.txt").read_text().splitlines()
    measurement_lines = (out / "measurements.txt").read_text().splitlines()
    assert truth_lines[0] == "# timestep target_id x y vx vy"
    assert measurement_lines[0] == "# timestep sensor z1 z2"
    # The default schedule has targets alive from k = 1.
    assert {line.split()[0] for line in truth_lines[1:]} == {"1", "2", "3"}
    assert all(len(line.split()) == 6 for line in truth_lines[1:])
    assert {line.split()[0] for line in measurement_lines[1:]} <= {"1", "2", "3"}
    assert all(len(line.split()) == 4 for line in measurement_lines[1:])


@pytest.mark.parametrize("truth_process_noise", [False, True])
def test_simulate_writes_the_measurements_run_zero_draws(
    tiny_config, tmp_path, monkeypatch, truth_process_noise
):
    payload = json.loads(tiny_config.read_text())
    payload["scenario_overrides"]["truth_process_noise"] = truth_process_noise
    tiny_config.write_text(json.dumps(payload))
    truths, drawn = [], []

    def recording_truth(*args, **kwargs):
        truths.append(simulate_truth(*args, **kwargs))
        return truths[-1]

    def recording(*args, **kwargs):
        drawn.append(generate_measurements(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(experiment, "simulate_truth", recording_truth)
    monkeypatch.setattr(experiment, "generate_measurements", recording)
    assert main(["run", "--config", str(tiny_config), "--output-dir", str(tmp_path / "run")]) == 0
    assert len(truths) == 1
    assert [frame.timestep for frame in drawn] == [1, 2, 3]
    truth_text, measurement_text = io.StringIO(), io.StringIO()
    write_truth(truths[0], truth_text)
    write_measurements(drawn, measurement_text)
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(tiny_config), "--output-dir", str(out)]) == 0
    assert (out / "truth.txt").read_text() == truth_text.getvalue()
    assert (out / "measurements.txt").read_text() == measurement_text.getvalue()


def _read_console_scripts(text):
    """``name -> "module:attr"`` from the ``[project.scripts]`` table of a
    pyproject.toml, read line by line for Python 3.10, which has no tomllib."""
    scripts, inside = {}, False
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line and not line.startswith("#"):
            name, _, value = line.partition("=")
            scripts[name.strip().strip("\"'")] = value.strip().strip("\"'")
    return scripts


def _declared_console_scripts():
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        return _read_console_scripts(text)
    return tomllib.loads(text)["project"]["scripts"]


def test_console_scripts_read_without_tomllib_match_tomllib():
    tomllib = pytest.importorskip("tomllib")
    text = PYPROJECT.read_text()
    assert _read_console_scripts(text) == tomllib.loads(text)["project"]["scripts"]


def test_console_script_is_installed():
    """The ``phdfuse`` entry point declared in pyproject.toml runs ``--help``
    the way pip's installed wrapper calls it, and so does the installed
    ``phdfuse`` script wherever one is on PATH.

    Every child imports the ``phdfuse`` package this test imported, so an
    older copy elsewhere on the path is never the one checked."""
    module, _, attr = _declared_console_scripts()["phdfuse"].partition(":")
    wrapper = (
        "import sys; sys.argv[0] = 'phdfuse'; "
        f"from {module} import {attr.split('.')[0]}; sys.exit({attr}())"
    )
    commands = [[sys.executable, "-c", wrapper, "--help"]]
    installed = shutil.which("phdfuse")
    if installed:
        commands.append([installed, "--help"])
    source = str(Path(phdfuse.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, inherited])))
    for command in commands:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, (command, proc.stderr)
        assert "run" in proc.stdout and "compare" in proc.stdout and "simulate" in proc.stdout
