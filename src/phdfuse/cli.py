"""Command-line entry point.

Subcommands:
  run        one campaign from a JSON config (with override flags); writes
             rows.csv, runs.csv, summary.csv and manifest.json
  compare    several algorithm/alpha variants under shared seeds; writes
             per-variant run summaries plus summary.csv and comparison.csv
  simulate   one scenario realization; writes truth.txt and measurements.txt
             in the line-oriented replay format

Exit status is 0 on success, 1 if any Monte Carlo run failed numerically, and
2 on configuration/validation errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    compare_algorithms,
    load_experiment_config,
    run_experiment,
    write_comparison_csv,
    write_manifest,
    write_rows_csv,
    write_runs_csv,
    write_summary_csv,
)
from .policies import lookup_algorithm
from .scenario import (
    build_scenario,
    generate_measurements,
    simulate_truth,
    write_measurements,
    write_truth,
)
from .streams import substream

__all__ = ["main"]


# Each override flag once: (flag, ExperimentConfig field, type, help).
_OVERRIDE_FLAGS = (
    ("--algorithm", "algorithm", str, "algorithm override"),
    ("--alpha", "alpha", int, "consensus round count override"),
    ("--bandwidth", "bandwidth", int, "component budget override"),
    ("--runs", "mc_runs", int, "Monte Carlo run count override"),
    ("--seed", "master_seed", int, "master seed override"),
    ("--output-dir", "output_dir", lambda text: str(Path(text)), "output directory"),
    ("--parallelism", "parallelism", int, "concurrent run limit"),
)


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="JSON experiment config")
    for flag, name, kind, text in _OVERRIDE_FLAGS:
        parser.add_argument(flag, dest=name, type=kind, default=None, help=text)


def _collect_overrides(args: argparse.Namespace) -> dict:
    values = {name: getattr(args, name) for _, name, _, _ in _OVERRIDE_FLAGS}
    return {name: value for name, value in values.items() if value is not None}


def _load(args: argparse.Namespace) -> ExperimentConfig:
    source = args.config if args.config is not None else {}
    return load_experiment_config(source, **_collect_overrides(args))


def _output_dir(config: ExperimentConfig) -> Path:
    directory = Path(config.output_dir) if config.output_dir else Path(".")
    directory.mkdir(parents=True, exist_ok=True)
    return directory


def _cmd_run(args: argparse.Namespace) -> int:
    config = _load(args)
    result = run_experiment(config)
    directory = _output_dir(config)
    write_rows_csv(result, directory / "rows.csv")
    write_runs_csv(result, directory / "runs.csv")
    write_summary_csv([result], directory / "summary.csv")
    write_manifest(result, directory / "manifest.json")
    failed = len(result.failed_runs)
    print(
        f"{config.label}: {config.mc_runs - failed}/{config.mc_runs} runs ok, "
        f"time-averaged network OSPA {result.ospa_mean:.3f} "
        f"(se {result.ospa_se:.3f}), outputs in {directory}"
    )
    return 0 if failed == 0 else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    base = _load(args)
    algorithms = [token.strip() for token in args.algorithms.split(",") if token.strip()]
    alphas = [int(token) for token in args.alphas.split(",") if token.strip()]
    if not algorithms or not alphas:
        raise ValueError("compare needs at least one algorithm and one alpha")
    configs: list[ExperimentConfig] = []
    for algorithm in algorithms:
        if not lookup_algorithm(algorithm).communicates:
            configs.append(replace(base, algorithm=algorithm, alpha=0))
            continue
        for alpha in alphas:
            configs.append(replace(base, algorithm=algorithm, alpha=alpha))
    comparison = compare_algorithms(configs)
    directory = _output_dir(base)
    write_summary_csv(list(comparison.results), directory / "summary.csv")
    write_comparison_csv(comparison, directory / "comparison.csv")
    for result in comparison.results:
        write_runs_csv(result, directory / f"{result.config.label}_runs.csv")
    for pair in comparison.pairs:
        status = "separated" if pair.separated else ("ordered" if pair.ordered else "reversed")
        print(
            f"{pair.label_a} vs {pair.label_b}: diff {pair.mean_diff:+.3f} m "
            f"(ci [{pair.ci_low:+.3f}, {pair.ci_high:+.3f}]) {status}"
        )
    failed = sum(len(result.failed_runs) for result in comparison.results)
    if failed:
        print(f"{failed} runs failed; pairs use the runs both campaigns completed")
    print(f"outputs in {directory}")
    return 0 if failed == 0 else 1


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = _load(args)
    scenario = build_scenario(config.scenario, config.phd)
    sim = scenario.config
    truth_rng = (
        substream(config.master_seed, "truth", 0) if sim.truth_process_noise else None
    )
    truth = simulate_truth(sim, truth_rng)
    # The streams run 0 of a campaign draws from, one per timestep.
    frames = [
        generate_measurements(
            frame,
            scenario.sensors,
            sim,
            substream(config.master_seed, "measurements", 0, frame.timestep),
        )
        for frame in truth.frames
    ]
    directory = _output_dir(config)
    with open(directory / "truth.txt", "w") as handle:
        write_truth(truth, handle)
    with open(directory / "measurements.txt", "w") as handle:
        write_measurements(frames, handle)
    total = sum(block.shape[0] for frame in frames for block in frame.per_sensor)
    print(
        f"simulated {sim.horizon} timesteps, {total} measurements across "
        f"{sim.sensor_count} sensors, outputs in {directory}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phdfuse",
        description="Distributed GM-PHD tracking experiments with consensus fusion",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser("run", help="run one Monte Carlo campaign")
    _add_override_flags(run_parser)
    run_parser.set_defaults(handler=_cmd_run)

    compare_parser = subparsers.add_parser(
        "compare", help="run several variants under shared seeds and compare"
    )
    _add_override_flags(compare_parser)
    compare_parser.add_argument(
        "--algorithms",
        default="full,sample_replacement,partial_rank,no_consensus",
        help="comma-separated algorithm list",
    )
    compare_parser.add_argument(
        "--alphas", default="6", help="comma-separated consensus round counts"
    )
    compare_parser.set_defaults(handler=_cmd_compare)

    simulate_parser = subparsers.add_parser(
        "simulate", help="write one truth/measurement realization as text"
    )
    _add_override_flags(simulate_parser)
    simulate_parser.set_defaults(handler=_cmd_simulate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
