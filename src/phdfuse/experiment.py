"""Monte Carlo experiment harness.

Composes the scenario simulator, per-sensor filtering, consensus fusion,
bandwidth policies and metrics into reproducible campaigns.  A campaign is
described by an ``ExperimentConfig`` (usually loaded from a JSON file, see
``load_experiment_config``); ``run_experiment`` executes the Monte Carlo runs
and ``compare_algorithms`` pairs several campaigns run under identical seeds.

Determinism contract: every random draw comes from a stream named by
``(master_seed, purpose, run, timestep, round, sensor)``, so two invocations
of the same config produce byte-identical CSV output, and two configs that
differ only in algorithm/alpha/bandwidth consume identical scenario
randomness (their runs are paired by seed).

Wall-clock timing is deliberately not recorded; deterministic operation
counts stand in for it (components surviving each filter update, components
retained plus entries transmitted per consensus round).
"""

from __future__ import annotations

import csv
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import __version__ as _package_version
from .consensus import consensus_round
from .gaussian import GaussianMixture
from .metrics import OspaConfig, ospa, time_averaged_network_ospa
from .phd import PhdConfig, extract_targets, predict, reduce_mixture, update
from .policies import ALGORITHMS, SamplingConfig, lookup_algorithm, transmission_cost
from .scenario import (
    GroundTruthFrame,
    MeasurementFrame,
    Region,
    Scenario,
    ScenarioConfig,
    TargetSchedule,
    build_scenario,
    generate_measurements,
    simulate_truth,
)
from .streams import substream

__all__ = [
    "BudgetExceeded",
    "ExperimentConfig",
    "StepRow",
    "RunRecord",
    "ExperimentResult",
    "PairedComparison",
    "ComparisonResult",
    "load_experiment_config",
    "run_world",
    "run_experiment",
    "compare_algorithms",
    "write_rows_csv",
    "write_runs_csv",
    "write_summary_csv",
    "write_comparison_csv",
    "write_manifest",
]

CSV_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ExperimentConfig:
    """One campaign: a scenario, an algorithm variant, and run bookkeeping."""

    algorithm: str
    alpha: int
    bandwidth: int = 5
    threshold: float = 0.1
    draw_mode: str = "stop_at_B_distinct"
    draws: int | None = None
    mc_runs: int = 25
    master_seed: int = 0
    parallelism: int = 1
    output_dir: str | None = None
    scenario_name: str = "paper"
    scenario: ScenarioConfig = field(default_factory=ScenarioConfig)
    phd: PhdConfig = field(default_factory=PhdConfig)
    ospa: OspaConfig = field(default_factory=OspaConfig)
    ospa_full_state: bool = False

    def __post_init__(self) -> None:
        lookup_algorithm(self.algorithm)
        if self.alpha < 0:
            raise ValueError("alpha must be non-negative")
        if not self.threshold >= 0.0:
            raise ValueError("threshold must be non-negative")
        if self.mc_runs < 1:
            raise ValueError("mc_runs must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        if self.parallelism < 1:
            raise ValueError("parallelism must be at least 1")
        if self.scenario_name != "paper":
            raise ValueError(
                f"unknown scenario preset {self.scenario_name!r} (only 'paper' is built in)"
            )
        # Bandwidth and draw settings, checked for every algorithm so that a
        # manifest never records a bogus one.
        sampling = SamplingConfig(self.bandwidth, self.draw_mode, self.draws)
        if (
            self.algorithm == "sample_replacement"
            and sampling.draw_mode == "fixed_draws"
            and sampling.fixed_draw_count > self.bandwidth
        ):
            # More draws than the budget fail on any mixture with more
            # components than that, as the paper scenario's births are:
            # reject here rather than record every run as failed.
            raise ValueError(
                f"fixed_draws({sampling.fixed_draw_count}) can exceed the budget "
                f"of {self.bandwidth} distinct components"
            )

    @property
    def label(self) -> str:
        return f"{self.algorithm}_a{self.alpha}"

    @property
    def rounds(self) -> int:
        return self.alpha if ALGORITHMS[self.algorithm].communicates else 0


@dataclass(frozen=True)
class StepRow:
    run: int
    timestep: int
    sensor: int
    ospa_m: float
    card_est: float
    extracted: int
    tx_floats: int
    tx_ints: int
    tx_components: int


ROW_HEADER = tuple(f.name for f in fields(StepRow))


@dataclass(frozen=True)
class RunRecord:
    """Everything recorded for one Monte Carlo run (or its failure report)."""

    run: int
    rows: tuple[StepRow, ...] = ()
    time_averaged_network_ospa: float = float("nan")
    total_tx_floats: int = 0
    total_tx_ints: int = 0
    total_tx_components: int = 0
    filter_components: int = 0
    consensus_components: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    records: tuple[RunRecord, ...]

    @property
    def successful(self) -> tuple[RunRecord, ...]:
        return tuple(r for r in self.records if r.ok)

    @property
    def failed_runs(self) -> tuple[int, ...]:
        return tuple(r.run for r in self.records if not r.ok)

    @property
    def run_ospa(self) -> np.ndarray:
        """Per-successful-run time-averaged network OSPA, in run order."""
        return np.array([r.time_averaged_network_ospa for r in self.successful])

    @property
    def ospa_mean(self) -> float:
        values = self.run_ospa
        return float(values.mean()) if values.size else float("nan")

    @property
    def ospa_se(self) -> float:
        values = self.run_ospa
        if values.size < 2:
            return float("nan")
        return float(values.std(ddof=1) / np.sqrt(values.size))

    @property
    def mean_tx_floats(self) -> float:
        records = self.successful
        if not records:
            return float("nan")
        return float(np.mean([r.total_tx_floats for r in records]))


# What a run records as its own numerical failure instead of aborting the
# campaign.
_NUMERICAL_FAILURES = (np.linalg.LinAlgError, ValueError, ArithmeticError)


class BudgetExceeded(Exception):
    """A budgeted policy sent more components than the campaign's bandwidth.

    A programming error, not a numerical failure: it aborts the campaign
    instead of being recorded as a failed run.
    """


def run_world(
    scenario: Scenario, master_seed: int, run_index: int
) -> Iterator[tuple[GroundTruthFrame, MeasurementFrame]]:
    """Yield run ``run_index``'s truth frame and measurements, timestep by timestep,
    from the streams ``("truth", run)`` and ``("measurements", run, k)``, named
    nowhere else, so every campaign with this scenario and seed sees this world."""
    sim = scenario.config
    truth_rng = substream(master_seed, "truth", run_index) if sim.truth_process_noise else None
    for frame in simulate_truth(sim, truth_rng).frames:
        rng = substream(master_seed, "measurements", run_index, frame.timestep)
        yield frame, generate_measurements(frame, scenario.sensors, sim, rng)


def _single_run(scenario: Scenario, config: ExperimentConfig, run_index: int) -> RunRecord:
    rule = ALGORITHMS[config.algorithm]
    policy = rule.build(config)
    sim = scenario.config
    world = run_world(scenario, config.master_seed, run_index)
    posteriors = [GaussianMixture.empty(scenario.motion.dimension)] * sim.sensor_count
    rows: list[StepRow] = []
    network_values: list[float] = []
    total_cost = np.zeros(3, dtype=np.int64)
    filter_components = 0
    consensus_components = 0
    # Where the run is, for the error of a failed run: the timestep and the
    # consensus round, 0 outside the rounds (filter step, extraction, OSPA).
    k = round_index = 0
    try:
        for k in range(1, sim.horizon + 1):
            round_index = 0
            # k is set before the draw, so a failed draw names its own step.
            frame, measurements = next(world)
            for i in range(sim.sensor_count):
                predicted = predict(posteriors[i], scenario.motion, scenario.birth, scenario.spawn)
                updated = update(
                    predicted,
                    scenario.sensors[i],
                    measurements.per_sensor[i],
                    joseph=config.phd.joseph_update,
                )
                filter_components += updated.size
                posteriors[i] = reduce_mixture(updated, config.phd)
            step_cost = np.zeros((sim.sensor_count, 3), dtype=np.int64)
            for round_index in range(1, config.rounds + 1):
                rngs = [
                    substream(config.master_seed, "consensus", run_index, k, round_index, i)
                    for i in range(sim.sensor_count)
                ]
                posteriors, transmissions = consensus_round(
                    posteriors,
                    scenario.weights,
                    policy,
                    rngs,
                    reduction=config.phd,
                    match_threshold=config.phd.merge_threshold,
                )
                for i, transmission in enumerate(transmissions):
                    if rule.budgeted and len(transmission) > config.bandwidth:
                        raise BudgetExceeded(
                            f"policy {config.algorithm} sent {len(transmission)} "
                            f"components against a budget of {config.bandwidth}"
                        )
                    cost = transmission_cost(transmission)
                    step_cost[i] += (cost.floats, cost.integers, cost.components)
                consensus_components += sum(mix.size for mix in posteriors)
                consensus_components += sum(len(t) for t in transmissions)
            round_index = 0
            truth_positions = frame.positions
            sensor_ospa: list[float] = []
            for i in range(sim.sensor_count):
                states = extract_targets(posteriors[i], config.phd)
                points = states if config.ospa_full_state else states[:, :2]
                reference = frame.states if config.ospa_full_state else truth_positions
                result = ospa(points, reference, config.ospa)
                sensor_ospa.append(result.distance)
                rows.append(
                    StepRow(
                        run=run_index,
                        timestep=k,
                        sensor=i,
                        ospa_m=result.distance,
                        card_est=posteriors[i].total_weight(),
                        extracted=len(states),
                        tx_floats=int(step_cost[i, 0]),
                        tx_ints=int(step_cost[i, 1]),
                        tx_components=int(step_cost[i, 2]),
                    )
                )
            total_cost += step_cost.sum(axis=0)
            network_values.append(float(np.mean(sensor_ospa)))
    except _NUMERICAL_FAILURES as exc:
        exc.run_location = f"k={k}, round={round_index}"
        raise
    return RunRecord(
        run=run_index,
        rows=tuple(rows),
        time_averaged_network_ospa=time_averaged_network_ospa(network_values),
        total_tx_floats=int(total_cost[0]),
        total_tx_ints=int(total_cost[1]),
        total_tx_components=int(total_cost[2]),
        filter_components=filter_components,
        consensus_components=consensus_components,
    )


def _guarded_run(scenario: Scenario, config: ExperimentConfig, run_index: int) -> RunRecord:
    try:
        return _single_run(scenario, config, run_index)
    except _NUMERICAL_FAILURES as exc:
        location = getattr(exc, "run_location", None)
        where = f" ({location})" if location else ""
        return RunRecord(run=run_index, error=f"{type(exc).__name__}: {exc}{where}")


def run_experiment(config: ExperimentConfig, scenario: Scenario | None = None) -> ExperimentResult:
    """Execute all Monte Carlo runs of a campaign.

    Per-run numerical failures are captured in the run's record (``error``)
    without aborting the campaign.  Runs execute in parallel when
    ``config.parallelism`` exceeds 1; results are ordered by run index either
    way.  A given ``scenario`` must have been built with ``config.phd``.
    """
    if scenario is None:
        scenario = build_scenario(config.scenario, config.phd)
    elif scenario.phd != config.phd:
        raise ValueError(f"scenario.phd {scenario.phd} differs from config.phd {config.phd}")
    indices = range(config.mc_runs)
    if config.parallelism > 1:
        with ProcessPoolExecutor(max_workers=config.parallelism) as pool:
            records = list(pool.map(_guarded_run, *zip(*[(scenario, config, i) for i in indices])))
    else:
        records = [_guarded_run(scenario, config, i) for i in indices]
    return ExperimentResult(config=config, records=tuple(records))


@dataclass(frozen=True)
class PairedComparison:
    """Paired-by-seed difference of time-averaged network OSPA (b minus a)."""

    label_a: str
    label_b: str
    mean_a: float
    mean_b: float
    mean_diff: float
    se_diff: float
    ci_low: float
    ci_high: float

    @property
    def ordered(self) -> bool:
        """True when b is no better than a on the paired mean."""
        return self.mean_diff >= 0.0

    @property
    def separated(self) -> bool:
        """True when b is worse than a by at least two paired standard errors."""
        return self.mean_diff >= 2.0 * self.se_diff


@dataclass(frozen=True)
class ComparisonResult:
    results: tuple[ExperimentResult, ...]
    pairs: tuple[PairedComparison, ...]


def _paired(a: ExperimentResult, b: ExperimentResult) -> PairedComparison:
    """Pair the two campaigns by run index over the runs both completed."""
    ospa_a = {r.run: r.time_averaged_network_ospa for r in a.successful}
    ospa_b = {r.run: r.time_averaged_network_ospa for r in b.successful}
    runs = sorted(ospa_a.keys() & ospa_b.keys())
    if not runs:
        nan = float("nan")
        return PairedComparison(a.config.label, b.config.label, nan, nan, nan, nan, nan, nan)
    series_a = np.array([ospa_a[run] for run in runs])
    series_b = np.array([ospa_b[run] for run in runs])
    diff = series_b - series_a
    mean_diff = float(diff.mean())
    # One pair has no spread to estimate: NaN, so ``separated`` is False.
    se = float(diff.std(ddof=1) / np.sqrt(diff.size)) if diff.size > 1 else float("nan")
    return PairedComparison(
        label_a=a.config.label,
        label_b=b.config.label,
        mean_a=float(series_a.mean()),
        mean_b=float(series_b.mean()),
        mean_diff=mean_diff,
        se_diff=se,
        ci_low=mean_diff - 2.0 * se,
        ci_high=mean_diff + 2.0 * se,
    )


# The settings in which campaigns paired by ``compare_algorithms`` may differ.
_PER_VARIANT_FIELDS = (
    "algorithm",
    "alpha",
    "bandwidth",
    "threshold",
    "draw_mode",
    "draws",
    "parallelism",
    "output_dir",
)


def compare_algorithms(
    configs: Sequence[ExperimentConfig],
    results: Sequence[ExperimentResult] | None = None,
) -> ComparisonResult:
    """Run (or accept) several campaigns sharing a scenario and seeds, and pair
    them in the canonical order of the algorithms' ``rank`` in
    ``phdfuse.policies.ALGORITHMS`` (full <= sampling <= partial <=
    no-consensus), more rounds first within one algorithm.

    Configs may differ only in ``_PER_VARIANT_FIELDS``.  Every other field,
    from the scenario and seed to the filter and metric settings, must be
    equal so the per-run series are paired.  Adjacent configs in the canonical
    order are compared by paired differences, over the run indices both
    campaigns completed, with +/- 2 SE confidence intervals.
    """
    if not configs:
        raise ValueError("compare_algorithms needs at least one config")
    reference = configs[0]
    shared = [f.name for f in fields(ExperimentConfig) if f.name not in _PER_VARIANT_FIELDS]
    for other in configs[1:]:
        differing = [name for name in shared if getattr(other, name) != getattr(reference, name)]
        if differing:
            raise ValueError(
                "compared configs must share every setting but the variant's own; "
                f"they differ in {', '.join(differing)}"
            )
    if results is None:
        scenario = build_scenario(reference.scenario, reference.phd)
        results = [run_experiment(config, scenario) for config in configs]
    elif len(results) != len(configs):
        raise ValueError("one result per config is required")
    ordered = sorted(
        results, key=lambda r: (ALGORITHMS[r.config.algorithm].rank, -r.config.alpha)
    )
    pairs = tuple(_paired(ordered[i], ordered[i + 1]) for i in range(len(ordered) - 1))
    return ComparisonResult(results=tuple(ordered), pairs=pairs)


def _write_csv(path: str | Path, header: Sequence[str], rows) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def write_rows_csv(result: ExperimentResult, path: str | Path) -> None:
    """Per-(run, timestep, sensor) rows for all successful runs."""
    rows = (astuple(row) for record in result.successful for row in record.rows)
    _write_csv(path, ROW_HEADER, rows)


# Each column of runs.csv once: its header and its value for a ``RunRecord``.
_RUN_COLUMNS = {
    "run": lambda r: r.run,
    "status": lambda r: "ok" if r.ok else "failed",
    "time_avg_network_ospa": lambda r: r.time_averaged_network_ospa,
    "total_tx_floats": lambda r: r.total_tx_floats,
    "total_tx_ints": lambda r: r.total_tx_ints,
    "total_tx_components": lambda r: r.total_tx_components,
    "filter_components": lambda r: r.filter_components,
    "consensus_components": lambda r: r.consensus_components,
    "error": lambda r: r.error or "",
}

# Each column of summary.csv once, for an ``ExperimentResult``.
_SUMMARY_COLUMNS = {
    "algorithm": lambda r: r.config.algorithm,
    "alpha": lambda r: r.config.alpha,
    "bandwidth": lambda r: r.config.bandwidth,
    "mc_runs": lambda r: r.config.mc_runs,
    "failed_runs": lambda r: len(r.failed_runs),
    "ospa_mean": lambda r: r.ospa_mean,
    "ospa_se": lambda r: r.ospa_se,
    "mean_total_tx_floats": lambda r: r.mean_tx_floats,
}


def write_runs_csv(result: ExperimentResult, path: str | Path) -> None:
    """Per-run summary: time-averaged OSPA, communication totals, op counts."""
    rows = ([value(r) for value in _RUN_COLUMNS.values()] for r in result.records)
    _write_csv(path, tuple(_RUN_COLUMNS), rows)


def write_summary_csv(results: Sequence[ExperimentResult], path: str | Path) -> None:
    """One line per campaign: mean and standard error of the per-run
    time-averaged network OSPA, plus mean communication cost."""
    rows = ([value(r) for value in _SUMMARY_COLUMNS.values()] for r in results)
    _write_csv(path, tuple(_SUMMARY_COLUMNS), rows)


def write_comparison_csv(comparison: ComparisonResult, path: str | Path) -> None:
    header = tuple(f.name for f in fields(PairedComparison)) + ("ordered", "separated")
    rows = (
        astuple(pair) + (int(pair.ordered), int(pair.separated)) for pair in comparison.pairs
    )
    _write_csv(path, header, rows)


def write_manifest(result: ExperimentResult, path: str | Path) -> None:
    """Machine-readable record of what produced the CSVs."""
    manifest = {
        "schema_version": CSV_SCHEMA_VERSION,
        "package_version": _package_version,
        "config": asdict(result.config),
        "master_seed": result.config.master_seed,
        "runs": {
            str(record.run): ("ok" if record.ok else record.error)
            for record in result.records
        },
    }
    with open(path, "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _scenario_config(overrides: dict) -> ScenarioConfig:
    """The paper scenario with a JSON ``scenario_overrides`` object applied."""
    overrides = dict(overrides)
    region = overrides.pop("region", None)
    if region is not None:
        overrides["region"] = Region(**region)
    targets = overrides.pop("targets", None)
    if targets is not None:
        overrides["targets"] = tuple(
            TargetSchedule(tuple(t["initial_state"]), t["start"], t["end"]) for t in targets
        )
    return replace(ScenarioConfig(), **overrides)


# ``ExperimentConfig`` fields that JSON gives as nested objects (``scenario``
# there names the preset, and ``scenario_overrides`` holds the fields).
_NESTED_FIELDS = ("scenario", "phd", "ospa")


def load_experiment_config(source: str | Path | dict, **overrides) -> ExperimentConfig:
    """Build an ``ExperimentConfig`` from a JSON file (or an equivalent dict).

    Every ``ExperimentConfig`` field is a key of the same name, except the
    nested ones: ``scenario`` names the preset (only "paper"),
    ``scenario_overrides`` holds ``ScenarioConfig`` fields, and ``phd`` and
    ``ospa`` hold ``PhdConfig`` and ``OspaConfig`` fields.  A missing key
    takes the field's default; ``algorithm`` defaults to "full" and ``alpha``
    to 0.  Other keys are ignored.  Keyword overrides replace file values
    (used by the CLI override flags).  A file that holds no JSON object, an
    unknown or missing nested key and a value of the wrong type raise
    ``ValueError``, as an out-of-range value does.
    """
    if isinstance(source, dict):
        payload = dict(source)
    else:
        with open(source) as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict):
            raise ValueError(f"invalid experiment config: {source} does not hold a JSON object")
    kwargs = {"algorithm": "full", "alpha": 0}
    kwargs.update(
        (f.name, payload[f.name])
        for f in fields(ExperimentConfig)
        if f.name in payload and f.name not in _NESTED_FIELDS
    )
    if "scenario" in payload:
        kwargs["scenario_name"] = payload["scenario"]
    try:
        kwargs["scenario"] = _scenario_config(payload.get("scenario_overrides", {}))
        kwargs["phd"] = PhdConfig(**payload.get("phd", {}))
        kwargs["ospa"] = OspaConfig(**payload.get("ospa", {}))
        return ExperimentConfig(**{**kwargs, **overrides})
    except (TypeError, KeyError) as exc:
        raise ValueError(f"invalid experiment config: {type(exc).__name__}: {exc}") from exc
