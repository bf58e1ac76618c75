"""Campaign-harness tests: determinism, pairing, CSV schemas, config loading."""

import csv
import hashlib
import json
from dataclasses import fields, replace
from typing import get_type_hints

import numpy as np
import pytest

import phdfuse.experiment as experiment
from phdfuse.experiment import (
    BudgetExceeded,
    CSV_SCHEMA_VERSION,
    ExperimentConfig,
    ExperimentResult,
    ROW_HEADER,
    RunRecord,
    StepRow,
    compare_algorithms,
    load_experiment_config,
    run_experiment,
    write_comparison_csv,
    write_manifest,
    write_rows_csv,
    write_runs_csv,
    write_summary_csv,
)
from phdfuse.gaussian import GaussianMixture, NumericalFailure
from phdfuse.metrics import OspaConfig, ospa
from phdfuse.phd import PhdConfig
from phdfuse.policies import (
    ALGORITHMS,
    FullPolicy,
    PolicyTag,
    RankPolicy,
    SampleWithReplacementPolicy,
    SampleWithoutReplacementPolicy,
    ThresholdPolicy,
)
from phdfuse.scenario import Region, ScenarioConfig, build_scenario
from conftest import random_mixture


def tiny_config(algorithm="full", alpha=1, horizon=4, mc_runs=1, **kwargs):
    return ExperimentConfig(
        algorithm=algorithm,
        alpha=alpha,
        mc_runs=mc_runs,
        scenario=ScenarioConfig(horizon=horizon),
        **kwargs,
    )


# A value of the wrong type for each scalar annotation.  A bool is never a
# number, and a float never an int.
WRONG_TYPE = {int: 2.5, float: True, bool: 1, str: 5, int | None: 2.5, str | None: 5}


def scalar_settings():
    """(JSON section, field, annotation) for each scalar setting a config file sets."""
    sections = (
        ("", ExperimentConfig),
        ("scenario_overrides", ScenarioConfig),
        ("phd", PhdConfig),
        ("ospa", OspaConfig),
    )
    for section, cls in sections:
        hints = get_type_hints(cls)
        for f in fields(cls):
            if hints[f.name] in WRONG_TYPE:
                yield pytest.param(section, f.name, hints[f.name], id=f"{section}.{f.name}".lstrip("."))


def synthetic_result(algorithm, alpha, values, master_seed=0):
    config = ExperimentConfig(
        algorithm=algorithm, alpha=alpha, mc_runs=len(values), master_seed=master_seed
    )
    records = tuple(
        RunRecord(run=i, time_averaged_network_ospa=v) for i, v in enumerate(values)
    )
    return ExperimentResult(config=config, records=records)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            ExperimentConfig(algorithm="bogus", alpha=1)
        with pytest.raises(ValueError, match="alpha"):
            ExperimentConfig(algorithm="full", alpha=-1)
        with pytest.raises(ValueError, match="bandwidth"):
            ExperimentConfig(algorithm="full", alpha=1, bandwidth=0)
        with pytest.raises(ValueError, match="threshold"):
            ExperimentConfig(algorithm="full", alpha=1, threshold=-0.1)
        with pytest.raises(ValueError, match="mc_runs"):
            ExperimentConfig(algorithm="full", alpha=1, mc_runs=0)
        with pytest.raises(ValueError, match="parallelism"):
            ExperimentConfig(algorithm="full", alpha=1, parallelism=0)
        with pytest.raises(ValueError, match="master_seed"):
            ExperimentConfig(algorithm="full", alpha=1, master_seed=-1)

    def test_invalid_sampling_settings_rejected(self):
        # Each would fail every run; the config rejects it up front.
        def sampler(**kwargs):
            return ExperimentConfig(algorithm="sample_replacement", alpha=1, **kwargs)

        with pytest.raises(ValueError, match="unknown draw_mode"):
            sampler(draw_mode="bogus")
        with pytest.raises(ValueError, match="draw count"):
            sampler(draws=0)
        # The default fixed draw count, 4*B, exceeds the budget B.
        with pytest.raises(ValueError, match=r"fixed_draws\(20\) can exceed the budget of 5"):
            sampler(draw_mode="fixed_draws")
        with pytest.raises(ValueError, match=r"fixed_draws\(6\)"):
            sampler(draw_mode="fixed_draws", draws=6)
        assert sampler(draw_mode="fixed_draws", draws=5).draws == 5
        # Algorithms that never read the draw settings reject them too, so a
        # manifest never records a bogus one.  Only sampling with replacement
        # draws, so only it is held to the fixed-draws budget.
        for algorithm in ("full", "sample_no_replacement", "no_consensus"):
            with pytest.raises(ValueError, match="unknown draw_mode"):
                ExperimentConfig(algorithm=algorithm, alpha=1, draw_mode="bogus")
            with pytest.raises(ValueError, match="draw count"):
                ExperimentConfig(algorithm=algorithm, alpha=1, draws=0)
            assert ExperimentConfig(algorithm=algorithm, alpha=1, draw_mode="fixed_draws")

    def test_nan_threshold_rejected(self):
        # A NaN threshold made partial_threshold send nothing, recorded as ok.
        with pytest.raises(ValueError, match="threshold"):
            ExperimentConfig(algorithm="partial_threshold", alpha=1, threshold=float("nan"))

    def test_label_and_rounds(self):
        config = ExperimentConfig(algorithm="partial_rank", alpha=3)
        assert config.label == "partial_rank_a3"
        assert config.rounds == 3
        silent = ExperimentConfig(algorithm="no_consensus", alpha=6)
        assert silent.rounds == 0

    def test_policy_mapping(self):
        def build(algorithm, **kwargs):
            config = ExperimentConfig(algorithm=algorithm, alpha=1, **kwargs)
            return ALGORITHMS[algorithm].build(config)

        assert build("no_consensus") is None
        assert isinstance(build("full"), FullPolicy)
        rank = build("partial_rank", bandwidth=3)
        assert isinstance(rank, RankPolicy) and rank.bandwidth == 3
        thresh = build("partial_threshold", threshold=0.2)
        assert isinstance(thresh, ThresholdPolicy) and thresh.tau == 0.2
        sampler = build("sample_replacement", bandwidth=4, draw_mode="fixed_draws", draws=4)
        assert isinstance(sampler, SampleWithReplacementPolicy)
        assert sampler.config.bandwidth == 4 and sampler.config.draws == 4
        adaptive = build("sample_no_replacement", bandwidth=4)
        assert isinstance(adaptive, SampleWithoutReplacementPolicy)
        assert adaptive.config.bandwidth == 4
        for name, rule in ALGORITHMS.items():
            policy = build(name)
            assert (policy.tag if policy is not None else None) is rule.tag

    def test_algorithm_list_is_closed(self):
        assert set(ALGORITHMS) == {
            "no_consensus",
            "full",
            "partial_rank",
            "partial_threshold",
            "sample_replacement",
            "sample_no_replacement",
        }


class TestAdaptivePolicy:
    """Sampling without replacement as campaigns build it."""

    def policy(self):
        config = ExperimentConfig(algorithm="sample_no_replacement", alpha=1, bandwidth=5)
        return ALGORITHMS[config.algorithm].build(config)

    def test_empty_mixture(self):
        tx = self.policy().select(GaussianMixture.empty(4), np.random.default_rng(0))
        assert len(tx) == 0 and tx.policy is PolicyTag.SAMPLE_NO_REPLACEMENT

    def test_small_mixture_sent_whole(self, rng):
        gm = random_mixture(rng, dim=2, min_components=3, max_components=3)
        tx = self.policy().select(gm, rng)
        assert len(tx) == 3
        np.testing.assert_array_equal(
            np.array([entry.weight for entry in tx]), gm.weights
        )

    def test_large_mixture_clamped_to_budget(self, rng):
        gm = random_mixture(rng, dim=2, min_components=8, max_components=8)
        assert len(self.policy().select(gm, rng)) == 5


class TestRunExperiment:
    def test_no_consensus_row_bookkeeping(self):
        config = tiny_config(algorithm="no_consensus", alpha=0, horizon=3, mc_runs=2)
        result = run_experiment(config)
        assert result.failed_runs == ()
        assert len(result.records) == 2
        for record in result.records:
            assert len(record.rows) == 3 * 6  # horizon x sensors
            assert all(row.tx_floats == 0 for row in record.rows)
            assert all(row.tx_ints == 0 for row in record.rows)
            assert all(row.card_est >= 0.0 for row in record.rows)
            assert np.isfinite(record.time_averaged_network_ospa)

    def test_identical_configs_are_byte_identical(self, tmp_path):
        config = tiny_config(
            algorithm="sample_replacement", alpha=1, horizon=5, mc_runs=2
        )
        paths = []
        for name in ("first.csv", "second.csv"):
            result = run_experiment(config)
            path = tmp_path / name
            write_rows_csv(result, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_zero_rounds_matches_no_consensus(self, tmp_path):
        # Any policy at alpha=0 never transmits, so its rows must be byte
        # identical to the no-consensus campaign under the same seed.
        base = tiny_config(algorithm="no_consensus", alpha=0, horizon=4, mc_runs=2)
        silent_full = tiny_config(algorithm="full", alpha=0, horizon=4, mc_runs=2)
        path_a = tmp_path / "none.csv"
        path_b = tmp_path / "full0.csv"
        result_a = run_experiment(base)
        result_b = run_experiment(silent_full)
        # Only run/timestep/sensor and metric columns matter; compare full
        # files after normalising the header (identical schema anyway).
        write_rows_csv(result_a, path_a)
        write_rows_csv(result_b, path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_full_state_ospa_scores_extracted_states_against_truth_states(self, monkeypatch):
        extracted, truths = [], []

        def recording(function, store):
            def wrapper(*args, **kwargs):
                store.append(function(*args, **kwargs))
                return store[-1]

            return wrapper

        monkeypatch.setattr(
            experiment, "extract_targets", recording(experiment.extract_targets, extracted)
        )
        monkeypatch.setattr(
            experiment, "simulate_truth", recording(experiment.simulate_truth, truths)
        )
        config = tiny_config(algorithm="full", alpha=1, horizon=4, ospa_full_state=True)
        (record,) = run_experiment(config).records
        assert record.ok and len(record.rows) == len(extracted) == 4 * 6
        for row, states in zip(record.rows, extracted):
            assert states.shape[1] == 4
            reference = truths[0].at(row.timestep).states
            assert row.ospa_m == ospa(states, reference, config.ospa).distance
        positions = run_experiment(replace(config, ospa_full_state=False)).records[0]
        assert [r.ospa_m for r in positions.rows] != [r.ospa_m for r in record.rows]

    def test_rank_transmissions_have_exact_budget_cost(self):
        # With >= bandwidth components at every sensor (ten birth components
        # guarantee it), each rank transmission is exactly B components and
        # B*(4 + 10 + 1) floats; per row that accumulates over alpha rounds.
        config = tiny_config(algorithm="partial_rank", alpha=2, horizon=4, bandwidth=5)
        result = run_experiment(config)
        assert result.failed_runs == ()
        for record in result.successful:
            for row in record.rows:
                assert row.tx_components == 5 * 2
                assert row.tx_floats == 75 * 2
                assert row.tx_ints == 0

    def test_sampling_transmissions_within_budget_cost(self):
        config = tiny_config(
            algorithm="sample_replacement", alpha=2, horizon=4, bandwidth=5
        )
        result = run_experiment(config)
        assert result.failed_runs == ()
        for record in result.successful:
            for row in record.rows:
                assert row.tx_components <= 5 * 2
                # Count-mode entries cost 14 floats each plus 1 shared weight.
                assert row.tx_floats <= 71 * 2
                assert row.tx_ints <= 5 * 2

    def test_parallel_execution_matches_serial(self, tmp_path):
        serial = tiny_config(algorithm="full", alpha=1, horizon=3, mc_runs=2)
        parallel = tiny_config(
            algorithm="full", alpha=1, horizon=3, mc_runs=2, parallelism=2
        )
        path_a = tmp_path / "serial.csv"
        path_b = tmp_path / "parallel.csv"
        write_rows_csv(run_experiment(serial), path_a)
        write_rows_csv(run_experiment(parallel), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_run_failures_are_isolated(self, monkeypatch):
        original = experiment._single_run

        def flaky(scenario, config, run_index):
            if run_index == 1:
                raise NumericalFailure("synthetic numerical failure")
            return original(scenario, config, run_index)

        monkeypatch.setattr(experiment, "_single_run", flaky)
        config = tiny_config(algorithm="no_consensus", alpha=0, horizon=2, mc_runs=3)
        result = run_experiment(config)
        assert result.failed_runs == (1,)
        assert result.records[1].error == "NumericalFailure: synthetic numerical failure"
        assert len(result.successful) == 2
        assert np.isfinite(result.ospa_mean)

    def test_failed_run_names_its_timestep_and_round(self, monkeypatch):
        original = experiment.consensus_round
        calls = []

        def failing_at_k3_round2(*args, **kwargs):
            calls.append(None)
            k, round_index = divmod(len(calls) - 1, 2)  # alpha = 2 rounds per step
            if (k + 1, round_index + 1) == (3, 2):
                raise np.linalg.LinAlgError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "consensus_round", failing_at_k3_round2)
        result = run_experiment(tiny_config(algorithm="full", alpha=2, horizon=4))
        assert result.records[0].error == "LinAlgError: synthetic failure (k=3, round=2)"

    def test_filter_step_failure_is_round_zero(self, monkeypatch):
        original = experiment.update
        calls = []

        def failing_at_k2(*args, **kwargs):
            calls.append(None)
            if len(calls) == 6 + 1:  # the first sensor's update at k = 2
                raise NumericalFailure("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "update", failing_at_k2)
        result = run_experiment(tiny_config(algorithm="full", alpha=2, horizon=3))
        assert result.records[0].error == "NumericalFailure: synthetic failure (k=2, round=0)"

    def test_programming_error_propagates_out_of_the_campaign(self, monkeypatch):
        # A plain ValueError is a bug, not a numerical failure of the run.
        original = experiment.update
        calls = []

        def buggy_at_k2(*args, **kwargs):
            calls.append(None)
            if len(calls) == 6 + 1:
                raise ValueError("shape bug")
            return original(*args, **kwargs)

        monkeypatch.setattr(experiment, "update", buggy_at_k2)
        with pytest.raises(ValueError, match="shape bug") as caught:
            run_experiment(tiny_config(algorithm="full", alpha=2, horizon=3))
        assert type(caught.value) is ValueError

    def test_non_positive_definite_covariance_is_a_failed_run(self, monkeypatch):
        original = experiment.update
        calls = []

        def indefinite_at_k2(predicted, *args, **kwargs):
            calls.append(None)
            if len(calls) == 6 + 1:
                dim = predicted.dimension
                return GaussianMixture([1.0], np.zeros((1, dim)), -np.eye(dim)[np.newaxis])
            return original(predicted, *args, **kwargs)

        monkeypatch.setattr(experiment, "update", indefinite_at_k2)
        result = run_experiment(tiny_config(algorithm="full", alpha=2, horizon=3, mc_runs=2))
        assert result.failed_runs == (0,)
        assert result.records[0].error == (
            "NumericalFailure: every covariance must be positive definite (k=2, round=0)"
        )
        assert result.records[1].ok

    def test_measurement_draw_failure_names_its_own_timestep(self, monkeypatch):
        original = experiment.generate_measurements

        def failing_at_k2(frame, *args, **kwargs):
            if frame.timestep == 2:
                raise NumericalFailure("synthetic failure")
            return original(frame, *args, **kwargs)

        monkeypatch.setattr(experiment, "generate_measurements", failing_at_k2)
        result = run_experiment(tiny_config(algorithm="full", alpha=2, horizon=3))
        assert result.records[0].error.endswith("(k=2, round=0)")

    def test_scenario_built_with_other_filter_settings_rejected(self):
        config = tiny_config(algorithm="full", alpha=1, horizon=2)
        scenario = build_scenario(config.scenario, PhdConfig(merge_threshold=4.0))
        with pytest.raises(ValueError, match=r"scenario\.phd .* differs from config\.phd"):
            run_experiment(config, scenario)
        same = build_scenario(config.scenario, config.phd)
        assert run_experiment(config, same).records[0].ok

    def test_sampling_without_replacement_completes_where_the_replay_aborted(self):
        # Run 1 of this campaign used to abort at k = 11, round 3, when the
        # Monte Carlo inclusion estimate gave pi = 0 for a selected component
        # of a 34-component mixture whose smallest weight is 1e-5.
        config = tiny_config(
            algorithm="sample_no_replacement", alpha=3, horizon=11, mc_runs=2, master_seed=0
        )
        record = run_experiment(config).records[1]
        assert record.ok, record.error
        assert len(record.rows) == 11 * 6

    def test_budget_overrun_aborts_the_campaign(self, monkeypatch):
        class Overrun:
            tag = PolicyTag.RANK

            def select(self, gm, rng=None):
                return FullPolicy().select(gm)

        rule = replace(ALGORITHMS["partial_rank"], build=lambda settings: Overrun())
        monkeypatch.setitem(ALGORITHMS, "partial_rank", rule)
        config = tiny_config(algorithm="partial_rank", alpha=1, horizon=2, bandwidth=1)
        with pytest.raises(BudgetExceeded, match="against a budget of 1"):
            run_experiment(config)

    # SHA-256 of repr(result.records) for 2 runs, alpha=2, a 15-step horizon
    # and master seed 3.  Any change to a campaign's numbers changes these;
    # update them only for a change that is meant to move results.  A
    # different numpy or BLAS build may also move the last bits.
    GOLDEN = {
        "no_consensus": "516c036c7fca364830b636045cff9c77d8b2705d062d9ced6c6cee96a83f7f7d",
        "full": "5cc5a100bb62dec266bf3bb13b7b1d35695130df5f30f234d13f1743273a5d44",
        "partial_rank": "e6f592dbd77c6aa9cf9653f3060422743eb651ecb9dc0b214de9696065d460a6",
        "partial_threshold": "cb748430f5f7dc0c5402aedeb2c362b88345a53198c31f3ea03bc34d618b1665",
        "sample_replacement": "78c6213417f58d6a03c5939b0d57aedc1f1e33d255f2a7854d98556ebbce0c1a",
        "sample_no_replacement": "12255473386c830b9da7ebc2237a5359905aec92ab64da77b98b1e95f34c398d",
    }

    @pytest.mark.parametrize("algorithm", sorted(GOLDEN))
    def test_golden_digest(self, algorithm):
        config = tiny_config(algorithm=algorithm, alpha=2, horizon=15, mc_runs=2, master_seed=3)
        records = run_experiment(config).records
        digest = hashlib.sha256(repr(records).encode()).hexdigest()
        assert digest == self.GOLDEN[algorithm]


class TestResultStatistics:
    def test_run_series_and_moments(self):
        result = synthetic_result("full", 3, [2.0, 4.0, 6.0])
        np.testing.assert_array_equal(result.run_ospa, [2.0, 4.0, 6.0])
        assert result.ospa_mean == 4.0
        assert result.ospa_se == pytest.approx(2.0 / np.sqrt(3.0), rel=1e-12)

    def test_failed_runs_excluded(self):
        config = ExperimentConfig(algorithm="full", alpha=1, mc_runs=3)
        records = (
            RunRecord(run=0, time_averaged_network_ospa=2.0, total_tx_floats=10),
            RunRecord(run=1, error="ValueError: boom"),
            RunRecord(run=2, time_averaged_network_ospa=4.0, total_tx_floats=30),
        )
        result = ExperimentResult(config=config, records=records)
        assert result.failed_runs == (1,)
        np.testing.assert_array_equal(result.run_ospa, [2.0, 4.0])
        assert result.mean_tx_floats == 20.0

    def test_degenerate_statistics(self):
        single = synthetic_result("full", 1, [3.0])
        assert np.isnan(single.ospa_se)
        config = ExperimentConfig(algorithm="full", alpha=1, mc_runs=1)
        empty = ExperimentResult(
            config=config, records=(RunRecord(run=0, error="ValueError: x"),)
        )
        assert np.isnan(empty.ospa_mean) and np.isnan(empty.mean_tx_floats)


class TestCompareAlgorithms:
    def test_paired_statistics_hand_checked(self):
        a = synthetic_result("full", 6, [1.0, 2.0, 3.0])
        b = synthetic_result("no_consensus", 0, [2.0, 4.0, 3.0])
        comparison = compare_algorithms(
            [a.config, b.config], results=[a, b]
        )
        assert len(comparison.pairs) == 1
        pair = comparison.pairs[0]
        assert pair.label_a == "full_a6" and pair.label_b == "no_consensus_a0"
        assert pair.mean_a == 2.0 and pair.mean_b == 3.0
        assert pair.mean_diff == 1.0
        assert pair.se_diff == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)
        assert pair.ci_low == pytest.approx(1.0 - 2.0 / np.sqrt(3.0), rel=1e-12)
        assert pair.ci_high == pytest.approx(1.0 + 2.0 / np.sqrt(3.0), rel=1e-12)
        assert pair.ordered and not pair.separated

    def test_canonical_ordering(self):
        results = [
            synthetic_result("partial_rank", 6, [3.0, 3.0]),
            synthetic_result("no_consensus", 0, [4.0, 4.0]),
            synthetic_result("full", 6, [1.0, 1.0]),
            synthetic_result("sample_replacement", 6, [2.0, 2.0]),
        ]
        comparison = compare_algorithms(
            [r.config for r in results], results=results
        )
        labels = [r.config.label for r in comparison.results]
        assert labels == [
            "full_a6",
            "sample_replacement_a6",
            "partial_rank_a6",
            "no_consensus_a0",
        ]
        assert [p.label_b for p in comparison.pairs] == [
            "sample_replacement_a6",
            "partial_rank_a6",
            "no_consensus_a0",
        ]

    def test_alpha_orders_within_algorithm(self):
        results = [
            synthetic_result("full", 1, [2.0, 2.0]),
            synthetic_result("full", 3, [1.0, 1.0]),
        ]
        comparison = compare_algorithms([r.config for r in results], results=results)
        assert [r.config.alpha for r in comparison.results] == [3, 1]

    def test_mismatched_configs_rejected(self):
        a = synthetic_result("full", 6, [1.0, 2.0])
        b = synthetic_result("no_consensus", 0, [2.0, 3.0], master_seed=9)
        with pytest.raises(ValueError, match="must share"):
            compare_algorithms([a.config, b.config], results=[a, b])
        # Position OSPA paired against full-state OSPA.
        full_state = replace(a.config, algorithm="no_consensus", alpha=0, ospa_full_state=True)
        with pytest.raises(ValueError, match="differ in ospa_full_state"):
            compare_algorithms([a.config, full_state])

    def test_pairs_by_run_index_over_runs_both_completed(self):
        def result(algorithm, alpha, values):
            config = ExperimentConfig(algorithm=algorithm, alpha=alpha, mc_runs=len(values))
            records = tuple(
                RunRecord(run=i, error="ArithmeticError: x")
                if v is None
                else RunRecord(run=i, time_averaged_network_ospa=v)
                for i, v in enumerate(values)
            )
            return ExperimentResult(config=config, records=records)

        a = result("full", 6, [1.0, None, 2.0, 9.0, 3.0])
        b = result("no_consensus", 0, [2.0, 5.0, 4.0, None, 3.0])
        pair = compare_algorithms([a.config, b.config], results=[a, b]).pairs[0]
        # Runs 0, 2 and 4: differences 1, 2 and 0.
        assert pair.mean_a == 2.0 and pair.mean_b == 3.0
        assert pair.mean_diff == 1.0
        assert pair.se_diff == pytest.approx(1.0 / np.sqrt(3.0), rel=1e-12)
        lost = result("no_consensus", 0, [None, None, None, None, None])
        empty = compare_algorithms([a.config, lost.config], results=[a, lost]).pairs[0]
        assert np.isnan(empty.mean_diff) and np.isnan(empty.se_diff)

    def test_result_count_must_match(self):
        a = synthetic_result("full", 6, [1.0])
        with pytest.raises(ValueError, match="one result per config"):
            compare_algorithms([a.config], results=[a, a])
        with pytest.raises(ValueError, match="at least one config"):
            compare_algorithms([])


class TestCsvOutputs:
    def run_small(self):
        config = tiny_config(algorithm="no_consensus", alpha=0, horizon=2, mc_runs=2)
        return run_experiment(config)

    def test_rows_schema_and_float_round_trip(self, tmp_path):
        result = self.run_small()
        path = tmp_path / "rows.csv"
        write_rows_csv(result, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert tuple(rows[0]) == ROW_HEADER
        assert len(rows) == 1 + 2 * 2 * 6
        first_row = result.records[0].rows[0]
        assert float(rows[1][3]) == first_row.ospa_m
        assert float(rows[1][4]) == first_row.card_est
        assert int(rows[1][0]) == 0 and int(rows[1][1]) == 1 and int(rows[1][2]) == 0

    def test_runs_csv_includes_failures(self, tmp_path):
        config = ExperimentConfig(algorithm="full", alpha=1, mc_runs=2)
        records = (
            RunRecord(run=0, time_averaged_network_ospa=2.5, total_tx_floats=7),
            RunRecord(run=1, error="ValueError: boom"),
        )
        path = tmp_path / "runs.csv"
        write_runs_csv(ExperimentResult(config=config, records=records), path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "run" and rows[0][1] == "status"
        assert rows[1][1] == "ok" and float(rows[1][2]) == 2.5
        assert rows[2][1] == "failed" and rows[2][8] == "ValueError: boom"

    def test_summary_csv(self, tmp_path):
        result = synthetic_result("full", 3, [2.0, 4.0])
        path = tmp_path / "summary.csv"
        write_summary_csv([result], path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][:2] == ["algorithm", "alpha"]
        assert rows[1][0] == "full" and int(rows[1][1]) == 3
        assert float(rows[1][5]) == 3.0

    def test_comparison_csv(self, tmp_path):
        a = synthetic_result("full", 6, [1.0, 2.0, 3.0])
        b = synthetic_result("no_consensus", 0, [2.0, 4.0, 3.0])
        comparison = compare_algorithms([a.config, b.config], results=[a, b])
        path = tmp_path / "comparison.csv"
        write_comparison_csv(comparison, path)
        with open(path, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0][-2:] == ["ordered", "separated"]
        assert rows[1][0] == "full_a6"
        assert rows[1][-2:] == ["1", "0"]

    def test_manifest_contents(self, tmp_path):
        result = self.run_small()
        path = tmp_path / "manifest.json"
        write_manifest(result, path)
        manifest = json.loads(path.read_text())
        assert manifest["schema_version"] == CSV_SCHEMA_VERSION
        assert manifest["config"]["algorithm"] == "no_consensus"
        assert manifest["config"]["scenario"]["horizon"] == 2
        assert manifest["master_seed"] == 0
        assert manifest["runs"] == {"0": "ok", "1": "ok"}


class TestLoadConfig:
    def test_defaults(self):
        config = load_experiment_config({})
        assert config.algorithm == "full" and config.alpha == 0
        assert config.bandwidth == 5 and config.mc_runs == 25
        assert config.scenario_name == "paper"
        assert config.scenario == ScenarioConfig()

    def test_file_round_trip(self, tmp_path):
        payload = {
            "algorithm": "partial_rank",
            "alpha": 3,
            "bandwidth": 4,
            "mc_runs": 7,
            "master_seed": 11,
            "ospa": {"order": 2.0, "cutoff": 50.0},
            "phd": {"max_components": 30},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        config = load_experiment_config(path)
        assert config.algorithm == "partial_rank" and config.alpha == 3
        assert config.bandwidth == 4 and config.mc_runs == 7
        assert config.master_seed == 11
        assert config.ospa.order == 2.0 and config.ospa.cutoff == 50.0
        assert config.phd.max_components == 30

    # A non-default value for each field that JSON gives as a flat key.
    # ``scenario_name`` has one valid value, its default, so
    # ``test_unknown_scenario_rejected`` loads it instead.
    FLAT_VALUES = {
        "algorithm": "sample_replacement",
        "alpha": 4,
        "bandwidth": 7,
        "threshold": 0.25,
        "draw_mode": "fixed_draws",
        "draws": 6,
        "mc_runs": 3,
        "master_seed": 12,
        "parallelism": 2,
        "output_dir": "campaign-out",
        "ospa_full_state": True,
    }

    @pytest.mark.parametrize(
        "name",
        [
            f.name
            for f in fields(ExperimentConfig)
            if f.name not in ("scenario", "scenario_name", "phd", "ospa")
        ],
    )
    def test_every_flat_field_loads_from_its_key(self, name):
        value = self.FLAT_VALUES[name]
        assert getattr(load_experiment_config({}), name) != value
        assert getattr(load_experiment_config({name: value}), name) == value

    def test_keyword_overrides_win(self):
        config = load_experiment_config({"algorithm": "full", "alpha": 1}, alpha=6)
        assert config.alpha == 6

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario preset"):
            load_experiment_config({"scenario": "bogus"})
        with pytest.raises(ValueError, match="unknown scenario preset"):
            load_experiment_config({"scenario_name": "bogus"})
        with pytest.raises(ValueError, match="unknown scenario preset"):
            ExperimentConfig(algorithm="full", alpha=0, scenario_name="bogus")

    def test_scenario_overrides(self):
        config = load_experiment_config(
            {
                "scenario_overrides": {
                    "horizon": 10,
                    "detection_probability": 0.9,
                    "region": {
                        "x_min": -100.0,
                        "x_max": 100.0,
                        "y_min": -100.0,
                        "y_max": 100.0,
                    },
                    "targets": [
                        {"initial_state": [0.0, 0.0, 1.0, 0.0], "start": 1, "end": 5}
                    ],
                }
            }
        )
        assert config.scenario.horizon == 10
        assert config.scenario.detection_probability == 0.9
        assert config.scenario.region == Region(-100.0, 100.0, -100.0, 100.0)
        assert len(config.scenario.targets) == 1
        assert config.scenario.targets[0].end == 5

    def test_unknown_keys_are_ignored(self):
        # So a file written for an older version, with a retired key, loads.
        config = load_experiment_config({"algorithm": "sample_no_replacement", "retired": 1})
        assert config == load_experiment_config({"algorithm": "sample_no_replacement"})

    def test_invalid_field_values_propagate(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            load_experiment_config({"algorithm": "bogus"})
        with pytest.raises(ValueError, match="invalid experiment config"):
            load_experiment_config({"phd": {"bogus_field": 1}})

    @pytest.mark.parametrize("section, name, kind", list(scalar_settings()))
    def test_wrong_typed_setting_is_a_value_error(self, section, name, kind):
        # A float count used to crash a run, and a bool alpha to run as 1.
        nest = (lambda value: {section: {name: value}}) if section else (lambda value: {name: value})
        with pytest.raises(ValueError, match=f"TypeError: .*{name} must be"):
            load_experiment_config(nest(WRONG_TYPE[kind]))
        # A numpy integer is an int, and an int is a float.
        good = {int: np.int64(3), int | None: np.int64(3), float: 1}.get(kind)
        if good is not None:
            load_experiment_config(nest(good))

    @pytest.mark.parametrize(
        "payload",
        [
            {"ospa": {"bogus": 1}},
            {"scenario_overrides": {"bogus": 1}},
            {"scenario_overrides": {"region": {"bogus": 1}}},
            {"scenario_overrides": {"targets": [{"start": 1, "end": 5}]}},
            {"alpha": "3"},
        ],
    )
    def test_malformed_config_is_a_value_error(self, payload):
        with pytest.raises(ValueError, match="invalid experiment config"):
            load_experiment_config(payload)
