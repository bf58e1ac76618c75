"""World-simulation tests: schedules, truth propagation, measurement synthesis."""

import io

import numpy as np
import pytest

from phdfuse.consensus import validate_weights
from phdfuse.scenario import (
    GroundTruth,
    GroundTruthFrame,
    MeasurementFrame,
    Region,
    ScenarioConfig,
    TargetSchedule,
    UniformClutterIntensity,
    UniformInRegion,
    build_scenario,
    default_network,
    default_targets,
    generate_measurements,
    process_noise,
    simulate_truth,
    step_ground_truth,
    transition_matrix,
    write_measurements,
    write_truth,
)

# Frozen expected number of alive targets per timestep, derived by hand from
# the default schedule (count of targets with start <= k <= end).
EXPECTED_CARDINALITY = (
    [6] * 9 + [7] * 6 + [8] * 4 + [8] * 3 + [9] * 12 + [8] * 3 + [7] * 3
)

# Frozen largest singular value of (omega - 1 w^T) for the default consensus
# matrix with uniform fusion weights.
DEFAULT_SIGMA = 0.8556827218992892

DEFAULT_OMEGA = np.array(
    [
        [0.8, 0.2, 0.0, 0.0, 0.0, 0.0],
        [0.2, 0.4, 0.2, 0.2, 0.0, 0.0],
        [0.0, 0.2, 0.6, 0.0, 0.0, 0.2],
        [0.0, 0.2, 0.0, 0.4, 0.2, 0.2],
        [0.0, 0.0, 0.0, 0.2, 0.6, 0.2],
        [0.0, 0.0, 0.2, 0.2, 0.2, 0.4],
    ]
)


class TestRegion:
    def test_validation_and_area(self):
        with pytest.raises(ValueError, match="positive extent"):
            Region(x_min=1.0, x_max=1.0)
        region = Region()
        assert region.area == 400.0 * 400.0

    def test_contains_is_boundary_inclusive(self):
        region = Region()
        points = np.array(
            [[-200.0, 200.0], [0.0, 0.0], [200.0001, 0.0], [0.0, -200.0001]]
        )
        np.testing.assert_array_equal(
            region.contains(points), [True, True, False, False]
        )

    def test_sample_uniform_inside(self):
        region = Region(x_min=0, x_max=1, y_min=10, y_max=11)
        pts = region.sample_uniform(np.random.default_rng(0), 500)
        assert pts.shape == (500, 2)
        assert np.all(region.contains(pts))

    def test_state_dependent_functions(self):
        region = Region()
        p_d = UniformInRegion(region, 0.98)
        states = np.array([[0.0, 0.0, 1.0, 1.0], [500.0, 0.0, 1.0, 1.0]])
        np.testing.assert_array_equal(p_d(states), [0.98, 0.0])
        kappa = UniformClutterIntensity(region, 3.125e-5)
        np.testing.assert_array_equal(
            kappa(np.array([[0.0, 0.0], [500.0, 0.0]])), [3.125e-5, 0.0]
        )


class TestKinematics:
    def test_transition_matrix_hand_value(self):
        F = transition_matrix(1.0)
        expected = np.array(
            [
                [1.0, 0.0, 1.0, 0.0],
                [0.0, 1.0, 0.0, 1.0],
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        np.testing.assert_array_equal(F, expected)

    def test_process_noise_hand_value(self):
        Q = process_noise(1.0, 9.0)
        eye = np.eye(2)
        expected = np.block([[2.25 * eye, 4.5 * eye], [4.5 * eye, 9.0 * eye]])
        np.testing.assert_array_equal(Q, expected)
        # Positive semidefinite by construction.
        assert np.linalg.eigvalsh(Q).min() >= -1e-12


class TestSchedule:
    def test_schedule_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            TargetSchedule((0.0, 0.0, 0.0, 0.0), start=0, end=5)
        with pytest.raises(ValueError, match="precede"):
            TargetSchedule((0.0, 0.0, 0.0, 0.0), start=5, end=4)

    def test_default_schedule_shape(self):
        targets = default_targets()
        assert len(targets) == 10
        assert all(1 <= t.start <= t.end <= 40 for t in targets)

    def test_cardinality_timeline_matches_schedule(self):
        truth = simulate_truth(ScenarioConfig())
        assert truth.horizon == 40
        observed = [truth.at(k).cardinality for k in range(1, 41)]
        assert observed == EXPECTED_CARDINALITY

    def test_ids_are_one_based_schedule_indices(self):
        # Frames list survivors first and newcomers last, so compare the id
        # sets; ids are the 1-based schedule positions.
        truth = simulate_truth(ScenarioConfig())
        targets = default_targets()
        for k in range(1, 41):
            frame = truth.at(k)
            expected_ids = {
                index + 1
                for index, t in enumerate(targets)
                if t.start <= k <= t.end
            }
            assert len(frame.ids) == len(set(frame.ids))
            assert set(frame.ids) == expected_ids


class TestGroundTruth:
    def test_noiseless_truth_is_deterministic_and_nominal(self):
        config = ScenarioConfig()
        first = simulate_truth(config)
        second = simulate_truth(config)
        F = transition_matrix(config.step_time)
        for a, b in zip(first.frames, second.frames):
            np.testing.assert_array_equal(a.states, b.states)
        # Target 2 (enters at k=1) follows the constant-velocity track exactly.
        state = np.array(default_targets()[1].initial_state)
        for k in range(1, 41):
            frame = first.at(k)
            position = frame.states[frame.ids.index(2)]
            np.testing.assert_allclose(position, state, rtol=0, atol=1e-9)
            state = F @ state

    def test_nominal_tracks_stay_inside_region(self):
        config = ScenarioConfig()
        truth = simulate_truth(config)
        for frame in truth.frames:
            assert np.all(config.region.contains(frame.states))

    def test_concurrent_targets_keep_separation(self):
        truth = simulate_truth(ScenarioConfig())
        floor = np.inf
        for frame in truth.frames:
            positions = frame.positions
            for i in range(len(positions)):
                for j in range(i + 1, len(positions)):
                    floor = min(floor, float(np.linalg.norm(positions[i] - positions[j])))
        assert floor >= 8.0

    def test_insertion_and_removal_boundaries(self):
        config = ScenarioConfig()
        truth = simulate_truth(config)
        # Target 7 enters at k=10, target 6 leaves after k=19.
        assert 7 not in truth.at(9).ids and 7 in truth.at(10).ids
        assert 6 in truth.at(19).ids and 6 not in truth.at(20).ids

    def test_out_of_region_target_dropped(self):
        config = ScenarioConfig(
            targets=(TargetSchedule((195.0, 0.0, 9.0, 0.0), start=1, end=10),),
            horizon=5,
        )
        truth = simulate_truth(config)
        assert truth.at(1).cardinality == 1
        # At k=2 the nominal position is 204 m, outside the 200 m region.
        assert truth.at(2).cardinality == 0

    def test_process_noise_requires_rng(self):
        config = ScenarioConfig(truth_process_noise=True)
        with pytest.raises(ValueError, match="random generator"):
            simulate_truth(config)

    def test_noisy_truth_reproducible_and_distinct(self):
        config = ScenarioConfig(truth_process_noise=True, horizon=10)
        first = simulate_truth(config, np.random.default_rng(3))
        second = simulate_truth(config, np.random.default_rng(3))
        nominal = simulate_truth(ScenarioConfig(horizon=10))
        for a, b in zip(first.frames, second.frames):
            np.testing.assert_array_equal(a.states, b.states)
        assert not np.allclose(first.at(5).states, nominal.at(5).states)

    def test_frame_accessor_checks_contiguity(self):
        frame = GroundTruthFrame(timestep=2, ids=(), states=np.empty((0, 4)))
        truth = GroundTruth(frames=(frame,))
        with pytest.raises(ValueError, match="contiguous"):
            truth.at(1)


class TestMeasurements:
    def test_reproducible(self):
        scenario = build_scenario()
        truth = simulate_truth(scenario.config)
        rng = np.random.default_rng(11)
        first = [
            generate_measurements(frame, scenario.sensors, scenario.config, rng)
            for frame in truth.frames
        ]
        rng = np.random.default_rng(11)
        second = [
            generate_measurements(frame, scenario.sensors, scenario.config, rng)
            for frame in truth.frames
        ]
        for fa, fb in zip(first, second):
            for sa, sb in zip(fa.per_sensor, fb.per_sensor):
                np.testing.assert_array_equal(sa, sb)

    def test_perfect_detection_no_clutter(self):
        config = ScenarioConfig(detection_probability=1.0, clutter_density=0.0)
        scenario = build_scenario(config)
        truth = simulate_truth(config)
        rng = np.random.default_rng(5)
        frames = [
            generate_measurements(frame, scenario.sensors, config, rng)
            for frame in truth.frames
        ]
        for frame, truth_frame in zip(frames, truth.frames):
            for block in frame.per_sensor:
                assert block.shape == (truth_frame.cardinality, 2)
                # Detections appear in target order with 5 m-std noise.
                residuals = block - truth_frame.positions
                assert np.all(np.abs(residuals) < 30.0)

    def test_measurement_noise_variance(self):
        config = ScenarioConfig(detection_probability=1.0, clutter_density=0.0)
        scenario = build_scenario(config)
        truth = simulate_truth(config)
        rng = np.random.default_rng(17)
        frames = [
            generate_measurements(frame, scenario.sensors, config, rng)
            for frame in truth.frames
        ]
        residuals = []
        for frame, truth_frame in zip(frames, truth.frames):
            for block in frame.per_sensor:
                residuals.append(block - truth_frame.positions)
        flat = np.concatenate(residuals).ravel()
        # Var 25, SE of the sample variance ~ 25*sqrt(2/n).
        tolerance = 4.0 * 25.0 * np.sqrt(2.0 / flat.size)
        assert abs(flat.var() - 25.0) < tolerance
        assert abs(flat.mean()) < 4.0 * 5.0 / np.sqrt(flat.size)

    def test_clutter_count_moments(self):
        config = ScenarioConfig(detection_probability=0.0)
        scenario = build_scenario(config)
        empty = GroundTruthFrame(timestep=1, ids=(), states=np.empty((0, 4)))
        rng = np.random.default_rng(23)
        counts = []
        for _ in range(2000):
            frame = generate_measurements(empty, scenario.sensors[:1], config, rng)
            counts.append(frame.per_sensor[0].shape[0])
        counts = np.asarray(counts, dtype=float)
        assert abs(counts.mean() - 5.0) < 4.0 * np.sqrt(5.0 / counts.size)
        assert abs(counts.var() - 5.0) < 1.0

    def test_clutter_points_uniform_in_region(self):
        config = ScenarioConfig(detection_probability=0.0)
        scenario = build_scenario(config)
        empty = GroundTruthFrame(timestep=1, ids=(), states=np.empty((0, 4)))
        rng = np.random.default_rng(29)
        points = []
        for _ in range(500):
            frame = generate_measurements(empty, scenario.sensors[:1], config, rng)
            points.append(frame.per_sensor[0])
        pts = np.concatenate(points)
        assert np.all(config.region.contains(pts))
        # Mean of U(-200, 200) per axis with SE 400/sqrt(12 n).
        assert np.max(np.abs(pts.mean(axis=0))) < 4.0 * 400.0 / np.sqrt(12 * len(pts))


class TestBuildScenario:
    def test_sensor_and_filter_wiring(self):
        scenario = build_scenario()
        sensor = scenario.sensors[0]
        np.testing.assert_array_equal(
            sensor.H, [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]
        )
        np.testing.assert_array_equal(sensor.R, 25.0 * np.eye(2))
        assert len(scenario.sensors) == 6
        assert scenario.config.clutter_rate == pytest.approx(5.0, rel=1e-12)
        np.testing.assert_array_equal(
            scenario.motion.F, transition_matrix(1.0)
        )
        np.testing.assert_array_equal(scenario.motion.Q, process_noise(1.0, 9.0))

    def test_birth_intensity_covers_entry_points(self):
        scenario = build_scenario()
        birth = scenario.birth.intensity
        targets = default_targets()
        assert birth.size == 10
        np.testing.assert_array_equal(birth.weights, np.full(10, 0.2))
        for component_mean, schedule in zip(birth.means, targets):
            np.testing.assert_array_equal(
                component_mean,
                [schedule.initial_state[0], schedule.initial_state[1], 0.0, 0.0],
            )
        np.testing.assert_array_equal(
            birth.covariances[0], np.diag([100.0, 100.0, 25.0, 25.0])
        )

    def test_spawn_term(self):
        scenario = build_scenario()
        assert len(scenario.spawn.terms) == 1
        term = scenario.spawn.terms[0]
        assert term.weight == 0.1
        np.testing.assert_array_equal(term.F, np.eye(4))
        np.testing.assert_array_equal(term.offset, np.zeros(4))
        np.testing.assert_array_equal(term.Q, np.diag([100.0, 100.0, 400.0, 400.0]))

    def test_consensus_matrix_frozen_values(self):
        scenario = build_scenario()
        np.testing.assert_array_equal(scenario.weights.omega, DEFAULT_OMEGA)
        np.testing.assert_allclose(
            scenario.weights.fusion_weights, np.full(6, 1.0 / 6.0), rtol=1e-15
        )
        report = validate_weights(scenario.weights, network=scenario.network)
        assert report.ok
        assert report.sigma == pytest.approx(DEFAULT_SIGMA, abs=1e-12)

    def test_network_topology(self):
        net = default_network()
        assert net.vertex_count == 6 and net.is_bidirectional
        assert net.in_neighbors(1) == (0, 2, 3)
        assert net.in_neighbors(0) == (1,)
        with pytest.raises(ValueError, match="6 sensors"):
            default_network(5)

    def test_non_default_sensor_count_rejected(self):
        with pytest.raises(ValueError, match="6-sensor"):
            build_scenario(ScenarioConfig(sensor_count=4))

    def test_config_validation(self):
        with pytest.raises(ValueError, match="horizon"):
            ScenarioConfig(horizon=0)
        with pytest.raises(ValueError, match="detection_probability"):
            ScenarioConfig(detection_probability=1.5)
        with pytest.raises(ValueError, match="survival_probability"):
            ScenarioConfig(survival_probability=-0.1)
        with pytest.raises(ValueError, match="clutter_density"):
            ScenarioConfig(clutter_density=-1e-9)
        with pytest.raises(ValueError, match="step_time"):
            ScenarioConfig(step_time=0.0)
        with pytest.raises(ValueError, match="sensor"):
            ScenarioConfig(sensor_count=0)

    def test_nan_clutter_density_rejected(self):
        with pytest.raises(ValueError, match="clutter_density"):
            ScenarioConfig(clutter_density=float("nan"))

    def test_nan_step_time_rejected(self):
        with pytest.raises(ValueError, match="step_time"):
            ScenarioConfig(step_time=float("nan"))


def assert_lines(text, header, expected):
    """``text`` is ``header`` and then, per ``(labels, values)`` of
    ``expected``, the labels and the ``repr`` of each value, which parses
    back to exactly that value."""
    lines = text.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + len(expected)
    for line, (labels, values) in zip(lines[1:], expected):
        tokens = line.split()
        assert tokens[: len(labels)] == [str(label) for label in labels]
        assert tokens[len(labels) :] == [repr(value) for value in values.tolist()]
        assert [float(token) for token in tokens[len(labels) :]] == values.tolist()


class TestSerialization:
    def test_truth_round_trip_exact(self):
        # Process noise, so the states are not round numbers.
        config = ScenarioConfig(truth_process_noise=True)
        truth = simulate_truth(config, np.random.default_rng(7))
        buffer = io.StringIO()
        write_truth(truth, buffer)
        expected = [
            ((frame.timestep, target_id), state)
            for frame in truth.frames
            for target_id, state in zip(frame.ids, frame.states)
        ]
        assert_lines(buffer.getvalue(), "# timestep target_id x y vx vy", expected)

    def test_measurements_round_trip_exact(self):
        scenario = build_scenario()
        truth = simulate_truth(scenario.config)
        rng = np.random.default_rng(31)
        frames = [
            generate_measurements(frame, scenario.sensors, scenario.config, rng)
            for frame in truth.frames
        ]
        buffer = io.StringIO()
        write_measurements(frames, buffer)
        expected = [
            ((frame.timestep, sensor), row)
            for frame in frames
            for sensor, block in enumerate(frame.per_sensor)
            for row in block
        ]
        assert_lines(buffer.getvalue(), "# timestep sensor z1 z2", expected)

    def test_empty_frames_round_trip(self):
        # An empty sensor writes no line, and the next keeps its index.
        block = np.array([[1.5, -2.0]])
        frames = [MeasurementFrame(timestep=1, per_sensor=(np.empty((0, 2)), block))]
        buffer = io.StringIO()
        write_measurements(frames, buffer)
        assert buffer.getvalue() == "# timestep sensor z1 z2\n1 1 1.5 -2.0\n"
        nobody = GroundTruthFrame(timestep=1, ids=(), states=np.empty((0, 4)))
        empty = GroundTruth(frames=(nobody,))
        buffer = io.StringIO()
        write_truth(empty, buffer)
        assert buffer.getvalue() == "# timestep target_id x y vx vy\n"
