"""Intensity-filter tests against hand-derived and scipy-based oracles."""

import numpy as np
import pytest
from scipy.stats import multivariate_normal

from phdfuse.gaussian import GaussianMixture
from phdfuse.phd import (
    BirthModel,
    MotionModel,
    PhdConfig,
    SensorModel,
    SpawnModel,
    SpawnTerm,
    extract_targets,
    predict,
    reduce_mixture,
    update,
)
from conftest import random_mixture, single_gaussian


def constant(value):
    """A state/measurement function returning `value` for every row."""
    return lambda points: np.full(len(points), float(value))


def make_motion(p_s=0.9):
    return MotionModel(
        F=np.array([[1.0, 1.0], [0.0, 1.0]]),
        Q=np.diag([0.1, 0.2]),
        survival_probability=constant(p_s),
    )


def make_sensor(p_d=0.7, kappa=0.05, r=0.25):
    return SensorModel(
        H=np.array([[1.0, 0.0]]),
        R=np.array([[r]]),
        detection_probability=constant(p_d),
        clutter_intensity=constant(kappa),
    )


class TestModelValidation:
    def test_motion_shapes(self):
        with pytest.raises(ValueError, match="square"):
            MotionModel(np.ones((2, 3)), np.eye(2), constant(1.0))
        with pytest.raises(ValueError, match="match"):
            MotionModel(np.eye(2), np.eye(3), constant(1.0))
        with pytest.raises(ValueError, match="symmetric"):
            MotionModel(np.eye(2), np.array([[1.0, 0.5], [0.1, 1.0]]), constant(1.0))
        with pytest.raises(ValueError, match="positive semidefinite"):
            MotionModel(np.eye(2), np.diag([1.0, -1.0]), constant(1.0))

    def test_sensor_shapes(self):
        with pytest.raises(ValueError, match="measurement dimension"):
            SensorModel(np.eye(2), np.eye(3), constant(1.0), constant(0.0))
        with pytest.raises(ValueError, match="positive definite"):
            SensorModel(
                np.array([[1.0, 0.0]]), np.array([[0.0]]), constant(1.0), constant(0.0)
            )

    def test_spawn_term(self):
        with pytest.raises(ValueError, match="non-negative"):
            SpawnTerm(-0.1, np.eye(2), np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="non-negative"):
            SpawnTerm(float("nan"), np.eye(2), np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="inconsistent"):
            SpawnTerm(0.1, np.eye(2), np.zeros(3), np.eye(2))

    def test_config_bounds(self):
        with pytest.raises(ValueError, match="prune_threshold"):
            PhdConfig(prune_threshold=-1e-9)
        with pytest.raises(ValueError, match="merge_threshold"):
            PhdConfig(merge_threshold=0.0)
        # NaN compares false both ways: as a prune threshold it would drop
        # every component, as a merge threshold it would fail inside merge.
        with pytest.raises(ValueError, match="prune_threshold"):
            PhdConfig(prune_threshold=float("nan"))
        with pytest.raises(ValueError, match="merge_threshold"):
            PhdConfig(merge_threshold=float("nan"))
        with pytest.raises(ValueError, match="max_components"):
            PhdConfig(max_components=0)
        with pytest.raises(ValueError, match="extraction_threshold"):
            PhdConfig(extraction_threshold=0.0)


class TestPredict:
    def test_hand_oracle_with_spawn_and_birth(self):
        # Hand derivation for one parent w=1, m=(1,2), P=diag(1,4):
        #   survivor: w=0.9, m=Fm=(3,2), P=FPF'+Q=[[5.1,4],[4,4.2]]
        #   spawn (w=0.1, F=2I, offset=(1,1), Q=I): w=0.1, m=(3,5), P=diag(5,17)
        #   birth appended verbatim.
        posterior = single_gaussian(1.0, [1.0, 2.0], np.diag([1.0, 4.0]))
        motion = make_motion(p_s=0.9)
        birth = BirthModel(single_gaussian(0.3, [0.0, 0.0], 9.0 * np.eye(2)))
        spawn = SpawnModel(
            (SpawnTerm(0.1, 2.0 * np.eye(2), np.array([1.0, 1.0]), np.eye(2)),)
        )
        out = predict(posterior, motion, birth, spawn)
        assert out.size == 3
        np.testing.assert_allclose(out.weights, [0.9, 0.1, 0.3], rtol=1e-12)
        np.testing.assert_allclose(out.means[0], [3.0, 2.0], rtol=1e-12)
        np.testing.assert_allclose(
            out.covariances[0], [[5.1, 4.0], [4.0, 4.2]], rtol=1e-12
        )
        np.testing.assert_allclose(out.means[1], [3.0, 5.0], rtol=1e-12)
        np.testing.assert_allclose(
            out.covariances[1], np.diag([5.0, 17.0]), rtol=1e-12
        )
        np.testing.assert_allclose(out.means[2], [0.0, 0.0], atol=0.0)
        np.testing.assert_allclose(out.covariances[2], 9.0 * np.eye(2), rtol=1e-12)

    def test_empty_posterior_yields_birth_only(self):
        birth = BirthModel(single_gaussian(0.3, [0.0, 0.0], np.eye(2)))
        out = predict(GaussianMixture.empty(2), make_motion(), birth)
        assert out.size == 1
        np.testing.assert_array_equal(out.weights, [0.3])

    def test_state_dependent_survival(self):
        posterior = GaussianMixture(
            weights=np.array([1.0, 1.0]),
            means=np.array([[0.0, 0.0], [10.0, 0.0]]),
            covariances=np.stack([np.eye(2)] * 2),
            dimension=2,
        )
        survival = lambda points: np.where(points[:, 0] > 5.0, 0.2, 1.0)
        motion = MotionModel(np.eye(2), np.zeros((2, 2)), survival)
        birth = BirthModel(GaussianMixture.empty(2))
        out = predict(posterior, motion, birth)
        np.testing.assert_allclose(out.weights, [1.0, 0.2], rtol=1e-12)

    def test_dimension_mismatch(self, rng):
        birth = BirthModel(GaussianMixture.empty(2))
        with pytest.raises(ValueError, match="dimension"):
            predict(random_mixture(rng, dim=3), make_motion(), birth)

    def test_expected_count_bookkeeping(self, rng):
        # Total weight after prediction = p_s * total + spawn_w * total + birth.
        gm = random_mixture(rng, dim=2)
        motion = make_motion(p_s=0.9)
        birth = BirthModel(single_gaussian(0.25, [0.0, 0.0], np.eye(2)))
        spawn = SpawnModel((SpawnTerm(0.05, np.eye(2), np.zeros(2), np.eye(2)),))
        out = predict(gm, motion, birth, spawn)
        assert out.total_weight() == pytest.approx(
            0.95 * gm.total_weight() + 0.25, rel=1e-12
        )


class TestUpdate:
    def oracle_update(self, prior, sensor, Z, p_d, kappa):
        """Independent posterior computed with np.linalg.inv and scipy pdfs."""
        H, R = sensor.H, sensor.R
        parts_w, parts_m, parts_p = [], [], []
        for w, m, P in zip(prior.weights, prior.means, prior.covariances):
            parts_w.append(w * (1.0 - p_d))
            parts_m.append(m)
            parts_p.append(P)
        for z in Z:
            qs, ms, ps = [], [], []
            for w, m, P in zip(prior.weights, prior.means, prior.covariances):
                S = H @ P @ H.T + R
                K = P @ H.T @ np.linalg.inv(S)
                qs.append(
                    p_d * w * multivariate_normal.pdf(z, mean=H @ m, cov=S)
                )
                ms.append(m + K @ (z - H @ m))
                ps.append((np.eye(len(m)) - K @ H) @ P)
            denom = kappa + sum(qs)
            parts_w.extend(q / denom for q in qs)
            parts_m.extend(ms)
            parts_p.extend(ps)
        return np.array(parts_w), np.array(parts_m), np.array(parts_p)

    def make_prior(self):
        return GaussianMixture(
            weights=np.array([0.6, 0.8]),
            means=np.array([[0.0, 0.0], [3.0, -1.0]]),
            covariances=np.array(
                [[[1.0, 0.0], [0.0, 2.0]], [[2.0, 0.5], [0.5, 1.0]]]
            ),
            dimension=2,
        )

    def test_matches_inv_and_scipy_oracle(self):
        prior = self.make_prior()
        sensor = make_sensor(p_d=0.7, kappa=0.05)
        Z = np.array([[0.5], [2.4]])
        out = update(prior, sensor, Z)
        w, m, p = self.oracle_update(prior, sensor, Z, p_d=0.7, kappa=0.05)
        assert out.size == 6  # 2 missed + 2 measurements x 2 components
        np.testing.assert_allclose(out.weights, w, rtol=1e-10)
        np.testing.assert_allclose(out.means, m, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(out.covariances, p, rtol=1e-10)

    def test_zero_detection_returns_prior_exactly(self):
        prior = self.make_prior()
        sensor = make_sensor(p_d=0.0, kappa=0.05)
        out = update(prior, sensor, np.array([[0.5]]))
        np.testing.assert_array_equal(out.weights, prior.weights)
        np.testing.assert_array_equal(out.means, prior.means)
        np.testing.assert_array_equal(out.covariances, prior.covariances)

    def test_no_measurements_thins_by_detection(self):
        prior = self.make_prior()
        out = update(prior, make_sensor(p_d=0.7), np.empty((0, 1)))
        np.testing.assert_allclose(out.weights, 0.3 * prior.weights, rtol=1e-12)
        np.testing.assert_array_equal(out.means, prior.means)

    def test_empty_prior_passthrough(self):
        prior = GaussianMixture.empty(2)
        assert update(prior, make_sensor(), np.array([[0.5]])).size == 0

    def test_joseph_matches_standard(self):
        prior = self.make_prior()
        sensor = make_sensor()
        Z = np.array([[0.5], [2.4]])
        plain = update(prior, sensor, Z, joseph=False)
        joseph = update(prior, sensor, Z, joseph=True)
        np.testing.assert_array_equal(plain.weights, joseph.weights)
        np.testing.assert_array_equal(plain.means, joseph.means)
        np.testing.assert_allclose(
            plain.covariances, joseph.covariances, rtol=1e-9, atol=1e-12
        )

    def test_non_positive_definite_update_fails_only_when_a_block_is_kept(self):
        # With P = 1e40 and R = 1 the gain rounds to exactly 1, so the updated
        # covariance (1 - K) P is exactly 0.  A measurement 1e22 away has a
        # likelihood that underflows to 0, so its block is dropped unchecked.
        prior = single_gaussian(1.0, [0.0], [[1e40]])
        sensor = SensorModel(
            H=np.array([[1.0]]),
            R=np.array([[1.0]]),
            detection_probability=constant(0.5),
            clutter_intensity=constant(0.05),
        )
        far, near = [1e22], [0.0]
        missed = update(prior, sensor, np.array([far]))
        np.testing.assert_array_equal(missed.weights, [0.5])
        np.testing.assert_array_equal(missed.covariances, prior.covariances)
        for Z in ([near], [far, near], [near, far]):
            with pytest.raises(ValueError, match="every covariance must be positive definite"):
                update(prior, sensor, np.array(Z))

    def test_detection_probability_above_one_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            update(self.make_prior(), make_sensor(p_d=1.5), np.empty((0, 1)))

    def test_shape_validation(self):
        prior = self.make_prior()
        sensor = make_sensor()
        with pytest.raises(ValueError, match="measurements must have shape"):
            update(prior, sensor, np.ones((2, 3)))
        with pytest.raises(ValueError, match="dimension"):
            update(single_gaussian(1.0, [0.0], [[1.0]]), sensor, np.ones((1, 1)))

    def test_posterior_mass_between_bounds(self, rng):
        # Each measurement block adds at most 1 expected target; missed mass is
        # (1-p_d) of the prior.  Posterior mass <= (1-p_d)*prior + |Z|.
        prior = random_mixture(rng, dim=2, max_components=5)
        sensor = SensorModel(
            H=np.array([[1.0, 0.0], [0.0, 1.0]]),
            R=np.eye(2),
            detection_probability=constant(0.9),
            clutter_intensity=constant(0.01),
        )
        Z = rng.uniform(-40, 40, size=(4, 2))
        out = update(prior, sensor, Z)
        upper = 0.1 * prior.total_weight() + 4.0
        assert 0.1 * prior.total_weight() - 1e-9 <= out.total_weight() <= upper + 1e-9


class TestExtractReduce:
    def test_extraction_threshold_inclusive_and_ordering(self):
        gm = GaussianMixture(
            weights=np.array([0.49, 0.5, 1.2, 0.7]),
            means=np.arange(8, dtype=float).reshape(4, 2),
            covariances=np.stack([np.eye(2)] * 4),
            dimension=2,
        )
        estimates = extract_targets(gm, PhdConfig(extraction_threshold=0.5))
        # Components at weights 1.2, 0.7, 0.5 in descending-weight order.
        np.testing.assert_array_equal(
            estimates, np.array([[4.0, 5.0], [6.0, 7.0], [2.0, 3.0]])
        )

    def test_extraction_empty_cases(self):
        config = PhdConfig()
        assert extract_targets(GaussianMixture.empty(2), config).shape == (0, 2)
        low = single_gaussian(0.4, [1.0, 1.0], np.eye(2))
        assert extract_targets(low, config).shape == (0, 2)

    def test_reduce_prunes_before_merging(self):
        # Two co-located components with weights 1.0 and 1e-6 and a prune
        # threshold between them: pruning first leaves weight exactly 1.0,
        # while merging first would have produced 1.000001.
        gm = GaussianMixture(
            weights=np.array([1.0, 1e-6]),
            means=np.zeros((2, 2)),
            covariances=np.stack([np.eye(2)] * 2),
            dimension=2,
        )
        out = reduce_mixture(gm, PhdConfig(prune_threshold=1e-5))
        assert out.size == 1
        assert out.weights[0] == 1.0

    def test_reduce_caps_after_merging(self):
        gm = GaussianMixture(
            weights=np.array([0.4, 1.0, 0.6]),
            means=np.array([[0.0, 0.0], [100.0, 0.0], [0.0, 100.0]]),
            covariances=np.stack([np.eye(2)] * 3),
            dimension=2,
        )
        out = reduce_mixture(gm, PhdConfig(max_components=2))
        assert out.size == 2
        assert set(np.round(out.weights, 12)) == {1.0, 0.6}


def test_predict_and_update_return_read_only_arrays(rng):
    prior = random_mixture(rng, dim=2, min_components=3)
    birth = BirthModel(single_gaussian(0.3, [0.0, 0.0], 9.0 * np.eye(2)))
    spawn = SpawnModel((SpawnTerm(0.1, 2.0 * np.eye(2), np.array([1.0, 1.0]), np.eye(2)),))
    inputs = [prior, birth.intensity]
    snapshot = lambda gm: [array.tobytes() for array in (gm.weights, gm.means, gm.covariances)]
    before = [snapshot(gm) for gm in inputs]
    predicted = predict(prior, make_motion(), birth, spawn)
    predicted_bytes = snapshot(predicted)
    outputs = [
        predicted,
        update(predicted, make_sensor(), np.array([[0.5], [2.4], [-3.0]])),
        update(predicted, make_sensor(), np.empty((0, 1))),
    ]
    for out in outputs:
        for array in (out.weights, out.means, out.covariances, out.whiten):
            assert not array.flags.writeable
        expected = np.linalg.inv(np.linalg.cholesky(out.covariances))
        np.testing.assert_array_equal(out.whiten.view(np.uint64), expected.view(np.uint64))
    assert [snapshot(gm) for gm in inputs] == before
    assert snapshot(predicted) == predicted_bytes


def test_tracks_kalman_filter_on_clean_single_target(rng):
    # With guaranteed survival/detection, no clutter and a zero-weight
    # birth, the recursion collapses to a Kalman filter; compare against
    # a hand-rolled filter using np.linalg.inv over ten steps.
    F = np.array([[1.0, 1.0], [0.0, 1.0]])
    Q = np.diag([0.01, 0.01])
    H = np.array([[1.0, 0.0]])
    R = np.array([[1.0]])
    motion = MotionModel(F, Q, constant(1.0))
    sensor = SensorModel(H, R, constant(1.0), constant(0.0))
    birth = BirthModel(single_gaussian(0.0, [100.0, 0.0], np.eye(2)))
    config = PhdConfig(prune_threshold=1e-12, merge_threshold=1e-9)

    truth = np.array([0.0, 1.0])
    m = np.array([0.5, 0.9])
    P = np.eye(2)
    posterior = single_gaussian(1.0, m, P)
    for _ in range(10):
        truth = F @ truth
        z = H @ truth + 0.5 * rng.standard_normal(1)
        # Hand Kalman step.
        m = F @ m
        P = F @ P @ F.T + Q
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        m = m + K @ (z - H @ m)
        P = (np.eye(2) - K @ H) @ P

        predicted = predict(posterior, motion, birth, SpawnModel())
        posterior = reduce_mixture(update(predicted, sensor, z.reshape(1, 1)), config)
        assert posterior.size == 1
        assert posterior.weights[0] == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(posterior.means[0], m, rtol=0, atol=1e-8)
        np.testing.assert_allclose(
            posterior.covariances[0], 0.5 * (P + P.T), rtol=0, atol=1e-8
        )
