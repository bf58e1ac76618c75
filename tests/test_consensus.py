"""Network, weight-matrix and consensus-fusion tests."""

import numpy as np
import pytest

from phdfuse import consensus
from phdfuse.consensus import (
    ConsensusWeights,
    SensorNetwork,
    consensus_round,
    metropolis_weights,
    partial_fusion,
    validate_weights,
    waa,
)
from phdfuse.gaussian import (
    GaussianMixture,
    _pairwise_mahalanobis2,
    coalesce_duplicates,
    l2_distance,
)
from phdfuse.phd import PhdConfig
from phdfuse.policies import FullPolicy, RankPolicy, SampleWithReplacementPolicy, SamplingConfig
from conftest import random_mixture, single_gaussian

PAIR = ConsensusWeights(
    omega=np.array([[0.5, 0.5], [0.5, 0.5]]), fusion_weights=np.array([0.5, 0.5])
)
TRIANGLE = ConsensusWeights(
    omega=np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]]),
    fusion_weights=np.full(3, 1.0 / 3.0),
)


def stacked_distance(intensities, reference):
    return float(np.sqrt(sum(l2_distance(gm, reference) ** 2 for gm in intensities)))


class TestSensorNetwork:
    def test_rejects_bad_graphs(self):
        with pytest.raises(ValueError, match="at least one"):
            SensorNetwork(0, frozenset())
        with pytest.raises(ValueError, match="self-loops"):
            SensorNetwork(2, frozenset({(0, 0), (0, 1), (1, 0)}))
        with pytest.raises(ValueError, match="unknown sensor"):
            SensorNetwork(2, frozenset({(0, 2), (2, 0)}))
        with pytest.raises(ValueError, match="strongly connected"):
            SensorNetwork(3, frozenset({(0, 1), (1, 0)}))
        with pytest.raises(ValueError, match="strongly connected"):
            # One-way chain: 2 can hear but never be heard.
            SensorNetwork(3, frozenset({(0, 1), (1, 2)}))

    def test_bidirectional_constructor(self):
        net = SensorNetwork.bidirectional(3, [(0, 1), (1, 2)])
        assert (0, 1) in net.edges and (1, 0) in net.edges
        assert net.is_bidirectional
        assert net.in_neighbors(1) == (0, 2)
        assert net.degree(1) == 2 and net.degree(0) == 1

    def test_directed_cycle_is_strongly_connected(self):
        net = SensorNetwork(3, frozenset({(0, 1), (1, 2), (2, 0)}))
        assert not net.is_bidirectional
        assert net.in_neighbors(1) == (0,)


class TestConsensusWeights:
    def test_validation(self):
        with pytest.raises(ValueError, match="square"):
            ConsensusWeights(np.ones((2, 3)), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="length"):
            ConsensusWeights(np.eye(2), np.array([1.0]))
        with pytest.raises(ValueError, match="non-negative"):
            ConsensusWeights(np.array([[1.5, -0.5], [0.5, 0.5]]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="sum to 1"):
            ConsensusWeights(np.eye(2), np.array([0.5, 0.6]))
        # NaN compares false both ways, so sign and sum checks alone let it in.
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="omega entries must be finite"):
                ConsensusWeights(np.array([[bad, 0.5], [0.5, 0.5]]), np.array([0.5, 0.5]))
            with pytest.raises(ValueError, match="fusion_weights must be finite"):
                ConsensusWeights(np.full((2, 2), 0.5), np.array([bad, 0.5]))

    def test_arrays_frozen(self):
        with pytest.raises(ValueError):
            PAIR.omega[0, 0] = 0.9
        assert PAIR.sensor_count == 2


class TestValidateWeights:
    def test_all_conditions_pass(self):
        report = validate_weights(PAIR)
        assert report.ok and report.failed == ()
        assert report.sigma == pytest.approx(0.0, abs=1e-12)

    def test_identity_fails_contraction_only(self):
        report = validate_weights(
            ConsensusWeights(np.eye(2), np.array([0.5, 0.5]))
        )
        assert report.failed == ("contraction",)
        assert report.sigma == pytest.approx(1.0, rel=1e-12)

    def test_row_sum_failure_is_named(self):
        report = validate_weights(
            ConsensusWeights(
                np.array([[0.6, 0.6], [0.5, 0.5]]), np.array([0.5, 0.5])
            )
        )
        assert "row-stochastic" in report.failed and not report.ok

    def test_left_eigenvector_failure_is_named(self):
        report = validate_weights(
            ConsensusWeights(
                np.array([[0.9, 0.1], [0.5, 0.5]]), np.array([0.5, 0.5])
            )
        )
        assert report.failed == ("left-eigenvector",)

    def test_sparsity_checked_against_network(self):
        path = SensorNetwork.bidirectional(3, [(0, 1), (1, 2)])
        uniform = ConsensusWeights(np.full((3, 3), 1.0 / 3.0), np.full(3, 1.0 / 3.0))
        report = validate_weights(uniform, network=path)
        assert report.failed == ("sparsity",)
        with pytest.raises(ValueError, match="size"):
            validate_weights(PAIR, network=path)
        # A directed cycle j -> i lets sensor i weight j, not the reverse.
        cycle = SensorNetwork(3, frozenset({(0, 1), (1, 2), (2, 0)}))
        listens = 0.5 * (np.eye(3) + np.roll(np.eye(3), 1, axis=0))
        fusion = np.full(3, 1.0 / 3.0)
        assert validate_weights(ConsensusWeights(listens, fusion), network=cycle).failed == ()
        reverse = ConsensusWeights(listens.T, fusion)
        assert validate_weights(reverse, network=cycle).failed == ("sparsity",)


class TestMetropolis:
    def test_two_node_hand_value(self):
        net = SensorNetwork.bidirectional(2, [(0, 1)])
        weights = metropolis_weights(net)
        np.testing.assert_array_equal(weights.omega, [[0.5, 0.5], [0.5, 0.5]])

    def test_triangle_hand_value(self):
        net = SensorNetwork.bidirectional(3, [(0, 1), (1, 2), (0, 2)])
        weights = metropolis_weights(net)
        np.testing.assert_allclose(weights.omega, np.full((3, 3), 1.0 / 3.0), rtol=1e-15)

    def test_respects_network_sparsity_and_conditions(self):
        links = [(0, 1), (1, 2), (1, 3), (2, 5), (3, 4), (3, 5), (4, 5)]
        net = SensorNetwork.bidirectional(6, links)
        weights = metropolis_weights(net)
        report = validate_weights(weights, network=net, tolerance=1e-9)
        assert report.ok
        # Node 0 has degree 1, node 1 degree 3: the link weight is 1/(1+3).
        assert weights.omega[0, 1] == 0.25
        np.testing.assert_allclose(weights.omega, weights.omega.T, rtol=1e-15)

    def test_requires_bidirectional(self):
        cycle = SensorNetwork(3, frozenset({(0, 1), (1, 2), (2, 0)}))
        with pytest.raises(ValueError, match="bidirectional"):
            metropolis_weights(cycle)


class TestWaa:
    def test_identical_inputs_unchanged(self, rng):
        gm = random_mixture(rng, dim=2)
        fused = waa([gm, gm], np.array([0.5, 0.5]))
        for _ in range(10):
            x = rng.uniform(-60, 60, size=2)
            assert fused.evaluate_at(x) == pytest.approx(gm.evaluate_at(x), rel=1e-12)

    def test_degenerate_weight_selects_single_input(self, rng):
        f = random_mixture(rng, dim=2)
        g = random_mixture(rng, dim=2)
        fused = waa([f, g], np.array([1.0, 0.0]))
        np.testing.assert_array_equal(fused.weights, f.weights)
        np.testing.assert_array_equal(fused.means, f.means)

    def test_total_weight_is_weighted_average(self):
        f = single_gaussian(6.0, [0.0, 0.0], np.eye(2))
        g = single_gaussian(9.0, [50.0, 0.0], np.eye(2))
        fused = waa([f, g], np.array([0.5, 0.5]))
        assert fused.total_weight() == pytest.approx(7.5, rel=1e-12)

    def test_validation(self, rng):
        gm = random_mixture(rng)
        with pytest.raises(ValueError, match="one fusion weight per intensity"):
            waa([gm], np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="non-negative"):
            waa([gm, gm], np.array([1.5, -0.5]))
        with pytest.raises(ValueError, match="sum to 1"):
            waa([gm, gm], np.array([0.4, 0.4]))
        with pytest.raises(ValueError):
            waa([], np.empty(0))
        # A NaN weight fails `w > 0.0`, so without the check its sensor drops out.
        with pytest.raises(ValueError, match="non-negative"):
            waa([gm, gm], np.array([np.nan, 1.0]))


class TestPartialFusion:
    def test_unreported_component_keeps_weight(self):
        own = GaussianMixture(
            weights=np.array([1.0, 0.2]),
            means=np.array([[0.0], [50.0]]),
            covariances=np.ones((2, 1, 1)),
            dimension=1,
        )
        received = [(0.5, single_gaussian(1.0, [0.1], [[1.0]]))]
        fused = partial_fusion(own, received, self_weight=0.5, match_threshold=15.0)
        weight_at_50 = fused.weights[np.flatnonzero(fused.means[:, 0] == 50.0)]
        assert weight_at_50[0] == 0.2

    def test_matched_pair_moment_matched(self):
        # Hand derivation with equal coefficients 1/2: fused weight
        # (0.5*1 + 0.5*1) / (0.5 + 0.5) = 1; mean (0+3)/2 = 1.5;
        # covariance 1 + mean spread 2.25 = 3.25.
        own = single_gaussian(1.0, [0.0], [[1.0]])
        received = [(0.5, single_gaussian(1.0, [3.0], [[1.0]]))]
        fused = partial_fusion(own, received, self_weight=0.5, match_threshold=15.0)
        assert fused.size == 1
        assert fused.weights[0] == pytest.approx(1.0, rel=1e-12)
        assert fused.means[0, 0] == pytest.approx(1.5, rel=1e-12)
        assert fused.covariances[0, 0, 0] == pytest.approx(3.25, rel=1e-12)

    def test_renormalisation_over_reporters_only(self):
        # Own weight 1 and received weight 2 on the same spot average to 1.5,
        # not to the 0.5*1 + 0.5*2 = 1.5 plain sum -- but with a third silent
        # link coefficient the plain sum would shrink it while this stays 1.5.
        own = single_gaussian(1.0, [0.0], [[1.0]])
        received = [(0.25, single_gaussian(2.0, [0.0], [[1.0]]))]
        fused = partial_fusion(own, received, self_weight=0.25, match_threshold=15.0)
        assert fused.size == 1
        assert fused.weights[0] == pytest.approx((0.25 * 1 + 0.25 * 2) / 0.5, rel=1e-12)

    def test_unmatched_received_enters_scaled(self):
        own = single_gaussian(1.0, [0.0], [[1.0]])
        received = [(0.5, single_gaussian(0.8, [40.0], [[1.0]]))]
        fused = partial_fusion(own, received, self_weight=0.5, match_threshold=15.0)
        assert fused.size == 2
        newcomer = fused.weights[np.flatnonzero(fused.means[:, 0] == 40.0)]
        assert newcomer[0] == pytest.approx(0.4, rel=1e-12)

    def test_match_gate_uses_received_covariance(self):
        own = single_gaussian(1.0, [0.0], [[1.0]])
        diffuse = [(0.5, single_gaussian(1.0, [5.0], [[100.0]]))]
        sharp = [(0.5, single_gaussian(1.0, [5.0], [[0.1]]))]
        # 25/100 <= 15 matches; 25/0.1 > 15 stays separate.
        assert partial_fusion(own, diffuse, 0.5, 15.0).size == 1
        assert partial_fusion(own, sharp, 0.5, 15.0).size == 2

    def test_tight_gate_turns_match_into_newcomer(self):
        own = single_gaussian(1.0, [0.0], [[1.0]])
        received = [(0.5, single_gaussian(1.0, [3.0], [[1.0]]))]
        assert partial_fusion(own, received, 0.5, match_threshold=1.0).size == 2

    def test_rejects_negative_or_nan_threshold(self):
        # A NaN gate would match the far received component to the own one.
        own = single_gaussian(1.0, [0.0, 0.0], np.eye(2))
        received = [(0.5, single_gaussian(1.0, [1e6, 1e6], np.eye(2)))]
        assert partial_fusion(own, received, 0.5, 15.0).size == 2
        for threshold in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="match_threshold"):
                partial_fusion(own, received, 0.5, threshold)

    def test_empty_own_and_empty_received(self, rng):
        incoming = random_mixture(rng, dim=2, max_components=3)
        fused = partial_fusion(
            GaussianMixture.empty(2), [(0.5, incoming)], 0.5, 15.0
        )
        np.testing.assert_allclose(fused.weights, 0.5 * incoming.weights, rtol=1e-12)
        own = random_mixture(rng, dim=2)
        unchanged = partial_fusion(own, [(0.5, GaussianMixture.empty(2))], 0.5, 15.0)
        np.testing.assert_array_equal(unchanged.means, own.means)
        np.testing.assert_array_equal(unchanged.weights, own.weights)


def reference_partial_fusion(own, received, self_weight, match_threshold):
    """partial_fusion as first written: one batched ``solve`` per received
    mixture for the matching distances, then the same fusion arithmetic."""
    dim = own.dimension
    count = own.size
    mass = self_weight * own.weights
    coeff = np.full(count, self_weight)
    matched: list[list[tuple[float, np.ndarray, np.ndarray]]] = [[] for _ in range(count)]
    extra_weights: list[float] = []
    extra_means: list[np.ndarray] = []
    extra_covs: list[np.ndarray] = []
    for link_weight, mixture in received:
        if mixture.size == 0:
            continue
        if count == 0:
            assign = np.full(mixture.size, -1)
        else:
            diff = own.means[np.newaxis, :, :] - mixture.means[:, np.newaxis, :]
            solved = np.linalg.solve(mixture.covariances, diff.transpose(0, 2, 1))
            dist2 = np.einsum("rnd,rdn->rn", diff, solved)
            assign = np.argmin(dist2, axis=1)
            assign[dist2[np.arange(mixture.size), assign] > match_threshold] = -1
        reported = np.zeros(count, dtype=bool)
        for r in range(mixture.size):
            target = int(assign[r])
            if target < 0:
                extra_weights.append(link_weight * float(mixture.weights[r]))
                extra_means.append(mixture.means[r])
                extra_covs.append(mixture.covariances[r])
            else:
                share = link_weight * float(mixture.weights[r])
                mass[target] += share
                matched[target].append((share, mixture.means[r], mixture.covariances[r]))
                reported[target] = True
        coeff[reported] += link_weight
    weights = np.divide(mass, coeff, out=np.zeros_like(mass), where=coeff > 0.0)
    means = own.means.copy()
    covs = own.covariances.copy()
    for c in range(count):
        if not matched[c]:
            continue
        lams = np.array([self_weight * float(own.weights[c])] + [m[0] for m in matched[c]])
        total = float(lams.sum())
        if total <= 0.0:
            continue
        lams /= total
        points = np.vstack([own.means[c : c + 1]] + [m[1].reshape(1, dim) for m in matched[c]])
        spreads = np.stack([own.covariances[c]] + [m[2] for m in matched[c]])
        centre = lams @ points
        delta = points - centre
        covs[c] = np.einsum("p,pij->ij", lams, spreads) + np.einsum(
            "p,pi,pj->ij", lams, delta, delta
        )
        means[c] = centre
    if extra_weights:
        weights = np.concatenate([weights, np.asarray(extra_weights)])
        means = np.vstack([means, np.vstack(extra_means)])
        covs = np.concatenate([covs, np.stack(extra_covs)])
    return coalesce_duplicates(GaussianMixture(weights, means, covs, dimension=dim))


def nearby_mixture(rng, own, size):
    """Components near randomly chosen own components, and a few far away."""
    dim = own.dimension
    pick = rng.integers(own.size, size=size)
    means = own.means[pick] + rng.normal(scale=1.5, size=(size, dim))
    means[rng.random(size) < 0.2] += 200.0
    a = rng.standard_normal((size, dim, dim))
    covariances = a @ np.swapaxes(a, 1, 2) + (0.5 + rng.random(size))[:, None, None] * np.eye(dim)
    return GaussianMixture(rng.uniform(0.0, 1.0, size), means, covariances, dimension=dim)


class TestPartialFusionBitExact:
    @pytest.mark.parametrize("dim", [1, 2, 4])
    @pytest.mark.parametrize("size", [2, 31, 32, 33, 65, 260])
    def test_matches_solve_based_matching(self, size, dim):
        rng = np.random.default_rng(31 * size + dim)
        own = random_mixture(rng, dim=dim, min_components=size, max_components=size)
        received = [
            (0.25, nearby_mixture(rng, own, size)),
            (0.125, nearby_mixture(rng, own, max(1, size // 8))),
            (0.125, GaussianMixture.empty(dim)),
        ]
        assert_bit_identical(
            partial_fusion(own, received, 0.5, 15.0),
            reference_partial_fusion(own, received, 0.5, 15.0),
        )

    @pytest.mark.parametrize("case", ["zero_weights", "two_senders_one_target", "only_empty"])
    def test_edge_cases_match_solve_based_matching(self, case):
        rng = np.random.default_rng(7)
        own = random_mixture(rng, dim=2, min_components=6, max_components=6)
        if case == "zero_weights":
            # Zero own weights at even indices and zero received weights, so
            # every group matched to an even index has total weight 0.
            own = GaussianMixture(
                np.where(np.arange(6) % 2 == 0, 0.0, own.weights), own.means, own.covariances
            )
            heard = nearby_mixture(rng, own, 12)
            received = [(0.25, GaussianMixture(np.zeros(12), heard.means, heard.covariances))]
        elif case == "two_senders_one_target":
            # Each sender reports one component next to own component 0.
            received = [
                (link, single_gaussian(weight, own.means[0] + offset, own.covariances[0]))
                for link, weight, offset in ((0.25, 0.7, 0.1), (0.125, 1.3, -0.2))
            ]
        else:
            received = [(0.25, GaussianMixture.empty(2)), (0.25, GaussianMixture.empty(2))]
        fused = partial_fusion(own, received, 0.5, 15.0)
        expected = reference_partial_fusion(own, received, 0.5, 15.0)
        assert_bit_identical(fused, expected)
        if case == "two_senders_one_target":
            assert fused.size == own.size
            assert not np.array_equal(fused.means[0], own.means[0])

    def test_one_kernel_call_per_fusion(self, monkeypatch):
        rng = np.random.default_rng(3)
        own = random_mixture(rng, dim=2, min_components=8, max_components=8)
        received = [(0.25, nearby_mixture(rng, own, 5)) for _ in range(3)]
        received.append((0.125, GaussianMixture.empty(2)))
        calls = []

        def counting(*args):
            calls.append(args[0].shape[0])
            return _pairwise_mahalanobis2(*args)

        monkeypatch.setattr(consensus, "_pairwise_mahalanobis2", counting)
        partial_fusion(own, received, 0.25, 15.0)
        assert calls == [15]


def assert_bit_identical(actual_gm, expected_gm):
    for name in ("weights", "means", "covariances"):
        actual, wanted = getattr(actual_gm, name), getattr(expected_gm, name)
        assert np.array_equal(actual, wanted), name
        np.testing.assert_array_equal(actual.view(np.uint64), wanted.view(np.uint64))


class TestConsensusRound:
    def test_full_policy_totals_follow_matrix(self, rng):
        intensities = [random_mixture(rng, dim=2) for _ in range(3)]
        fused, transmissions = consensus_round(intensities, TRIANGLE, FullPolicy())
        totals = np.array([gm.total_weight() for gm in intensities])
        expected = TRIANGLE.omega @ totals
        observed = np.array([gm.total_weight() for gm in fused])
        np.testing.assert_allclose(observed, expected, rtol=1e-12)
        assert len(transmissions) == 3

    def test_full_policy_fixed_point(self, rng):
        gm = random_mixture(rng, dim=2)
        fused, _ = consensus_round([gm, gm, gm], TRIANGLE, FullPolicy())
        for out in fused:
            for _ in range(20):
                x = rng.uniform(-60, 60, size=2)
                assert out.evaluate_at(x) == pytest.approx(
                    gm.evaluate_at(x), rel=1e-10
                )

    def test_full_policy_preserves_waa(self, rng):
        intensities = [random_mixture(rng, dim=2) for _ in range(3)]
        reference = waa(intensities, TRIANGLE.fusion_weights)
        current = intensities
        for _ in range(3):
            current, _ = consensus_round(current, TRIANGLE, FullPolicy())
            # The closed-form distance between numerically identical mixtures
            # is dominated by cancellation noise; 1e-8 bounds it comfortably.
            assert l2_distance(waa(current, TRIANGLE.fusion_weights), reference) < 1e-8

    def test_full_policy_contracts_stacked_distance(self):
        sigma = validate_weights(TRIANGLE).sigma  # 0.25 for this matrix
        assert sigma == pytest.approx(0.25, rel=1e-12)
        for seed in range(3):
            gen = np.random.default_rng(seed)
            current = [random_mixture(gen, dim=2) for _ in range(3)]
            reference = waa(current, TRIANGLE.fusion_weights)
            before = stacked_distance(current, reference)
            for _ in range(5):
                current, _ = consensus_round(current, TRIANGLE, FullPolicy())
                after = stacked_distance(current, reference)
                assert after <= sigma * before * (1.0 + 1e-9)
                before = after

    def test_sampling_policy_totals_follow_matrix(self, rng):
        policy = SampleWithReplacementPolicy(SamplingConfig(bandwidth=3))
        intensities = [
            random_mixture(np.random.default_rng(seed), dim=2, min_components=5)
            for seed in (1, 2, 3)
        ]
        rngs = [np.random.default_rng(100 + j) for j in range(3)]
        fused, _ = consensus_round(intensities, TRIANGLE, policy, rngs=rngs)
        totals = np.array([gm.total_weight() for gm in intensities])
        expected = TRIANGLE.omega @ totals
        observed = np.array([gm.total_weight() for gm in fused])
        assert np.max(np.abs(observed - expected)) < 1e-10

    def test_rank_policy_does_not_erode_unreported_components(self):
        # Sensor 0 privately tracks a second target below sensor 1's rank cut;
        # its weight must survive the round at full strength.
        shared = single_gaussian(1.0, [0.0, 0.0], np.eye(2))
        own = GaussianMixture(
            weights=np.array([1.0, 0.2]),
            means=np.array([[0.0, 0.0], [50.0, 50.0]]),
            covariances=np.stack([np.eye(2)] * 2),
            dimension=2,
        )
        fused, transmissions = consensus_round(
            [own, shared], PAIR, RankPolicy(bandwidth=1)
        )
        assert all(len(tx) <= 1 for tx in transmissions)
        private = fused[0].weights[np.flatnonzero(fused[0].means[:, 0] == 50.0)]
        assert private[0] == 0.2

    def test_reduction_caps_components(self, rng):
        intensities = [random_mixture(rng, dim=2, min_components=6) for _ in range(3)]
        config = PhdConfig(max_components=4, prune_threshold=0.0)
        fused, _ = consensus_round(intensities, TRIANGLE, FullPolicy(), reduction=config)
        assert all(gm.size <= 4 for gm in fused)

    def test_argument_validation(self, rng):
        intensities = [random_mixture(rng, dim=2) for _ in range(2)]
        with pytest.raises(ValueError, match="size does not match"):
            consensus_round(intensities, TRIANGLE, FullPolicy())
        with pytest.raises(ValueError, match="one random stream per sensor"):
            consensus_round(
                intensities, PAIR, FullPolicy(), rngs=[np.random.default_rng(0)]
            )
