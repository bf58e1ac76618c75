"""Selection-policy, cost-accounting and wire-format tests."""

import itertools
import math
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from phdfuse.gaussian import GaussianMixture, NumericalFailure
from phdfuse.policies import (
    CostRecord,
    FullPolicy,
    PolicyTag,
    RankPolicy,
    SampleWithReplacementPolicy,
    SampleWithoutReplacementPolicy,
    SamplingConfig,
    ThresholdPolicy,
    Transmission,
    TransmissionEntry,
    decode_transmission,
    encode_transmission,
    inclusion_probabilities,
    reconstruct,
    sample_with_replacement,
    sample_without_replacement,
    select_full,
    select_rank,
    select_threshold,
    transmission_cost,
)
from phdfuse.policies import _TAG_TO_WIRE, _exponential_key_selection
from conftest import random_mixture


def weights_mixture(weights, dim=2):
    """A mixture with the given weights and distinct means/covariances."""
    weights = np.asarray(weights, dtype=float)
    n = weights.size
    means = np.arange(n * dim, dtype=float).reshape(n, dim)
    covariances = np.stack([(1.0 + l) * np.eye(dim) for l in range(n)])
    return GaussianMixture(weights, means, covariances, dimension=dim)


class TestEntryAndTransmissionValidation:
    def test_entry_exactly_one_of_count_weight(self):
        with pytest.raises(ValueError, match="exactly one"):
            TransmissionEntry(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="exactly one"):
            TransmissionEntry(np.zeros(2), np.eye(2), count=1, weight=1.0)

    def test_entry_bounds(self):
        with pytest.raises(ValueError, match="positive integer"):
            TransmissionEntry(np.zeros(2), np.eye(2), count=0)
        with pytest.raises(ValueError, match="finite and non-negative"):
            TransmissionEntry(np.zeros(2), np.eye(2), weight=-0.5)
        with pytest.raises(ValueError, match="covariance shape"):
            TransmissionEntry(np.zeros(2), np.eye(3), weight=1.0)

    def test_transmission_mode_consistency(self):
        count_entry = TransmissionEntry(np.zeros(2), np.eye(2), count=2)
        weight_entry = TransmissionEntry(np.zeros(2), np.eye(2), weight=1.0)
        with pytest.raises(ValueError, match="uniformly"):
            Transmission(PolicyTag.FULL, (count_entry, weight_entry), 0.5, 2)
        with pytest.raises(ValueError, match="shared_weight"):
            Transmission(PolicyTag.FULL, (weight_entry,), 0.5, 2)
        with pytest.raises(ValueError, match="shared_weight"):
            Transmission(PolicyTag.SAMPLE_REPLACEMENT, (count_entry,), None, 2)

    def test_transmission_dimension_checks(self):
        entry = TransmissionEntry(np.zeros(2), np.eye(2), weight=1.0)
        with pytest.raises(ValueError, match="dimension"):
            Transmission(PolicyTag.FULL, (entry,), None, 3)
        with pytest.raises(ValueError, match="positive"):
            Transmission(PolicyTag.FULL, (), None, 0)


class TestDeterministicSelection:
    def test_full_round_trip_is_exact(self, rng):
        gm = random_mixture(rng, dim=3)
        tx = select_full(gm)
        assert tx.policy is PolicyTag.FULL and len(tx) == gm.size
        back = reconstruct(tx)
        np.testing.assert_array_equal(back.weights, gm.weights)
        np.testing.assert_array_equal(back.means, gm.means)
        np.testing.assert_array_equal(back.covariances, gm.covariances)

    def test_rank_keeps_top_weights_in_original_order(self):
        gm = weights_mixture([0.3, 1.0, 0.2, 0.9])
        tx = select_rank(gm, 2)
        back = reconstruct(tx)
        np.testing.assert_array_equal(back.weights, [1.0, 0.9])
        np.testing.assert_array_equal(back.means, gm.means[[1, 3]])

    def test_rank_tie_prefers_earlier_component(self):
        gm = weights_mixture([0.5, 0.5, 0.5])
        back = reconstruct(select_rank(gm, 2))
        np.testing.assert_array_equal(back.means, gm.means[[0, 1]])

    def test_rank_budget_covers_everything(self, rng):
        gm = random_mixture(rng, dim=2, max_components=4)
        tx = select_rank(gm, 10)
        assert len(tx) == gm.size
        with pytest.raises(ValueError, match="bandwidth"):
            select_rank(gm, 0)

    def test_threshold_is_strictly_greater(self):
        gm = weights_mixture([0.05, 0.1, 0.100001, 0.7])
        back = reconstruct(select_threshold(gm, 0.1))
        np.testing.assert_array_equal(back.weights, [0.100001, 0.7])
        with pytest.raises(ValueError, match="non-negative"):
            select_threshold(gm, -0.1)

    def test_threshold_rejects_nan_tau(self):
        # weights > nan is all False: a NaN tau would silently send nothing.
        with pytest.raises(ValueError, match="non-negative"):
            select_threshold(weights_mixture([0.5, 0.7]), float("nan"))

    def test_threshold_can_select_nothing(self):
        gm = weights_mixture([0.05, 0.02])
        tx = select_threshold(gm, 0.1)
        assert len(tx) == 0
        assert reconstruct(tx).size == 0


class TestSampleWithReplacement:
    def test_stop_mode_respects_budget_and_total_weight(self):
        config = SamplingConfig(bandwidth=3)
        gm = weights_mixture([0.1, 0.4, 0.9, 1.4, 0.2, 0.7])
        for seed in range(50):
            tx = sample_with_replacement(gm, config, np.random.default_rng(seed))
            assert tx.policy is PolicyTag.SAMPLE_REPLACEMENT
            assert tx.uses_counts and 1 <= len(tx) <= 3
            assert all(entry.count >= 1 for entry in tx)
            back = reconstruct(tx)
            assert abs(back.total_weight() - gm.total_weight()) < 1e-10

    def test_single_component_budget(self):
        gm = weights_mixture([1.0, 2.0, 3.0])
        tx = sample_with_replacement(
            gm, SamplingConfig(bandwidth=1), np.random.default_rng(0)
        )
        assert len(tx) == 1
        back = reconstruct(tx)
        assert back.total_weight() == pytest.approx(6.0, abs=1e-12)

    def test_zero_weight_components_never_sampled(self):
        gm = weights_mixture([0.0, 1.0, 2.0, 3.0, 0.0, 4.0])
        config = SamplingConfig(bandwidth=2)
        zero_means = gm.means[[0, 4]]
        for seed in range(30):
            back = reconstruct(
                sample_with_replacement(gm, config, np.random.default_rng(seed))
            )
            for mean in back.means:
                assert not any(np.array_equal(mean, z) for z in zero_means)

    def test_vacuous_budget_sends_exact_weights(self):
        gm = weights_mixture([0.0, 0.5, 1.5])
        tx = sample_with_replacement(
            gm, SamplingConfig(bandwidth=5), np.random.default_rng(0)
        )
        assert not tx.uses_counts
        back = reconstruct(tx)
        np.testing.assert_array_equal(back.weights, [0.5, 1.5])
        np.testing.assert_array_equal(back.means, gm.means[[1, 2]])

    def test_fixed_draws_takes_exactly_n(self):
        gm = weights_mixture([2.0, 1.0, 1.0])
        config = SamplingConfig(bandwidth=3, draw_mode="fixed_draws", draws=12)
        tx = sample_with_replacement(gm, config, np.random.default_rng(3))
        assert sum(entry.count for entry in tx) == 12
        assert tx.shared_weight == pytest.approx(4.0 / 12.0, rel=1e-12)

    def test_fixed_draws_rejects_budget_overrun(self):
        gm = weights_mixture([1.0, 1.0, 1.0, 1.0, 1.0])
        config = SamplingConfig(bandwidth=3, draw_mode="fixed_draws", draws=12)
        with pytest.raises(ValueError, match="exceed the budget"):
            sample_with_replacement(gm, config, np.random.default_rng(0))
        # draws <= budget keeps the guarantee even with many components.
        small = SamplingConfig(bandwidth=3, draw_mode="fixed_draws", draws=3)
        tx = sample_with_replacement(gm, small, np.random.default_rng(0))
        assert len(tx) <= 3

    def test_empirical_frequencies_match_weights(self):
        # Weights 2:1:1 must be drawn with probabilities 0.5/0.25/0.25.
        gm = weights_mixture([2.0, 1.0, 1.0])
        config = SamplingConfig(bandwidth=3, draw_mode="fixed_draws", draws=4)
        rng = np.random.default_rng(99)
        totals = np.zeros(3)
        trials = 4000
        for _ in range(trials):
            tx = sample_with_replacement(gm, config, rng)
            back = reconstruct(tx)
            for weight, mean in zip(back.weights, back.means):
                index = int(mean[0] / 2)  # means are (0,1),(2,3),(4,5)
                totals[index] += weight / tx.shared_weight
        frequencies = totals / (4 * trials)
        se = np.sqrt(np.array([0.5, 0.25, 0.25]) * np.array([0.5, 0.75, 0.75]) / (4 * trials))
        np.testing.assert_array_less(np.abs(frequencies - [0.5, 0.25, 0.25]), 4 * se)

    def test_config_and_input_validation(self):
        with pytest.raises(NumericalFailure, match="empty"):
            sample_with_replacement(
                GaussianMixture.empty(2), SamplingConfig(bandwidth=1), np.random.default_rng(0)
            )
        with pytest.raises(NumericalFailure, match="zero total weight"):
            sample_with_replacement(
                weights_mixture([0.0, 0.0]), SamplingConfig(bandwidth=1), np.random.default_rng(0)
            )

    def test_sampling_config_validation(self):
        with pytest.raises(ValueError, match="bandwidth"):
            SamplingConfig(bandwidth=0)
        with pytest.raises(ValueError, match="draw_mode"):
            SamplingConfig(bandwidth=1, draw_mode="bogus")
        with pytest.raises(ValueError, match="draw count"):
            SamplingConfig(bandwidth=1, draw_mode="fixed_draws", draws=0)
        assert SamplingConfig(bandwidth=5).fixed_draw_count == 20
        assert SamplingConfig(bandwidth=5, draws=7).fixed_draw_count == 7


class TestSampleWithoutReplacement:
    CONFIG = SamplingConfig(bandwidth=2)

    def test_selects_distinct_components(self):
        gm = weights_mixture([1.0, 2.0, 3.0, 4.0])
        for seed in range(20):
            tx = sample_without_replacement(gm, self.CONFIG, np.random.default_rng(seed))
            assert tx.policy is PolicyTag.SAMPLE_NO_REPLACEMENT
            assert len(tx) == 2 and not tx.uses_counts
            means = [tuple(entry.mean) for entry in tx]
            assert len(set(means)) == 2
            assert all(entry.weight > 0 for entry in tx)

    def test_full_budget_is_identity(self):
        gm = weights_mixture([1.0, 2.0, 3.0])
        config = SamplingConfig(bandwidth=3)
        back = reconstruct(sample_without_replacement(gm, config, np.random.default_rng(0)))
        np.testing.assert_array_equal(back.weights, gm.weights)
        np.testing.assert_array_equal(back.means, gm.means)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="strictly positive"):
            sample_without_replacement(
                weights_mixture([0.0, 1.0, 2.0]),
                SamplingConfig(bandwidth=2),
                rng,
            )
        # J < B, J = B and the empty mixture are sent whole, drawing nothing.
        wholes = (weights_mixture([1.0, 2.0, 3.0]), weights_mixture([1.0, 2.0, 3.0, 4.0]))
        for gm in wholes + (GaussianMixture.empty(2),):
            state = rng.bit_generator.state
            tx = sample_without_replacement(gm, SamplingConfig(bandwidth=4), rng)
            assert rng.bit_generator.state == state
            assert tx.policy is PolicyTag.SAMPLE_NO_REPLACEMENT and not tx.uses_counts
            assert tx.dimension == 2
            assert [entry.weight for entry in tx] == gm.weights.tolist()
            back = reconstruct(tx)
            np.testing.assert_array_equal(back.means, gm.means)
            np.testing.assert_array_equal(back.covariances, gm.covariances)

    def test_inclusion_probabilities_sum_to_budget(self):
        # Weights spanning twelve decades, as pruned mixtures never reach.
        weights = np.geomspace(1e-12, 1.0, 40)
        for budget in (1, 5, 20, 39):
            inclusion = inclusion_probabilities(weights, budget, np.arange(40))
            assert np.all(inclusion > 0.0) and np.all(inclusion <= 1.0)
            assert inclusion.sum() == pytest.approx(budget, rel=1e-12)
            # Heavier components are selected more often (up to roundoff
            # where pi is 1).
            assert np.all(np.diff(inclusion) >= -1e-15)

    def test_inclusion_probabilities_need_a_budget_below_the_size(self):
        weights = np.array([1.0, 2.0, 3.0])
        for budget in (0, 3):
            with pytest.raises(ValueError, match="bandwidth"):
                inclusion_probabilities(weights, budget, np.arange(3))

    def test_inclusion_probabilities_match_enumeration(self):
        rng = np.random.default_rng(3)
        for size in range(2, 9):
            for spread in (1.0, 12.0):  # weights within one or twelve decades
                weights = np.exp(rng.uniform(-spread * np.log(10.0), 0.0, size))
                for budget in range(1, size):
                    _, exact = enumerate_selections(weights, budget)
                    np.testing.assert_allclose(
                        inclusion_probabilities(weights, budget, np.arange(size)),
                        exact,
                        rtol=1e-12,
                    )

    def test_reconstruction_is_unbiased(self):
        # Sum over every selectable set S of P(S) * w_l / pi_l * [l in S]
        # equals w_l, with pi computed for the rows of S only, as sent.
        rng = np.random.default_rng(4)
        for size, budget in ((4, 2), (6, 3), (7, 1), (8, 5)):
            weights = np.exp(rng.uniform(-8.0, 0.0, size))
            sets, _ = enumerate_selections(weights, budget)
            expected = np.zeros(size)
            for members, probability in sets.items():
                members = np.array(members)
                sent = weights[members] / inclusion_probabilities(weights, budget, members)
                expected[members] += probability * sent
            np.testing.assert_allclose(expected, weights, rtol=1e-12)

    def test_inclusion_probabilities_match_replayed_selections(self):
        weights = np.array([0.02, 0.1, 0.3, 0.5, 1.0, 1.5, 2.0, 4.0])
        budget, replays = 3, 200_000
        keys = -np.log(np.random.default_rng(6).random((replays, weights.size))) / weights
        selected = np.argpartition(keys, budget - 1, axis=1)[:, :budget]
        frequency = np.bincount(selected.ravel(), minlength=weights.size) / replays
        exact = inclusion_probabilities(weights, budget, np.arange(weights.size))
        standard_error = np.sqrt(exact * (1.0 - exact) / replays)
        assert np.all(np.abs(frequency - exact) <= 4.0 * standard_error)

    def test_sends_the_exponential_key_selection_with_exact_weights(self):
        gm = weights_mixture(np.geomspace(1e-5, 3.0, 34))
        config = SamplingConfig(bandwidth=5)
        for seed in range(10):
            tx = sample_without_replacement(gm, config, np.random.default_rng(seed))
            chosen = _exponential_key_selection(gm.weights, 5, np.random.default_rng(seed))
            back = reconstruct(tx)
            np.testing.assert_array_equal(back.means, gm.means[chosen])
            np.testing.assert_array_equal(
                back.weights,
                gm.weights[chosen] / inclusion_probabilities(gm.weights, 5, chosen),
            )
            assert np.all(back.weights >= gm.weights[chosen])


def enumerate_selections(weights, budget):
    """Every B-set the exponential-key race can select, with its probability,
    and each component's inclusion probability, by summing successive-draw
    probabilities over all ordered selections."""
    sets = {}
    for order in itertools.permutations(range(weights.size), budget):
        probability, left = 1.0, set(range(weights.size))
        for l in order:
            probability *= weights[l] / math.fsum(weights[j] for j in left)
            left.discard(l)
        key = tuple(sorted(order))
        sets[key] = sets.get(key, 0.0) + probability
    inclusion = np.zeros(weights.size)
    for members, probability in sets.items():
        inclusion[list(members)] += probability
    return sets, inclusion


class TestCostAccounting:
    def test_weight_mode_hand_values(self):
        # d=4: mean 4 floats + packed covariance 10 floats + weight 1 float.
        gm = random_mixture(np.random.default_rng(0), dim=4, min_components=5, max_components=5)
        cost = transmission_cost(select_full(gm))
        assert cost == CostRecord(floats=5 * 14 + 5, integers=0, components=5)

    def test_count_mode_hand_values(self):
        entries = tuple(
            TransmissionEntry(np.zeros(4) + l, np.eye(4), count=l + 1) for l in range(5)
        )
        tx = Transmission(PolicyTag.SAMPLE_REPLACEMENT, entries, 0.25, 4)
        cost = transmission_cost(tx)
        assert cost == CostRecord(floats=5 * 14 + 1, integers=5, components=5)

    def test_small_dimension_and_empty(self):
        entry = TransmissionEntry(np.zeros(2), np.eye(2), weight=1.0)
        tx = Transmission(PolicyTag.THRESHOLD, (entry,), None, 2)
        assert transmission_cost(tx) == CostRecord(floats=6, integers=0, components=1)
        empty = Transmission(PolicyTag.THRESHOLD, (), None, 2)
        assert transmission_cost(empty) == CostRecord(floats=0, integers=0, components=0)

    def test_encoded_length_matches_cost(self, rng):
        candidates = [
            select_full(random_mixture(rng, dim=3)),
            select_rank(random_mixture(rng, dim=4), 2),
            sample_with_replacement(
                weights_mixture([1.0, 2.0, 3.0, 4.0, 5.0], dim=4),
                SamplingConfig(bandwidth=2),
                rng,
            ),
            Transmission(PolicyTag.THRESHOLD, (), None, 2),
        ]
        for tx in candidates:
            cost = transmission_cost(tx)
            assert len(encode_transmission(tx)) == 12 + 8 * cost.floats + 4 * cost.integers


class TestWireFormat:
    def round_trip(self, tx):
        blob = encode_transmission(tx)
        decoded, end = decode_transmission(blob)
        assert end == len(blob)
        assert decoded.policy is tx.policy
        assert decoded.shared_weight == tx.shared_weight
        assert len(decoded) == len(tx)
        for a, b in zip(decoded, tx):
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.covariance, b.covariance)
            assert a.count == b.count and a.weight == b.weight
        return decoded

    def test_weight_mode_bit_exact(self, rng):
        self.round_trip(select_full(random_mixture(rng, dim=3)))

    def test_count_mode_bit_exact(self, rng):
        gm = weights_mixture([1.0, 2.0, 3.0, 4.0, 5.0], dim=4)
        self.round_trip(sample_with_replacement(gm, SamplingConfig(bandwidth=3), rng))

    def test_empty_transmission(self):
        self.round_trip(Transmission(PolicyTag.THRESHOLD, (), None, 2))

    def test_concatenated_records(self, rng):
        txs = [select_full(random_mixture(rng, dim=2)) for _ in range(3)]
        blob = b"".join(encode_transmission(tx) for tx in txs)
        offset = 0
        for tx in txs:
            decoded, offset = decode_transmission(blob, offset)
            assert len(decoded) == len(tx)
        assert offset == len(blob)

    def test_truncated_and_corrupt_records(self, rng):
        blob = encode_transmission(select_full(random_mixture(rng, dim=2)))
        with pytest.raises(ValueError, match="truncated"):
            decode_transmission(blob[: len(blob) - 1])
        with pytest.raises(ValueError, match="truncated"):
            decode_transmission(b"\x01")
        corrupted = bytearray(blob)
        corrupted[4] = 250  # policy tag byte
        with pytest.raises(ValueError, match="unknown policy tag"):
            decode_transmission(bytes(corrupted))

    def test_inconsistent_flags_rejected(self, rng):
        blob = bytearray(encode_transmission(select_full(random_mixture(rng, dim=2))))
        blob[5] = 0x01  # shared-weight flag without count mode
        with pytest.raises(ValueError, match="inconsistent|truncated|mismatch"):
            decode_transmission(bytes(blob))


class TestPolicyObjects:
    def test_tags_and_delegation(self, rng):
        gm = weights_mixture([0.05, 0.4, 1.0, 0.9])
        assert FullPolicy().tag is PolicyTag.FULL
        assert len(FullPolicy().select(gm)) == 4
        rank = RankPolicy(bandwidth=2)
        assert rank.tag is PolicyTag.RANK and len(rank.select(gm)) == 2
        thresh = ThresholdPolicy(tau=0.1)
        assert thresh.tag is PolicyTag.THRESHOLD and len(thresh.select(gm)) == 3
        with_r = SampleWithReplacementPolicy(SamplingConfig(bandwidth=2))
        assert with_r.tag is PolicyTag.SAMPLE_REPLACEMENT
        assert len(with_r.select(gm, rng)) <= 2
        without = SampleWithoutReplacementPolicy(SamplingConfig(bandwidth=2))
        assert without.tag is PolicyTag.SAMPLE_NO_REPLACEMENT
        assert len(without.select(gm, rng)) == 2

    def test_sampling_policies_require_rng(self):
        gm = weights_mixture([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="random generator"):
            SampleWithReplacementPolicy(SamplingConfig(bandwidth=2)).select(gm)
        with pytest.raises(ValueError, match="random generator"):
            SampleWithoutReplacementPolicy(
                SamplingConfig(bandwidth=2)
            ).select(gm)


def legacy_encode(transmission):
    """The encoder that ran before the wire record was stacked: header,
    optional shared weight, then one ``struct`` write per entry.  Takes any
    object with ``policy``, ``dimension``, ``shared_weight`` and ``entries``."""
    dim = transmission.dimension
    flags = 0x03 if transmission.shared_weight is not None else 0
    chunks = [
        struct.pack("<BBHI", _TAG_TO_WIRE[transmission.policy], flags, dim, len(transmission.entries))
    ]
    if transmission.shared_weight is not None:
        chunks.append(struct.pack("<d", transmission.shared_weight))
    upper = np.triu_indices(dim)
    for entry in transmission.entries:
        chunks.append(entry.mean.astype("<f8").tobytes())
        chunks.append(np.ascontiguousarray(entry.covariance[upper], dtype="<f8").tobytes())
        if entry.count is not None:
            chunks.append(struct.pack("<I", entry.count))
        else:
            chunks.append(struct.pack("<d", entry.weight))
    body = b"".join(chunks)
    return struct.pack("<I", len(body)) + body


def legacy_reconstruct(transmission):
    """The receiver before transmissions carried arrays: stack the entries
    and pass them through the public constructor."""
    entries = transmission.entries
    if not entries:
        return GaussianMixture.empty(transmission.dimension)
    if transmission.uses_counts:
        weights = np.array([entry.count * transmission.shared_weight for entry in entries])
    else:
        weights = np.array([entry.weight for entry in entries])
    return GaussianMixture(
        weights=weights,
        means=np.stack([entry.mean for entry in entries]),
        covariances=np.stack([entry.covariance for entry in entries]),
        dimension=transmission.dimension,
    )


def every_policy(rng, dim):
    """One transmission of each policy and mode from random mixtures in
    ``dim`` dimensions, plus the empty record."""
    gm = random_mixture(rng, dim=dim, min_components=8, max_components=12)
    config = SamplingConfig(bandwidth=3)
    return {
        "full": select_full(gm),
        "rank": select_rank(gm, 4),
        "threshold": select_threshold(gm, float(np.median(gm.weights))),
        "replacement_counts": sample_with_replacement(gm, config, rng),
        "replacement_fixed_draws": sample_with_replacement(
            gm, SamplingConfig(bandwidth=3, draw_mode="fixed_draws", draws=3), rng
        ),
        "replacement_vacuous_budget": sample_with_replacement(gm, SamplingConfig(bandwidth=20), rng),
        "no_replacement": sample_without_replacement(gm, config, rng),
        "no_replacement_whole": sample_without_replacement(gm, SamplingConfig(bandwidth=20), rng),
        "empty": select_threshold(gm, 10.0),
    }


def assert_same_bits(a, b, name):
    assert a.shape == b.shape and a.dtype == b.dtype, name
    assert a.tobytes() == b.tobytes(), name


class TestStackedTransmission:
    DIMS = (1, 2, 4)

    @pytest.mark.parametrize("dim", DIMS)
    def test_reconstruct_matches_the_public_constructor_bit_for_bit(self, dim):
        rng = np.random.default_rng(dim)
        for name, tx in every_policy(rng, dim).items():
            new, old = reconstruct(tx), legacy_reconstruct(tx)
            assert new.dimension == old.dimension == dim, name
            for array in ("weights", "means", "covariances", "whiten"):
                assert_same_bits(getattr(new, array), getattr(old, array), f"{name} {array}")

    @pytest.mark.parametrize("dim", DIMS)
    def test_modes_cover_counts_weights_and_empty(self, dim):
        txs = every_policy(np.random.default_rng(dim), dim)
        assert txs["replacement_counts"].uses_counts
        assert txs["replacement_counts"].weights is None
        assert not txs["replacement_vacuous_budget"].uses_counts
        assert len(txs["empty"]) == 0 and not txs["empty"].uses_counts

    @pytest.mark.parametrize("dim", DIMS)
    def test_encoder_writes_the_legacy_bytes(self, dim):
        rng = np.random.default_rng(10 + dim)
        for name, tx in every_policy(rng, dim).items():
            blob = encode_transmission(tx)
            assert blob == legacy_encode(tx), name
            decoded, end = decode_transmission(blob)
            assert end == len(blob) and decoded.policy is tx.policy, name
            assert blob == encode_transmission(decoded), name
            before, after = reconstruct(tx), reconstruct(decoded)
            for array in ("weights", "means", "covariances", "whiten"):
                assert_same_bits(getattr(after, array), getattr(before, array), f"{name} {array}")

    def test_hand_built_records_encode_as_before(self):
        for dim in self.DIMS:
            entries = tuple(
                TransmissionEntry(np.arange(dim) + l, np.eye(dim) * (l + 1), count=l + 1)
                for l in range(3)
            )
            counted = Transmission(PolicyTag.SAMPLE_REPLACEMENT, entries, 0.25, dim)
            weighted = Transmission(
                PolicyTag.RANK,
                [TransmissionEntry(e.mean, e.covariance, weight=0.5 * e.count) for e in entries],
                None,
                dim,
            )
            for tx in (counted, weighted, Transmission(PolicyTag.FULL, (), None, dim)):
                assert encode_transmission(tx) == legacy_encode(tx)

    def test_entries_view_equals_the_arrays(self, rng):
        for name, tx in every_policy(rng, 3).items():
            entries = tx.entries
            assert entries is tx.entries and len(entries) == len(tx), name
            assert list(tx) == list(entries), name
            for l, entry in enumerate(entries):
                np.testing.assert_array_equal(entry.mean, tx.means[l])
                np.testing.assert_array_equal(entry.covariance, tx.covariances[l])
                if tx.uses_counts:
                    assert entry.weight is None and entry.count == tx.counts[l]
                else:
                    assert entry.count is None and entry.weight == tx.weights[l]

    def test_built_from_entries_keeps_them(self):
        entries = (TransmissionEntry(np.zeros(2), np.eye(2), weight=1.0),)
        tx = Transmission(PolicyTag.FULL, entries, None, 2)
        assert tx.entries is entries
        np.testing.assert_array_equal(tx.whiten, np.eye(2)[np.newaxis])

    def test_arrays_are_read_only(self, rng):
        for name, tx in every_policy(rng, 2).items():
            for array in ("means", "covariances", "whiten", "weights", "counts"):
                value = getattr(tx, array)
                if value is not None:
                    assert not value.flags.writeable, f"{name} {array}"
                    with pytest.raises(ValueError, match="read-only"):
                        value[...] = 0

    def test_sender_factor_is_carried_not_recomputed(self, rng):
        gm = random_mixture(rng, dim=3, min_components=6)
        tx = select_threshold(gm, float(np.median(gm.weights)))
        kept = gm.weights > float(np.median(gm.weights))
        assert_same_bits(tx.whiten, gm.whiten[kept], "whiten")
        # Full broadcast sends the sender's arrays themselves, read-only.
        full = select_full(gm)
        for array in ("means", "covariances", "whiten", "weights"):
            assert np.shares_memory(getattr(full, array), getattr(gm, array)), array

    def test_entries_with_bad_covariances_are_rejected_on_construction(self):
        asymmetric = np.array([[1.0, 0.5], [0.0, 1.0]])
        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        for cov, error, match in (
            (asymmetric, ValueError, "not symmetric"),
            (indefinite, NumericalFailure, "positive definite"),
        ):
            for kind, shared in (({"weight": 1.0}, None), ({"count": 2}, 0.5)):
                entry = TransmissionEntry(np.zeros(2), cov, **kind)
                with pytest.raises(error, match=match):
                    Transmission(PolicyTag.FULL, (entry,), shared, 2)
        with pytest.raises(ValueError, match="covariance shape"):
            TransmissionEntry(np.zeros(2), np.eye(3), weight=1.0)
        with pytest.raises(NumericalFailure, match="means must be finite"):
            Transmission(
                PolicyTag.FULL, (TransmissionEntry(np.full(2, np.nan), np.eye(2), weight=1.0),), None, 2
            )

    def test_decoder_rejects_what_the_constructor_rejects(self):
        def record(cov, **kind):
            entry = TransmissionEntry(np.zeros(2), cov, **kind)
            shared = 0.5 if "count" in kind else None
            return legacy_encode(
                SimpleNamespace(policy=PolicyTag.FULL, dimension=2, shared_weight=shared, entries=(entry,))
            )

        indefinite = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NumericalFailure, match="positive definite"):
            decode_transmission(record(indefinite, weight=1.0))
        with pytest.raises(NumericalFailure, match="positive definite"):
            decode_transmission(record(indefinite, count=1))
        bad_weight = bytearray(record(np.eye(2), weight=1.0))
        bad_weight[-8:] = struct.pack("<d", -1.0)
        with pytest.raises(ValueError, match="finite and non-negative"):
            decode_transmission(bytes(bad_weight))
        zero_count = bytearray(record(np.eye(2), count=1))
        zero_count[-4:] = struct.pack("<I", 0)
        with pytest.raises(ValueError, match="positive integer"):
            decode_transmission(bytes(zero_count))
