"""Mixture algebra tests against quadrature and hand-derived oracles."""

import numpy as np
import pytest
from scipy.stats import norm

from phdfuse.gaussian import (
    GaussianMixture,
    _pairwise_mahalanobis2,
    cap,
    coalesce_duplicates,
    cs_divergence,
    l2_distance,
    l2_inner_product,
    l2_norm,
    merge,
    mixture_sum,
    prune,
    scale,
    symmetrize,
)
from conftest import random_mixture, single_gaussian

# Frozen closed-form values, derived by hand before the implementation ran:
# the 1-d standard normal density at the origin is 1/sqrt(2*pi), and the
# squared L2 norm of that density is integral N(x;0,1)^2 dx = N(0;0,2) =
# 1/(2*sqrt(pi)).
STD_NORMAL_AT_ZERO = 0.3989422804014327
STD_NORMAL_L2_SQUARED = 0.28209479177387814


def scipy_density(gm: GaussianMixture, grid: np.ndarray) -> np.ndarray:
    """Vectorized 1-d mixture density computed with scipy, not the package."""
    total = np.zeros_like(grid)
    for w, m, p in zip(gm.weights, gm.means[:, 0], gm.covariances[:, 0, 0]):
        total += w * norm.pdf(grid, loc=m, scale=np.sqrt(p))
    return total


def quadrature_inner_product(f: GaussianMixture, g: GaussianMixture) -> float:
    """Trapezoid-rule oracle for the 1-d L2 inner product."""
    assert f.dimension == 1 and g.dimension == 1
    lo = min(f.means.min(), g.means.min()) - 12.0 * np.sqrt(
        max(f.covariances.max(), g.covariances.max())
    )
    hi = max(f.means.max(), g.means.max()) + 12.0 * np.sqrt(
        max(f.covariances.max(), g.covariances.max())
    )
    grid = np.linspace(lo, hi, 40_001)
    return float(np.trapezoid(scipy_density(f, grid) * scipy_density(g, grid), grid))


class TestValidation:
    def test_mixture_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="non-negative"):
            single_gaussian(-0.5, [0.0], [[1.0]])

    def test_mixture_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            single_gaussian(np.inf, [0.0], [[1.0]])
        with pytest.raises(ValueError, match="finite"):
            single_gaussian(1.0, [np.nan], [[1.0]])

    def test_mixture_rejects_asymmetric_covariance(self):
        cov = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            single_gaussian(1.0, [0.0, 0.0], cov)

    def test_mixture_rejects_non_positive_definite(self):
        with pytest.raises(ValueError, match="positive definite"):
            single_gaussian(1.0, [0.0, 0.0], np.diag([1.0, -1.0]))

    def test_empty_mixture_requires_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            GaussianMixture(np.empty(0), np.empty((0, 0)), np.empty((0, 0, 0)))
        empty = GaussianMixture.empty(3)
        assert empty.size == 0 and empty.dimension == 3

    def test_arrays_are_read_only(self):
        gm = single_gaussian(1.0, [0.0], [[1.0]])
        with pytest.raises(ValueError):
            gm.weights[0] = 2.0
        with pytest.raises(ValueError):
            gm.means[0, 0] = 1.0


class TestEvaluate:
    def test_standard_normal_at_origin(self):
        gm = single_gaussian(1.0, [0.0], [[1.0]])
        assert gm.evaluate_at(np.array([0.0])) == pytest.approx(
            STD_NORMAL_AT_ZERO, rel=1e-12
        )

    def test_two_dim_standard_normal_at_origin(self):
        gm = single_gaussian(1.0, [0.0, 0.0], np.eye(2))
        assert gm.evaluate_at(np.zeros(2)) == pytest.approx(
            1.0 / (2.0 * np.pi), rel=1e-12
        )

    def test_weights_scale_density_linearly(self, rng):
        gm = random_mixture(rng, dim=2)
        doubled = scale(gm, 2.0)
        for _ in range(20):
            x = rng.uniform(-60, 60, size=2)
            assert doubled.evaluate_at(x) == pytest.approx(
                2.0 * gm.evaluate_at(x), rel=1e-12
            )

    def test_empty_mixture_is_zero(self):
        assert GaussianMixture.empty(2).evaluate_at(np.zeros(2)) == 0.0

    def test_density_integrates_to_total_weight(self):
        gm = GaussianMixture(
            weights=np.array([0.7, 1.8]),
            means=np.array([[-2.0], [3.0]]),
            covariances=np.array([[[1.5]], [[0.5]]]),
            dimension=1,
        )
        grid = np.linspace(-30.0, 30.0, 4_001)
        values = np.array([gm.evaluate_at(np.array([x])) for x in grid])
        assert np.trapezoid(values, grid) == pytest.approx(2.5, rel=1e-6)


class TestSumScale:
    def test_mixture_sum_is_pointwise_sum(self, rng):
        f = random_mixture(rng, dim=2)
        g = random_mixture(rng, dim=2)
        total = mixture_sum([f, g])
        assert total.size == f.size + g.size
        for _ in range(20):
            x = rng.uniform(-60, 60, size=2)
            assert total.evaluate_at(x) == pytest.approx(
                f.evaluate_at(x) + g.evaluate_at(x), rel=1e-12
            )

    def test_mixture_sum_rejects_dimension_mismatch(self, rng):
        with pytest.raises(ValueError, match="dimension"):
            mixture_sum([random_mixture(rng, dim=2), random_mixture(rng, dim=3)])
        with pytest.raises(ValueError, match="at least one"):
            mixture_sum([])

    def test_mixture_sum_of_empties(self):
        out = mixture_sum([GaussianMixture.empty(2), GaussianMixture.empty(2)])
        assert out.size == 0 and out.dimension == 2

    def test_scale_rejects_negative(self, rng):
        with pytest.raises(ValueError, match="non-negative"):
            scale(random_mixture(rng), -0.1)

    def test_scale_total_weight(self, rng):
        gm = random_mixture(rng)
        assert scale(gm, 0.25).total_weight() == pytest.approx(
            0.25 * gm.total_weight(), rel=1e-12
        )


class TestPrune:
    def test_prune_drops_strictly_below_threshold(self):
        gm = GaussianMixture(
            weights=np.array([0.1, 0.5, 0.0999]),
            means=np.zeros((3, 1)) + np.arange(3).reshape(3, 1),
            covariances=np.ones((3, 1, 1)),
            dimension=1,
        )
        kept = prune(gm, 0.1)
        assert kept.size == 2
        assert np.array_equal(kept.weights, np.array([0.1, 0.5]))

    def test_prune_empty_and_all_kept(self, rng):
        gm = random_mixture(rng)
        assert prune(gm, 0.0) is gm
        assert prune(GaussianMixture.empty(2), 0.5).size == 0


class TestMerge:
    def test_two_equal_components_moment_match(self):
        # Hand-derived: weights .5/.5 at means 0 and 2 with unit variance merge
        # to weight 1, mean 1, variance 1 + (0.5*1 + 0.5*1) = 2.
        gm = GaussianMixture(
            weights=np.array([0.5, 0.5]),
            means=np.array([[0.0], [2.0]]),
            covariances=np.ones((2, 1, 1)),
            dimension=1,
        )
        merged = merge(gm, merge_threshold=10.0)
        assert merged.size == 1
        assert merged.weights[0] == pytest.approx(1.0, rel=1e-12)
        assert merged.means[0, 0] == pytest.approx(1.0, rel=1e-12)
        assert merged.covariances[0, 0, 0] == pytest.approx(2.0, rel=1e-12)

    def test_total_weight_preserved(self, rng):
        for seed in range(5):
            gm = random_mixture(np.random.default_rng(seed), dim=2)
            merged = merge(gm, merge_threshold=15.0)
            assert merged.total_weight() == pytest.approx(
                gm.total_weight(), rel=1e-12
            )

    def test_distance_measured_in_candidate_covariance(self):
        # A diffuse satellite 5 m from a sharp heavy component is absorbed
        # (5^2/100 <= 15 in its own metric), while a sharp satellite at the
        # same distance survives (5^2/0.1 > 15).
        gm = GaussianMixture(
            weights=np.array([1.0, 0.1, 0.1]),
            means=np.array([[0.0], [5.0], [-5.0]]),
            covariances=np.array([[[1.0]], [[100.0]], [[0.1]]]),
            dimension=1,
        )
        merged = merge(gm, merge_threshold=15.0)
        assert merged.size == 2
        # The absorbed pair keeps its combined weight; the sharp one is intact.
        assert sorted(np.round(merged.weights, 12)) == [0.1, 1.1]

    def test_far_components_survive(self):
        gm = GaussianMixture(
            weights=np.array([1.0, 1.0]),
            means=np.array([[0.0], [100.0]]),
            covariances=np.ones((2, 1, 1)),
            dimension=1,
        )
        assert merge(gm, merge_threshold=15.0).size == 2

    def test_single_component_untouched(self):
        gm = single_gaussian(1.0, [0.0], [[1.0]])
        assert merge(gm, 15.0) is gm

    def test_rejects_negative_or_nan_threshold(self, rng):
        # A lead must always fall within its own threshold.
        gm = random_mixture(rng, min_components=2)
        for threshold in (-1.0, np.nan):
            with pytest.raises(ValueError, match="merge_threshold"):
                merge(gm, threshold)


class TestCap:
    def test_keeps_heaviest_in_original_order(self):
        gm = GaussianMixture(
            weights=np.array([0.3, 1.0, 0.2, 0.9]),
            means=np.arange(4, dtype=float).reshape(4, 1),
            covariances=np.ones((4, 1, 1)),
            dimension=1,
        )
        capped = cap(gm, 2)
        assert np.array_equal(capped.weights, np.array([1.0, 0.9]))
        assert np.array_equal(capped.means[:, 0], np.array([1.0, 3.0]))

    def test_tie_break_prefers_earlier(self):
        gm = GaussianMixture(
            weights=np.array([0.5, 0.5, 0.5]),
            means=np.arange(3, dtype=float).reshape(3, 1),
            covariances=np.ones((3, 1, 1)),
            dimension=1,
        )
        capped = cap(gm, 2)
        assert np.array_equal(capped.means[:, 0], np.array([0.0, 1.0]))

    def test_no_op_and_validation(self, rng):
        gm = random_mixture(rng)
        assert cap(gm, gm.size) is gm
        with pytest.raises(ValueError, match="at least 1"):
            cap(gm, 0)


class TestCoalesce:
    def test_bitwise_duplicates_sum_weights(self):
        mean = np.array([1.0, 2.0])
        cov = np.eye(2)
        gm = GaussianMixture(
            weights=np.array([0.25, 0.5, 0.125]),
            means=np.stack([mean, mean + 1.0, mean]),
            covariances=np.stack([cov, cov, cov]),
            dimension=2,
        )
        out = coalesce_duplicates(gm)
        assert out.size == 2
        assert out.weights[0] == 0.375  # exact float: 0.25 + 0.125
        assert np.array_equal(out.means[0], mean)

    def test_distinct_components_returned_unchanged(self, rng):
        gm = random_mixture(rng)
        assert coalesce_duplicates(gm) is gm

    def test_preserves_density(self, rng):
        base = random_mixture(rng, dim=2, max_components=4)
        doubled = mixture_sum([base, base])
        out = coalesce_duplicates(doubled)
        assert out.size == base.size
        for _ in range(10):
            x = rng.uniform(-60, 60, size=2)
            assert out.evaluate_at(x) == pytest.approx(
                2.0 * base.evaluate_at(x), rel=1e-12
            )


def reference_merge(gm: GaussianMixture, merge_threshold: float) -> GaussianMixture:
    """The greedy merge loop as first written: one ``solve`` per lead over
    every unmerged candidate, and per-group moment matching."""
    if gm.size <= 1:
        return gm
    weights, means, covs = gm.weights, gm.means, gm.covariances
    alive = np.ones(gm.size, dtype=bool)
    out_w, out_m, out_p = [], [], []
    while np.any(alive):
        candidates = np.flatnonzero(alive)
        lead = candidates[np.argmax(weights[candidates])]
        diff = means[candidates] - means[lead]
        solved = np.linalg.solve(covs[candidates], diff[:, :, np.newaxis])
        dist2 = np.einsum("nd,nd->n", diff, solved[:, :, 0])
        group = candidates[dist2 <= merge_threshold]
        group_w = weights[group]
        total = float(np.sum(group_w))
        if total > 0.0:
            mean = (group_w @ means[group]) / total
            spread = means[group] - mean
            cov = (
                np.sum(
                    group_w[:, np.newaxis, np.newaxis]
                    * (covs[group] + spread[:, :, np.newaxis] * spread[:, np.newaxis, :]),
                    axis=0,
                )
                / total
            )
        else:
            mean = means[lead].copy()
            cov = covs[lead].copy()
        out_w.append(total)
        out_m.append(mean)
        out_p.append(symmetrize(cov))
        alive[group] = False
    return GaussianMixture(np.array(out_w), np.stack(out_m), np.stack(out_p), dimension=gm.dimension)


def reference_coalesce(gm: GaussianMixture) -> GaussianMixture:
    """Duplicate coalescing as first written: a dict keyed by each
    component's bytes, filled in component order."""
    if gm.size <= 1:
        return gm
    groups: dict[bytes, int] = {}
    first: list[int] = []
    sums: list[float] = []
    for l in range(gm.size):
        key = gm.means[l].tobytes() + gm.covariances[l].tobytes()
        slot = groups.get(key)
        if slot is None:
            groups[key] = len(first)
            first.append(l)
            sums.append(float(gm.weights[l]))
        else:
            sums[slot] += float(gm.weights[l])
    if len(first) == gm.size:
        return gm
    index = np.array(first)
    return GaussianMixture(np.array(sums), gm.means[index], gm.covariances[index], dimension=gm.dimension)


def assert_bitwise_equal(actual: GaussianMixture, expected: GaussianMixture) -> None:
    """Equal bit patterns, so that even the sign of a zero must agree."""
    assert actual.dimension == expected.dimension
    for name in ("weights", "means", "covariances"):
        a, b = getattr(actual, name), getattr(expected, name)
        assert a.shape == b.shape, name
        assert np.array_equal(a, b), name
        np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64), err_msg=name)


def clustered_mixture(rng: np.random.Generator, size: int, dim: int) -> GaussianMixture:
    """Components scattered around a few centres, so that merge forms
    multi-member groups and singletons.  Weights come from a small set, so
    many tie; some are -0.0; the last cluster is all zero weight; and some
    mean entries are exactly 0.0 or -0.0."""
    clusters = max(2, size // 4)
    centres = rng.uniform(-40.0, 40.0, size=(clusters, dim))
    label = rng.integers(clusters, size=size)
    means = centres[label] + rng.normal(scale=2.0, size=(size, dim))
    zeros = rng.random((size, dim)) < 0.1
    means[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    a = rng.standard_normal((size, dim, dim))
    covariances = a @ np.swapaxes(a, 1, 2) + (0.5 + rng.random(size))[:, None, None] * np.eye(dim)
    weights = rng.choice([0.0, -0.0, 0.125, 0.5, 0.5, 1.0, rng.random()], size=size)
    weights[label == clusters - 1] = 0.0
    return GaussianMixture(weights, means, covariances, dimension=dim)


def grouped_mixture(
    rng: np.random.Generator, group_sizes: tuple[int, ...], dim: int, zero_group: int
) -> GaussianMixture:
    """Far-apart tight clusters, one per entry of ``group_sizes``, so that
    merge forms exactly these groups.  Members are shuffled across the index
    range; weights span six decades; cluster ``zero_group`` has only 0.0 and
    -0.0 weights."""
    count = sum(group_sizes)
    label = np.repeat(np.arange(len(group_sizes)), group_sizes)
    centres = rng.uniform(-1e3, 1e3, size=(len(group_sizes), dim))
    centres[:, 0] = 1e4 * np.arange(len(group_sizes))
    means = centres[label] + rng.normal(scale=0.05, size=(count, dim))
    a = rng.standard_normal((count, dim, dim))
    covariances = a @ np.swapaxes(a, 1, 2) + (1.0 + rng.random(count))[:, None, None] * np.eye(dim)
    weights = rng.random(count) * 10.0 ** rng.uniform(-3.0, 3.0, size=count)
    zero = label == zero_group
    weights[zero] = rng.choice([0.0, -0.0], size=int(zero.sum()))
    order = rng.permutation(count)
    return GaussianMixture(weights[order], means[order], covariances[order], dimension=dim)


class TestBitExactReduction:
    """The vectorised reductions against the loops they replaced."""

    SIZES = (2, 31, 32, 33, 65, 260)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    @pytest.mark.parametrize("size", SIZES)
    def test_merge_matches_reference_loop(self, size, dim):
        rng = np.random.default_rng(1000 * size + dim)
        for threshold in (4.0, 15.0):
            gm = clustered_mixture(rng, size, dim)
            assert_bitwise_equal(merge(gm, threshold), reference_merge(gm, threshold))

    # numpy's 1-d sum is sequential below 8 terms and uses eight
    # accumulators from 8 on; the scenario forms merge groups of up to ~40.
    # Two groups per size (three of size 9, one with zero weights), so every
    # batch of equal-size groups holds more than one group.
    GROUP_SIZES = (1, 2, 7, 8, 9, 16, 17, 40, 47) * 2 + (9,)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_merge_matches_reference_loop_on_large_groups(self, dim):
        rng = np.random.default_rng(77 + dim)
        gm = grouped_mixture(rng, self.GROUP_SIZES, dim, zero_group=len(self.GROUP_SIZES) - 1)
        merged = merge(gm, 4.0)
        assert merged.size == len(self.GROUP_SIZES)
        assert np.count_nonzero(merged.weights == 0.0) == 1
        assert_bitwise_equal(merged, reference_merge(gm, 4.0))

    def test_merge_ties_and_zero_weight_groups(self):
        # Equal weights pick the earliest lead; a group whose weights are all
        # zero (including -0.0) collapses onto its lead's moments.
        gm = GaussianMixture(
            weights=np.array([0.5, 0.0, 0.5, -0.0, -0.0, 0.5]),
            means=np.array([[10.0], [0.0], [10.5], [0.5], [100.0], [-0.0]]),
            covariances=np.array([[[1.0]], [[2.0]], [[1.0]], [[1.0]], [[3.0]], [[1.0]]]),
            dimension=1,
        )
        merged = merge(gm, 4.0)
        assert_bitwise_equal(merged, reference_merge(gm, 4.0))
        assert merged.size == 3

    def test_pair_exactly_at_threshold_merges(self):
        # 1-d, unit variances, separation 3: squared distance exactly 9.
        gm = GaussianMixture(
            weights=np.array([1.0, 0.5]),
            means=np.array([[0.0], [3.0]]),
            covariances=np.ones((2, 1, 1)),
            dimension=1,
        )
        assert merge(gm, 9.0).size == 1
        assert merge(gm, np.nextafter(9.0, 0.0)).size == 2
        for threshold in (9.0, np.nextafter(9.0, 0.0)):
            assert_bitwise_equal(merge(gm, threshold), reference_merge(gm, threshold))

    @pytest.mark.parametrize("dim", [1, 2, 4])
    @pytest.mark.parametrize("size", SIZES)
    def test_pairwise_kernel_matches_solve(self, size, dim):
        rng = np.random.default_rng(size + 7 * dim)
        centres = clustered_mixture(rng, size, dim)
        points = rng.uniform(-40.0, 40.0, size=(size + 3, dim))
        dist2 = _pairwise_mahalanobis2(centres.means, centres.covariances, points)
        diff = points[np.newaxis, :, :] - centres.means[:, np.newaxis, :]
        solved = np.linalg.solve(centres.covariances, np.swapaxes(diff, 1, 2))
        expected = np.einsum("jid,jdi->ji", diff, solved)
        np.testing.assert_allclose(dist2, expected, rtol=1e-10)

    @pytest.mark.parametrize("dim", [1, 2, 4])
    @pytest.mark.parametrize("size", SIZES)
    def test_coalesce_matches_reference_loop(self, size, dim):
        rng = np.random.default_rng(size + 100 * dim)
        base = clustered_mixture(rng, max(1, size // 3), dim)
        pick = rng.integers(base.size, size=size)
        means = base.means[pick]
        # The last mean differs from the first only in the sign of a zero.
        means[0, 0] = 0.0
        means[-1] = means[0]
        means[-1, 0] = -0.0
        gm = GaussianMixture(
            rng.choice([0.0, 0.1, 0.25, 1.0, rng.random()], size=size),
            means,
            base.covariances[pick],
            dimension=dim,
        )
        assert_bitwise_equal(coalesce_duplicates(gm), reference_coalesce(gm))

    def test_coalesce_keeps_signed_zeros_apart(self):
        gm = GaussianMixture(
            weights=np.array([0.25, 0.5, 0.125]),
            means=np.array([[0.0], [-0.0], [0.0]]),
            covariances=np.ones((3, 1, 1)),
            dimension=1,
        )
        out = coalesce_duplicates(gm)
        assert_bitwise_equal(out, reference_coalesce(gm))
        assert out.size == 2 and out.weights[0] == 0.375

    def test_internal_paths_still_reject_bad_values(self, rng):
        gm = random_mixture(rng)
        with pytest.raises(ValueError, match="finite"):
            scale(gm, np.inf)
        with pytest.raises(ValueError, match="finite"):
            scale(gm, np.nan)


class TestL2:
    def test_standard_normal_squared_norm(self):
        gm = single_gaussian(1.0, [0.0], [[1.0]])
        assert l2_inner_product(gm, gm) == pytest.approx(
            STD_NORMAL_L2_SQUARED, rel=1e-12
        )
        assert l2_norm(gm) == pytest.approx(
            np.sqrt(STD_NORMAL_L2_SQUARED), rel=1e-12
        )

    def test_inner_product_matches_quadrature(self):
        for seed in range(4):
            gen = np.random.default_rng(seed)
            f = random_mixture(gen, dim=1, max_components=4)
            g = random_mixture(gen, dim=1, max_components=4)
            assert l2_inner_product(f, g) == pytest.approx(
                quadrature_inner_product(f, g), rel=1e-6
            )

    def test_distance_zero_for_identical(self, rng):
        gm = random_mixture(rng)
        assert l2_distance(gm, gm) == pytest.approx(0.0, abs=1e-9)

    def test_distance_symmetry_and_positivity(self, rng):
        f = random_mixture(rng, dim=2)
        g = random_mixture(rng, dim=2)
        assert l2_distance(f, g) == pytest.approx(l2_distance(g, f), rel=1e-12)
        assert l2_distance(f, g) > 0.0

    def test_distance_matches_quadrature(self):
        gen = np.random.default_rng(7)
        f = random_mixture(gen, dim=1, max_components=3)
        g = random_mixture(gen, dim=1, max_components=3)
        squared = (
            quadrature_inner_product(f, f)
            - 2.0 * quadrature_inner_product(f, g)
            + quadrature_inner_product(g, g)
        )
        assert l2_distance(f, g) == pytest.approx(np.sqrt(squared), rel=1e-6)

    def test_empty_inner_products(self, rng):
        empty = GaussianMixture.empty(2)
        gm = random_mixture(rng, dim=2)
        assert l2_inner_product(empty, gm) == 0.0
        assert l2_norm(empty) == 0.0
        assert l2_distance(gm, empty) == pytest.approx(l2_norm(gm), rel=1e-12)

    def test_dimension_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="dimension"):
            l2_inner_product(random_mixture(rng, dim=1), random_mixture(rng, dim=2))


class TestCsDivergence:
    def test_zero_for_proportional(self, rng):
        gm = random_mixture(rng)
        assert cs_divergence(gm, scale(gm, 3.0)) == pytest.approx(0.0, abs=1e-12)

    def test_positive_for_different(self, rng):
        f = random_mixture(rng, dim=2)
        g = random_mixture(rng, dim=2)
        assert cs_divergence(f, g) > 0.0

    def test_rejects_zero_norm(self, rng):
        with pytest.raises(ValueError, match="positive L2 norm"):
            cs_divergence(GaussianMixture.empty(2), random_mixture(rng, dim=2))


class TestSymmetrize:
    def test_symmetrize_stack(self, rng):
        stack = rng.standard_normal((3, 4, 4))
        out = symmetrize(stack)
        assert np.allclose(out, np.swapaxes(out, -1, -2))
        assert np.allclose(out, 0.5 * (stack + np.swapaxes(stack, -1, -2)))
