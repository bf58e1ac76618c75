"""Shared test helpers: seeded random-mixture factories."""

import numpy as np
import pytest

from phdfuse.gaussian import GaussianMixture, symmetrize


def random_mixture(
    rng: np.random.Generator,
    dim: int = 2,
    max_components: int = 10,
    min_components: int = 1,
) -> GaussianMixture:
    """A well-conditioned random mixture with positive weights."""
    count = int(rng.integers(min_components, max_components + 1))
    weights = rng.uniform(0.2, 2.0, size=count)
    means = rng.uniform(-50.0, 50.0, size=(count, dim))
    covariances = np.empty((count, dim, dim))
    for l in range(count):
        a = rng.standard_normal((dim, dim))
        covariances[l] = a @ a.T + (1.0 + rng.uniform()) * np.eye(dim)
    return GaussianMixture(weights, means, covariances, dimension=dim)


def single_gaussian(weight: float, mean, covariance) -> GaussianMixture:
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    covariance = np.atleast_2d(np.asarray(covariance, dtype=float))
    return GaussianMixture(
        weights=np.array([weight]),
        means=mean.reshape(1, -1),
        covariances=covariance.reshape(1, mean.size, mean.size),
        dimension=mean.size,
    )


def moment_match_group(weights, means, covariances):
    """One group's moment-matched Gaussian as ``(total, mean, covariance)``,
    summed in member order and divided after, with the covariance
    symmetrised.  A zero-weight group takes its first member's moments."""
    total = float(np.sum(weights))
    if total > 0.0:
        mean = (weights @ means) / total
        spread = means - mean
        cov = (
            np.sum(
                weights[:, np.newaxis, np.newaxis]
                * (covariances + spread[:, :, np.newaxis] * spread[:, np.newaxis, :]),
                axis=0,
            )
            / total
        )
    else:
        mean, cov = means[0].copy(), covariances[0].copy()
    return total, mean, symmetrize(cov)


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow: uses the Monte Carlo acceptance fixture (minutes); "
        'deselect with -m "not slow"',
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
