"""Gaussian mixture intensities and the algebra the tracker needs.

A mixture is stored in stacked form (one weight vector, one matrix of means,
one array of covariances) so that evaluation, prediction and fusion can be
vectorised across components.  Mixtures are immutable value objects: every
operation returns a new mixture and the underlying arrays are marked
read-only.

Weights are *not* required to sum to one.  A mixture here represents an
intensity function whose integral is the expected number of objects, so the
total weight is meaningful and must be preserved or transformed exactly as
each operation documents.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "GaussianMixture",
    "mixture_sum",
    "scale",
    "prune",
    "merge",
    "cap",
    "coalesce_duplicates",
    "l2_inner_product",
    "l2_norm",
    "l2_distance",
    "cs_divergence",
]

_SYMMETRY_TOL = 1e-12


def _as_readonly(array: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(array, dtype=float)
    if out is array or out.base is array:
        out = out.copy()
    out.flags.writeable = False
    return out


def _check_covariances(covariances: np.ndarray) -> None:
    """Reject covariance stacks that are asymmetric or not positive definite."""
    transposed = np.swapaxes(covariances, -1, -2)
    scale_ref = np.maximum(np.abs(covariances).max(axis=(-1, -2)), 1.0)
    asym = np.abs(covariances - transposed).max(axis=(-1, -2))
    if np.any(asym > _SYMMETRY_TOL * scale_ref):
        worst = int(np.argmax(asym / scale_ref))
        raise ValueError(f"covariance {worst} is not symmetric (max asymmetry {asym.max():.3e})")
    try:
        np.linalg.cholesky(covariances)
    except np.linalg.LinAlgError as exc:
        raise ValueError("every covariance must be positive definite") from exc


@dataclass(frozen=True)
class GaussianMixture:
    """An intensity ``v(x) = sum_l weights[l] * N(x; means[l], covariances[l])``.

    Attributes:
        weights: shape ``(J,)``, all finite and non-negative.
        means: shape ``(J, d)``.
        covariances: shape ``(J, d, d)``, each symmetric positive definite.
        dimension: the state dimension ``d`` (kept explicitly so that an
            empty mixture still knows what space it lives in).
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    dimension: int = field(default=-1)

    def __post_init__(self) -> None:
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        means = np.asarray(self.means, dtype=float)
        covariances = np.asarray(self.covariances, dtype=float)
        if means.ndim == 1:
            means = means.reshape(len(weights), -1)
        if weights.ndim != 1:
            raise ValueError("weights must be a 1-d array")
        count = weights.size
        if self.dimension == -1:
            if means.size == 0:
                raise ValueError("dimension is required for an empty mixture")
            object.__setattr__(self, "dimension", int(means.shape[-1]))
        dim = int(self.dimension)
        if dim <= 0:
            raise ValueError(f"state dimension must be positive, got {dim}")
        means = means.reshape(count, dim) if count else means.reshape(0, dim)
        covariances = covariances.reshape(count, dim, dim) if count else covariances.reshape(0, dim, dim)
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0.0):
            raise ValueError("weights must be non-negative")
        if not np.all(np.isfinite(means)):
            raise ValueError("means must be finite")
        if not np.all(np.isfinite(covariances)):
            raise ValueError("covariances must be finite")
        if count:
            _check_covariances(covariances)
        object.__setattr__(self, "weights", _as_readonly(weights))
        object.__setattr__(self, "means", _as_readonly(means))
        object.__setattr__(self, "covariances", _as_readonly(covariances))

    @classmethod
    def empty(cls, dimension: int) -> "GaussianMixture":
        return cls(
            weights=np.empty(0),
            means=np.empty((0, dimension)),
            covariances=np.empty((0, dimension, dimension)),
            dimension=dimension,
        )

    @property
    def size(self) -> int:
        return int(self.weights.size)

    def __len__(self) -> int:
        return self.size

    def total_weight(self) -> float:
        """Integral of the intensity over the whole state space."""
        return float(np.sum(self.weights))

    def evaluate_at(self, x: np.ndarray) -> float:
        """Evaluate the intensity at a single point ``x`` of shape ``(d,)``."""
        point = np.asarray(x, dtype=float).reshape(self.dimension)
        if self.size == 0:
            return 0.0
        densities = _batch_gaussian_density(point[np.newaxis, :], self.means, self.covariances)
        return float(densities[0] @ self.weights)

    def allclose(self, other: "GaussianMixture", rtol: float = 1e-12, atol: float = 1e-12) -> bool:
        """Componentwise equality up to tolerance (same order, same size)."""
        return (
            self.dimension == other.dimension
            and self.size == other.size
            and np.allclose(self.weights, other.weights, rtol=rtol, atol=atol)
            and np.allclose(self.means, other.means, rtol=rtol, atol=atol)
            and np.allclose(self.covariances, other.covariances, rtol=rtol, atol=atol)
        )


def _batch_gaussian_density(
    points: np.ndarray, means: np.ndarray, covariances: np.ndarray
) -> np.ndarray:
    """Densities ``N(points[m]; means[l], covariances[l])`` as an ``(M, J)`` array."""
    dim = means.shape[-1]
    diff = points[:, np.newaxis, :] - means[np.newaxis, :, :]
    chol = np.linalg.cholesky(covariances)
    # Solve L y = diff for each (point, component) pair; quadratic form is |y|^2.
    solved = np.linalg.solve(
        np.broadcast_to(chol, (points.shape[0],) + chol.shape), diff[..., np.newaxis]
    )[..., 0]
    quad = np.einsum("mld,mld->ml", solved, solved)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    log_density = -0.5 * (quad + logdet + dim * np.log(2.0 * np.pi))
    return np.exp(log_density)


def _pairwise_cross_density(f: GaussianMixture, g: GaussianMixture) -> np.ndarray:
    """``N(f.means[i]; g.means[j], f.cov[i] + g.cov[j])`` as an ``(I, J)`` array.

    Raises ``numpy.linalg.LinAlgError`` when a covariance sum is singular.
    """
    dim = f.dimension
    cov_sum = f.covariances[:, np.newaxis] + g.covariances[np.newaxis, :]
    diff = f.means[:, np.newaxis, :] - g.means[np.newaxis, :, :]
    solved = np.linalg.solve(cov_sum, diff[..., np.newaxis])[..., 0]
    quad = np.einsum("ijd,ijd->ij", diff, solved)
    sign, logdet = np.linalg.slogdet(cov_sum)
    if np.any(sign <= 0):
        raise np.linalg.LinAlgError("covariance sum is not positive definite")
    return np.exp(-0.5 * (quad + logdet + dim * np.log(2.0 * np.pi)))


def symmetrize(matrices: np.ndarray) -> np.ndarray:
    """Average a matrix (or stack of matrices) with its transpose."""
    return 0.5 * (matrices + np.swapaxes(matrices, -1, -2))


def mixture_sum(mixtures: Sequence[GaussianMixture]) -> GaussianMixture:
    """Concatenate mixtures: the intensity of the sum is the sum of intensities."""
    if not mixtures:
        raise ValueError("mixture_sum needs at least one mixture")
    dim = mixtures[0].dimension
    for gm in mixtures:
        if gm.dimension != dim:
            raise ValueError("all mixtures must share one state dimension")
    parts = [gm for gm in mixtures if gm.size]
    if not parts:
        return GaussianMixture.empty(dim)
    if len(parts) == 1:
        return parts[0]
    return GaussianMixture(
        weights=np.concatenate([gm.weights for gm in parts]),
        means=np.concatenate([gm.means for gm in parts]),
        covariances=np.concatenate([gm.covariances for gm in parts]),
        dimension=dim,
    )


def scale(gm: GaussianMixture, factor: float) -> GaussianMixture:
    """Multiply the intensity by a non-negative scalar."""
    factor = float(factor)
    if factor < 0.0:
        raise ValueError(f"scale factor must be non-negative, got {factor}")
    if gm.size == 0:
        return gm
    return GaussianMixture(
        weights=gm.weights * factor,
        means=gm.means,
        covariances=gm.covariances,
        dimension=gm.dimension,
    )


def prune(gm: GaussianMixture, threshold: float) -> GaussianMixture:
    """Drop components whose weight is below ``threshold``."""
    if gm.size == 0:
        return gm
    keep = gm.weights >= threshold
    if np.all(keep):
        return gm
    return GaussianMixture(
        weights=gm.weights[keep],
        means=gm.means[keep],
        covariances=gm.covariances[keep],
        dimension=gm.dimension,
    )


def merge(gm: GaussianMixture, merge_threshold: float) -> GaussianMixture:
    """Greedily fuse components closer than ``merge_threshold``.

    Repeatedly takes the highest-weight unmerged component, gathers every
    unmerged component whose squared Mahalanobis distance to it — measured in
    the metric of that component's *own* covariance — is at most
    ``merge_threshold``, and replaces the group by its moment-matched single
    Gaussian.  Measuring each candidate in its own metric means a diffuse
    low-weight component near a sharp dominant one is absorbed (instead of
    lingering and compounding), while a sharp neighbour a few of its own
    standard deviations away survives.  Total weight is preserved exactly up
    to floating-point summation.
    """
    if gm.size <= 1:
        return gm
    weights, means, covs = gm.weights, gm.means, gm.covariances
    alive = np.ones(gm.size, dtype=bool)
    out_w: list[float] = []
    out_m: list[np.ndarray] = []
    out_p: list[np.ndarray] = []
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
            # A group of zero-weight components collapses onto its lead.
            mean = means[lead].copy()
            cov = covs[lead].copy()
        out_w.append(total)
        out_m.append(mean)
        out_p.append(symmetrize(cov))
        alive[group] = False
    return GaussianMixture(
        weights=np.array(out_w),
        means=np.stack(out_m),
        covariances=np.stack(out_p),
        dimension=gm.dimension,
    )


def cap(gm: GaussianMixture, max_components: int) -> GaussianMixture:
    """Keep the ``max_components`` heaviest components (original order preserved,
    ties broken in favour of earlier components)."""
    if max_components < 1:
        raise ValueError("max_components must be at least 1")
    if gm.size <= max_components:
        return gm
    order = np.argsort(-gm.weights, kind="stable")
    keep = np.sort(order[:max_components])
    return GaussianMixture(
        weights=gm.weights[keep],
        means=gm.means[keep],
        covariances=gm.covariances[keep],
        dimension=gm.dimension,
    )


def coalesce_duplicates(gm: GaussianMixture) -> GaussianMixture:
    """Sum the weights of components with bitwise-identical mean and covariance.

    Consensus fusion repeatedly rescales and re-adds the same local components;
    without exact deduplication the component count would grow geometrically
    with the number of rounds even though the set of distinct Gaussians never
    changes.  First occurrence order is preserved and weights within a group
    are accumulated in component order.
    """
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
    return GaussianMixture(
        weights=np.array(sums),
        means=gm.means[index],
        covariances=gm.covariances[index],
        dimension=gm.dimension,
    )


def l2_inner_product(f: GaussianMixture, g: GaussianMixture) -> float:
    """Closed-form ``\\int f(x) g(x) dx`` for two Gaussian mixtures."""
    if f.dimension != g.dimension:
        raise ValueError("mixtures must share one state dimension")
    if f.size == 0 or g.size == 0:
        return 0.0
    cross = _pairwise_cross_density(f, g)
    return float(f.weights @ cross @ g.weights)


def l2_norm(f: GaussianMixture) -> float:
    return float(np.sqrt(max(l2_inner_product(f, f), 0.0)))


def l2_distance(f: GaussianMixture, g: GaussianMixture) -> float:
    """L2 distance ``||f - g||_2`` computed from closed-form inner products."""
    squared = l2_inner_product(f, f) - 2.0 * l2_inner_product(f, g) + l2_inner_product(g, g)
    return float(np.sqrt(max(squared, 0.0)))


def cs_divergence(f: GaussianMixture, g: GaussianMixture) -> float:
    """Cauchy-Schwarz divergence ``-log(<f,g> / (||f|| ||g||))``.

    Zero exactly when the two intensities are proportional; requires both
    mixtures to have strictly positive L2 norm.
    """
    norm_f = l2_norm(f)
    norm_g = l2_norm(g)
    if norm_f <= 0.0 or norm_g <= 0.0:
        raise ValueError("Cauchy-Schwarz divergence needs mixtures with positive L2 norm")
    ratio = l2_inner_product(f, g) / (norm_f * norm_g)
    if ratio <= 0.0:
        raise ValueError("inner product must be positive for a finite divergence")
    return float(-np.log(min(ratio, 1.0)))
