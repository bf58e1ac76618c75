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


def _check_values(weights: np.ndarray, means: np.ndarray, covariances: np.ndarray) -> None:
    """Reject non-finite or negative weights and non-finite means or covariances."""
    if not np.isfinite(weights).all():
        raise ValueError("weights must be finite")
    if (weights < 0.0).any():
        raise ValueError("weights must be non-negative")
    if not np.isfinite(means).all():
        raise ValueError("means must be finite")
    if not np.isfinite(covariances).all():
        raise ValueError("covariances must be finite")


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
        _check_values(weights, means, covariances)
        if count:
            _check_covariances(covariances)
        object.__setattr__(self, "weights", _as_readonly(weights))
        object.__setattr__(self, "means", _as_readonly(means))
        object.__setattr__(self, "covariances", _as_readonly(covariances))

    @classmethod
    def _with_checked_covariances(
        cls, weights: np.ndarray, means: np.ndarray, covariances: np.ndarray, dimension: int
    ) -> "GaussianMixture":
        """Adopt float arrays as a mixture without copying them or re-running
        ``_check_covariances``.

        Only for a covariance stack that is, bitwise, a subset, repeat or
        concatenation of stacks that already passed that check (each matrix is
        checked on its own, so such a stack passes it again).  The arrays
        themselves are marked read-only, so they must be ones the caller just
        built, or arrays of an existing mixture.  Shapes, weights, means and
        finiteness are still checked.
        """
        count = len(weights)
        if (
            weights.shape != (count,)
            or means.shape != (count, dimension)
            or covariances.shape != (count, dimension, dimension)
        ):
            raise ValueError(
                f"shapes {weights.shape}, {means.shape} and {covariances.shape} do not form "
                f"a mixture of dimension {dimension}"
            )
        _check_values(weights, means, covariances)
        gm = object.__new__(cls)
        for name, array in (("weights", weights), ("means", means), ("covariances", covariances)):
            array.flags.writeable = False
            object.__setattr__(gm, name, array)
        object.__setattr__(gm, "dimension", dimension)
        return gm

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


def _pairwise_mahalanobis2(
    centres: np.ndarray, covariances: np.ndarray, points: np.ndarray
) -> np.ndarray:
    """Squared Mahalanobis distances as a ``(J, I)`` array: entry ``[j, i]`` is
    ``(points[i] - centres[j])^T covariances[j]^{-1} (points[i] - centres[j])``,
    each row in the metric of its own centre.

    Each covariance is whitened by its Cholesky factor, ``W_j = L_j^{-1}`` with
    ``covariances[j] = L_j L_j^T``, so the entry is ``|W_j (points[i] - o) -
    W_j (centres[j] - o)|^2`` for any origin ``o``.  One GEMM forms every such
    difference: the left side stacks the rows ``[W_j | -W_j (centres[j] - o)]``
    and the right side is the shifted points with a row of ones below.  The
    origin is the points' mean, so the two terms of each difference have the
    size of the points' spread, not of their distance from the origin, and
    the result agrees with a direct ``solve`` to about ``1e-13`` relative
    wherever a distance is not tiny next to that spread.  (Expanding
    ``x^T A x - 2 c^T A x + c^T A c`` instead cancels terms of the size of
    the squared offset and is not accurate.)
    """
    count, dim = centres.shape
    origin = points.mean(axis=0)
    whiten = np.linalg.inv(np.linalg.cholesky(covariances))
    left = np.empty((count, dim, dim + 1))
    left[:, :, :dim] = whiten
    left[:, :, dim] = -np.einsum("jde,je->jd", whiten, centres - origin)
    right = np.ones((dim + 1, points.shape[0]))
    right[:dim] = (points - origin).T
    diff = (left.reshape(count * dim, dim + 1) @ right).reshape(count, dim, -1)
    return np.einsum("jdi,jdi->ji", diff, diff)


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
    return GaussianMixture._with_checked_covariances(
        np.concatenate([gm.weights for gm in parts]),
        np.concatenate([gm.means for gm in parts]),
        np.concatenate([gm.covariances for gm in parts]),
        dim,
    )


def scale(gm: GaussianMixture, factor: float) -> GaussianMixture:
    """Multiply the intensity by a finite, non-negative scalar."""
    factor = float(factor)
    if not factor >= 0.0 or not np.isfinite(factor):
        raise ValueError(f"scale factor must be finite and non-negative, got {factor}")
    if gm.size == 0:
        return gm
    return GaussianMixture._with_checked_covariances(
        gm.weights * factor, gm.means, gm.covariances, gm.dimension
    )


def _subset(gm: GaussianMixture, index: np.ndarray) -> GaussianMixture:
    """The components of ``gm`` selected by a boolean mask or index array."""
    return GaussianMixture._with_checked_covariances(
        gm.weights[index], gm.means[index], gm.covariances[index], gm.dimension
    )


def prune(gm: GaussianMixture, threshold: float) -> GaussianMixture:
    """Drop components whose weight is below ``threshold``."""
    if not threshold >= 0.0:
        raise ValueError(f"prune threshold must be non-negative, got {threshold}")
    if gm.size == 0:
        return gm
    keep = gm.weights >= threshold
    if np.all(keep):
        return gm
    return _subset(gm, keep)


def merge(gm: GaussianMixture, merge_threshold: float) -> GaussianMixture:
    """Greedily fuse components closer than ``merge_threshold``.

    Repeatedly takes the highest-weight unmerged component (the earliest one
    among equal weights), gathers every unmerged component whose squared
    Mahalanobis distance to it — measured in the metric of that component's
    *own* covariance — is at most ``merge_threshold``, and replaces the group
    by its moment-matched single Gaussian.  Measuring each candidate in its
    own metric means a diffuse low-weight component near a sharp dominant one
    is absorbed (instead of lingering and compounding), while a sharp
    neighbour a few of its own standard deviations away survives.  Total
    weight is preserved exactly up to floating-point summation.

    The distances come from ``_pairwise_mahalanobis2``: each candidate's
    Cholesky whitening, applied in one GEMM to the means shifted by their
    mean.  Near thresholds like the default 15 they agree with a direct
    ``solve`` to about ``1e-13`` relative, so only a distance that close to
    the threshold could land on the other side of it.

    Groups of equal size are moment-matched together, one batch per size.
    Each group's members are summed in index order with the same numpy and
    BLAS calls as one group on its own, so the result does not depend on
    which groups share a batch.
    """
    if not merge_threshold >= 0.0:
        raise ValueError(f"merge_threshold must be non-negative, got {merge_threshold}")
    if gm.size <= 1:
        return gm
    weights, means, covs = gm.weights, gm.means, gm.covariances
    count = gm.size
    # close[lead, j]: component j lies within the threshold of lead, in j's metric.
    close = _pairwise_mahalanobis2(means, covs, means).T <= merge_threshold
    # A lead always joins its own group, even if its whitening overflowed and
    # made its own distance NaN.
    np.fill_diagonal(close, True)
    # Bit j of a row's integer is close[lead, j]; ``alive`` holds the unmerged set.
    row_bytes = (count + 7) // 8
    packed = np.packbits(close, axis=1, bitorder="little").tobytes()
    alive = (1 << count) - 1
    leads: list[int] = []
    groups: list[bytes] = []
    for lead in np.argsort(-weights, kind="stable").tolist():
        if alive >> lead & 1:
            row = packed[lead * row_bytes : (lead + 1) * row_bytes]
            group = int.from_bytes(row, "little") & alive
            alive ^= group
            leads.append(lead)
            groups.append(group.to_bytes(row_bytes, "little"))
    bits = np.frombuffer(b"".join(groups), dtype=np.uint8).reshape(len(groups), row_bytes)
    slot_of, member = np.nonzero(np.unpackbits(bits, axis=1, count=count, bitorder="little"))
    sizes = np.bincount(slot_of, minlength=len(groups))
    starts = np.cumsum(sizes) - sizes
    leads_of = np.array(leads)
    out_w = np.empty(len(groups))
    out_m = np.empty((len(groups), gm.dimension))
    out_p = np.empty((len(groups), gm.dimension, gm.dimension))
    for size in np.unique(sizes).tolist():
        slots = np.flatnonzero(sizes == size)
        # idx[g]: the members of group slots[g], ascending.
        idx = member[starts[slots][:, np.newaxis] + np.arange(size)]
        group_w, group_m = weights[idx], means[idx]
        total = np.sum(group_w, axis=1)
        # A zero total divides by one instead; its slot is overwritten below.
        divisor = np.where(total > 0.0, total, 1.0)
        mean = (group_w[:, np.newaxis, :] @ group_m)[:, 0] / divisor[:, np.newaxis]
        spread = group_m - mean[:, np.newaxis, :]
        out_w[slots] = total
        out_m[slots] = mean
        out_p[slots] = (
            np.sum(
                group_w[:, :, np.newaxis, np.newaxis]
                * (covs[idx] + spread[:, :, :, np.newaxis] * spread[:, :, np.newaxis, :]),
                axis=1,
            )
            / divisor[:, np.newaxis, np.newaxis]
        )
    # A group of zero-weight components collapses onto its lead.
    empty = np.flatnonzero(out_w == 0.0)
    out_m[empty] = means[leads_of[empty]]
    out_p[empty] = covs[leads_of[empty]]
    return GaussianMixture(out_w, out_m, symmetrize(out_p), dimension=gm.dimension)


def cap(gm: GaussianMixture, max_components: int) -> GaussianMixture:
    """Keep the ``max_components`` heaviest components (original order preserved,
    ties broken in favour of earlier components)."""
    if max_components < 1:
        raise ValueError("max_components must be at least 1")
    if gm.size <= max_components:
        return gm
    order = np.argsort(-gm.weights, kind="stable")
    return _subset(gm, np.sort(order[:max_components]))


def coalesce_duplicates(gm: GaussianMixture) -> GaussianMixture:
    """Sum the weights of components with bitwise-identical mean and covariance.

    Consensus fusion repeatedly rescales and re-adds the same local components;
    without exact deduplication the component count would grow geometrically
    with the number of rounds even though the set of distinct Gaussians never
    changes.  First occurrence order is preserved and weights within a group
    are accumulated in component order, starting from the first occurrence.
    """
    if gm.size <= 1:
        return gm
    rows = np.concatenate([gm.means, gm.covariances.reshape(gm.size, -1)], axis=1)
    # Key each component by its bytes, so that -0.0 and 0.0 stay distinct.
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    starts = np.ones(gm.size, dtype=bool)
    starts[1:] = ordered[1:] != ordered[:-1]
    if np.all(starts):
        return gm
    # The sort is stable, so each run of equal keys starts at its first occurrence.
    key_of = np.empty(gm.size, dtype=np.intp)
    key_of[order] = np.cumsum(starts) - 1
    first_of = order[starts][key_of]
    is_first = first_of == np.arange(gm.size)
    first = np.flatnonzero(is_first)
    slot = (np.cumsum(is_first) - 1)[first_of]
    sums = gm.weights[first].copy()
    np.add.at(sums, slot[~is_first], gm.weights[~is_first])
    return GaussianMixture._with_checked_covariances(
        sums, gm.means[first], gm.covariances[first], gm.dimension
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
