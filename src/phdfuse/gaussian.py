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
    "NumericalFailure",
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
# The per-component arrays of a mixture, in the order ``_factored`` takes them.
_ARRAYS = ("weights", "means", "covariances", "whiten")


class NumericalFailure(ValueError):
    """A value computed from a run's data is unusable: a covariance that is
    not positive definite, a non-finite or negative weight, a non-finite
    mean or covariance, or a mixture with nothing to sample from.

    A Monte Carlo run records this as its own failure; any other
    ``ValueError`` is a programming error and aborts the campaign.
    """


def _whitening(covariances: np.ndarray) -> np.ndarray:
    """The whitening factors ``inv(cholesky(C))`` of a stack of covariances;
    ``NumericalFailure`` if one is not positive definite.  The only place a
    mixture covariance is factorised."""
    try:
        return np.linalg.inv(np.linalg.cholesky(covariances))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure("every covariance must be positive definite") from exc


def _check_values(weights: np.ndarray, means: np.ndarray, covariances: np.ndarray) -> None:
    """Reject non-finite or negative weights and non-finite means or
    covariances with ``NumericalFailure``."""
    if not np.isfinite(weights).all():
        raise NumericalFailure("weights must be finite")
    if (weights < 0.0).any():
        raise NumericalFailure("weights must be non-negative")
    if not np.isfinite(means).all():
        raise NumericalFailure("means must be finite")
    if not np.isfinite(covariances).all():
        raise NumericalFailure("covariances must be finite")


@dataclass(frozen=True)
class GaussianMixture:
    """An intensity ``v(x) = sum_l weights[l] * N(x; means[l], covariances[l])``.

    Attributes:
        weights: shape ``(J,)``, all finite and non-negative.
        means: shape ``(J, d)``.
        covariances: shape ``(J, d, d)``, each symmetric positive definite.
        dimension: the state dimension ``d`` (kept explicitly so that an
            empty mixture still knows what space it lives in).
        whiten: shape ``(J, d, d)``, ``inv(cholesky(covariances))``.  It is
            computed once, when a covariance is first checked, and every
            operation that keeps a covariance keeps its factor with it.
    """

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    dimension: int = field(default=-1)
    whiten: np.ndarray = field(init=False, repr=False, compare=False)

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
        means, covariances = means.reshape(count, dim), covariances.reshape(count, dim, dim)
        _check_values(weights, means, covariances)
        scale_ref = np.maximum(np.abs(covariances).max(axis=(-1, -2)), 1.0)
        asym = np.abs(covariances - np.swapaxes(covariances, -1, -2)).max(axis=(-1, -2))
        if np.any(asym > _SYMMETRY_TOL * scale_ref):
            worst = int(np.argmax(asym / scale_ref))
            raise ValueError(f"covariance {worst} is not symmetric (max asymmetry {asym.max():.3e})")
        arrays = [np.array(a, order="C") for a in (weights, means, covariances)]
        self._adopt(*arrays, _whitening(arrays[2]))

    def _adopt(self, *arrays: np.ndarray) -> None:
        """Store weights, means, covariances and whiten, read-only and uncopied."""
        for name, array in zip(_ARRAYS, arrays):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    @classmethod
    def _factored(
        cls, weights: np.ndarray, means: np.ndarray, covariances: np.ndarray, whiten: np.ndarray
    ) -> "GaussianMixture":
        """Adopt float arrays as a mixture without copying them or factorising.

        ``whiten`` must be ``_whitening(covariances)``, or have been indexed or
        concatenated alongside ``covariances`` from the factors of mixtures.
        The arrays themselves are marked read-only, so they must be ones the
        caller just built, or arrays of an existing mixture.  Shapes, weights,
        means and finiteness are still checked.
        """
        count, dim = len(weights), means.shape[-1]
        shapes = (weights.shape, means.shape, covariances.shape, whiten.shape)
        if shapes != ((count,), (count, dim), (count, dim, dim), (count, dim, dim)):
            raise ValueError(f"shapes {shapes} do not form a mixture")
        _check_values(weights, means, covariances)
        gm = object.__new__(cls)
        object.__setattr__(gm, "dimension", dim)
        gm._adopt(weights, means, covariances, whiten)
        return gm

    def __reduce__(self):
        # Unpickling re-adopts the arrays read-only, with their factor.
        return type(self)._factored, tuple(getattr(self, name) for name in _ARRAYS)

    @classmethod
    def empty(cls, dimension: int) -> "GaussianMixture":
        return cls(np.empty(0), np.empty((0, dimension)), np.empty((0, dimension, dimension)), dimension)

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
        densities = _gaussian_density((point - self.means)[np.newaxis], self.covariances)
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


def _gaussian_density(diff: np.ndarray, covariances: np.ndarray) -> np.ndarray:
    """Densities ``N(diff[m, l]; 0, C[m, l])`` as an ``(M, L)`` array.

    ``diff`` has shape ``(M, L, d)``.  ``C`` is ``covariances``, either an
    ``(M, L, d, d)`` stack or an ``(L, d, d)`` one shared by every row.  Each
    covariance is Cholesky-factorised once, and the quadratic form is
    ``|y|^2`` where the factor times ``y`` is ``diff``.  Raises
    ``numpy.linalg.LinAlgError`` when a covariance is not positive definite.
    """
    dim = diff.shape[-1]
    chol = np.linalg.cholesky(covariances)
    stacked = np.broadcast_to(chol, diff.shape + (dim,))
    solved = np.linalg.solve(stacked, diff[..., np.newaxis])[..., 0]
    quad = np.einsum("mld,mld->ml", solved, solved)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)
    log_density = -0.5 * (quad + logdet + dim * np.log(2.0 * np.pi))
    return np.exp(log_density)


def _pairwise_mahalanobis2(centres: np.ndarray, whiten: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared Mahalanobis distances as a ``(J, I)`` array: entry ``[j, i]`` is
    ``(points[i] - centres[j])^T C_j^{-1} (points[i] - centres[j])``, each row
    in the metric of its own centre's covariance ``C_j``.

    ``whiten[j]`` is that covariance's whitening factor (a mixture's
    ``whiten``), ``W_j = L_j^{-1}`` with ``C_j = L_j L_j^T``, so the entry is
    ``|W_j (points[i] - o) - W_j (centres[j] - o)|^2`` for any origin ``o``.
    One GEMM forms every such difference: the left side stacks the rows
    ``[W_j | -W_j (centres[j] - o)]`` and the right side is the shifted
    points with a row of ones below.  The origin is the points' mean, so the
    two terms of each difference have the size of the points' spread, not of
    their distance from the origin, and the result agrees with a direct
    ``solve`` to about ``1e-13`` relative wherever a distance is not tiny
    next to that spread.  (Expanding ``x^T A x - 2 c^T A x + c^T A c``
    instead cancels terms of the size of the squared offset and is not
    accurate.)
    """
    count, dim = centres.shape
    origin = points.mean(axis=0)
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
    return _weighted_sum([(1.0, gm) for gm in mixtures], mixtures[0].dimension)


def _weighted_sum(parts: Sequence[tuple[float, GaussianMixture]], dimension: int) -> GaussianMixture:
    """The intensity ``sum_k c_k * gm_k`` of ``parts`` ``(c_k, gm_k)``, as one
    concatenation in part order with one ``_factored`` call: each part's
    weights times its finite, non-negative coefficient (a coefficient of 1
    leaves them bit for bit), its means, covariances and factors as they
    are.  Nothing is factorised."""
    if not parts:
        return GaussianMixture.empty(dimension)
    factors = np.array([factor for factor, _ in parts], dtype=float)
    bad = ~(np.isfinite(factors) & (factors >= 0.0))
    if bad.any():
        raise ValueError(f"scale factor must be finite and non-negative, got {factors[bad][0]}")
    mixtures = [gm for _, gm in parts]
    if any(gm.dimension != dimension for gm in mixtures):
        raise ValueError("all mixtures must share one state dimension")
    # One product over the concatenation: the same per-element products as
    # scaling each part, without a numpy call per part.
    weights = np.concatenate([gm.weights for gm in mixtures])
    weights *= np.repeat(factors, [gm.size for gm in mixtures])
    return GaussianMixture._factored(
        weights, *(np.concatenate([getattr(gm, name) for gm in mixtures]) for name in _ARRAYS[1:])
    )


def scale(gm: GaussianMixture, factor: float) -> GaussianMixture:
    """Multiply the intensity by a finite, non-negative scalar."""
    return _weighted_sum([(factor, gm)], gm.dimension)


def _subset(gm: GaussianMixture, index: np.ndarray) -> GaussianMixture:
    """The components of ``gm`` selected by a boolean mask or index array."""
    return GaussianMixture._factored(*(getattr(gm, name)[index] for name in _ARRAYS))


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


def _moment_match(gm: GaussianMixture, label: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The moment-matched Gaussian of each group of components of ``gm``:
    its total weight, mean and (exactly symmetric) covariance.

    ``label[l]`` is component l's group, or -1 for none.  Groups come out in
    ascending label order.  A group whose total weight is zero takes its
    first member's mean and covariance.

    Groups of equal size are moment-matched together, one batch per size.
    Each group's members are summed in index order with the same numpy and
    BLAS calls as one group on its own, so the result does not depend on
    which groups share a batch.
    """
    weights, means, covs = gm.weights, gm.means, gm.covariances
    grouped = np.flatnonzero(label >= 0)
    # member: every grouped component, by group and then by index.
    member = grouped[np.argsort(label[grouped], kind="stable")]
    sizes = np.bincount(label[grouped])
    sizes = sizes[sizes > 0]
    starts = np.cumsum(sizes) - sizes
    out_w = np.empty(len(sizes))
    out_m = np.empty((len(sizes), gm.dimension))
    out_p = np.empty((len(sizes), gm.dimension, gm.dimension))
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
    # A group of zero-weight components collapses onto its first member.
    empty = np.flatnonzero(out_w == 0.0)
    out_m[empty] = means[member[starts[empty]]]
    out_p[empty] = covs[member[starts[empty]]]
    return out_w, out_m, symmetrize(out_p)


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
    whitening factor ``gm.whiten``, applied in one GEMM to the means shifted
    by their mean.  Near thresholds like the default 15 they agree with a
    direct ``solve`` to about ``1e-13`` relative, so only a distance that
    close to the threshold could land on the other side of it.  The input is
    not factorised again; only the merged outputs are, for their ``whiten``.
    """
    if not merge_threshold >= 0.0:
        raise ValueError(f"merge_threshold must be non-negative, got {merge_threshold}")
    if gm.size <= 1:
        return gm
    count = gm.size
    # close[lead, j]: component j lies within the threshold of lead, in j's metric.
    close = _pairwise_mahalanobis2(gm.means, gm.whiten, gm.means).T <= merge_threshold
    # A lead always joins its own group, even if its whitening overflowed and
    # made its own distance NaN.
    np.fill_diagonal(close, True)
    # Bit j of a row's integer is close[lead, j]; ``alive`` holds the unmerged set.
    row_bytes = (count + 7) // 8
    packed = np.packbits(close, axis=1, bitorder="little").tobytes()
    alive = (1 << count) - 1
    groups: list[bytes] = []
    for lead in np.argsort(-gm.weights, kind="stable").tolist():
        if alive >> lead & 1:
            row = packed[lead * row_bytes : (lead + 1) * row_bytes]
            group = int.from_bytes(row, "little") & alive
            alive ^= group
            groups.append(group.to_bytes(row_bytes, "little"))
            if not alive:
                break
    bits = np.frombuffer(b"".join(groups), dtype=np.uint8).reshape(len(groups), row_bytes)
    label = np.unpackbits(bits, axis=1, count=count, bitorder="little").argmax(axis=0)
    # A zero-weight group's first member is its lead: a zero-weight component
    # still alive at a lower index would have led first.
    out_w, out_m, out_p = _moment_match(gm, label)
    return GaussianMixture._factored(out_w, out_m, out_p, _whitening(out_p))


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
    return GaussianMixture._factored(sums, gm.means[first], gm.covariances[first], gm.whiten[first])


def l2_inner_product(f: GaussianMixture, g: GaussianMixture) -> float:
    """Closed-form ``\\int f(x) g(x) dx`` for two Gaussian mixtures."""
    if f.dimension != g.dimension:
        raise ValueError("mixtures must share one state dimension")
    if f.size == 0 or g.size == 0:
        return 0.0
    cross = _gaussian_density(
        f.means[:, np.newaxis, :] - g.means[np.newaxis, :, :],
        f.covariances[:, np.newaxis] + g.covariances[np.newaxis, :],
    )
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
