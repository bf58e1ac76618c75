"""Local Gaussian-mixture PHD recursion for a single sensor.

The filter propagates an intensity function (a Gaussian mixture) whose
integral is the expected number of targets.  Prediction applies survival,
spawning and birth; the update folds in one measurement set under a standard
linear-Gaussian detection model with clutter.  Prune / merge / cap keep the
component count bounded, and extraction reads point estimates off the
posterior.

State-dependent probabilities (survival, detection) and the clutter intensity
are supplied as callables mapping an ``(n, d)`` array of points to ``(n,)``
values, so region-gated models stay vectorised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .gaussian import (
    GaussianMixture,
    _gaussian_density,
    _whitening,
    cap,
    merge,
    mixture_sum,
    prune,
    symmetrize,
)

__all__ = [
    "MotionModel",
    "BirthModel",
    "SpawnTerm",
    "SpawnModel",
    "SensorModel",
    "PhdConfig",
    "predict",
    "update",
    "extract_targets",
    "reduce_mixture",
]

StateFunction = Callable[[np.ndarray], np.ndarray]


def _as_matrix(value: np.ndarray, name: str) -> np.ndarray:
    out = np.asarray(value, dtype=float)
    if out.ndim != 2:
        raise ValueError(f"{name} must be a matrix, got shape {out.shape}")
    return out


def _check_psd(matrix: np.ndarray, name: str) -> None:
    if not np.allclose(matrix, matrix.T, rtol=0.0, atol=1e-12 * max(np.abs(matrix).max(), 1.0)):
        raise ValueError(f"{name} must be symmetric")
    eigenvalues = np.linalg.eigvalsh(matrix)
    if eigenvalues.min() < -1e-10 * max(eigenvalues.max(), 1.0):
        raise ValueError(f"{name} must be positive semidefinite")


@dataclass(frozen=True)
class MotionModel:
    """Linear-Gaussian motion: ``x' = F x + noise`` with noise covariance ``Q``.

    ``survival_probability`` maps an ``(n, d_x)`` array of states to per-state
    survival probabilities in [0, 1].
    """

    F: np.ndarray
    Q: np.ndarray
    survival_probability: StateFunction

    def __post_init__(self) -> None:
        F = _as_matrix(self.F, "F")
        Q = _as_matrix(self.Q, "Q")
        if F.shape[0] != F.shape[1]:
            raise ValueError("F must be square")
        if Q.shape != F.shape:
            raise ValueError("Q must match the shape of F")
        _check_psd(Q, "Q")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "Q", Q)

    @property
    def dimension(self) -> int:
        return self.F.shape[0]


@dataclass(frozen=True)
class BirthModel:
    """Birth intensity added verbatim at every prediction."""

    intensity: GaussianMixture


@dataclass(frozen=True)
class SpawnTerm:
    """One spawning kernel: a parent at ``x`` spawns intensity
    ``weight * N(.; F x + offset, Q)``."""

    weight: float
    F: np.ndarray
    offset: np.ndarray
    Q: np.ndarray

    def __post_init__(self) -> None:
        F = _as_matrix(self.F, "spawn F")
        Q = _as_matrix(self.Q, "spawn Q")
        offset = np.asarray(self.offset, dtype=float).reshape(-1)
        if F.shape[0] != F.shape[1] or Q.shape != F.shape or offset.size != F.shape[0]:
            raise ValueError("spawn term shapes are inconsistent")
        if not self.weight >= 0.0:
            raise ValueError("spawn weight must be non-negative")
        _check_psd(Q, "spawn Q")
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "Q", Q)


@dataclass(frozen=True)
class SpawnModel:
    terms: tuple[SpawnTerm, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))


@dataclass(frozen=True)
class SensorModel:
    """Linear-Gaussian sensor: ``z = H x + noise`` with noise covariance ``R``.

    ``detection_probability`` maps ``(n, d_x)`` states to probabilities;
    ``clutter_intensity`` maps ``(m, d_z)`` measurement points to the clutter
    intensity kappa(z) (expected clutter count per unit measurement volume).
    """

    H: np.ndarray
    R: np.ndarray
    detection_probability: StateFunction
    clutter_intensity: StateFunction

    def __post_init__(self) -> None:
        H = _as_matrix(self.H, "H")
        R = _as_matrix(self.R, "R")
        if R.shape != (H.shape[0], H.shape[0]):
            raise ValueError("R must be square with the measurement dimension of H")
        _check_psd(R, "R")
        try:
            np.linalg.cholesky(R)
        except np.linalg.LinAlgError as exc:
            raise ValueError("R must be positive definite") from exc
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "R", R)

    @property
    def state_dimension(self) -> int:
        return self.H.shape[1]

    @property
    def measurement_dimension(self) -> int:
        return self.H.shape[0]


@dataclass(frozen=True)
class PhdConfig:
    """Mixture-reduction and extraction settings."""

    prune_threshold: float = 1e-5
    merge_threshold: float = 15.0
    max_components: int = 50
    extraction_threshold: float = 0.5
    joseph_update: bool = False

    def __post_init__(self) -> None:
        # Written so that NaN fails too.
        if not self.prune_threshold >= 0.0:
            raise ValueError("prune_threshold must be non-negative")
        if not self.merge_threshold > 0.0:
            raise ValueError("merge_threshold must be positive")
        if self.max_components < 1:
            raise ValueError("max_components must be at least 1")
        if not 0.0 < self.extraction_threshold:
            raise ValueError("extraction_threshold must be positive")


def predict(
    posterior: GaussianMixture,
    motion: MotionModel,
    birth: BirthModel,
    spawn: SpawnModel = SpawnModel(),
) -> GaussianMixture:
    """Time-prediction of the intensity: survivors + spawned + birth.

    Survivors: each component is thinned by the survival probability at its
    mean and pushed through the motion model.  Spawning maps every parent
    component through each spawn term.  The birth intensity is appended
    unchanged.
    """
    dim = motion.dimension
    if posterior.dimension != dim or birth.intensity.dimension != dim:
        raise ValueError("posterior, motion model and birth intensity dimensions differ")
    parts: list[GaussianMixture] = []
    if posterior.size:
        p_s = np.asarray(motion.survival_probability(posterior.means), dtype=float)
        if p_s.shape != (posterior.size,):
            raise ValueError("survival_probability must return one value per state")
        survived = GaussianMixture(
            weights=posterior.weights * p_s,
            means=posterior.means @ motion.F.T,
            covariances=symmetrize(
                motion.Q + np.einsum("ab,lbc,dc->lad", motion.F, posterior.covariances, motion.F)
            ),
            dimension=dim,
        )
        parts.append(survived)
        for term in spawn.terms:
            if term.F.shape[0] != dim:
                raise ValueError("spawn term dimension differs from the state dimension")
            parts.append(
                GaussianMixture(
                    weights=posterior.weights * term.weight,
                    means=posterior.means @ term.F.T + term.offset,
                    covariances=symmetrize(
                        term.Q + np.einsum("ab,lbc,dc->lad", term.F, posterior.covariances, term.F)
                    ),
                    dimension=dim,
                )
            )
    parts.append(birth.intensity)
    return mixture_sum(parts)


def _normalize_measurements(measurements: Sequence[np.ndarray] | np.ndarray, dim_z: int) -> np.ndarray:
    block = np.asarray(measurements, dtype=float)
    if block.size == 0:
        return np.empty((0, dim_z))
    if block.ndim == 1:
        block = block.reshape(1, -1)
    if block.ndim != 2 or block.shape[1] != dim_z:
        raise ValueError(
            f"measurements must have shape (m, {dim_z}), got {np.asarray(measurements).shape}"
        )
    return block


def update(
    prior: GaussianMixture,
    sensor: SensorModel,
    measurements: Sequence[np.ndarray] | np.ndarray,
    joseph: bool = False,
) -> GaussianMixture:
    """Measurement update of the predicted intensity.

    The posterior is the missed-detection term ``(1 - p_D(x)) v(x)`` plus, for
    each measurement z, one Kalman-updated copy of every prior component with
    weight ``p_D w N(z; Hm, S) / (kappa(z) + sum_l p_D w_l N(z; Hm_l, S_l))``.
    Measurement blocks whose components would all carry zero weight are
    dropped, so with ``p_D == 0`` everywhere the prior is returned exactly.
    With ``joseph=True`` the covariance update uses the Joseph stabilised form.
    """
    if prior.dimension != sensor.state_dimension:
        raise ValueError("prior dimension does not match the sensor model")
    dim_z = sensor.measurement_dimension
    Z = _normalize_measurements(measurements, dim_z)
    if prior.size == 0:
        return prior
    p_d = np.asarray(sensor.detection_probability(prior.means), dtype=float)
    if p_d.shape != (prior.size,):
        raise ValueError("detection_probability must return one value per state")
    missed = GaussianMixture._factored(
        prior.weights * (1.0 - p_d), prior.means, prior.covariances, prior.whiten
    )
    if Z.shape[0] == 0:
        return missed
    H, R = sensor.H, sensor.R
    predicted_z = prior.means @ H.T
    PHt = prior.covariances @ H.T
    S = symmetrize(np.einsum("ab,lbc->lac", H, PHt) + R)
    gain = np.swapaxes(np.linalg.solve(S, np.swapaxes(PHt, 1, 2)), 1, 2)
    if np.any(~np.isfinite(gain)):
        raise np.linalg.LinAlgError("singular innovation covariance")
    dim_x = prior.dimension
    IKH = np.eye(dim_x) - gain @ H
    if joseph:
        updated_cov = np.einsum(
            "lab,lbc,ldc->lad", IKH, prior.covariances, IKH
        ) + np.einsum("lab,bc,ldc->lad", gain, R, gain)
    else:
        updated_cov = IKH @ prior.covariances
    updated_cov = symmetrize(updated_cov)

    diff = Z[:, np.newaxis, :] - predicted_z[np.newaxis, :, :]
    likelihood = _gaussian_density(diff, S)

    detection_weight = p_d * prior.weights
    q = likelihood * detection_weight[np.newaxis, :]
    kappa = np.asarray(sensor.clutter_intensity(Z), dtype=float)
    if kappa.shape != (Z.shape[0],):
        raise ValueError("clutter_intensity must return one value per measurement")
    denominator = kappa + q.sum(axis=1)

    parts = [missed]
    innovations = np.einsum("lde,mle->mld", gain, diff)
    kept = [m for m in range(Z.shape[0]) if np.any(q[m] > 0.0)]
    # Every kept block shares updated_cov, and so its one factor.
    whiten = _whitening(updated_cov) if kept else None
    for m in kept:
        if denominator[m] <= 0.0:
            raise ZeroDivisionError("zero normaliser with nonzero detection weights")
        means = prior.means + innovations[m]
        parts.append(GaussianMixture._factored(q[m] / denominator[m], means, updated_cov, whiten))
    return mixture_sum(parts)


def extract_targets(posterior: GaussianMixture, config: PhdConfig) -> np.ndarray:
    """State estimates: means of components at or above the extraction weight,
    ordered by descending weight.  Returns an ``(n, d)`` array."""
    if posterior.size == 0:
        return np.empty((0, posterior.dimension))
    selected = np.flatnonzero(posterior.weights >= config.extraction_threshold)
    if selected.size == 0:
        return np.empty((0, posterior.dimension))
    order = selected[np.argsort(-posterior.weights[selected], kind="stable")]
    return posterior.means[order].copy()


def reduce_mixture(intensity: GaussianMixture, config: PhdConfig) -> GaussianMixture:
    """Prune, then merge, then cap."""
    return cap(merge(prune(intensity, config.prune_threshold), config.merge_threshold), config.max_components)
