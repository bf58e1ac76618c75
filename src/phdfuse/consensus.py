"""Distributed fusion of local intensities over a sensor network.

The fusion target is the weighted arithmetic average (WAA) of the sensors'
posterior intensities.  Each synchronous consensus round replaces every
sensor's intensity with a row of a weight matrix applied to the intensities
it can hear; with a primitive row-stochastic matrix whose left eigenvector is
the fusion weight vector, the per-sensor intensities contract geometrically
onto the WAA while their weighted average stays invariant.

Transmissions inside a round go through a bandwidth policy (see
``phdfuse.policies``); the receiving sensor fuses reconstructed mixtures, so
limited-bandwidth policies trade fidelity for cheaper rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gaussian import (
    _ARRAYS,
    GaussianMixture,
    _moment_match,
    _pairwise_mahalanobis2,
    _weighted_sum,
    _whitening,
    coalesce_duplicates,
)
from .phd import PhdConfig, reduce_mixture
from .policies import Transmission, fuses_partially, reconstruct

__all__ = [
    "SensorNetwork",
    "ConsensusWeights",
    "WeightValidation",
    "validate_weights",
    "metropolis_weights",
    "waa",
    "partial_fusion",
    "consensus_round",
]


@dataclass(frozen=True)
class SensorNetwork:
    """Directed communication graph on sensors ``0 .. vertex_count-1``.

    An edge ``(j, i)`` means sensor j's broadcasts reach sensor i.  The graph
    must be strongly connected for consensus to average over every sensor.
    """

    vertex_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.vertex_count < 1:
            raise ValueError("network needs at least one sensor")
        edges = frozenset((int(j), int(i)) for j, i in self.edges)
        for j, i in edges:
            if not (0 <= j < self.vertex_count and 0 <= i < self.vertex_count):
                raise ValueError(f"edge ({j}, {i}) references an unknown sensor")
            if j == i:
                raise ValueError("self-loops are implicit; do not list them as edges")
        object.__setattr__(self, "edges", edges)
        if not self._strongly_connected():
            raise ValueError("the sensor network must be strongly connected")

    @classmethod
    def bidirectional(cls, vertex_count: int, links: Sequence[tuple[int, int]]) -> "SensorNetwork":
        """Build a network where every listed link carries traffic both ways."""
        edges = set()
        for a, b in links:
            edges.add((a, b))
            edges.add((b, a))
        return cls(vertex_count=vertex_count, edges=frozenset(edges))

    def _reachable(self, start: int, forward: bool) -> set[int]:
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for j, i in self.edges:
                src, dst = (j, i) if forward else (i, j)
                if src == node and dst not in seen:
                    seen.add(dst)
                    frontier.append(dst)
        return seen

    def _strongly_connected(self) -> bool:
        full = set(range(self.vertex_count))
        return self._reachable(0, True) == full and self._reachable(0, False) == full

    def in_neighbors(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(j for j, dst in self.edges if dst == i))

    def degree(self, i: int) -> int:
        return len(self.in_neighbors(i))

    @property
    def is_bidirectional(self) -> bool:
        return all((i, j) in self.edges for j, i in self.edges)


@dataclass(frozen=True)
class ConsensusWeights:
    """A consensus matrix and the fusion weights it should preserve.

    ``omega[i, j]`` is the coefficient sensor i applies to sensor j's
    intensity; ``fusion_weights`` is the target WAA weighting.
    """

    omega: np.ndarray
    fusion_weights: np.ndarray

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=float)
        fusion = np.asarray(self.fusion_weights, dtype=float).reshape(-1)
        if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
            raise ValueError("omega must be a square matrix")
        if fusion.size != omega.shape[0]:
            raise ValueError("fusion_weights length must match omega")
        if not np.all(np.isfinite(omega)) or np.any(omega < 0.0):
            raise ValueError("omega entries must be finite and non-negative")
        if not np.all(np.isfinite(fusion)) or np.any(fusion < 0.0) or abs(fusion.sum() - 1.0) > 1e-9:
            raise ValueError("fusion_weights must be finite, non-negative and sum to 1")
        omega = omega.copy()
        fusion = fusion.copy()
        omega.flags.writeable = False
        fusion.flags.writeable = False
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "fusion_weights", fusion)

    @property
    def sensor_count(self) -> int:
        return int(self.omega.shape[0])


@dataclass(frozen=True)
class WeightValidation:
    """Outcome of checking a consensus matrix against the convergence conditions."""

    sigma: float
    failed: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failed


def validate_weights(
    weights: ConsensusWeights,
    network: SensorNetwork | None = None,
    tolerance: float = 1e-12,
) -> WeightValidation:
    """Check the conditions under which consensus converges to the WAA.

    Conditions (by name in ``failed``):
      * ``row-stochastic``: every row of omega sums to 1.
      * ``left-eigenvector``: the fusion weights are a left eigenvector of
        omega for eigenvalue 1.
      * ``contraction``: the largest singular value sigma of
        ``omega - 1 w^T`` is strictly below 1 (geometric convergence rate).
      * ``sparsity`` (only when a network is given): omega uses no link the
        network does not have.
    """
    omega = weights.omega
    fusion = weights.fusion_weights
    n = weights.sensor_count
    failed: list[str] = []
    if np.max(np.abs(omega.sum(axis=1) - 1.0)) > tolerance:
        failed.append("row-stochastic")
    if np.max(np.abs(fusion @ omega - fusion)) > tolerance:
        failed.append("left-eigenvector")
    deviation = omega - np.outer(np.ones(n), fusion)
    sigma = float(np.linalg.svd(deviation, compute_uv=False)[0])
    if not sigma < 1.0:
        failed.append("contraction")
    if network is not None:
        if network.vertex_count != n:
            raise ValueError("network size does not match omega")
        # linked[i, j]: sensor i may weight sensor j, its own value or over an edge.
        linked = np.eye(n, dtype=bool)
        for j, i in network.edges:
            linked[i, j] = True
        if np.any((omega != 0.0) & ~linked):
            failed.append("sparsity")
    return WeightValidation(sigma=sigma, failed=tuple(failed))


def metropolis_weights(network: SensorNetwork) -> ConsensusWeights:
    """Metropolis construction for a bidirectional network: off-diagonal
    entries ``1 / (1 + max(d_i, d_j))``, diagonal absorbs the remainder.
    Yields a symmetric doubly stochastic matrix, so the preserved fusion
    weights are uniform."""
    if not network.is_bidirectional:
        raise ValueError("metropolis weights require a bidirectional network")
    n = network.vertex_count
    degrees = [network.degree(i) for i in range(n)]
    omega = np.zeros((n, n))
    for j, i in network.edges:
        omega[i, j] = 1.0 / (1.0 + max(degrees[i], degrees[j]))
    omega[np.diag_indices(n)] = 1.0 - omega.sum(axis=1)
    weights = ConsensusWeights(omega=omega, fusion_weights=np.full(n, 1.0 / n))
    report = validate_weights(weights, network, tolerance=1e-9)
    if not report.ok:
        raise RuntimeError(f"metropolis construction failed conditions {report.failed}")
    return weights


def waa(intensities: Sequence[GaussianMixture], fusion_weights: np.ndarray) -> GaussianMixture:
    """The weighted arithmetic average intensity ``sum_i w_i v_i``.

    Weights must be non-negative and sum to 1 within 1e-12; sensors with zero
    weight contribute nothing (their mixture is omitted entirely).
    """
    fusion = np.asarray(fusion_weights, dtype=float).reshape(-1)
    if fusion.size != len(intensities):
        raise ValueError("one fusion weight per intensity is required")
    if not np.all(fusion >= 0.0):
        raise ValueError("fusion weights must be non-negative")
    if abs(float(fusion.sum()) - 1.0) > 1e-12:
        raise ValueError("fusion weights must sum to 1")
    if not intensities:
        raise ValueError("waa needs at least one intensity")
    parts = [(float(w), gm) for gm, w in zip(intensities, fusion) if w > 0.0]
    if not parts:
        raise ValueError("at least one fusion weight must be positive")
    total = _weighted_sum(parts, parts[0][1].dimension)
    return total if len(parts) == 1 else coalesce_duplicates(total)


def partial_fusion(
    own: GaussianMixture,
    received: Sequence[tuple[float, GaussianMixture]],
    self_weight: float,
    match_threshold: float,
) -> GaussianMixture:
    """Fuse truncated transmissions by averaging over the sensors that report.

    A rank or threshold transmission is silent about every component below its
    cut, so folding it into the plain weighted sum would shrink whatever the
    sender happened to leave out; with fewer slots than targets that erodes
    real tracks round after round.  Instead, each received component is
    matched to the nearest own component within ``match_threshold`` (squared
    Mahalanobis distance under the received covariance).  A matched group is
    moment-matched using the consensus coefficients renormalised over the
    sensors that actually reported the component, own components nobody
    reported keep their weight, and received components matching nothing enter
    as new hypotheses scaled by the sender's coefficient.

    ``received`` pairs each heard transmission's consensus coefficient with
    its reconstructed mixture; ``self_weight`` is the listener's own
    coefficient.

    Everything heard is scaled by its sender's coefficient and stacked once,
    in (sender, component) order, and matched with a single distance-kernel
    call on the heard mixtures' own whitening factors.  Each reporting
    sender's coefficient is accumulated in that same order.  Own component c
    and the heard components matched to it, in heard order, form group c of
    one ``_moment_match`` call, the routine ``merge`` uses.  Only the fused
    covariances are factorised; every other component keeps its factor.  The
    pooled sum, the moment-match input and the output are each built as one
    concatenation.
    """
    if not match_threshold >= 0.0:
        raise ValueError(f"match_threshold must be non-negative, got {match_threshold}")
    count = own.size
    mass = self_weight * own.weights
    coeff = np.full(count, self_weight)
    heard = [(link, mixture) for link, mixture in received if mixture.size]
    links = np.array([link for link, _ in heard], dtype=float)
    sender = np.repeat(np.arange(len(heard)), [mixture.size for _, mixture in heard])
    pooled = _weighted_sum(heard, own.dimension)
    shares = pooled.weights
    if count == 0 or pooled.size == 0:
        assign = np.full(pooled.size, -1)
    else:
        dist2 = _pairwise_mahalanobis2(pooled.means, pooled.whiten, own.means)
        assign = np.argmin(dist2, axis=1)
        assign[dist2[np.arange(shares.size), assign] > match_threshold] = -1
    hit = assign >= 0
    np.add.at(mass, assign[hit], shares[hit])
    # One coefficient per (sender, own component) pair, sender-major.
    pairs = np.unique(sender[hit] * count + assign[hit])
    np.add.at(coeff, pairs % count, links[pairs // count])
    weights = np.divide(mass, coeff, out=np.zeros_like(mass), where=coeff > 0.0)
    fused = np.unique(assign[hit])
    label = np.concatenate([np.full(count, -1), assign])
    label[fused] = fused
    pool = _weighted_sum([(self_weight, own), *heard], own.dimension)
    _, fused_means, fused_covs = _moment_match(pool, label)
    means, covs, whiten = own.means.copy(), own.covariances.copy(), own.whiten.copy()
    means[fused], covs[fused], whiten[fused] = fused_means, fused_covs, _whitening(fused_covs)
    # Own components first, then the heard components that matched nothing.
    kept = (weights, means, covs, whiten)
    return coalesce_duplicates(
        GaussianMixture._factored(
            *(np.concatenate([mine, getattr(pooled, name)[~hit]]) for mine, name in zip(kept, _ARRAYS))
        )
    )


def consensus_round(
    intensities: Sequence[GaussianMixture],
    weights: ConsensusWeights,
    policy,
    rngs: Sequence[np.random.Generator] | None = None,
    reduction: PhdConfig | None = None,
    match_threshold: float = 15.0,
) -> tuple[list[GaussianMixture], list[Transmission]]:
    """One synchronous exchange-and-fuse step.

    Every sensor broadcasts its policy-selected transmission from the
    round-start snapshot.  For the full and sampling policies — whose
    transmissions carry (exactly or in expectation) the sender's whole
    intensity — every sensor i then replaces its intensity with
    ``omega[i,i] * own + sum_j omega[i,j] * reconstruct(tx_j)`` over the
    sensors j it listens to.  The rank and threshold policies deliberately
    withhold their senders' weak components, so their rounds fuse with
    :func:`partial_fusion` instead, which only averages what was actually
    reported.  Which rule a policy gets is looked up by its ``tag`` in
    ``phdfuse.policies.ALGORITHMS``.  Components that are bitwise copies of one
    another are coalesced, and an optional prune/merge/cap reduction is
    applied to each fused result.

    Returns the new intensities and the transmissions that were broadcast.
    """
    n = len(intensities)
    if weights.sensor_count != n:
        raise ValueError("weights size does not match the number of sensors")
    if rngs is not None and len(rngs) != n:
        raise ValueError("one random stream per sensor is required")
    omega = weights.omega
    partial = fuses_partially(getattr(policy, "tag", None))
    transmissions = [
        policy.select(intensities[j], rngs[j] if rngs is not None else None) for j in range(n)
    ]
    received = [reconstruct(t) for t in transmissions]
    fused: list[GaussianMixture] = []
    for i in range(n):
        if partial:
            heard = [
                (float(omega[i, j]), received[j])
                for j in range(n)
                if j != i and omega[i, j] != 0.0
            ]
            mixture = partial_fusion(
                intensities[i], heard, float(omega[i, i]), match_threshold
            )
        else:
            parts = [(float(omega[i, i]), intensities[i])] + [
                (float(omega[i, j]), received[j])
                for j in range(n)
                if j != i and omega[i, j] != 0.0
            ]
            mixture = coalesce_duplicates(_weighted_sum(parts, intensities[i].dimension))
        if reduction is not None:
            mixture = reduce_mixture(mixture, reduction)
        fused.append(mixture)
    return fused, transmissions
