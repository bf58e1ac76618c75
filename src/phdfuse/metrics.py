"""Multi-target tracking error metrics.

The OSPA distance between two finite point sets combines localization error
(over an optimal assignment, with per-pair distances cut off at c) and a
cardinality penalty for unmatched points.  Matched costs are accumulated with
exactly-rounded summation so the result does not depend on assignment
enumeration order, which lets the assignment-solver path agree bit-for-bit
with a brute-force oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

__all__ = [
    "OspaConfig",
    "OspaResult",
    "ospa",
    "time_averaged_network_ospa",
]


@dataclass(frozen=True)
class OspaConfig:
    """Order ``p`` (finite, >= 1) and cutoff ``c`` (finite, > 0) of the OSPA metric."""

    order: float = 1.0
    cutoff: float = 100.0

    def __post_init__(self) -> None:
        if not 1.0 <= self.order < math.inf:
            raise ValueError("OSPA order must be finite and >= 1")
        if not 0.0 < self.cutoff < math.inf:
            raise ValueError("OSPA cutoff must be finite and positive")


@dataclass(frozen=True)
class OspaResult:
    """Total OSPA distance plus its localization / cardinality split."""

    distance: float
    localization: float
    cardinality: float


def _as_point_set(points: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    arr = np.asarray(points, dtype=float)
    if arr.size == 0:
        return arr.reshape(0, arr.shape[-1] if arr.ndim >= 2 else 0)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"a point set must be a 2-d array, got shape {arr.shape}")
    return arr


def ospa(
    x: Sequence[np.ndarray] | np.ndarray,
    y: Sequence[np.ndarray] | np.ndarray,
    config: OspaConfig = OspaConfig(),
) -> OspaResult:
    """OSPA distance between point sets ``x`` and ``y``.

    With m = |smaller|, n = |larger|:
    ``distance = ((sum over the optimal assignment of min(c, d)**p
    + c**p * (n - m)) / n) ** (1/p)``
    using Euclidean base distance.  Two empty sets have distance 0; if only
    one set is empty the distance is the cutoff.
    """
    a = _as_point_set(x)
    b = _as_point_set(y)
    if len(a) > len(b):
        a, b = b, a
    m, n = len(a), len(b)
    if n == 0:
        return OspaResult(distance=0.0, localization=0.0, cardinality=0.0)
    p, c = config.order, config.cutoff
    if m == 0:
        return OspaResult(distance=c, localization=0.0, cardinality=c)
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"point dimensions differ: {a.shape[1]} vs {b.shape[1]}"
        )
    distances = np.linalg.norm(a[:, np.newaxis, :] - b[np.newaxis, :, :], axis=-1)
    clipped = np.minimum(distances, c)
    rows, cols = linear_sum_assignment(clipped)
    matched = math.fsum(clipped[i, j] ** p for i, j in zip(rows, cols))
    localization = (matched / n) ** (1.0 / p)
    cardinality = (c**p * (n - m) / n) ** (1.0 / p)
    distance = ((matched + c**p * (n - m)) / n) ** (1.0 / p)
    return OspaResult(distance=distance, localization=localization, cardinality=cardinality)


def time_averaged_network_ospa(values: Sequence[float]) -> float:
    """Arithmetic mean of per-timestep network OSPA values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("time average needs at least one value")
    return float(arr.mean())
