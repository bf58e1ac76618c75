"""Multi-target tracking error metrics.

The OSPA distance between two finite point sets combines localization error
(over an optimal assignment, with per-pair distances cut off at c) and a
cardinality penalty for unmatched points.  Matched costs are accumulated with
exactly-rounded summation so the result does not depend on assignment
enumeration order, which lets the assignment-solver path agree bit-for-bit
with a brute-force oracle.

The optimal assignment is solved in the package by the shortest augmenting
path algorithm of D. F. Crouse, "On implementing 2D rectangular assignment
algorithms", IEEE TAES 52(4), 2016, with the column visiting order and tie
rule of SciPy's ``linear_sum_assignment``, so it picks the same assignment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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


def _assignment(cost: list[list[float]]) -> list[int]:
    """The column assigned to each row by a minimum-cost assignment of the
    finite ``(m, n)`` matrix ``cost``, given as ``m <= n`` rows of floats.

    Crouse's (2016) shortest augmenting path algorithm, one row at a time,
    on Python floats: at OSPA's sizes (a few rows) that is several times
    faster than numpy.  The visiting order follows SciPy's implementation
    (``rectangular_lsap.cpp``): columns are scanned from ``remaining``,
    which starts at ``n-1 ... 0`` and loses a visited column by swapping in
    its last entry, and among equal path costs an unassigned column wins.
    Ties therefore break as in ``scipy.optimize.linear_sum_assignment``.
    """
    width = len(cost[0])
    u = [0.0] * len(cost)
    v = [0.0] * width
    col4row = [-1] * len(cost)
    row4col = [-1] * width
    path = [-1] * width
    for current in range(len(cost)):
        # Dijkstra over reduced costs from row `current` to a free column.
        shortest = [math.inf] * width
        remaining = list(range(width - 1, -1, -1))
        seen_rows: list[int] = []
        seen_cols: list[int] = []
        min_val = 0.0
        i = current
        while True:
            seen_rows.append(i)
            row, u_i = cost[i], u[i]
            index, lowest = -1, math.inf
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                if r < shortest[j]:
                    path[j] = i
                    shortest[j] = r
                else:
                    r = shortest[j]
                if r < lowest or (r == lowest and row4col[j] == -1):
                    lowest = r
                    index = it
            min_val = lowest
            j = remaining[index]
            seen_cols.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
        # Dual updates, then augment along the path back to `current`.
        u[current] += min_val
        for i in seen_rows[1:]:
            u[i] += min_val - shortest[col4row[i]]
        for j in seen_cols:
            v[j] -= min_val - shortest[j]
        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == current:
                break
    return col4row


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
    one set is empty the distance is the cutoff.  A non-finite coordinate in
    either set is a ``ValueError``.
    """
    a = _as_point_set(x)
    b = _as_point_set(y)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("points must be finite")
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
    # The assignment minimises the sum of clipped distances to the power p.
    cost = [[d**p for d in row] for row in np.minimum(distances, c).tolist()]
    matched = math.fsum(cost[i][j] for i, j in enumerate(_assignment(cost)))
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
