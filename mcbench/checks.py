"""Correctness checks the benchmark applies to every workload.

Each check is worked out apart from the code under test, or follows from a
property the method must have; none compares against a stored copy of an
earlier output.  ``Checker`` installs itself around the layer functions that
``phdfuse.experiment`` and ``phdfuse.consensus`` call, checks what passes
through while one campaign runs, and afterwards matches what it saw against
the campaign's ``RunRecord``s.
"""

from __future__ import annotations

import math

import numpy as np

from phdfuse import consensus as consensus_module
from phdfuse import experiment as experiment_module
from phdfuse import phd as phd_module
from phdfuse.policies import (
    PolicyTag,
    decode_transmission,
    encode_transmission,
    reconstruct,
    transmission_cost,
)

from .hooks import patched

# Largest point set the exact OSPA recomputation accepts (2**12 subsets).
DP_MAX_POINTS = 12
# Every this many-th OSPA row of a run is recomputed exactly.
OSPA_ROW_STRIDE = 7
REL_TOL = 1e-12


class CheckFailure(Exception):
    """A benchmark correctness check did not hold.

    Not an ``AssertionError`` or ``ValueError``: ``run_experiment`` records
    those as failed runs instead of letting them propagate.
    """


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def ospa_exact(x: np.ndarray, y: np.ndarray, order: float, cutoff: float) -> float:
    """OSPA distance with the optimal assignment found by a bitmask DP.

    ``best[mask]`` is the cheapest way to assign the first ``popcount(mask)``
    points of the smaller set to the points of the larger set in ``mask``.
    """
    a, b = (x, y) if len(x) <= len(y) else (y, x)
    m, n = len(a), len(b)
    if n == 0:
        return 0.0
    if m == 0:
        return float(cutoff)
    if n > DP_MAX_POINTS:
        raise ValueError(f"exact OSPA handles at most {DP_MAX_POINTS} points, got {n}")
    cost = [
        [min(cutoff, math.dist(a[i], b[j])) ** order for j in range(n)] for i in range(m)
    ]
    best = [math.inf] * (1 << n)
    best[0] = 0.0
    for mask in range(1 << n):
        i = bin(mask).count("1")
        if i >= m or best[mask] == math.inf:
            continue
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                candidate = best[mask] + cost[i][j]
                if candidate < best[mask | bit]:
                    best[mask | bit] = candidate
    matched = min(best[mask] for mask in range(1 << n) if bin(mask).count("1") == m)
    return ((matched + cutoff**order * (n - m)) / n) ** (1.0 / order)


def wire_bytes(transmission) -> int:
    """Encoded size counted from the record layout: a 4-byte length prefix,
    an 8-byte header, an optional 8-byte shared weight, then per entry the
    mean, the upper triangle of the covariance and a 4-byte count or an
    8-byte weight."""
    dim = transmission.dimension
    size = 4 + 8 + (8 if transmission.shared_weight is not None else 0)
    for entry in transmission.entries:
        size += 8 * (dim + dim * (dim + 1) // 2)
        size += 4 if entry.count is not None else 8
    return size


def cost_bytes(transmission) -> int:
    """Wire bytes from the cost record: ``12 + 8*floats + 4*ints``."""
    cost = transmission_cost(transmission)
    return 12 + 8 * cost.floats + 4 * cost.integers


def check_wire(transmission) -> None:
    """Encoded length matches both the layout and the cost record, and
    decoding gives back a bit-identical mixture."""
    encoded = encode_transmission(transmission)
    require(
        len(encoded) == wire_bytes(transmission) == cost_bytes(transmission),
        f"wire size {len(encoded)} B, layout {wire_bytes(transmission)} B, "
        f"cost record {cost_bytes(transmission)} B",
    )
    decoded, end = decode_transmission(encoded)
    require(end == len(encoded), "decoder stopped before the end of the record")
    require(decoded.policy == transmission.policy, "decoded policy tag differs")
    require(
        _same_float(decoded.shared_weight, transmission.shared_weight),
        "decoded shared weight differs",
    )
    before, after = reconstruct(transmission), reconstruct(decoded)
    require(
        before.weights.tobytes() == after.weights.tobytes()
        and before.means.tobytes() == after.means.tobytes()
        and before.covariances.tobytes() == after.covariances.tobytes(),
        "decode(encode(t)) does not reconstruct a bit-identical mixture",
    )


def _same_float(a: float | None, b: float | None) -> bool:
    if a is None or b is None:
        return a is b
    return float(a).hex() == float(b).hex()


def _source_indices(transmission, sender) -> list[int]:
    """The sender component each entry copies, found by its exact bytes."""
    index = {}
    for l in range(sender.size):
        index.setdefault(sender.means[l].tobytes() + sender.covariances[l].tobytes(), l)
    found = []
    for entry in transmission.entries:
        key = entry.mean.tobytes() + entry.covariance.tobytes()
        require(key in index, "a transmitted component is not one of the sender's")
        found.append(index[key])
    return found


def check_selection(transmission, sender, tag: PolicyTag, budget: int) -> None:
    """The policy's defining property on one (sender mixture, transmission)."""
    weights = sender.weights
    sources = _source_indices(transmission, sender)
    sent = len(transmission)
    if tag is PolicyTag.FULL:
        require(sources == list(range(sender.size)), "full broadcast skipped a component")
        require(
            all(e.weight == weights[l] for e, l in zip(transmission.entries, sources)),
            "full broadcast altered a weight",
        )
        return
    require(sent <= budget, f"{sent} components sent against a budget of {budget}")
    if tag is PolicyTag.RANK:
        heaviest = sorted(weights.tolist(), reverse=True)[:budget]
        sent_weights = sorted((e.weight for e in transmission.entries), reverse=True)
        require(sent_weights == heaviest, "rank rule did not send the B heaviest weights")
        require(
            all(e.weight == weights[l] for e, l in zip(transmission.entries, sources)),
            "rank rule altered a weight",
        )
    elif tag is PolicyTag.SAMPLE_REPLACEMENT:
        total = float(weights.sum())
        if transmission.uses_counts:
            carried = sum(e.count for e in transmission.entries) * transmission.shared_weight
        else:
            carried = sum(e.weight for e in transmission.entries)
        require(
            abs(carried - total) <= REL_TOL * max(total, 1e-300),
            f"counts x shared weight carry {carried!r}, sender holds {total!r}",
        )
    elif tag is PolicyTag.SAMPLE_NO_REPLACEMENT:
        require(sent == min(budget, sender.size), f"sent {sent} of {sender.size} components")
        require(len(set(sources)) == sent, "sampling without replacement repeated a component")
        require(
            all(e.weight >= weights[l] for e, l in zip(transmission.entries, sources)),
            "a corrected weight is below the original weight",
        )
    else:
        raise CheckFailure(f"no check for policy {tag}")


def check_merge(before, after) -> None:
    require(after.size <= before.size, f"merge grew {before.size} -> {after.size} components")
    total_in = float(before.weights.sum())
    total_out = float(after.weights.sum())
    require(
        abs(total_out - total_in) <= REL_TOL * max(total_in, 1e-300),
        f"merge changed total weight {total_in!r} -> {total_out!r}",
    )


def check_record(record, horizon: int, sensors: int) -> None:
    """Internal consistency of one successful run's record."""
    rows = record.rows
    require(len(rows) == horizon * sensors, f"run {record.run} has {len(rows)} rows")
    per_step = [
        math.fsum(r.ospa_m for r in rows[k * sensors : (k + 1) * sensors]) / sensors
        for k in range(horizon)
    ]
    average = math.fsum(per_step) / horizon
    require(
        abs(average - record.time_averaged_network_ospa) <= 1e-12 * max(average, 1.0),
        f"run {record.run}: time-averaged OSPA {record.time_averaged_network_ospa!r} "
        f"is not the mean of its rows {average!r}",
    )
    require(
        sum(r.tx_floats for r in rows) == record.total_tx_floats
        and sum(r.tx_ints for r in rows) == record.total_tx_ints,
        f"run {record.run}: row costs do not add up to the run totals",
    )


class Checker:
    """Checks one campaign as it runs; call ``finish`` with its records."""

    def __init__(self, tag: PolicyTag, budget: int, ospa_config):
        self.tag = tag
        self.budget = budget
        self.ospa_config = ospa_config
        self.transmissions = 0
        self.merges = 0
        self.ospa_rows = 0
        self._truths: list = []
        self._calls: list[list[tuple[np.ndarray, np.ndarray]]] = []

    def installed(self):
        return patched(
            [
                (experiment_module, "simulate_truth", self._on_run_start),
                (experiment_module, "consensus_round", self._on_round),
                (phd_module, "merge", self._on_merge),
                (experiment_module, "ospa", self._on_ospa),
            ]
        )

    def _on_run_start(self, original):
        def wrapper(*args, **kwargs):
            truth = original(*args, **kwargs)
            self._truths.append(truth)
            self._calls.append([])
            return truth

        return wrapper

    def _on_round(self, original):
        def wrapper(intensities, *args, **kwargs):
            fused, transmissions = original(intensities, *args, **kwargs)
            for sender, transmission in zip(intensities, transmissions):
                check_selection(transmission, sender, self.tag, self.budget)
                check_wire(transmission)
                self.transmissions += 1
            return fused, transmissions

        return wrapper

    def _on_merge(self, original):
        def wrapper(gm, *args, **kwargs):
            result = original(gm, *args, **kwargs)
            check_merge(gm, result)
            self.merges += 1
            return result

        return wrapper

    def _on_ospa(self, original):
        def wrapper(x, y, *args, **kwargs):
            result = original(x, y, *args, **kwargs)
            self._calls[-1].append((np.array(x), np.array(y)))
            return result

        return wrapper

    def finish(self, records, horizon: int, sensors: int) -> None:
        require(len(self._calls) == len(records), "one truth simulation per run expected")
        for record, truths, calls in zip(records, self._truths, self._calls):
            if not record.ok:
                continue
            check_record(record, horizon, sensors)
            require(len(calls) == len(record.rows), f"run {record.run}: one OSPA per row")
            for row_index in range(0, len(calls), OSPA_ROW_STRIDE):
                points, truth = calls[row_index]
                row = record.rows[row_index]
                require(len(points) == row.extracted, f"run {record.run}: extracted count differs")
                require(
                    np.array_equal(truth, truths.at(row.timestep).positions),
                    f"run {record.run} k={row.timestep}: OSPA was not given the true positions",
                )
                if max(len(points), len(truth)) > DP_MAX_POINTS:
                    continue
                exact = ospa_exact(points, truth, self.ospa_config.order, self.ospa_config.cutoff)
                require(
                    abs(exact - row.ospa_m) <= 1e-9 * max(exact, 1.0),
                    f"run {record.run} k={row.timestep} sensor {row.sensor}: "
                    f"OSPA {row.ospa_m!r}, exact assignment gives {exact!r}",
                )
                self.ospa_rows += 1
        require(self.ospa_rows > 0, "no OSPA row was small enough to recompute")
