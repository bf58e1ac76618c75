"""Wrapping of phdfuse's layer boundaries, and the per-layer tracer.

Every module of phdfuse calls the next layer through a name it imported
(``phdfuse.experiment`` calls ``predict`` from ``phdfuse.phd``,
``phdfuse.phd`` calls ``merge`` from ``phdfuse.gaussian``, ...).  Rebinding
such a name in the calling module's namespace wraps exactly the calls made
across that boundary, and restoring the name afterwards leaves the package as
it was.  The package source is not touched.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterable

from phdfuse import consensus as consensus_module
from phdfuse import experiment as experiment_module
from phdfuse import phd as phd_module
from phdfuse.gaussian import GaussianMixture, l2_inner_product
from phdfuse.policies import TransmissionEntry, transmission_cost

Wrap = Callable[[Callable], Callable]


@contextmanager
def patched(replacements: Iterable[tuple[object, str, Wrap]]):
    """Replace ``owner.name`` by ``wrap(original)`` for each entry, restoring
    every original on exit."""
    saved = []
    try:
        for owner, name, wrap in replacements:
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, wrap(original))
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


class _TracedPolicy:
    """Stands in for the campaign's policy so that ``select`` is a span."""

    def __init__(self, policy, select):
        self.tag = getattr(policy, "tag", None)
        self.select = select


class Tracer:
    """Spans and counters at phdfuse's layer boundaries for one campaign.

    A span is ``(name, run, start, end, parent)``; ``parent`` indexes the
    span that was open when it started (-1 for none) and ``run`` counts the
    Monte Carlo runs seen so far.  ``seconds[name]`` sums span durations and
    ``self_seconds[name]`` the durations minus those of direct child spans.
    Mixture and transmission-entry constructions are counted and timed but
    are not spans, so they never count as anyone's child.
    """

    def __init__(self, rounds: int):
        self.rounds = rounds
        self.spans: list[tuple[str, int, float, float, int]] = []
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.self_seconds: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.merge_max_in = 0
        self.disagreement_pre: list[float] = []
        self.disagreement_post: list[float] = []
        self._stack: list[list] = []
        self._run = -1
        self._round_in_step = 0
        self._paused = False

    def installed(self):
        return patched(
            [
                (experiment_module, "simulate_truth", self._run_marker),
                (experiment_module, "generate_measurements", self._span("scenario.generate_measurements", self._after_measurements)),
                (experiment_module, "predict", self._span("phd.predict")),
                (experiment_module, "update", self._span("phd.update", self._after_update)),
                (experiment_module, "reduce_mixture", self._span("phd.reduce_mixture.filter")),
                (experiment_module, "extract_targets", self._span("phd.extract_targets")),
                (experiment_module, "ospa", self._span("metrics.ospa")),
                (experiment_module, "consensus_round", self._round),
                (consensus_module, "reduce_mixture", self._span("phd.reduce_mixture.consensus")),
                (consensus_module, "reconstruct", self._span("policies.reconstruct")),
                (consensus_module, "partial_fusion", self._span("consensus.partial_fusion")),
                (consensus_module, "coalesce_duplicates", self._span("gaussian.coalesce_duplicates", self._after_coalesce)),
                (phd_module, "prune", self._span("gaussian.prune")),
                (phd_module, "merge", self._span("gaussian.merge", self._after_merge)),
                (phd_module, "cap", self._span("gaussian.cap")),
                (GaussianMixture, "__post_init__", self._timed_count("gaussian.GaussianMixture")),
                (TransmissionEntry, "__post_init__", self._timed_count("policies.TransmissionEntry")),
            ]
        )

    def _run_marker(self, original):
        def wrapper(*args, **kwargs):
            self._run += 1
            self._round_in_step = 0
            return original(*args, **kwargs)

        return wrapper

    def _span(self, name: str, after: Callable | None = None) -> Wrap:
        def wrap(original):
            def wrapper(*args, **kwargs):
                if self._paused:
                    return original(*args, **kwargs)
                parent = self._stack[-1] if self._stack else None
                frame = [len(self.spans), 0.0]
                self.spans.append(None)
                self._stack.append(frame)
                start = perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = perf_counter()
                    self._stack.pop()
                    duration = end - start
                    self.spans[frame[0]] = (name, self._run, start, end, parent[0] if parent else -1)
                    self.seconds[name] += duration
                    self.self_seconds[name] += duration - frame[1]
                    self.counts[name + ".calls"] += 1
                    if parent is not None:
                        parent[1] += duration
                if after is not None:
                    after(args, result)
                return result

            return wrapper

        return wrap

    def _timed_count(self, name: str) -> Wrap:
        def wrap(original):
            def wrapper(instance):
                if self._paused:
                    return original(instance)
                start = perf_counter()
                try:
                    return original(instance)
                finally:
                    self.seconds[name] += perf_counter() - start
                    self.counts[name + ".calls"] += 1

            return wrapper

        return wrap

    def _after_measurements(self, args, frame) -> None:
        self.counts["scenario.measurements"] += sum(len(block) for block in frame.per_sensor)
        self._round_in_step = 0

    def _after_update(self, args, updated) -> None:
        prior, _sensor, measurements = args[:3]
        self.counts["phd.update.pairs"] += prior.size * len(measurements)
        self.counts["phd.update.components_out"] += updated.size

    def _after_merge(self, args, merged) -> None:
        size = args[0].size
        self.counts["gaussian.merge.components_in"] += size
        self.counts["gaussian.merge.components_out"] += merged.size
        self.merge_max_in = max(self.merge_max_in, size)

    def _after_coalesce(self, args, coalesced) -> None:
        self.counts["gaussian.coalesce_duplicates.components_in"] += args[0].size
        self.counts["gaussian.coalesce_duplicates.components_out"] += coalesced.size

    def _round(self, original):
        traced_round = self._span("consensus.consensus_round")(original)
        traced_select = self._span("policies.select")

        def wrapper(intensities, weights, policy, *args, **kwargs):
            if self._round_in_step == 0:
                self.disagreement_pre.append(self._disagreement(intensities))
            proxy = _TracedPolicy(policy, traced_select(policy.select))
            fused, transmissions = traced_round(intensities, weights, proxy, *args, **kwargs)
            self._round_in_step += 1
            if self._round_in_step == self.rounds:
                self.disagreement_post.append(self._disagreement(fused))
            for transmission in transmissions:
                cost = transmission_cost(transmission)
                self.counts["policies.tx_bytes"] += 12 + 8 * cost.floats + 4 * cost.integers
                self.counts["policies.select.components_sent"] += len(transmission)
            self.counts["consensus.components_out"] += sum(mixture.size for mixture in fused)
            return fused, transmissions

        return wrapper

    def _disagreement(self, intensities) -> float:
        """Largest pairwise Cauchy-Schwarz divergence between sensors,
        ``-log(<f,g> / (||f|| ||g||))``, with each norm computed once and the
        tracer paused so the diagnostic is neither timed nor counted."""
        self._paused = True
        try:
            norms = [math.sqrt(l2_inner_product(f, f)) for f in intensities]
            worst = 0.0
            for i, j in itertools.combinations(range(len(intensities)), 2):
                if norms[i] > 0.0 and norms[j] > 0.0:
                    ratio = l2_inner_product(intensities[i], intensities[j]) / (norms[i] * norms[j])
                    worst = max(worst, -math.log(min(ratio, 1.0)))
            return worst
        finally:
            self._paused = False

    def per_layer(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of the traced campaign as ``name: (value, unit)``."""
        s, n = self.seconds, self.counts

        def mean(values: list[float]) -> float:
            return sum(values) / len(values) if values else 0.0

        return {
            "scenario.generate_measurements.s": (s["scenario.generate_measurements"], "s"),
            "scenario.measurements": (n["scenario.measurements"], "count"),
            "phd.predict.s": (s["phd.predict"], "s"),
            "phd.update.s": (s["phd.update"], "s"),
            "phd.update.pairs": (n["phd.update.pairs"], "count"),
            "phd.update.components_out": (n["phd.update.components_out"], "count"),
            "phd.reduce_mixture.filter.s": (s["phd.reduce_mixture.filter"], "s"),
            "phd.reduce_mixture.consensus.s": (s["phd.reduce_mixture.consensus"], "s"),
            "phd.extract_targets.s": (s["phd.extract_targets"], "s"),
            "gaussian.merge.s": (s["gaussian.merge"], "s"),
            "gaussian.merge.calls": (n["gaussian.merge.calls"], "count"),
            "gaussian.merge.components_in": (n["gaussian.merge.components_in"], "count"),
            "gaussian.merge.components_out": (n["gaussian.merge.components_out"], "count"),
            "gaussian.merge.max_in": (self.merge_max_in, "count"),
            "gaussian.prune.s": (s["gaussian.prune"], "s"),
            "gaussian.cap.s": (s["gaussian.cap"], "s"),
            "gaussian.coalesce_duplicates.s": (s["gaussian.coalesce_duplicates"], "s"),
            "gaussian.coalesce_duplicates.components_in": (n["gaussian.coalesce_duplicates.components_in"], "count"),
            "gaussian.coalesce_duplicates.components_out": (n["gaussian.coalesce_duplicates.components_out"], "count"),
            "gaussian.GaussianMixture.calls": (n["gaussian.GaussianMixture.calls"], "count"),
            "gaussian.GaussianMixture.s": (s["gaussian.GaussianMixture"], "s"),
            "policies.select.s": (s["policies.select"], "s"),
            "policies.select.calls": (n["policies.select.calls"], "count"),
            "policies.select.components_sent": (n["policies.select.components_sent"], "count"),
            "policies.reconstruct.s": (s["policies.reconstruct"], "s"),
            "policies.TransmissionEntry.calls": (n["policies.TransmissionEntry.calls"], "count"),
            "policies.tx_bytes": (n["policies.tx_bytes"], "B"),
            "consensus.consensus_round.s": (s["consensus.consensus_round"], "s"),
            "consensus.consensus_round.self_s": (self.self_seconds["consensus.consensus_round"], "s"),
            "consensus.partial_fusion.s": (s["consensus.partial_fusion"], "s"),
            "consensus.partial_fusion.calls": (n["consensus.partial_fusion.calls"], "count"),
            "consensus.components_out": (n["consensus.components_out"], "count"),
            "consensus.cs_disagreement_pre": (mean(self.disagreement_pre), "nat"),
            "consensus.cs_disagreement": (mean(self.disagreement_post), "nat"),
            "metrics.ospa.s": (s["metrics.ospa"], "s"),
        }
