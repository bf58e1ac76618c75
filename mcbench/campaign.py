"""One workload's campaign: its checked pass, its timed rounds and its traced
round, all through the public ``run_experiment``."""

from __future__ import annotations

import resource
import statistics
import sys
import time
from dataclasses import replace

from phdfuse.experiment import ExperimentConfig, run_experiment
from phdfuse.policies import PolicyTag
from phdfuse.scenario import build_scenario

from .checks import Checker, CheckFailure, check_record
from .hooks import Tracer
from .workloads import Workload

# The checked pass runs the campaign's run 0 for this many timesteps.  Runs
# are keyed by (master seed, run, timestep), so these are exactly the first
# timesteps of the timed run 0, at about a fifth of its cost.
CHECK_STEPS = 10
KNOWN_FAULT = "ArithmeticError: estimated inclusion probability of 0"
POLICY_TAGS = {
    "full": PolicyTag.FULL,
    "partial_rank": PolicyTag.RANK,
    "sample_replacement": PolicyTag.SAMPLE_REPLACEMENT,
    "sample_no_replacement": PolicyTag.SAMPLE_NO_REPLACEMENT,
}


class Bench:
    """A workload's campaign at one seed, and every problem found with it."""

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.config = ExperimentConfig(
            algorithm=workload.algorithm,
            alpha=workload.alpha,
            mc_runs=workload.runs,
            master_seed=workload.master_seed(seed),
            parallelism=1,
        )
        self.sim = self.config.scenario
        self.scenario = build_scenario(self.sim, self.config.phd)
        self.prefix: tuple = ()
        self.reference: str | None = None
        self.problems: list[str] = []

    def campaign(self, config=None, scenario=None):
        start = time.perf_counter()
        result = run_experiment(config or self.config, scenario or self.scenario)
        return result.records, time.perf_counter() - start

    def checked_pass(self) -> None:
        """The first CHECK_STEPS timesteps of run 0, with the checks of
        ``checks.py`` installed."""
        steps = min(CHECK_STEPS, self.sim.horizon)
        short = build_scenario(replace(self.sim, horizon=steps), self.config.phd)
        checker = Checker(POLICY_TAGS[self.config.algorithm], self.config.bandwidth, self.config.ospa)
        try:
            with checker.installed():
                records, _ = self.campaign(replace(self.config, mc_runs=1), short)
            checker.finish(records, steps, self.sim.sensor_count)
        except CheckFailure as failure:
            self.problems.append(f"check failed: {failure}")
        else:
            self.prefix = records

    def timed_round(self):
        """One untraced campaign, checked against the checked pass and
        against every earlier round."""
        records, seconds = self.campaign()
        text = repr(records)  # equal text means bit-identical floats
        if self.reference is None:
            self.reference = text
            self._check_records(records)
        elif text != self.reference:
            self.problems.append("a repeated campaign gave different run records")
        return records, seconds

    def _check_records(self, records) -> None:
        for record in records:
            if not record.ok:
                if not record.error.startswith(KNOWN_FAULT):
                    print(f"run {record.run} failed: {record.error}", file=sys.stderr)
                continue
            try:
                check_record(record, self.sim.horizon, self.sim.sensor_count)
            except CheckFailure as failure:
                self.problems.append(f"check failed: {failure}")
        rows = min(CHECK_STEPS, self.sim.horizon) * self.sim.sensor_count
        for record, short in zip(records, self.prefix):
            if record.ok and short.ok and repr(short.rows) != repr(record.rows[:rows]):
                self.problems.append(f"run {record.run} differs from its checked first steps")

    def end_to_end(self, rounds) -> dict[str, tuple[float, str]]:
        ok = [r for r in rounds[0][0] if r.ok]
        steps = self.sim.horizon * self.sim.sensor_count
        per_run = steps * self.config.rounds
        tx_bytes = [
            (12 * per_run + 8 * r.total_tx_floats + 4 * r.total_tx_ints) / per_run for r in ok
        ]
        return {
            "sensor_steps_per_s": (
                statistics.median(steps * sum(r.ok for r in records) / s for records, s in rounds),
                "1/s",
            ),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ospa_m": (statistics.fmean(r.time_averaged_network_ospa for r in ok), "m"),
            "tx_bytes_per_round": (statistics.fmean(tx_bytes), "B"),
        }

    def measure(self, seconds: float) -> list:
        """Whole campaigns until ``seconds`` have passed; at least one."""
        rounds = []
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rounds.append(self.timed_round())
        return rounds

    def traced(self):
        """An untraced campaign, then the same campaign traced: the per-layer
        metrics, the tracer (for its spans) and the traced round."""
        plain_records, plain_seconds = self.timed_round()
        tracer = Tracer(self.config.rounds)
        with tracer.installed():
            records, seconds = self.campaign()
        if repr(records) != repr(plain_records):
            self.problems.append("the traced campaign gave different run records")
        metrics = tracer.per_layer()
        metrics["trace.overhead_s"] = (seconds - plain_seconds, "s")
        return metrics, tracer, (records, seconds)
