"""The benchmark's workloads: fixed Monte Carlo campaigns of the bundled
six-sensor, 40-step scenario with ``PhdConfig`` defaults and B = 5."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    algorithm: str
    alpha: int
    # Monte Carlo runs 0 .. runs-1 of the master seed form one campaign.
    runs: int
    # A master seed that replaces --seed, for a workload whose inputs are fixed.
    fixed_seed: int | None = None

    def master_seed(self, seed: int) -> int:
        return seed if self.fixed_seed is None else self.fixed_seed


WORKLOADS = {
    w.name: w
    for w in (
        # Whole-mixture fusion: gaussian.merge is most of the run.
        Workload("full_a6", "full", 6, runs=2),
        # The paper's rule where its accuracy is worst; update and the
        # per-round reduce of small mixtures dominate.
        Workload("swr_a6", "sample_replacement", 6, runs=3),
        # Same budget and rounds as swr_a6, fused by partial_fusion instead.
        Workload("rank_a6", "partial_rank", 6, runs=3),
        # The 10,000-replay inclusion estimate makes policies.select the
        # bottleneck.  That estimate also aborts a run when it gives pi = 0
        # for a selected component, which happens on about one run in eight
        # at arbitrary master seeds, so a seeded campaign would fail a
        # different share of its runs on every seed.  Of runs 0-1 at master
        # seed 0, exactly run 1 fails, every time.
        Workload("swor_a3", "sample_no_replacement", 3, runs=2, fixed_seed=0),
    )
}
