"""Fast tests of the benchmark's own checkers and tracer.

Run with ``PYTHONPATH=src python -m pytest -q mcbench``.
"""

import itertools
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from phdfuse import experiment as experiment_module  # noqa: E402
from phdfuse.experiment import ExperimentConfig, run_experiment  # noqa: E402
from phdfuse.gaussian import GaussianMixture  # noqa: E402
from phdfuse.policies import (  # noqa: E402
    PolicyTag,
    Transmission,
    TransmissionEntry,
    encode_transmission,
    select_rank,
)
from phdfuse.scenario import ScenarioConfig  # noqa: E402

from mcbench.checks import (  # noqa: E402
    Checker,
    CheckFailure,
    check_merge,
    check_selection,
    check_wire,
    cost_bytes,
    ospa_exact,
    wire_bytes,
)
from mcbench.hooks import Tracer, patched  # noqa: E402


def brute_force_ospa(x, y, order, cutoff):
    a, b = (x, y) if len(x) <= len(y) else (y, x)
    m, n = len(a), len(b)
    if n == 0:
        return 0.0
    if m == 0:
        return cutoff
    best = min(
        sum(min(cutoff, math.dist(a[i], b[j])) ** order for i, j in enumerate(chosen))
        for chosen in itertools.permutations(range(n), m)
    )
    return ((best + cutoff**order * (n - m)) / n) ** (1.0 / order)


@pytest.mark.parametrize("order,cutoff", [(1.0, 100.0), (2.0, 30.0), (1.5, 5.0)])
def test_exact_ospa_matches_enumeration(order, cutoff):
    rng = np.random.default_rng(7)
    for _ in range(60):
        x = rng.uniform(-40.0, 40.0, size=(int(rng.integers(0, 7)), 2))
        y = rng.uniform(-40.0, 40.0, size=(int(rng.integers(0, 7)), 2))
        assert ospa_exact(x, y, order, cutoff) == pytest.approx(
            brute_force_ospa(x, y, order, cutoff), rel=1e-12, abs=1e-12
        )


def test_exact_ospa_limits_set_size():
    with pytest.raises(ValueError):
        ospa_exact(np.zeros((1, 2)), np.zeros((13, 2)), 1.0, 100.0)


def entry(dim, **kind):
    return TransmissionEntry(mean=np.arange(dim, dtype=float), covariance=np.eye(dim), **kind)


@pytest.mark.parametrize(
    "transmission,expected",
    [
        # 4 length + 8 header, nothing else.
        (Transmission(PolicyTag.FULL, (), None, 4), 12),
        # Two weight entries in 2-d: mean 2 + packed covariance 3 floats, plus
        # an 8-byte weight each.
        (Transmission(PolicyTag.RANK, (entry(2, weight=0.5), entry(2, weight=0.25)), None, 2),
         12 + 2 * (8 * 5 + 8)),
        # Three count entries in 4-d plus one shared weight: mean 4 + packed
        # covariance 10 floats and a 4-byte count each.
        (Transmission(PolicyTag.SAMPLE_REPLACEMENT,
                      (entry(4, count=1), entry(4, count=3), entry(4, count=2)), 0.1, 4),
         12 + 8 + 3 * (8 * 14 + 4)),
    ],
)
def test_wire_size_formula_on_hand_built_transmissions(transmission, expected):
    assert wire_bytes(transmission) == expected
    assert cost_bytes(transmission) == expected
    assert len(encode_transmission(transmission)) == expected
    check_wire(transmission)


def mixture(weights):
    count = len(weights)
    return GaussianMixture(
        weights=np.asarray(weights, dtype=float),
        means=np.arange(count * 2, dtype=float).reshape(count, 2),
        covariances=np.broadcast_to(np.eye(2), (count, 2, 2)).copy(),
        dimension=2,
    )


def test_rank_check_accepts_the_rule_and_rejects_a_lighter_pick():
    sender = mixture([0.3, 0.9, 0.1, 0.7])
    check_selection(select_rank(sender, 2), sender, PolicyTag.RANK, 2)
    lighter = Transmission(
        PolicyTag.RANK,
        (TransmissionEntry(sender.means[0], sender.covariances[0], weight=0.3),
         TransmissionEntry(sender.means[1], sender.covariances[1], weight=0.9)),
        None,
        2,
    )
    with pytest.raises(CheckFailure):
        check_selection(lighter, sender, PolicyTag.RANK, 2)


def test_merge_check_rejects_lost_weight_and_growth():
    before = mixture([0.5, 0.5])
    check_merge(before, mixture([1.0]))
    with pytest.raises(CheckFailure):
        check_merge(before, mixture([0.9]))
    with pytest.raises(CheckFailure):
        check_merge(mixture([1.0]), before)


def short_config(**overrides):
    base = ExperimentConfig(
        algorithm="partial_rank", alpha=2, mc_runs=1, scenario=replace(ScenarioConfig(), horizon=3)
    )
    return replace(base, **overrides)


def test_check_failure_is_not_recorded_as_a_failed_run():
    def failing(original):
        def wrapper(*args, **kwargs):
            raise CheckFailure("planted")

        return wrapper

    with patched([(experiment_module, "consensus_round", failing)]):
        with pytest.raises(CheckFailure):
            run_experiment(short_config())


def test_checker_passes_a_short_campaign():
    config = short_config()
    checker = Checker(PolicyTag.RANK, config.bandwidth, config.ospa)
    with checker.installed():
        records = run_experiment(config).records
    checker.finish(records, config.scenario.horizon, config.scenario.sensor_count)
    assert checker.transmissions == config.scenario.horizon * config.alpha * 6
    assert checker.merges > 0 and checker.ospa_rows > 0


def test_tracing_leaves_records_bit_identical_and_counts_the_calls():
    config = short_config(algorithm="sample_replacement", mc_runs=2)
    plain = run_experiment(config).records
    tracer = Tracer(config.rounds)
    with tracer.installed():
        traced = run_experiment(config).records
    assert repr(traced) == repr(plain)
    layers = tracer.per_layer()
    rounds = config.mc_runs * config.scenario.horizon * config.alpha
    assert layers["policies.select.calls"][0] == rounds * 6
    assert layers["gaussian.merge.calls"][0] == rounds * 6 + config.mc_runs * config.scenario.horizon * 6
    assert len(tracer.disagreement_pre) == len(tracer.disagreement_post) == rounds // config.alpha
    assert {run for _, run, *_ in tracer.spans} == {0, 1}
