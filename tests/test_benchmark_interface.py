"""The names the benchmark's tracer (``mcbench/hooks.py``) wraps.

``python3 mcbench/run.py --trace 1`` times layers by rebinding names in the
calling module's namespace and by wrapping ``GaussianMixture.__post_init__``.
A refactor that calls a layer through another route, or changes that
method's signature, would leave the tracer blind or broken; these tests fail
first.  The last test pins the config and scenario calls that
``mcbench/campaign.py`` makes, for the same reason.
"""

import inspect
from dataclasses import replace

import numpy as np

import phdfuse.consensus as consensus
import phdfuse.phd as phd
from phdfuse.consensus import ConsensusWeights, consensus_round
from phdfuse.experiment import ExperimentConfig, run_experiment
from phdfuse.gaussian import GaussianMixture
from phdfuse.phd import PhdConfig, reduce_mixture
from phdfuse.policies import FullPolicy, RankPolicy
from phdfuse.scenario import build_scenario
from conftest import random_mixture

PAIR = ConsensusWeights(
    omega=np.array([[0.5, 0.5], [0.5, 0.5]]), fusion_weights=np.array([0.5, 0.5])
)


def record_calls(monkeypatch, module, names):
    """Wrap each ``module.name`` so that calls made through it are counted."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_post_init_takes_only_self(monkeypatch):
    assert list(inspect.signature(GaussianMixture.__post_init__).parameters) == ["self"]
    seen = []
    original = GaussianMixture.__post_init__

    def wrapper(instance):
        seen.append(instance)
        return original(instance)

    monkeypatch.setattr(GaussianMixture, "__post_init__", wrapper)
    gm = GaussianMixture(np.ones(1), np.zeros((1, 1)), np.ones((1, 1, 1)))
    assert seen == [gm]


def test_reduce_mixture_calls_through_phd_globals(monkeypatch, rng):
    calls = record_calls(monkeypatch, phd, ["prune", "merge", "cap"])
    reduce_mixture(random_mixture(rng, min_components=4), PhdConfig(max_components=2))
    assert calls == {"prune": 1, "merge": 1, "cap": 1}


def test_consensus_round_calls_through_consensus_globals(monkeypatch, rng):
    names = ["coalesce_duplicates", "partial_fusion", "reconstruct", "reduce_mixture"]
    calls = record_calls(monkeypatch, consensus, names)
    intensities = [random_mixture(rng, min_components=3) for _ in range(2)]
    config = PhdConfig()
    consensus_round(intensities, PAIR, FullPolicy(), reduction=config)
    assert calls == {
        "coalesce_duplicates": 2,
        "partial_fusion": 0,
        "reconstruct": 2,
        "reduce_mixture": 2,
    }
    consensus_round(intensities, PAIR, RankPolicy(bandwidth=2), reduction=config)
    assert calls["partial_fusion"] == 2
    assert calls["reconstruct"] == 4 and calls["reduce_mixture"] == 4


def test_campaign_config_calls():
    config = ExperimentConfig(
        algorithm="sample_replacement", alpha=1, mc_runs=2, master_seed=4, parallelism=1
    )
    single = replace(config, mc_runs=1)
    assert single.mc_runs == 1 and single.master_seed == 4
    # The two-argument call: ``Scenario.phd`` is read by nothing in the
    # package, but the benchmark passes the campaign's filter settings.
    sim = replace(config.scenario, horizon=2)
    scenario = build_scenario(sim, config.phd)
    assert scenario.config == sim and scenario.phd == config.phd
    (record,) = run_experiment(single, scenario).records
    assert record.ok and len(record.rows) == 2 * sim.sensor_count
    assert config.rounds == 1 and config.bandwidth == 5
