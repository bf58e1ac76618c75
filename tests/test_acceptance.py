"""Acceptance gate: ten end-to-end behavioral criteria, one printed line each.

Every test prints ``criterion N: PASS/FAIL — detail`` (bypassing capture so
the line is always visible) and then asserts.  Criteria 7 and 8 share one
Monte Carlo benchmark fixture that runs eight 25-run campaigns and takes
several minutes; all other criteria finish in seconds.
"""

import sys
import time

import numpy as np
import pytest

from conftest import random_mixture, single_gaussian
from test_metrics import brute_force_ospa

from phdfuse.consensus import (
    ConsensusWeights,
    consensus_round,
    validate_weights,
    waa,
)
from phdfuse.experiment import ExperimentConfig, compare_algorithms, run_experiment
from phdfuse.gaussian import GaussianMixture, l2_distance
from phdfuse.metrics import OspaConfig, ospa
from phdfuse.phd import (
    BirthModel,
    MotionModel,
    PhdConfig,
    SensorModel,
    predict,
    reduce_mixture,
    update,
)
from phdfuse.policies import FullPolicy, SampleWithReplacementPolicy, SamplingConfig
from phdfuse.scenario import (
    GroundTruthFrame,
    ScenarioConfig,
    build_scenario,
    generate_measurements,
    process_noise,
    simulate_truth,
    transition_matrix,
)

# Largest singular value of (omega - 1 w^T) for the default six-sensor
# consensus weights, frozen from an independent SVD.
DEFAULT_SIGMA = 0.8556827218992892

# Ground-truth cardinality for the default 40-step scenario, frozen from the
# appearance/disappearance schedule by hand: 6 initial targets, births at
# k=10, 16, 20 and 23, one death at k=20, and two deaths at k=35 and 38.
EXPECTED_CARDINALITY = (
    [6] * 9 + [7] * 6 + [8] * 4 + [8] * 3 + [9] * 12 + [8] * 3 + [7] * 3
)


def report(number: int, ok: bool, detail: str, capsys) -> None:
    with capsys.disabled():
        print(f"\ncriterion {number:2d}: {'PASS' if ok else 'FAIL'} — {detail}")


def test_criterion_01_consensus_contracts_at_sigma_rate(capsys):
    """Max-over-sensors L2 distance to the weighted average shrinks at least
    as fast as sigma^l for 20 full-exchange rounds, for random dim-4 mixtures
    of up to 10 components, with mixture reduction disabled."""
    start = time.perf_counter()
    scenario = build_scenario(ScenarioConfig())
    weights = scenario.weights
    sigma = validate_weights(weights).sigma
    ones = np.ones(weights.sensor_count)
    sigma_svd = float(
        np.linalg.svd(weights.omega - np.outer(ones, weights.fusion_weights))[1][0]
    )
    worst_ratio = 0.0
    violations = []
    for seed in (0, 1, 2):
        gen = np.random.default_rng(seed)
        current = [random_mixture(gen, dim=4) for _ in range(6)]
        reference = waa(current, weights.fusion_weights)
        initial = max(l2_distance(gm, reference) for gm in current)
        for level in range(1, 21):
            current, _ = consensus_round(current, weights, FullPolicy())
            distance = max(l2_distance(gm, reference) for gm in current)
            bound = sigma**level * initial
            worst_ratio = max(worst_ratio, distance / bound)
            if distance > bound * (1.0 + 1e-9):
                violations.append((seed, level, distance, bound))
    elapsed = time.perf_counter() - start
    ok = not violations and elapsed < 10.0 and abs(sigma - sigma_svd) < 1e-12
    report(
        1,
        ok,
        f"distance <= sigma^l * initial for l=1..20 at 3 initializations "
        f"(worst ratio {worst_ratio:.4f}, sigma {sigma:.10f}, {elapsed:.1f}s)",
        capsys,
    )
    assert abs(sigma - sigma_svd) < 1e-12 and abs(sigma - DEFAULT_SIGMA) < 1e-12
    assert not violations, violations
    assert elapsed < 10.0


def test_criterion_02_full_policy_preserves_weighted_average(capsys):
    """The fusion-weighted average intensity is a round invariant of the
    full-exchange policy (no reduction), to 1e-9 in L2 over 10 rounds."""
    scenario = build_scenario(ScenarioConfig())
    weights = scenario.weights
    worst = 0.0
    for seed in (0, 1, 2):
        gen = np.random.default_rng(seed)
        current = [random_mixture(gen, dim=4) for _ in range(6)]
        reference = waa(current, weights.fusion_weights)
        for _ in range(10):
            current, _ = consensus_round(current, weights, FullPolicy())
            drift = l2_distance(waa(current, weights.fusion_weights), reference)
            worst = max(worst, drift)
    ok = worst < 1e-9
    report(
        2,
        ok,
        f"weighted average drifted at most {worst:.2e} in L2 over 10 rounds "
        f"at 3 initializations",
        capsys,
    )
    assert ok


def test_criterion_03_sampling_preserves_total_weight_flow(capsys):
    """Under the with-replacement sampling policy the vector of per-sensor
    total weights evolves exactly as omega times the previous vector."""
    scenario = build_scenario(ScenarioConfig())
    weights = scenario.weights
    omega = weights.omega
    policy = SampleWithReplacementPolicy(SamplingConfig(bandwidth=5))
    worst = 0.0
    for trial in range(20):
        gen = np.random.default_rng(1000 + trial)
        current = [random_mixture(gen, dim=4) for _ in range(6)]
        rngs = [np.random.default_rng(int(s)) for s in gen.integers(0, 2**63, size=6)]
        totals = np.array([gm.total_weight() for gm in current])
        for _ in range(10):
            current, _ = consensus_round(current, weights, policy, rngs=rngs)
            fresh = np.array([gm.total_weight() for gm in current])
            worst = max(worst, float(np.max(np.abs(fresh - omega @ totals))))
            totals = fresh
    ok = worst <= 1e-10
    report(
        3,
        ok,
        f"max |totals - omega @ previous totals| = {worst:.2e} over "
        f"20 trials x 10 rounds",
        capsys,
    )
    assert ok


def test_criterion_04_sampling_reconstruction_is_unbiased(capsys):
    """Fixed-draw-count sampling reconstructs each component weight without
    bias: over 1e5 trials the mean reconstructed weight of every component
    stays within 3 multinomial standard errors of its true weight."""
    start = time.perf_counter()
    true_weights = np.array([0.5, 0.25, 0.25])
    gm = GaussianMixture(
        weights=true_weights,
        means=np.arange(3.0).reshape(3, 1),
        covariances=np.ones((3, 1, 1)),
    )
    draws = 12
    policy = SampleWithReplacementPolicy(
        SamplingConfig(bandwidth=3, draw_mode="fixed_draws", draws=draws)
    )
    rng = np.random.default_rng(20260819)
    trials = 100_000
    sums = np.zeros(3)
    for _ in range(trials):
        tx = policy.select(gm, rng)
        for entry in tx:
            sums[int(entry.mean[0])] += entry.count * tx.shared_weight
    means = sums / trials
    standard_error = np.sqrt(true_weights * (1.0 - true_weights) / draws / trials)
    deviations = np.abs(means - true_weights) / standard_error
    elapsed = time.perf_counter() - start
    ok = bool(np.all(deviations <= 3.0)) and elapsed < 30.0
    report(
        4,
        ok,
        f"component-wise |mean - weight| = {np.max(deviations):.2f} standard "
        f"errors (limit 3) over {trials} trials, {elapsed:.1f}s",
        capsys,
    )
    assert np.all(deviations <= 3.0), (means, true_weights, deviations)
    assert elapsed < 30.0


def test_criterion_05_assignment_ospa_matches_brute_force(capsys):
    """The assignment-solver OSPA equals exhaustive enumeration exactly on
    1000 random set pairs with cardinalities up to 5 (p=1, cutoff=100)."""
    start = time.perf_counter()
    config = OspaConfig(order=1.0, cutoff=100.0)
    gen = np.random.default_rng(5)
    mismatches = 0
    for _ in range(1000):
        m = int(gen.integers(0, 6))
        n = int(gen.integers(0, 6))
        x = gen.uniform(-50.0, 50.0, size=(m, 2))
        y = gen.uniform(-50.0, 50.0, size=(n, 2))
        if ospa(x, y, config).distance != brute_force_ospa(x, y, config):
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 10.0
    report(
        5,
        ok,
        f"{1000 - mismatches}/1000 random pairs agree exactly with "
        f"enumeration, {elapsed:.1f}s",
        capsys,
    )
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_06_phd_reduces_to_kalman_for_one_target(capsys):
    """With one target, unit detection probability, zero clutter and matched
    models, the filter's dominant component tracks an independently coded
    Kalman filter to 1e-8 in mean and covariance over 40 steps."""
    F = transition_matrix(1.0)
    Q = process_noise(1.0, 9.0)
    H = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    R = 25.0 * np.eye(2)

    def all_ones(points):
        return np.ones(len(points))

    motion = MotionModel(F=F, Q=Q, survival_probability=all_ones)
    sensor = SensorModel(
        H=H,
        R=R,
        detection_probability=all_ones,
        clutter_intensity=lambda z: np.zeros(len(z)),
    )
    no_birth = BirthModel(GaussianMixture.empty(4))
    config = PhdConfig(prune_threshold=1e-12, merge_threshold=15.0, max_components=10)

    posterior = single_gaussian(
        1.0, [0.0, 0.0, 10.0, 5.0], np.diag([100.0, 100.0, 25.0, 25.0])
    )
    mean_kf = posterior.means[0].copy()
    cov_kf = posterior.covariances[0].copy()
    state = np.array([0.0, 0.0, 10.0, 5.0])
    rng = np.random.default_rng(6)
    identity = np.eye(4)
    worst_mean = worst_cov = 0.0
    for _ in range(40):
        state = F @ state
        z = H @ state + rng.multivariate_normal(np.zeros(2), R)
        # Independent Kalman recursion via explicit matrix inversion.
        mean_pred = F @ mean_kf
        cov_pred = F @ cov_kf @ F.T + Q
        innovation_cov = H @ cov_pred @ H.T + R
        gain = cov_pred @ H.T @ np.linalg.inv(innovation_cov)
        mean_kf = mean_pred + gain @ (z - H @ mean_pred)
        cov_kf = (identity - gain @ H) @ cov_pred
        posterior = reduce_mixture(
            update(predict(posterior, motion, no_birth), sensor, np.array([z])),
            config,
        )
        dominant = int(np.argmax(posterior.weights))
        worst_mean = max(
            worst_mean, float(np.max(np.abs(posterior.means[dominant] - mean_kf)))
        )
        worst_cov = max(
            worst_cov,
            float(np.max(np.abs(posterior.covariances[dominant] - cov_kf))),
        )
    ok = worst_mean <= 1e-8 and worst_cov <= 1e-8
    report(
        6,
        ok,
        f"dominant component vs Kalman over 40 steps: max |mean| dev "
        f"{worst_mean:.1e}, max |cov| dev {worst_cov:.1e} (limit 1e-8)",
        capsys,
    )
    assert ok


def test_criterion_09_scenario_statistics(capsys):
    """Clutter counts average their nominal rate of 5 over 1e4 frames (to
    three standard errors) and the ground-truth cardinality matches the
    appearance/disappearance schedule exactly at every timestep."""
    config = ScenarioConfig()
    truth = simulate_truth(config, None)
    cardinality = [frame.cardinality for frame in truth.frames]
    schedule_ok = cardinality == EXPECTED_CARDINALITY

    scenario = build_scenario(config)
    empty = GroundTruthFrame(timestep=1, ids=(), states=np.empty((0, 4)))
    rng = np.random.default_rng(9)
    frames = 10_000
    counts = np.array(
        [
            generate_measurements(empty, scenario.sensors[:1], config, rng)
            .per_sensor[0]
            .shape[0]
            for _ in range(frames)
        ],
        dtype=float,
    )
    tolerance = 3.0 * np.sqrt(5.0 / frames)
    clutter_ok = abs(counts.mean() - 5.0) <= tolerance
    ok = schedule_ok and clutter_ok
    report(
        9,
        ok,
        f"clutter mean {counts.mean():.3f} within 5 ± {tolerance:.3f}; "
        f"cardinality matches the 40-step schedule exactly",
        capsys,
    )
    assert clutter_ok, counts.mean()
    assert schedule_ok, cardinality


def test_criterion_10_weight_validation_names_conditions(capsys):
    """validate_weights accepts the default consensus weights, rejects a
    non-row-stochastic matrix as such, and rejects the identity matrix for
    lack of contraction."""
    scenario = build_scenario(ScenarioConfig())
    good = validate_weights(scenario.weights)
    identity = validate_weights(
        ConsensusWeights(np.eye(6), np.full(6, 1.0 / 6.0))
    )
    ragged = validate_weights(
        ConsensusWeights(
            np.array([[0.6, 0.6], [0.5, 0.5]]), np.array([0.5, 0.5])
        )
    )
    ok = (
        good.ok
        and good.failed == ()
        and abs(good.sigma - DEFAULT_SIGMA) < 1e-12
        and identity.failed == ("contraction",)
        and abs(identity.sigma - 1.0) < 1e-12
        and not ragged.ok
        and "row-stochastic" in ragged.failed
    )
    report(
        10,
        ok,
        f"default weights accepted (sigma {good.sigma:.10f}); identity "
        f"rejected as 'contraction'; bad row sums rejected as "
        f"'row-stochastic'",
        capsys,
    )
    assert good.ok and good.failed == ()
    assert abs(good.sigma - DEFAULT_SIGMA) < 1e-12
    assert identity.failed == ("contraction",)
    assert abs(identity.sigma - 1.0) < 1e-12
    assert not ragged.ok and "row-stochastic" in ragged.failed


# --- Monte Carlo benchmark shared by criteria 7 and 8 -----------------------

CAMPAIGN_GRID = (
    ("no_consensus", 0),
    ("full", 1),
    ("full", 3),
    ("full", 6),
    ("sample_replacement", 1),
    ("sample_replacement", 3),
    ("sample_replacement", 6),
    ("partial_rank", 6),
)


@pytest.fixture(scope="module")
def campaigns():
    results = {}
    start = time.perf_counter()
    for algorithm, alpha in CAMPAIGN_GRID:
        config = ExperimentConfig(
            algorithm=algorithm, alpha=alpha, mc_runs=25, master_seed=0
        )
        t0 = time.perf_counter()
        results[(algorithm, alpha)] = run_experiment(config)
        print(
            f"[acceptance] campaign {config.label}: "
            f"{time.perf_counter() - t0:.0f}s",
            file=sys.__stderr__,
            flush=True,
        )
    return {"results": results, "elapsed": time.perf_counter() - start}


@pytest.mark.slow
def test_criterion_07_consensus_benefit_ordering(campaigns, capsys):
    """Time-averaged network OSPA should fall as consensus rounds increase
    (full exchange and the sampling policy alike) and at alpha=6 should order
    full <= sampling <= rank <= none with two-standard-error separations of
    the last two gaps.  The sampling half of this property does not hold for
    this implementation — see 'Known limitations' in the README — and this
    test reports that honestly."""
    results = campaigns["results"]
    elapsed = campaigns["elapsed"]
    crashed = {
        key: results[key].failed_runs for key in results if results[key].failed_runs
    }
    if crashed:
        report(7, False, f"numerical failures in campaigns: {crashed}", capsys)
        pytest.fail(f"campaign runs failed: {crashed}", pytrace=False)

    failures = []
    means = {}
    # (a) monotone improvement in the round count, paired run-for-run, with
    # one paired standard error of slack.
    for method in ("full", "sample_replacement"):
        sequence = [("no_consensus", 0), (method, 1), (method, 3), (method, 6)]
        means[method] = [results[key].ospa_mean for key in sequence]
        for key_lo, key_hi in zip(sequence, sequence[1:]):
            low = results[key_lo].run_ospa
            high = results[key_hi].run_ospa
            diff = low - high
            slack = float(np.std(diff, ddof=1) / np.sqrt(len(diff)))
            if float(diff.mean()) < -slack:
                failures.append(
                    f"{method} OSPA rises from {low.mean():.2f} m at alpha="
                    f"{key_lo[1]} to {high.mean():.2f} m at alpha={key_hi[1]}"
                )
    # (b) cross-policy ordering at alpha=6.
    order = [
        ("full", 6),
        ("sample_replacement", 6),
        ("partial_rank", 6),
        ("no_consensus", 0),
    ]
    comparison = compare_algorithms(
        [results[key].config for key in order],
        results=[results[key] for key in order],
    )
    pair_fs, pair_sr, pair_rn = comparison.pairs
    if not pair_fs.ordered:
        failures.append(
            f"full ({pair_fs.mean_a:.2f} m) does not beat sampling "
            f"({pair_fs.mean_b:.2f} m) at alpha=6"
        )
    if not (pair_sr.ordered and pair_sr.separated):
        failures.append(
            f"sampling ({pair_sr.mean_a:.2f} m) does not beat rank "
            f"({pair_sr.mean_b:.2f} m) by two paired standard errors at alpha=6"
        )
    if not (pair_rn.ordered and pair_rn.separated):
        failures.append(
            f"rank ({pair_rn.mean_a:.2f} m) does not beat no-consensus "
            f"({pair_rn.mean_b:.2f} m) by two paired standard errors at alpha=6"
        )

    full_path = "/".join(f"{m:.2f}" for m in means["full"])
    sampling_path = "/".join(f"{m:.2f}" for m in means["sample_replacement"])
    detail = (
        f"25 runs: full {full_path} m and sampling {sampling_path} m over "
        f"alpha 0/1/3/6; alpha=6 rank {pair_rn.mean_a:.2f} m; "
        f"{len(failures)} of 9 ordering checks failed; {elapsed / 60:.1f} min"
    )
    report(7, not failures, detail, capsys)
    assert elapsed < 1800.0
    if failures:
        pytest.fail(
            "consensus-benefit ordering not fully satisfied: "
            + "; ".join(failures)
            + ". Extra rounds amplify the with-replacement sampler's "
            "per-transmission quantization noise instead of averaging it "
            "away; see 'Known limitations' in the README.",
            pytrace=False,
        )


@pytest.mark.slow
def test_criterion_08_transmissions_respect_budget(campaigns, capsys):
    """Every rank and sampling transmission in the benchmark stays within the
    five-component budget, and sampling never costs more floats per
    transmission than rank."""
    results = campaigns["results"]
    transmissions = 0
    sampling_max_floats = 0.0
    rank_float_costs = set()
    component_violations = 0
    float_violations = 0
    crashed = {}
    for (algorithm, alpha), result in results.items():
        if algorithm not in ("partial_rank", "sample_replacement"):
            continue
        if result.failed_runs:
            crashed[(algorithm, alpha)] = result.failed_runs
            continue
        for record in result.successful:
            for row in record.rows:
                transmissions += alpha
                if row.tx_components > 5 * alpha:
                    component_violations += 1
                if algorithm == "partial_rank":
                    rank_float_costs.add(row.tx_floats / alpha)
                    if row.tx_floats != 75 * alpha or row.tx_ints != 0:
                        float_violations += 1
                else:
                    sampling_max_floats = max(
                        sampling_max_floats, row.tx_floats / alpha
                    )
                    if row.tx_floats > 75 * alpha or row.tx_ints > 5 * alpha:
                        float_violations += 1
    ok = (
        not crashed
        and component_violations == 0
        and float_violations == 0
        and rank_float_costs == {75.0}
        and sampling_max_floats <= 75.0
    )
    report(
        8,
        ok,
        f"{transmissions} budgeted transmissions all within 5 components "
        f"(per-transmission in-run assertion, zero failed runs); rank costs "
        f"exactly 75 floats/transmission, sampling at most "
        f"{sampling_max_floats:.0f}",
        capsys,
    )
    assert not crashed, crashed
    assert component_violations == 0 and float_violations == 0
    assert rank_float_costs == {75.0}
    assert sampling_max_floats <= 75.0
