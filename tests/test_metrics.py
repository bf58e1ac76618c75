"""Set-distance metric tests against brute-force and hand oracles."""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

import phdfuse
from phdfuse.experiment import load_experiment_config
from phdfuse.metrics import (
    OspaConfig,
    _assignment,
    ospa,
    time_averaged_network_ospa,
)


def brute_force_ospa(x, y, config):
    """Enumerate every assignment of the smaller set into the larger one.

    The clipped pairwise-distance matrix uses the same vectorized expression
    as the solver (norm kernels differ by 1 ulp between the 1-d and broadcast
    code paths), so what this oracle checks independently is the
    optimal-assignment search and the metric formula on top of that matrix.
    """
    a = np.asarray(x, dtype=float).reshape(-1, 2) if len(x) else np.empty((0, 2))
    b = np.asarray(y, dtype=float).reshape(-1, 2) if len(y) else np.empty((0, 2))
    if len(a) > len(b):
        a, b = b, a
    m, n = len(a), len(b)
    if n == 0:
        return 0.0
    p, c = config.order, config.cutoff
    if m == 0:
        return c
    clipped = np.minimum(
        np.linalg.norm(a[:, np.newaxis, :] - b[np.newaxis, :, :], axis=-1), c
    )
    best = min(
        math.fsum(clipped[i, j] ** p for i, j in enumerate(assignment))
        for assignment in itertools.permutations(range(n), m)
    )
    return ((best + c**p * (n - m)) / n) ** (1.0 / p)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="order"):
            OspaConfig(order=0.5)
        with pytest.raises(ValueError, match="cutoff"):
            OspaConfig(cutoff=0.0)
        assert OspaConfig().order == 1.0 and OspaConfig().cutoff == 100.0

    def test_nan_order_rejected(self):
        with pytest.raises(ValueError, match="order"):
            OspaConfig(order=float("nan"))

    def test_nan_cutoff_rejected(self):
        with pytest.raises(ValueError, match="cutoff"):
            OspaConfig(cutoff=float("nan"))

    def test_infinite_order_rejected(self):
        # With p = inf every distance between non-empty sets read 1.0 m.
        with pytest.raises(ValueError, match="order must be finite"):
            OspaConfig(order=float("inf"))

    def test_infinite_cutoff_rejected(self):
        # With c = inf every cardinality mismatch cost infinitely much.
        with pytest.raises(ValueError, match="cutoff must be finite"):
            OspaConfig(cutoff=float("inf"))

    def test_infinite_settings_in_a_config_file_rejected(self):
        # JSON reads 1e999 as inf.
        for key in ("order", "cutoff"):
            with pytest.raises(ValueError, match=f"{key} must be finite"):
                load_experiment_config(json.loads(f'{{"ospa": {{"{key}": 1e999}}}}'))


class TestOspaConventions:
    def test_both_empty(self):
        result = ospa(np.empty((0, 2)), np.empty((0, 2)))
        assert result.distance == 0.0

    def test_one_empty_is_cutoff(self):
        config = OspaConfig(order=1.0, cutoff=100.0)
        points = np.array([[1.0, 2.0]])
        assert ospa(points, np.empty((0, 2)), config).distance == 100.0
        assert ospa(np.empty((0, 2)), points, config).distance == 100.0
        assert ospa(np.empty((0, 2)), points, config).cardinality == 100.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions differ"):
            ospa(np.ones((1, 2)), np.ones((1, 3)))

    def test_identical_sets_zero(self):
        points = np.array([[0.0, 0.0], [10.0, -5.0], [3.0, 4.0]])
        assert ospa(points, points).distance == 0.0

    @pytest.mark.parametrize(
        "x, y",
        [
            ([[np.inf, 0.0]], [[0.0, 0.0]]),
            ([[np.nan, 0.0]], [[0.0, 0.0], [1.0, 1.0]]),
            ([[np.inf, 0.0]], [[np.inf, 0.0]]),
            ([[0.0, -np.inf]], np.empty((0, 2))),
        ],
        ids=["inf-vs-finite", "nan", "inf-vs-inf", "inf-vs-empty"],
    )
    def test_non_finite_points_rejected(self, x, y):
        with pytest.raises(ValueError, match="points must be finite"):
            ospa(x, y)
        with pytest.raises(ValueError, match="points must be finite"):
            ospa(y, x)


class TestOspaHandValues:
    def test_single_pair_below_cutoff(self):
        # One point each, 5 m apart: distance is just 5.
        result = ospa(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert result.distance == 5.0
        assert result.localization == 5.0
        assert result.cardinality == 0.0

    def test_cutoff_saturates_distance(self):
        result = ospa(np.array([[0.0, 0.0]]), np.array([[500.0, 0.0]]))
        assert result.distance == 100.0

    def test_cardinality_mismatch_hand_value(self):
        # Matched pair at distance 6, one unmatched point: p=1, c=100 gives
        # (6 + 100) / 2 = 53.
        x = np.array([[0.0, 0.0]])
        y = np.array([[6.0, 0.0], [50.0, 50.0]])
        result = ospa(x, y)
        assert result.distance == pytest.approx(53.0, rel=1e-12)
        assert result.localization == pytest.approx(3.0, rel=1e-12)
        assert result.cardinality == pytest.approx(50.0, rel=1e-12)

    def test_order_two_hand_value(self):
        # p=2: sqrt((6^2 + 100^2) / 2).
        x = np.array([[0.0, 0.0]])
        y = np.array([[6.0, 0.0], [50.0, 50.0]])
        result = ospa(x, y, OspaConfig(order=2.0, cutoff=100.0))
        assert result.distance == pytest.approx(
            math.sqrt((36.0 + 10000.0) / 2.0), rel=1e-12
        )

    def test_order_one_split_is_additive(self):
        # For p=1 the total is exactly localization + cardinality.
        rng = np.random.default_rng(2)
        for _ in range(50):
            x = rng.uniform(-50, 50, size=(int(rng.integers(1, 5)), 2))
            y = rng.uniform(-50, 50, size=(int(rng.integers(1, 5)), 2))
            result = ospa(x, y)
            assert result.distance == pytest.approx(
                result.localization + result.cardinality, rel=1e-12
            )

    def test_assignment_picks_minimum(self):
        # Crossing pairing costs 2 + 8 = 10; the solver must find 0 + 10.
        x = np.array([[0.0, 0.0], [10.0, 0.0]])
        y = np.array([[10.0, 0.0], [2.0, 0.0]])
        result = ospa(x, y)
        assert result.distance == pytest.approx(1.0, rel=1e-12)  # (0+2)/2


class TestOspaBruteForce:
    def test_matches_enumeration_exactly(self):
        rng = np.random.default_rng(7)
        config = OspaConfig(order=1.0, cutoff=100.0)
        for _ in range(200):
            m = int(rng.integers(0, 5))
            n = int(rng.integers(0, 5))
            x = rng.uniform(-200, 200, size=(m, 2))
            y = rng.uniform(-200, 200, size=(n, 2))
            assert ospa(x, y, config).distance == brute_force_ospa(x, y, config)

    def test_matches_enumeration_with_ties_and_orders(self):
        # Integer-grid points give many equal distances.  For p != 1 the
        # assignment must minimise the sum of d**p, not of d.
        rng = np.random.default_rng(29)
        for order, cutoff in [(1.0, 100.0), (2.0, 3.0), (1.5, 2.0)]:
            config = OspaConfig(order=order, cutoff=cutoff)
            for _ in range(60):
                x = rng.integers(-3, 4, size=(int(rng.integers(1, 6)), 2)).astype(float)
                y = rng.integers(-3, 4, size=(int(rng.integers(1, 7)), 2)).astype(float)
                assert ospa(x, y, config).distance == brute_force_ospa(x, y, config)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            x = rng.uniform(-200, 200, size=(int(rng.integers(0, 6)), 2))
            y = rng.uniform(-200, 200, size=(int(rng.integers(0, 6)), 2))
            assert ospa(x, y).distance == ospa(y, x).distance

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x = rng.uniform(-100, 100, size=(3, 2))
            y = rng.uniform(-100, 100, size=(3, 2))
            z = rng.uniform(-100, 100, size=(3, 2))
            d_xy = ospa(x, y).distance
            d_yz = ospa(y, z).distance
            d_xz = ospa(x, z).distance
            assert d_xz <= d_xy + d_yz + 1e-9


def assignment_cases():
    """Seeded ``(m, n)`` cost matrices with ``m <= n``, one param each."""
    rng = np.random.default_rng(19)
    shapes = [(1, 1), (1, 4), (1, 10), (4, 4), (7, 7), (10, 10), (2, 5), (4, 6), (6, 9), (9, 10)]
    for m, n in shapes:
        yield pytest.param(rng.uniform(0.0, 100.0, size=(m, n)), id=f"uniform-{m}x{n}")
        ties = rng.integers(0, 3, size=(m, n)).astype(float)
        yield pytest.param(ties, id=f"integer-ties-{m}x{n}")
        yield pytest.param(np.full((m, n), 100.0), id=f"all-cutoff-{m}x{n}")
        clipped = np.minimum(rng.uniform(0.0, 300.0, size=(m, n)), 100.0)
        yield pytest.param(clipped, id=f"partly-clipped-{m}x{n}")


class TestAssignmentSolver:
    @pytest.mark.parametrize("cost", assignment_cases())
    def test_matches_scipy_column_for_column(self, cost):
        rows, cols = linear_sum_assignment(cost)
        assert rows.tolist() == list(range(len(cost)))
        assert _assignment(cost.tolist()) == cols.tolist()

    def test_matches_scipy_on_many_seeded_matrices(self):
        rng = np.random.default_rng(23)
        for trial in range(600):
            m = int(rng.integers(1, 11))
            n = int(rng.integers(m, 11))
            if trial % 3 == 0:
                cost = rng.uniform(0.0, 100.0, size=(m, n))
            elif trial % 3 == 1:
                cost = rng.integers(0, 4, size=(m, n)).astype(float)
            else:
                cost = np.minimum(rng.uniform(0.0, 200.0, size=(m, n)), 100.0)
            assert _assignment(cost.tolist()) == linear_sum_assignment(cost)[1].tolist(), cost


def test_a_campaign_loads_no_scipy():
    """The package's runtime needs numpy only: a fresh interpreter that
    imports phdfuse and runs a short campaign, OSPA included, has not
    imported any SciPy module."""
    script = (
        "import sys\n"
        "from phdfuse import ExperimentConfig, ScenarioConfig, run_experiment\n"
        "config = ExperimentConfig(algorithm='full', alpha=1, mc_runs=1,"
        " scenario=ScenarioConfig(horizon=3))\n"
        "record = run_experiment(config).records[0]\n"
        "assert record.ok and len(record.rows) == 3 * 6, record.error\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    source = str(Path(phdfuse.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source, inherited])))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestAggregation:
    def test_time_average(self):
        assert time_averaged_network_ospa([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError, match="at least one value"):
            time_averaged_network_ospa([])
