"""Surveillance scenario: ground truth, sensor models, and measurement synthesis.

The default configuration is a 400 m x 400 m region watched by six sensors in
a fixed communication topology.  Ten targets with scheduled appearance and
disappearance times move with (near-)constant velocity; every sensor sees
position measurements corrupted by Gaussian noise, missed detections, and
uniform Poisson clutter.

Ground truth is deterministic by default (targets follow their nominal
constant-velocity tracks exactly, so the cardinality timeline matches the
schedule); process noise on the truth can be switched on, in which case
targets that wander outside the region are removed early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Iterable, Sequence

import numpy as np

from .consensus import ConsensusWeights, SensorNetwork
from .gaussian import GaussianMixture
from .phd import BirthModel, MotionModel, PhdConfig, SensorModel, SpawnModel, SpawnTerm

__all__ = [
    "Region",
    "TargetSchedule",
    "ScenarioConfig",
    "GroundTruthFrame",
    "GroundTruth",
    "MeasurementFrame",
    "UniformInRegion",
    "UniformClutterIntensity",
    "Scenario",
    "step_ground_truth",
    "simulate_truth",
    "generate_measurements",
    "default_targets",
    "default_scenario_config",
    "default_network",
    "default_consensus_weights",
    "build_scenario",
    "write_truth",
    "write_measurements",
]


@dataclass(frozen=True)
class Region:
    """Axis-aligned rectangular surveillance region in metres."""

    x_min: float = -200.0
    x_max: float = 200.0
    y_min: float = -200.0
    y_max: float = 200.0

    def __post_init__(self) -> None:
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError("region must have positive extent")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask for points given as an (n, >=2) array (first two
        coordinates are the position)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return (
            (pts[:, 0] >= self.x_min)
            & (pts[:, 0] <= self.x_max)
            & (pts[:, 1] >= self.y_min)
            & (pts[:, 1] <= self.y_max)
        )

    def sample_uniform(self, rng: np.random.Generator, count: int) -> np.ndarray:
        xs = rng.uniform(self.x_min, self.x_max, size=count)
        ys = rng.uniform(self.y_min, self.y_max, size=count)
        return np.column_stack([xs, ys])


@dataclass(frozen=True)
class UniformInRegion:
    """State-dependent probability: ``inside_value`` inside the region, 0 outside."""

    region: Region
    inside_value: float

    def __call__(self, states: np.ndarray) -> np.ndarray:
        return np.where(self.region.contains(states), self.inside_value, 0.0)


@dataclass(frozen=True)
class UniformClutterIntensity:
    """Clutter intensity kappa(z): ``density`` per square metre inside the
    region, 0 outside."""

    region: Region
    density: float

    def __call__(self, points: np.ndarray) -> np.ndarray:
        return np.where(self.region.contains(points), self.density, 0.0)


@dataclass(frozen=True)
class TargetSchedule:
    """One target: nominal initial state ``(x, y, vx, vy)`` at its start
    timestep, alive through its end timestep (inclusive)."""

    initial_state: tuple[float, float, float, float]
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 1:
            raise ValueError("target start timestep must be >= 1")
        if self.end < self.start:
            raise ValueError("target end must not precede its start")


def default_targets() -> tuple[TargetSchedule, ...]:
    """Ten targets on a fixed appearance/disappearance schedule.

    Targets 7 and 10 enter near the contemporaneous positions of targets 2
    and 3 (spawned children) and then diverge quickly; the rest are
    independent births.  Nominal tracks stay inside the region for their
    whole lifetime, and concurrent targets keep a healthy mutual distance
    except during the first few steps after a spawn.
    """
    return (
        TargetSchedule((-180.0, 150.0, 9.0, 0.0), start=1, end=34),
        TargetSchedule((-180.0, 90.0, 9.0, 0.0), start=1, end=40),
        TargetSchedule((180.0, -90.0, -9.0, 0.0), start=1, end=40),
        TargetSchedule((160.0, 30.0, -8.0, 0.0), start=1, end=37),
        TargetSchedule((0.0, -150.0, 4.5, 0.0), start=1, end=40),
        TargetSchedule((-50.0, -30.0, 10.0, 0.0), start=1, end=19),
        TargetSchedule((-91.0, 60.0, -3.0, -2.0), start=10, end=40),
        TargetSchedule((-180.0, -140.0, 7.0, 0.0), start=20, end=40),
        TargetSchedule((-180.0, -190.0, 5.0, 0.0), start=16, end=40),
        TargetSchedule((-8.0, -60.0, 2.0, 4.0), start=23, end=40),
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything that defines the simulated world and sensor suite."""

    region: Region = Region()
    step_time: float = 1.0
    process_noise_scale: float = 9.0
    targets: tuple[TargetSchedule, ...] = field(default_factory=default_targets)
    detection_probability: float = 0.98
    survival_probability: float = 0.99
    clutter_density: float = 3.125e-5
    measurement_noise_variance: float = 25.0
    horizon: int = 40
    sensor_count: int = 6
    truth_process_noise: bool = False
    birth_weight: float = 0.2
    spawn_weight: float = 0.1

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if self.sensor_count < 1:
            raise ValueError("at least one sensor is required")
        if not 0.0 <= self.detection_probability <= 1.0:
            raise ValueError("detection_probability must be in [0, 1]")
        if not 0.0 <= self.survival_probability <= 1.0:
            raise ValueError("survival_probability must be in [0, 1]")
        if not self.clutter_density >= 0.0:
            raise ValueError("clutter_density must be non-negative")
        if not self.step_time > 0.0:
            raise ValueError("step_time must be positive")
        object.__setattr__(self, "targets", tuple(self.targets))

    @property
    def clutter_rate(self) -> float:
        """Expected clutter measurements per sensor per frame."""
        return self.clutter_density * self.region.area


def transition_matrix(step_time: float) -> np.ndarray:
    h = step_time
    eye = np.eye(2)
    return np.block([[eye, h * eye], [np.zeros((2, 2)), eye]])


def process_noise(step_time: float, scale: float) -> np.ndarray:
    h = step_time
    eye = np.eye(2)
    return scale * np.block(
        [[h**4 / 4.0 * eye, h**3 / 2.0 * eye], [h**3 / 2.0 * eye, h**2 * eye]]
    )


@dataclass(frozen=True)
class GroundTruthFrame:
    """Alive targets at one timestep: parallel target ids and (n, 4) states."""

    timestep: int
    ids: tuple[int, ...]
    states: np.ndarray

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=float).reshape(len(self.ids), 4)
        states = states.copy()
        states.flags.writeable = False
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "ids", tuple(int(i) for i in self.ids))

    @property
    def cardinality(self) -> int:
        return len(self.ids)

    @property
    def positions(self) -> np.ndarray:
        return self.states[:, :2]


@dataclass(frozen=True)
class GroundTruth:
    """Frames for timesteps 1..horizon."""

    frames: tuple[GroundTruthFrame, ...]

    def at(self, timestep: int) -> GroundTruthFrame:
        frame = self.frames[timestep - 1]
        if frame.timestep != timestep:
            raise ValueError("ground truth frames are not contiguous")
        return frame

    @property
    def horizon(self) -> int:
        return len(self.frames)


def step_ground_truth(
    frame: GroundTruthFrame,
    config: ScenarioConfig,
    rng: np.random.Generator | None = None,
) -> GroundTruthFrame:
    """Advance truth one step: move survivors, drop departed or out-of-region
    targets, insert targets whose start time has arrived."""
    next_step = frame.timestep + 1
    F = transition_matrix(config.step_time)
    ids: list[int] = []
    states: list[np.ndarray] = []
    if frame.cardinality:
        moved = frame.states @ F.T
        if config.truth_process_noise:
            if rng is None:
                raise ValueError("truth process noise requires a random generator")
            # The discretized constant-velocity noise matrix is singular
            # (rank 2), so draw through an eigendecomposition square root
            # rather than a Cholesky factor.
            Q = process_noise(config.step_time, config.process_noise_scale)
            eigenvalues, eigenvectors = np.linalg.eigh(Q)
            root = eigenvectors * np.sqrt(np.clip(eigenvalues, 0.0, None))
            moved = moved + rng.standard_normal((frame.cardinality, 4)) @ root.T
        inside = config.region.contains(moved)
        for pos, target_id in enumerate(frame.ids):
            schedule = config.targets[target_id - 1]
            if schedule.end >= next_step and inside[pos]:
                ids.append(target_id)
                states.append(moved[pos])
    for index, schedule in enumerate(config.targets):
        if schedule.start == next_step:
            ids.append(index + 1)
            states.append(np.asarray(schedule.initial_state, dtype=float))
    stacked = np.stack(states) if states else np.empty((0, 4))
    return GroundTruthFrame(timestep=next_step, ids=tuple(ids), states=stacked)


def simulate_truth(
    config: ScenarioConfig,
    rng: np.random.Generator | None = None,
) -> GroundTruth:
    """Generate frames 1..horizon starting from an empty world at timestep 0."""
    frame = GroundTruthFrame(timestep=0, ids=(), states=np.empty((0, 4)))
    frames: list[GroundTruthFrame] = []
    for _ in range(config.horizon):
        frame = step_ground_truth(frame, config, rng)
        frames.append(frame)
    return GroundTruth(frames=tuple(frames))


@dataclass(frozen=True)
class MeasurementFrame:
    """Per-sensor measurement sets for one timestep: each entry is (m_i, 2)."""

    timestep: int
    per_sensor: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        sets = []
        for block in self.per_sensor:
            arr = np.asarray(block, dtype=float).reshape(-1, 2).copy()
            arr.flags.writeable = False
            sets.append(arr)
        object.__setattr__(self, "per_sensor", tuple(sets))


def generate_measurements(
    frame: GroundTruthFrame,
    sensors: Sequence[SensorModel],
    config: ScenarioConfig,
    rng: np.random.Generator,
) -> MeasurementFrame:
    """Synthesize one frame: per sensor, Bernoulli detections of each alive
    target (noisy H-projections) followed by Poisson-many uniform clutter
    points."""
    per_sensor: list[np.ndarray] = []
    for sensor in sensors:
        blocks: list[np.ndarray] = []
        if frame.cardinality:
            p_detect = np.asarray(sensor.detection_probability(frame.states), dtype=float)
            detected = rng.random(frame.cardinality) < p_detect
            if np.any(detected):
                chol = np.linalg.cholesky(sensor.R)
                clean = frame.states[detected] @ sensor.H.T
                noisy = clean + rng.standard_normal(clean.shape) @ chol.T
                blocks.append(noisy)
        clutter_count = int(rng.poisson(config.clutter_rate))
        if clutter_count:
            blocks.append(config.region.sample_uniform(rng, clutter_count))
        if blocks:
            per_sensor.append(np.concatenate(blocks, axis=0))
        else:
            per_sensor.append(np.empty((0, 2)))
    return MeasurementFrame(timestep=frame.timestep, per_sensor=tuple(per_sensor))


# Six-sensor topology: sensor pairs that share a bidirectional link (0-indexed).
_NETWORK_LINKS = ((0, 1), (1, 2), (1, 3), (2, 5), (3, 4), (3, 5), (4, 5))

# Consensus matrix for that topology: symmetric and doubly stochastic, so the
# preserved fusion weights are uniform.  Every neighbour pair exchanges with
# coefficient 0.2 and the diagonal absorbs the remainder.
_CONSENSUS_OMEGA = np.array(
    [
        [0.8, 0.2, 0.0, 0.0, 0.0, 0.0],
        [0.2, 0.4, 0.2, 0.2, 0.0, 0.0],
        [0.0, 0.2, 0.6, 0.0, 0.0, 0.2],
        [0.0, 0.2, 0.0, 0.4, 0.2, 0.2],
        [0.0, 0.0, 0.0, 0.2, 0.6, 0.2],
        [0.0, 0.0, 0.2, 0.2, 0.2, 0.4],
    ]
)


def default_network(sensor_count: int = 6) -> SensorNetwork:
    if sensor_count != 6:
        raise ValueError("the default topology is defined for exactly 6 sensors")
    return SensorNetwork.bidirectional(6, _NETWORK_LINKS)


def default_consensus_weights() -> ConsensusWeights:
    return ConsensusWeights(
        omega=_CONSENSUS_OMEGA, fusion_weights=np.full(6, 1.0 / 6.0)
    )


@dataclass(frozen=True)
class Scenario:
    """A fully assembled world: simulation config plus all filter models."""

    config: ScenarioConfig
    motion: MotionModel
    birth: BirthModel
    spawn: SpawnModel
    sensors: tuple[SensorModel, ...]
    network: SensorNetwork
    weights: ConsensusWeights
    phd: PhdConfig


def default_scenario_config() -> ScenarioConfig:
    return ScenarioConfig()


def build_scenario(
    config: ScenarioConfig | None = None, phd: PhdConfig | None = None
) -> Scenario:
    """Assemble motion/birth/spawn/sensor models for a scenario configuration.

    The birth intensity places one component (weight ``birth_weight``,
    position variance 100, velocity variance 25) at each scheduled target's
    nominal entry position with zero nominal velocity.  A single spawn term
    (weight ``spawn_weight``, identity transition, covariance
    diag(100, 100, 400, 400)) covers targets appearing near existing ones.
    """
    config = config or default_scenario_config()
    phd = phd or PhdConfig()
    motion = MotionModel(
        F=transition_matrix(config.step_time),
        Q=process_noise(config.step_time, config.process_noise_scale),
        survival_probability=UniformInRegion(config.region, config.survival_probability),
    )
    birth_means = np.array(
        [[s.initial_state[0], s.initial_state[1], 0.0, 0.0] for s in config.targets]
    )
    birth_cov = np.diag([100.0, 100.0, 25.0, 25.0])
    birth = BirthModel(
        intensity=GaussianMixture(
            weights=np.full(len(config.targets), config.birth_weight),
            means=birth_means,
            covariances=np.broadcast_to(birth_cov, (len(config.targets), 4, 4)).copy(),
            dimension=4,
        )
    )
    spawn = SpawnModel(
        terms=(
            SpawnTerm(
                weight=config.spawn_weight,
                F=np.eye(4),
                offset=np.zeros(4),
                Q=np.diag([100.0, 100.0, 400.0, 400.0]),
            ),
        )
    )
    sensor = SensorModel(
        H=np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]),
        R=config.measurement_noise_variance * np.eye(2),
        detection_probability=UniformInRegion(config.region, config.detection_probability),
        clutter_intensity=UniformClutterIntensity(config.region, config.clutter_density),
    )
    sensors = tuple(sensor for _ in range(config.sensor_count))
    if config.sensor_count == 6:
        network = default_network()
        weights = default_consensus_weights()
    else:
        raise ValueError(
            "only the 6-sensor default topology is built in; construct a "
            "Scenario directly for other network sizes"
        )
    return Scenario(
        config=config,
        motion=motion,
        birth=birth,
        spawn=spawn,
        sensors=sensors,
        network=network,
        weights=weights,
        phd=phd,
    )


def write_truth(truth: GroundTruth, stream: IO[str]) -> None:
    """Line format: ``timestep target_id x y vx vy`` (full float precision)."""
    stream.write("# timestep target_id x y vx vy\n")
    for frame in truth.frames:
        for target_id, state in zip(frame.ids, frame.states):
            values = " ".join(repr(float(v)) for v in state)
            stream.write(f"{frame.timestep} {target_id} {values}\n")


def write_measurements(frames: Iterable[MeasurementFrame], stream: IO[str]) -> None:
    """Line format: ``timestep sensor_index z1 z2`` (full float precision)."""
    stream.write("# timestep sensor z1 z2\n")
    for frame in frames:
        for sensor_index, block in enumerate(frame.per_sensor):
            for row in block:
                values = " ".join(repr(float(v)) for v in row)
                stream.write(f"{frame.timestep} {sensor_index} {values}\n")
