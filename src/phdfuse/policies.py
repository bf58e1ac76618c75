"""Bandwidth-limited component selection and transmission encoding.

A sensor that must broadcast its intensity under a component budget B picks
what to send with one of five policies: full broadcast, the rank rule (top-B
weights), the threshold rule (weights above tau), weighted random sampling
with replacement (counts plus one shared weight), and weighted sampling
without replacement (exponential-keys selection with exact
inclusion-probability weight correction).

``ALGORITHMS`` is the comparison's table of communication rules: for each
algorithm name it declares the policy a campaign builds, whether its
transmissions are budgeted, how receivers fuse them and where the rule ranks
in a paired comparison.  Adding a rule is one entry there.

Each policy produces a ``Transmission`` that the receiver turns back into a
Gaussian mixture with ``reconstruct``.  ``transmission_cost`` accounts for
the scalars on the wire, and ``encode_transmission`` / ``decode_transmission``
give a byte-exact binary form whose length matches the cost accounting.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .gaussian import GaussianMixture, cap

__all__ = [
    "PolicyTag",
    "TransmissionEntry",
    "Transmission",
    "SamplingConfig",
    "CostRecord",
    "select_full",
    "select_rank",
    "select_threshold",
    "sample_with_replacement",
    "sample_without_replacement",
    "inclusion_probabilities",
    "reconstruct",
    "transmission_cost",
    "encode_transmission",
    "decode_transmission",
    "FullPolicy",
    "RankPolicy",
    "ThresholdPolicy",
    "SampleWithReplacementPolicy",
    "SampleWithoutReplacementPolicy",
    "Algorithm",
    "ALGORITHMS",
    "lookup_algorithm",
    "fuses_partially",
]


class PolicyTag(enum.Enum):
    FULL = "full"
    RANK = "rank"
    THRESHOLD = "threshold"
    SAMPLE_REPLACEMENT = "sample_replacement"
    SAMPLE_NO_REPLACEMENT = "sample_no_replacement"


_TAG_TO_WIRE = {tag: index for index, tag in enumerate(PolicyTag)}
_WIRE_TO_TAG = {index: tag for tag, index in _TAG_TO_WIRE.items()}


@dataclass(frozen=True)
class TransmissionEntry:
    """One transmitted component: exactly one of ``count`` / ``weight`` is set.

    Count entries rely on the transmission's shared weight (component weight
    is ``count * shared_weight``); weight entries carry the weight verbatim.
    """

    mean: np.ndarray
    covariance: np.ndarray
    count: int | None = None
    weight: float | None = None

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float).reshape(-1)
        cov = np.asarray(self.covariance, dtype=float)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("entry covariance shape does not match its mean")
        if (self.count is None) == (self.weight is None):
            raise ValueError("entry must carry exactly one of count or weight")
        if self.count is not None and (not isinstance(self.count, (int, np.integer)) or self.count < 1):
            raise ValueError("entry count must be a positive integer")
        if self.weight is not None and (not np.isfinite(self.weight) or self.weight < 0.0):
            raise ValueError("entry weight must be finite and non-negative")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)
        if self.count is not None:
            object.__setattr__(self, "count", int(self.count))
        if self.weight is not None:
            object.__setattr__(self, "weight", float(self.weight))


@dataclass(frozen=True)
class Transmission:
    """What one sensor puts on the wire in one consensus round."""

    policy: PolicyTag
    entries: tuple[TransmissionEntry, ...]
    shared_weight: float | None
    dimension: int

    def __post_init__(self) -> None:
        entries = tuple(self.entries)
        if self.dimension < 1:
            raise ValueError("transmission dimension must be positive")
        count_mode = [entry.count is not None for entry in entries]
        if any(count_mode) and not all(count_mode):
            raise ValueError("entries must be uniformly count-based or weight-based")
        uses_counts = bool(entries) and all(count_mode)
        if uses_counts != (self.shared_weight is not None):
            raise ValueError("shared_weight must be present exactly for count-based entries")
        if self.shared_weight is not None and (
            not np.isfinite(self.shared_weight) or self.shared_weight < 0.0
        ):
            raise ValueError("shared_weight must be finite and non-negative")
        for entry in entries:
            if entry.mean.size != self.dimension:
                raise ValueError("entry dimension differs from transmission dimension")
        object.__setattr__(self, "entries", entries)
        if self.shared_weight is not None:
            object.__setattr__(self, "shared_weight", float(self.shared_weight))

    @property
    def uses_counts(self) -> bool:
        return self.shared_weight is not None

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self) -> Iterator[TransmissionEntry]:
        return iter(self.entries)


@dataclass(frozen=True)
class SamplingConfig:
    """Budget and draw scheme for the random sampling policies.

    draw_mode "stop_at_B_distinct" keeps drawing until a draw would introduce
    a (B+1)-th distinct component (that draw is discarded); "fixed_draws"
    takes exactly ``draws`` draws (default 4*B).
    """

    bandwidth: int
    draw_mode: str = "stop_at_B_distinct"
    draws: int | None = None

    def __post_init__(self) -> None:
        if self.bandwidth < 1:
            raise ValueError("bandwidth must be at least 1")
        if self.draw_mode not in ("stop_at_B_distinct", "fixed_draws"):
            raise ValueError(f"unknown draw_mode: {self.draw_mode!r}")
        if self.draws is not None and self.draws < 1:
            raise ValueError("fixed draw count must be at least 1")

    @property
    def fixed_draw_count(self) -> int:
        if self.draws is not None:
            return self.draws
        return 4 * self.bandwidth


@dataclass(frozen=True)
class CostRecord:
    """Scalar counts transmitted: 8-byte floats, 4-byte integers, components."""

    floats: int
    integers: int
    components: int


def _explicit(
    tag: PolicyTag, gm: GaussianMixture, indices: np.ndarray, weights: np.ndarray
) -> Transmission:
    """Send the components of ``gm`` at ``indices``, each with the matching
    entry of ``weights`` carried verbatim."""
    entries = tuple(
        TransmissionEntry(mean=gm.means[l], covariance=gm.covariances[l], weight=float(w))
        for l, w in zip(indices, weights)
    )
    return Transmission(tag, entries, None, gm.dimension)


def select_full(gm: GaussianMixture) -> Transmission:
    """Broadcast every component with its exact weight."""
    return _explicit(PolicyTag.FULL, gm, np.arange(gm.size), gm.weights)


def select_rank(gm: GaussianMixture, bandwidth: int) -> Transmission:
    """Broadcast the ``bandwidth`` highest-weight components verbatim: those
    ``gaussian.cap`` keeps, in their original order."""
    if bandwidth < 1:
        raise ValueError("bandwidth must be at least 1")
    kept = cap(gm, bandwidth)
    return _explicit(PolicyTag.RANK, kept, np.arange(kept.size), kept.weights)


def select_threshold(gm: GaussianMixture, tau: float) -> Transmission:
    """Broadcast components whose weight strictly exceeds ``tau``."""
    if not tau >= 0.0:
        raise ValueError("tau must be non-negative")
    indices = np.flatnonzero(gm.weights > tau)
    return _explicit(PolicyTag.THRESHOLD, gm, indices, gm.weights[indices])


def _sampling_probabilities(gm: GaussianMixture) -> np.ndarray:
    if gm.size == 0:
        raise ValueError("cannot sample from an empty mixture")
    total = gm.total_weight()
    if total <= 0.0:
        raise ValueError("cannot sample from a mixture with zero total weight")
    return gm.weights / total


def _draw_until_b_distinct(
    probabilities: np.ndarray, bandwidth: int, rng: np.random.Generator
) -> np.ndarray:
    """Counts per index after drawing i.i.d. until a draw would create the
    (B+1)-th distinct index; that boundary draw is discarded."""
    cumulative = np.cumsum(probabilities)
    cumulative[-1] = 1.0
    counts = np.zeros(probabilities.size, dtype=np.int64)
    distinct = 0
    while True:
        chunk = np.searchsorted(cumulative, rng.random(128), side="right")
        for index in chunk:
            if counts[index] == 0:
                if distinct == bandwidth:
                    return counts
                distinct += 1
            counts[index] += 1


def sample_with_replacement(
    gm: GaussianMixture, config: SamplingConfig, rng: np.random.Generator
) -> Transmission:
    """Algorithmic sampling rule with replacement.

    Indices are drawn i.i.d. with probability proportional to weight.  The
    transmission carries one count per distinct index plus a single shared
    weight ``total_weight / draws``, so the reconstructed integral equals the
    sender's total weight deterministically.

    When at most ``bandwidth`` components have positive weight the budget is
    vacuous and all of them are sent with exact weights instead (the
    stop-at-B-distinct loop could never terminate).
    """
    probabilities = _sampling_probabilities(gm)
    positive = np.flatnonzero(probabilities > 0.0)
    budget = config.bandwidth
    if config.draw_mode == "fixed_draws":
        draws = config.fixed_draw_count
        if positive.size > budget and draws > budget:
            raise ValueError(
                f"fixed_draws({draws}) can exceed the budget of {budget} distinct "
                f"components when {positive.size} components have positive weight"
            )
        indices = rng.choice(gm.size, size=draws, p=probabilities)
        counts = np.bincount(indices, minlength=gm.size)
    else:
        if positive.size <= budget:
            # The stop-at-B-distinct loop cannot terminate when the budget is
            # vacuous; send every positive-weight component exactly instead.
            return _explicit(PolicyTag.SAMPLE_REPLACEMENT, gm, positive, gm.weights[positive])
        counts = _draw_until_b_distinct(probabilities, budget, rng)
    draws_taken = int(counts.sum())
    shared = gm.total_weight() / draws_taken
    selected = np.flatnonzero(counts)
    entries = tuple(
        TransmissionEntry(mean=gm.means[l], covariance=gm.covariances[l], count=int(counts[l]))
        for l in selected
    )
    return Transmission(
        policy=PolicyTag.SAMPLE_REPLACEMENT,
        entries=entries,
        shared_weight=shared,
        dimension=gm.dimension,
    )


def _exponential_key_selection(
    weights: np.ndarray, bandwidth: int, rng: np.random.Generator
) -> np.ndarray:
    """Weighted sampling without replacement: the B smallest exponential keys
    ``-log(U)/w`` win (equivalent to the largest ``U**(1/w)``)."""
    keys = -np.log(rng.random(weights.size)) / weights
    return np.sort(np.argpartition(keys, bandwidth - 1)[:bandwidth])


# Trapezoid rule in x = log t for the inclusion integral.  The integrand is
# smooth and decays like e^x as x -> -inf and double-exponentially as
# x -> +inf, so a fixed step converges spectrally.  Times t are for weights
# normalised to sum 1.
_LOG_T_STEP = 0.25
_T_MIN = 1e-17
_T_MAX_RATE = 60.0


def inclusion_probabilities(
    weights: np.ndarray, bandwidth: int, indices: np.ndarray
) -> np.ndarray:
    """Exact P(l selected) under exponential-keys sampling, for each l in ``indices``.

    Component l's key is exponential with rate ``w_l``, and l is selected
    when fewer than B other keys are smaller than its own, so
    ``pi_l = integral over t > 0 of w_l exp(-w_l t) P(N_l(t) <= B-1) dt``,
    where N_l(t) counts the other keys below t, a Poisson-binomial variable
    with success probabilities ``1 - exp(-w_j t)``.  Its distribution is
    built by a dynamic programme over j, truncated at B-1 and vectorised over
    the quadrature nodes and the requested rows: first over the components
    not requested (shared by every row), then over the requested ones, each
    left out of its own row.  With the weights normalised to sum 1, the
    integral runs from ``t = 1e-17`` to ``60 / w_(B+1)``, where ``w_(B+1)``
    is the (B+1)-th largest weight: past it, l and at least J-B other keys
    must all still be above t, so every term of the integrand decays at
    least like ``exp(-(w_(B) + w_(B+1)) t)``, below ``e^-120`` there.
    Results are clamped to at most 1 against roundoff, so a corrected weight
    ``w / pi`` is never below ``w``.  The weights must be strictly positive.
    """
    if not 1 <= bandwidth < weights.size:
        raise ValueError(f"bandwidth {bandwidth} must be in [1, {weights.size})")
    w = weights / weights.sum()
    t_max = _T_MAX_RATE / np.partition(w, w.size - bandwidth - 1)[w.size - bandwidth - 1]
    t = np.exp(np.arange(np.log(_T_MIN), np.log(t_max) + _LOG_T_STEP, _LOG_T_STEP))
    wt = np.multiply.outer(w, t)
    fired = -np.expm1(-wt)  # P(key_j < t)
    unfired = np.exp(-wt)
    requested = np.zeros(w.size, dtype=bool)
    requested[indices] = True
    # below[c] = P(exactly c of the keys seen so far are below t), c < B.
    below = np.zeros((bandwidth, t.size))
    below[0] = 1.0
    for p, q in zip(fired[~requested], unfired[~requested]):
        below[1:] = below[1:] * q + below[:-1] * p
        below[0] *= q
    rows = np.repeat(below[None], indices.size, axis=0)
    for row, j in enumerate(indices):
        p = np.repeat(fired[j][None, None], indices.size, axis=0)
        q = np.repeat(unfired[j][None, None], indices.size, axis=0)
        p[row] = 0.0
        q[row] = 1.0
        rows[:, 1:] = rows[:, 1:] * q + rows[:, :-1] * p
        rows[:, 0] *= q[:, 0]
    integrand = wt[indices] * unfired[indices] * rows.sum(axis=1)
    inner = integrand.sum(axis=1) - 0.5 * (integrand[:, 0] + integrand[:, -1])
    return np.minimum(_LOG_T_STEP * inner, 1.0)


def sample_without_replacement(
    gm: GaussianMixture, config: SamplingConfig, rng: np.random.Generator
) -> Transmission:
    """Weighted sampling without replacement with bias-correcting weights.

    B distinct components are drawn by the exponential-keys method
    (Efraimidis and Spirakis), one uniform draw per component; each selected
    component is sent with the Horvitz-Thompson weight ``w_l / P(l selected)``,
    with the exact inclusion probabilities of ``inclusion_probabilities``, so
    that the expected reconstructed weight of every component equals its
    original weight.

    A mixture of at most B components, the empty one included, is sent whole
    with its exact weights, and nothing is drawn from ``rng``.
    """
    if np.any(gm.weights <= 0.0):
        raise ValueError("sampling without replacement requires strictly positive weights")
    budget = config.bandwidth
    if gm.size <= budget:
        return _explicit(PolicyTag.SAMPLE_NO_REPLACEMENT, gm, np.arange(gm.size), gm.weights)
    indices = _exponential_key_selection(gm.weights, budget, rng)
    corrected = gm.weights[indices] / inclusion_probabilities(gm.weights, budget, indices)
    return _explicit(PolicyTag.SAMPLE_NO_REPLACEMENT, gm, indices, corrected)


def reconstruct(transmission: Transmission) -> GaussianMixture:
    """Rebuild the transmitted intensity on the receiver side."""
    entries = transmission.entries
    if not entries:
        return GaussianMixture.empty(transmission.dimension)
    if transmission.uses_counts:
        weights = np.array([entry.count * transmission.shared_weight for entry in entries])
    else:
        weights = np.array([entry.weight for entry in entries])
    return GaussianMixture(
        weights=weights,
        means=np.stack([entry.mean for entry in entries]),
        covariances=np.stack([entry.covariance for entry in entries]),
        dimension=transmission.dimension,
    )


def transmission_cost(transmission: Transmission) -> CostRecord:
    """Scalars on the wire: each entry costs mean + packed covariance floats,
    weights cost one float each (or a single shared float), counts are ints."""
    count = len(transmission.entries)
    if count == 0:
        return CostRecord(floats=0, integers=0, components=0)
    dim = transmission.dimension
    per_entry = dim + dim * (dim + 1) // 2
    if transmission.uses_counts:
        return CostRecord(floats=count * per_entry + 1, integers=count, components=count)
    return CostRecord(floats=count * per_entry + count, integers=0, components=count)


_HEADER = struct.Struct("<BBHI")
_FLAG_SHARED = 0x01
_FLAG_COUNTS = 0x02


def encode_transmission(transmission: Transmission) -> bytes:
    """Length-prefixed binary record.

    Layout after the 4-byte length prefix: policy tag (1 byte), flags
    (1 byte: shared weight present, entries carry counts), state dimension
    (2 bytes), entry count (4 bytes), optional shared weight (8 bytes), then
    per entry the mean, the upper-triangular covariance, and either a 4-byte
    count or an 8-byte weight.  The byte length equals
    ``12 + 8*floats + 4*integers`` of the transmission's cost record.
    """
    dim = transmission.dimension
    flags = 0
    if transmission.shared_weight is not None:
        flags |= _FLAG_SHARED | _FLAG_COUNTS
    chunks = [_HEADER.pack(_TAG_TO_WIRE[transmission.policy], flags, dim, len(transmission.entries))]
    if transmission.shared_weight is not None:
        chunks.append(struct.pack("<d", transmission.shared_weight))
    upper = np.triu_indices(dim)
    for entry in transmission.entries:
        chunks.append(entry.mean.astype("<f8").tobytes())
        chunks.append(np.ascontiguousarray(entry.covariance[upper], dtype="<f8").tobytes())
        if entry.count is not None:
            chunks.append(struct.pack("<I", entry.count))
        else:
            chunks.append(struct.pack("<d", entry.weight))
    body = b"".join(chunks)
    return struct.pack("<I", len(body)) + body


def decode_transmission(buffer: bytes, offset: int = 0) -> tuple[Transmission, int]:
    """Decode one record starting at ``offset``; returns it and the next offset."""
    if len(buffer) < offset + 4:
        raise ValueError("truncated transmission record")
    (body_length,) = struct.unpack_from("<I", buffer, offset)
    end = offset + 4 + body_length
    if len(buffer) < end:
        raise ValueError("truncated transmission record")
    cursor = offset + 4
    wire_tag, flags, dim, entry_count = _HEADER.unpack_from(buffer, cursor)
    cursor += _HEADER.size
    if wire_tag not in _WIRE_TO_TAG:
        raise ValueError(f"unknown policy tag {wire_tag}")
    if dim < 1:
        raise ValueError("transmission dimension must be positive")
    shared = None
    if flags & _FLAG_SHARED:
        (shared,) = struct.unpack_from("<d", buffer, cursor)
        cursor += 8
    uses_counts = bool(flags & _FLAG_COUNTS)
    if uses_counts != (shared is not None):
        raise ValueError("inconsistent shared-weight / count flags")
    upper = np.triu_indices(dim)
    packed_len = dim * (dim + 1) // 2
    entries = []
    for _ in range(entry_count):
        mean = np.frombuffer(buffer, dtype="<f8", count=dim, offset=cursor).copy()
        cursor += 8 * dim
        packed = np.frombuffer(buffer, dtype="<f8", count=packed_len, offset=cursor)
        cursor += 8 * packed_len
        cov = np.zeros((dim, dim))
        cov[upper] = packed
        cov.T[upper] = packed
        if uses_counts:
            (count,) = struct.unpack_from("<I", buffer, cursor)
            cursor += 4
            entries.append(TransmissionEntry(mean=mean, covariance=cov, count=count))
        else:
            (weight,) = struct.unpack_from("<d", buffer, cursor)
            cursor += 8
            entries.append(TransmissionEntry(mean=mean, covariance=cov, weight=weight))
    if cursor != end:
        raise ValueError("transmission record length mismatch")
    transmission = Transmission(
        policy=_WIRE_TO_TAG[wire_tag], entries=tuple(entries), shared_weight=shared, dimension=dim
    )
    return transmission, end


@dataclass(frozen=True)
class FullPolicy:
    """No bandwidth limit: broadcast the whole mixture."""

    tag: PolicyTag = PolicyTag.FULL

    def select(self, gm: GaussianMixture, rng: np.random.Generator | None = None) -> Transmission:
        return select_full(gm)


@dataclass(frozen=True)
class RankPolicy:
    bandwidth: int
    tag: PolicyTag = PolicyTag.RANK

    def select(self, gm: GaussianMixture, rng: np.random.Generator | None = None) -> Transmission:
        return select_rank(gm, self.bandwidth)


@dataclass(frozen=True)
class ThresholdPolicy:
    tau: float
    tag: PolicyTag = PolicyTag.THRESHOLD

    def select(self, gm: GaussianMixture, rng: np.random.Generator | None = None) -> Transmission:
        return select_threshold(gm, self.tau)


@dataclass(frozen=True)
class SampleWithReplacementPolicy:
    config: SamplingConfig
    tag: PolicyTag = PolicyTag.SAMPLE_REPLACEMENT

    def select(self, gm: GaussianMixture, rng: np.random.Generator | None = None) -> Transmission:
        if rng is None:
            raise ValueError("sampling policies need a random generator")
        return sample_with_replacement(gm, self.config, rng)


@dataclass(frozen=True)
class SampleWithoutReplacementPolicy:
    config: SamplingConfig
    tag: PolicyTag = PolicyTag.SAMPLE_NO_REPLACEMENT

    def select(self, gm: GaussianMixture, rng: np.random.Generator | None = None) -> Transmission:
        if rng is None:
            raise ValueError("sampling policies need a random generator")
        return sample_without_replacement(gm, self.config, rng)


@dataclass(frozen=True)
class Algorithm:
    """One communication rule of the comparison, as a campaign runs it.

    ``build`` makes the rule's policy from the campaign's settings (an object
    with ``bandwidth``, ``threshold``, ``draw_mode`` and ``draws``); a rule
    with ``tag=None`` never communicates and builds no policy.  ``budgeted`` rules must never send more than
    ``bandwidth`` components.  With ``partial_fusion`` receivers fuse through
    :func:`phdfuse.consensus.partial_fusion`, otherwise through the weighted
    sum.  ``rank`` orders paired comparisons, best first.
    """

    tag: PolicyTag | None
    build: Callable[..., object]
    rank: int
    budgeted: bool = False
    partial_fusion: bool = False

    @property
    def communicates(self) -> bool:
        return self.tag is not None


ALGORITHMS: dict[str, Algorithm] = {
    "no_consensus": Algorithm(tag=None, build=lambda settings: None, rank=3),
    "full": Algorithm(PolicyTag.FULL, lambda settings: FullPolicy(), rank=0),
    "partial_rank": Algorithm(
        PolicyTag.RANK,
        lambda settings: RankPolicy(bandwidth=settings.bandwidth),
        rank=2,
        budgeted=True,
        partial_fusion=True,
    ),
    "partial_threshold": Algorithm(
        PolicyTag.THRESHOLD,
        lambda settings: ThresholdPolicy(tau=settings.threshold),
        rank=2,
        partial_fusion=True,
    ),
    "sample_replacement": Algorithm(
        PolicyTag.SAMPLE_REPLACEMENT,
        lambda settings: SampleWithReplacementPolicy(
            SamplingConfig(
                bandwidth=settings.bandwidth, draw_mode=settings.draw_mode, draws=settings.draws
            )
        ),
        rank=1,
        budgeted=True,
    ),
    "sample_no_replacement": Algorithm(
        PolicyTag.SAMPLE_NO_REPLACEMENT,
        lambda settings: SampleWithoutReplacementPolicy(
            SamplingConfig(bandwidth=settings.bandwidth)
        ),
        rank=1,
        budgeted=True,
    ),
}


def lookup_algorithm(name: str) -> Algorithm:
    """The table entry for ``name``; unknown names raise ``ValueError``."""
    try:
        return ALGORITHMS[name]
    except KeyError:
        raise ValueError(
            f"unknown algorithm {name!r}; expected one of {tuple(ALGORITHMS)}"
        ) from None


def fuses_partially(tag: PolicyTag | None) -> bool:
    """Whether receivers fuse transmissions made under ``tag`` with partial fusion."""
    return any(entry.partial_fusion for entry in ALGORITHMS.values() if entry.tag is tag)
