"""Three-way engagement labeling with personalized watch-ratio thresholds.

Every interaction gets exactly one label:

* ``POSITIVE`` — deep engagement: an e-commerce click followed by cart,
  favorite, or purchase; or a video watched at or above the user's own
  average completion ratio (or, in the default rule, carrying any
  follow-up action such as a like or share).
* ``TOLERANCE`` — superficial engagement: the user clicked and spent
  time but the session ended without the signals above. Video tolerance
  samples carry a weight ``beta = ratio / average`` in [0, 1] grading how
  close the watch came to the user's habit.
* ``NEGATIVE`` — no engagement at all (no click).

The personalized threshold is the user's running mean watch ratio within
a duration bucket (short/medium/long by default), because the meaning of
"watched 5 seconds" depends on whether the video lasts 10 seconds or 10
minutes. Users without enough history fall back to a running global mean,
seeded at 0.5 before any data.
"""

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
import json
import math

import numpy as np

from .events import InteractionEvent, Platform
from .events import _json_number, _json_string, _new, _set


class Label(Enum):
    POSITIVE = "P"
    TOLERANCE = "T"
    NEGATIVE = "N"


class RuleMode(Enum):
    """How video engagements are promoted to POSITIVE.

    ``RATIO_OR_ACTION``: at-or-above-average watch ratio *or* any
    follow-up action counts. ``RATIO_ONLY``: the ratio test alone
    decides, mirroring a deployment that ignores action signals.
    """

    RATIO_OR_ACTION = "ratio-or-action"
    RATIO_ONLY = "ratio-only"


class LabelingMode(Enum):
    """Which history backs the personalized threshold.

    ``CAUSAL``: only events with strictly earlier timestamps (the
    online-compatible reading). ``LEAVE_ONE_OUT``: the user's full
    history minus the event itself (the retrospective reading).
    """

    CAUSAL = "causal"
    LEAVE_ONE_OUT = "loo"


#: Follow-up actions that make an e-commerce click clearly positive.
ECOMMERCE_POSITIVE_ACTIONS = frozenset({"cart", "favorite", "purchase"})
#: Follow-up actions that make a video engagement clearly positive.
VIDEO_POSITIVE_ACTIONS = frozenset({"like", "comment", "share", "follow"})

#: Global-mean value used before any watch ratio has been observed.
GLOBAL_MEAN_SEED = 0.5


def check_edges(name: str, edges: tuple[float, ...]) -> None:
    """Reject bucket edges that hold a NaN or are not strictly ascending."""
    if any(map(math.isnan, edges)) or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValueError(f"{name} must be strictly ascending numbers, got {edges}")


@dataclass(frozen=True)
class LabelingConfig:
    rule_mode: RuleMode = RuleMode.RATIO_OR_ACTION
    #: Bucket boundaries in seconds; () means a single bucket for all durations.
    duration_bucket_edges: tuple[float, ...] = (60.0, 300.0)
    #: Prior ratios required in a bucket before the personal mean is trusted.
    min_history: int = 5
    ratio_cap: float = 1.0
    #: "user": beta is graded against the user's own average;
    #: "population": against the running global mean.
    beta_baseline: str = "user"

    def __post_init__(self):
        if not isinstance(self.rule_mode, RuleMode):
            raise ValueError(f"rule_mode must be a RuleMode, got {self.rule_mode!r}")
        check_edges("duration_bucket_edges", self.duration_bucket_edges)
        if self.min_history < 1:
            raise ValueError("min_history must be at least 1")
        if not self.ratio_cap > 0:
            raise ValueError("ratio_cap must be positive")
        if self.beta_baseline not in ("user", "population"):
            raise ValueError("beta_baseline must be 'user' or 'population'")

    def bucket_index(self, item_duration: float) -> int:
        return bisect_right(self.duration_bucket_edges, item_duration)

    @property
    def bucket_count(self) -> int:
        return len(self.duration_bucket_edges) + 1


@dataclass
class BucketStats:
    """Running mean of capped watch ratios within one duration bucket."""

    count: int = 0
    mean: float = 0.0

    def push(self, ratio: float) -> None:
        self.count += 1
        self.mean += (ratio - self.mean) / self.count


@dataclass
class UserProfile:
    user_id: str
    buckets: dict[int, BucketStats] = field(default_factory=dict)

    def bucket_stats(self, bucket: int) -> tuple[int, float]:
        stats = self.buckets.get(bucket)
        if stats is None:
            return 0, 0.0
        return stats.count, stats.mean


@dataclass(frozen=True)
class LabeledSample:
    """One labeled interaction; ``beta`` is present exactly for TOLERANCE."""

    user_id: str
    item_id: str
    timestamp: int
    label: Label
    beta: float | None = None

    def __post_init__(self):
        if (self.beta is not None) != (self.label is Label.TOLERANCE):
            raise ValueError("beta must be present iff label is TOLERANCE")
        if self.beta is not None and not 0.0 <= self.beta <= 1.0:
            raise ValueError(f"beta {self.beta} outside [0, 1]")


def watch_ratio(event: InteractionEvent, cap: float = 1.0) -> float:
    """Watch time over item duration, clamped to ``cap`` (rewatches count as
    full completion)."""
    if event.platform is not Platform.VIDEO:
        raise ValueError("watch_ratio is only defined for video events")
    return min(event.watch_duration / event.item_duration, cap)


def tolerance_weight(ratio: float, average: float) -> float:
    """Weight for a tolerance sample: how close the watch ratio came to the
    reference average, clamped to [0, 1]. Zero when no average exists."""
    if average <= 0.0:
        return 0.0
    return min(max(ratio / average, 0.0), 1.0)


def label_event(
    event: InteractionEvent,
    profile: UserProfile,
    global_mean: float,
    config: LabelingConfig,
) -> LabeledSample:
    """Assign POSITIVE / TOLERANCE / NEGATIVE to one event.

    E-commerce: no click is negative; a click with a cart/favorite/
    purchase action is positive; a bare click is tolerance with beta 0
    (there is no graded signal to weight it by).

    Video: no click is negative. The personal average is the event's
    duration-bucket mean when it has at least ``min_history`` ratios,
    else ``global_mean``. A ratio at or above the average is positive
    (ties count as positive); under ``RATIO_OR_ACTION`` any like/
    comment/share/follow also promotes to positive. Everything else is
    tolerance, weighted by ratio over average.
    """
    if event.platform is Platform.ECOMMERCE:
        if not event.clicked:
            return _sample(event, Label.NEGATIVE)
        if event.followup_actions & ECOMMERCE_POSITIVE_ACTIONS:
            return _sample(event, Label.POSITIVE)
        return _sample(event, Label.TOLERANCE, beta=0.0)

    if not event.clicked:
        return _sample(event, Label.NEGATIVE)

    ratio = watch_ratio(event, config.ratio_cap)
    count, bucket_mean = profile.bucket_stats(config.bucket_index(event.item_duration))
    average = bucket_mean if count >= config.min_history else global_mean

    positive = ratio >= average
    if config.rule_mode is RuleMode.RATIO_OR_ACTION:
        positive = positive or bool(event.followup_actions & VIDEO_POSITIVE_ACTIONS)
    if positive:
        return _sample(event, Label.POSITIVE)

    baseline = average if config.beta_baseline == "user" else global_mean
    return _sample(event, Label.TOLERANCE, beta=tolerance_weight(ratio, baseline))


def _sample(
    event: InteractionEvent, label: Label, beta: float | None = None
) -> LabeledSample:
    return LabeledSample(
        user_id=event.user_id,
        item_id=event.item_id,
        timestamp=event.timestamp,
        label=label,
        beta=beta,
    )


class CausalLabeler:
    """Streaming labeler whose thresholds see only strictly earlier events.

    Events sharing a timestamp are labeled against the state before that
    instant and only then folded in, so simultaneous events never
    influence each other. Batches fed to :meth:`extend` must therefore
    not overlap in time with earlier batches.
    """

    def __init__(self, config: LabelingConfig):
        self.config = config
        self.profiles: dict[str, UserProfile] = {}
        self._global = BucketStats()
        self._max_timestamp: int | None = None

    @property
    def global_mean(self) -> float:
        """Running mean of every capped watch ratio absorbed so far."""
        if self._global.count:
            return self._global.mean
        return GLOBAL_MEAN_SEED

    def extend(self, events: list[InteractionEvent]) -> list[LabeledSample]:
        """Label a (user, timestamp)-sorted batch and absorb it into state."""
        if events and self._max_timestamp is not None:
            earliest = min(e.timestamp for e in events)
            if earliest <= self._max_timestamp:
                raise ValueError(
                    f"batch timestamp {earliest} not after previously seen "
                    f"{self._max_timestamp}"
                )
        samples = _label(events, self, loo=False)
        if events:
            self._max_timestamp = max(e.timestamp for e in events)
        return samples


@dataclass
class LabelingResult:
    samples: list[LabeledSample]
    profiles: dict[str, UserProfile]
    global_mean: float


def label_log(
    events: list[InteractionEvent],
    config: LabelingConfig,
    mode: LabelingMode = LabelingMode.CAUSAL,
) -> LabelingResult:
    """Label a whole (user, timestamp)-sorted log.

    Output order matches input order; the returned profiles and global
    mean reflect the full history in both modes.
    """
    labeler = CausalLabeler(config)
    if mode is LabelingMode.CAUSAL:
        samples = labeler.extend(events)
    else:
        samples = _label(events, labeler, loo=True)
    return LabelingResult(samples, labeler.profiles, labeler.global_mean)


def _running_means(
    stats: BucketStats, ratios: list[float], skips: Sequence[int] = ()
) -> tuple[list[float], list[float]]:
    """Push ``ratios`` into ``stats``; return the mean before each push and,
    for each ascending position in ``skips``, the mean with that ratio left
    out. The trajectory that skips ``j`` starts from the mean before ``j``,
    and at every later push each active trajectory takes the same ratio and
    divisor ``stats.count``, so all advance together as one array slice,
    bit-identical to pushing the other ratios one at a time.
    """
    before = []
    excluded = np.zeros(len(skips))
    active = 0
    for index, ratio in enumerate(ratios):
        if active:
            head = excluded[:active]
            head += (ratio - head) / stats.count
        if active < len(skips) and skips[active] == index:
            excluded[active] = stats.mean
            active += 1
        before.append(stats.mean)
        stats.push(ratio)
    return before, excluded.tolist()


def _label(
    events: list[InteractionEvent], labeler: CausalLabeler, loo: bool
) -> list[LabeledSample]:
    """Label a (user, timestamp)-sorted batch and push every engaged ratio
    into ``labeler``'s profiles and global mean.

    Each clicked video event reads its (user, bucket) mean and, when that
    history is short or beta uses the population baseline, the global mean:
    causal mode as they stood before the event's instant, leave-one-out
    mode over the whole batch minus the event itself. Means are exact
    running means, not downdated sums: downdating drifts at the last ulp
    and breaks exact-tie labels for repeated ratios. Cost: O(N log N)
    Python steps; leave-one-out adds vector flops of O(L²) per
    (user, bucket) list of length L and O(N · fallbacks) on the global list.
    """
    for prev, cur in zip(events, events[1:]):
        if (cur.user_id, cur.timestamp) < (prev.user_id, prev.timestamp):
            raise ValueError("events must be sorted by (user_id, timestamp)")
    config = labeler.config
    profiles = labeler.profiles
    # Per-event state sits in flat lists by event position, which take about
    # a third of the memory of dicts. Input order is (user, timestamp)
    # order, so each (user, bucket) list of positions is in time order.
    ratio = [0.0] * len(events)
    bucket = [0] * len(events)
    per_bucket: dict[tuple[str, int], list[int]] = {}
    for k, event in enumerate(events):
        if event.user_id not in profiles:
            profiles[event.user_id] = UserProfile(event.user_id)
        if event.platform is Platform.VIDEO and event.clicked:
            ratio[k] = watch_ratio(event, config.ratio_cap)
            bucket[k] = config.bucket_index(event.item_duration)
            per_bucket.setdefault((event.user_id, bucket[k]), []).append(k)

    def prior(stats: BucketStats, members: list[int], skips: Sequence[int]):
        """Push the members' ratios; yield (position, count, mean) read."""
        start = stats.count
        before, excluded = _running_means(
            stats, [ratio[k] for k in members], skips if loo else ()
        )
        if loo:
            for i, mean in zip(skips, excluded):
                yield members[i], stats.count - 1, mean
            return
        first = 0
        for i, k in enumerate(members):
            if events[k].timestamp != events[members[first]].timestamp:
                first = i
            yield k, start + first, before[first]

    count = [0] * len(events)
    bucket_mean = [0.0] * len(events)
    for (user_id, b), members in per_bucket.items():
        stats = profiles[user_id].buckets.setdefault(b, BucketStats())
        for k, n, mean in prior(stats, members, range(len(members))):
            count[k], bucket_mean[k] = n, mean

    time_order = sorted(
        (k for members in per_bucket.values() for k in members),
        key=lambda k: (events[k].timestamp, k),
    )
    population = config.beta_baseline == "population"
    skips = [
        i
        for i, k in enumerate(time_order)
        if population or count[k] < config.min_history
    ]
    global_mean = [GLOBAL_MEAN_SEED] * len(events)
    for k, total, mean in prior(labeler._global, time_order, skips):
        if total:
            global_mean[k] = mean

    samples: list[LabeledSample] = []
    for k, event in enumerate(events):
        profile = UserProfile(event.user_id)
        if count[k]:
            profile.buckets[bucket[k]] = BucketStats(count[k], bucket_mean[k])
        samples.append(label_event(event, profile, global_mean[k], config))
    return samples


# ---------------------------------------------------------------------------
# File formats: labeled samples and profile snapshots are JSON lines.
# ---------------------------------------------------------------------------


_LABELS = {label.value: label for label in Label}


def sample_to_json(sample: LabeledSample) -> str:
    """One-line JSON form, the bytes of ``json.dumps(record, separators=(",", ":"))``."""
    beta = "" if sample.beta is None else f',"beta":{_json_number(sample.beta)}'
    return (
        f'{{"user":{_json_string(sample.user_id)},"item":{_json_string(sample.item_id)},'
        f'"ts":{int.__repr__(sample.timestamp)},"label":"{sample.label.value}"{beta}}}'
    )


def _bad_line(line_number: int, message: str) -> ValueError:
    return ValueError(f"line {line_number}: {message}")


def parse_sample(line: str, line_number: int = 0) -> LabeledSample:
    """Parse one sample record, checked once and then built without running
    :class:`LabeledSample`'s checks again; a rejection names the line."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise _bad_line(line_number, f"invalid JSON ({exc.msg})") from None
    if type(record) is not dict:
        raise _bad_line(line_number, "record must be a JSON object")
    try:
        user, item, ts, label = record["user"], record["item"], record["ts"], record["label"]
    except KeyError as exc:
        raise _bad_line(line_number, f"missing key {exc.args[0]!r}") from None
    if type(user) is not str or type(item) is not str:
        raise _bad_line(line_number, "user and item must be strings")
    if type(ts) is not int:
        raise _bad_line(line_number, "ts must be an integer")
    kind = _LABELS.get(label) if type(label) is str else None
    if kind is None:
        raise _bad_line(line_number, f"unknown label {label!r}")
    beta = record.get("beta")
    if kind is Label.TOLERANCE:
        if beta is None:
            raise _bad_line(line_number, "label 'T' needs a beta")
        if (type(beta) is not float and type(beta) is not int) or not 0.0 <= beta <= 1.0:
            raise _bad_line(line_number, f"beta {beta!r} outside [0, 1]")
    elif beta is not None:
        raise _bad_line(line_number, f"beta given for label {label!r}")

    sample = _new(LabeledSample)
    _set(sample, "user_id", user)
    _set(sample, "item_id", item)
    _set(sample, "timestamp", ts)
    _set(sample, "label", kind)
    _set(sample, "beta", beta)
    return sample


def write_samples(path: str | Path, samples: list[LabeledSample]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(sample_to_json(sample) + "\n")


def read_samples(path: str | Path) -> list[LabeledSample]:
    with open(path, encoding="utf-8") as handle:
        numbered = enumerate(handle, start=1)
        return [parse_sample(line, number) for number, line in numbered if line.strip()]


def write_profiles(path: str | Path, profiles: dict[str, UserProfile]) -> None:
    """Snapshot profiles as one record per (user, bucket)."""
    with open(path, "w", encoding="utf-8") as handle:
        for user_id in sorted(profiles):
            for bucket, stats in sorted(profiles[user_id].buckets.items()):
                handle.write(
                    f'{{"user":{_json_string(user_id)},"bucket":{int.__repr__(bucket)},'
                    f'"count":{int.__repr__(stats.count)},'
                    f'"mean":{_json_number(stats.mean)}}}\n'
                )
