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
from operator import itemgetter
from pathlib import Path
import math

import numpy as np

from .events import EventParseError, InteractionEvent, Platform
from .events import _SAMPLE_LINE, _check_types, _json_number, _json_string, _literal, _new
from .events import _paused_gc, _read_record, _set


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
#: What a tolerance sample's beta is graded against: ``LabelingConfig.beta_baseline``.
BETA_BASELINES = ("user", "population")


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
        _check_types(self)
        check_edges("duration_bucket_edges", self.duration_bucket_edges)
        if self.min_history < 1:
            raise ValueError("min_history must be at least 1")
        if not self.ratio_cap > 0:
            raise ValueError("ratio_cap must be positive")
        if self.beta_baseline not in BETA_BASELINES:
            raise ValueError("beta_baseline must be " + " or ".join(map(repr, BETA_BASELINES)))

    @property
    def bucket_count(self) -> int:
        return len(self.duration_bucket_edges) + 1


@dataclass
class BucketStats:
    """Running mean of capped watch ratios within one duration bucket."""

    count: int = 0
    mean: float = 0.0


@dataclass
class UserProfile:
    user_id: str
    buckets: dict[int, BucketStats] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class LabeledSample:
    """One labeled interaction; ``beta`` is present exactly for TOLERANCE."""

    user_id: str
    item_id: str
    timestamp: int
    label: Label
    beta: float | None = None

    def __post_init__(self):
        _check_types(self)
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
        return _label(events, self, loo=False)


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
    count, mean = stats.count, stats.mean
    for index, ratio in enumerate(ratios):
        if active:
            head = excluded[:active]
            head += (ratio - head) / count
        if active < len(skips) and skips[active] == index:
            excluded[active] = mean
            active += 1
        before.append(mean)
        count += 1  # the oracles' reference_push, on locals
        mean += (ratio - mean) / count
    stats.count, stats.mean = count, mean
    return before, excluded.tolist()


def _list_means(
    stats: list[BucketStats], ratios: np.ndarray, lengths: np.ndarray, loo: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Push many lists of ratios into their ``stats``, all lists at once.

    ``ratios`` holds the lists end to end, ``lengths`` their lengths. Returns
    a (count, mean) per ratio: the state of its list before it is pushed or,
    with ``loo``, the list's final state with that ratio left out.

    Sorted longest first, the lists still active at step ``k`` are a prefix,
    and element ``k`` of each advances as one slice:
    ``mean += (ratio - mean) / (start + k + 1)``, the operands of the
    oracles' ``reference_push`` in its order, so the means are bit-identical
    to pushing one ratio at a time. The leave-one-out trajectories of a list
    advance the same way as :func:`_running_means`' skips, as a row of a 2-D
    array with divisor ``start + k``. Lists go in groups whose lengths lie
    within a factor of two, so that array holds at most twice the ratios.
    """
    offset = np.cumsum(lengths) - lengths
    start = np.array([s.count for s in stats], dtype=np.int64)
    mean = np.array([s.mean for s in stats], dtype=np.float64)
    if loo:
        count = np.repeat(start + lengths - 1, lengths)
    else:
        count = np.repeat(start - offset, lengths) + np.arange(len(ratios))
    read = np.empty(len(ratios))
    order = np.argsort(-lengths, kind="stable")
    longest_first = lengths[order]
    lo, busy = 0, np.count_nonzero(lengths)
    while lo < busy:
        steps = int(longest_first[lo])
        hi = lo + np.count_nonzero(longest_first[lo:busy] > steps // 2)
        group, size = order[lo:hi], longest_first[lo:hi]
        # active[k]: how many of the group's lists have an element k.
        active = np.searchsorted(-size, -np.arange(steps), side="left")
        first, base, running = offset[group], start[group], mean[group]
        skip = np.empty((hi - lo, steps)) if loo else None
        for k, a in enumerate(active.tolist()):
            at = first[:a] + k
            ratio = ratios[at]
            if loo:
                head = skip[:a, :k]
                head += (ratio[:, None] - head) / (base[:a, None] + k)
                skip[:a, k] = running[:a]
            else:
                read[at] = running[:a]
            running[:a] += (ratio - running[:a]) / (base[:a] + (k + 1))
        if loo:
            filled = np.arange(steps) < size[:, None]
            read[(first[:, None] + np.arange(steps))[filled]] = skip[filled]
        mean[group] = running
        lo = hi
    for s, total, final in zip(stats, (start + lengths).tolist(), mean.tolist()):
        s.count, s.mean = total, final
    return count, read


def _first_of_instant(timestamps: np.ndarray, starts) -> np.ndarray:
    """For lists laid end to end, each in time order and beginning at
    ``starts``: the position of the first element of each element's list
    with the same timestamp."""
    first = np.ones(len(timestamps), dtype=bool)
    first[1:] = timestamps[1:] != timestamps[:-1]
    first[starts] = True
    position = np.arange(len(timestamps))
    position[~first] = 0
    return np.maximum.accumulate(position, out=position)


#: Codes of a label column: ``_CODE_LABELS[code]`` is the label.
_NEGATIVE, _POSITIVE, _TOLERANCE = 0, 1, 2
_CODE_LABELS = (Label.NEGATIVE, Label.POSITIVE, Label.TOLERANCE)
_LABEL_CODES = {label: code for code, label in enumerate(_CODE_LABELS)}


def _label(
    events: list[InteractionEvent], labeler: CausalLabeler, loo: bool
) -> list[LabeledSample]:
    """Label a (user, timestamp)-sorted batch and push every engaged ratio
    into ``labeler``'s profiles and global mean. The labels come from
    :func:`_label_columns`, already checked as :class:`LabeledSample` would
    check them, so each sample is built without its checks; the columns'
    arrays are gone by then."""
    code, betas = _label_columns(events, labeler, loo)
    weights = iter(betas.tolist())
    samples = []
    with _paused_gc():
        for event, c in zip(events, code):
            sample = _new(LabeledSample)
            _set(sample, "user_id", event.user_id)
            _set(sample, "item_id", event.item_id)
            _set(sample, "timestamp", event.timestamp)
            _set(sample, "label", _CODE_LABELS[c])
            _set(sample, "beta", next(weights) if c == _TOLERANCE else None)
            samples.append(sample)
    return samples


# inf - inf is NaN, and a ratio over a tiny baseline inf, silently, as for Python floats.
@np.errstate(invalid="ignore", over="ignore")
def _label_columns(
    events: list[InteractionEvent], labeler: CausalLabeler, loo: bool
) -> tuple[bytearray, np.ndarray]:
    """The events' label codes and, in input order, the tolerance samples'
    betas; pushes every engaged ratio into ``labeler``.

    The rule: no click is negative. An e-commerce click is positive with a
    cart/favorite/purchase action, else tolerance with beta 0 (no graded
    signal). A clicked video's average is its (user, bucket) mean given
    ``min_history`` ratios, else the global mean; a capped watch ratio at or
    above it is positive (ties too), as is, under ``RATIO_OR_ACTION``, any
    like/comment/share/follow. Other videos are tolerance with ``beta =
    clamp(ratio / baseline, 0, 1)``, the baseline being the average or, with
    ``beta_baseline="population"``, the global mean; beta is 0 where the
    baseline is not positive.

    One Python pass reads the events into columns and checks their order.
    Each clicked video event then reads its (user, bucket) mean and, when
    that history is short or beta uses the population baseline, the global
    mean: causal mode as they stood before the event's instant, leave-one-out
    mode over the whole batch minus the event itself. Means are exact running
    means, not downdated sums: downdating drifts at the last ulp and breaks
    exact-tie labels for repeated ratios. The rule runs on whole columns;
    its comparisons, divide and clamps are elementwise IEEE operations, so
    they give the bits Python floats do.

    Cost: O(N log N) plus one numpy step per element of the longest (user,
    bucket) list; leave-one-out adds vector flops of O(L²) per list of
    length L and O(N · fallbacks) on the global list.
    """
    config = labeler.config
    cap, edges = config.ratio_cap, config.duration_bucket_edges
    users: list[str] = []  # each user once, in input order
    user_starts: list[int] = []
    code = bytearray(len(events))  # _NEGATIVE unless set
    # Clicked video events ("engaged"): position, capped ratio, bucket and
    # timestamp, and which of them a follow-up action promotes.
    engaged: list[int] = []
    ratio: list[float] = []
    bucket: list[int] = []
    moment: list[int] = []
    promoted: list[int] = []
    prev_user = prev_ts = None
    for k, event in enumerate(events):
        user, ts = event.user_id, event.timestamp
        if user != prev_user:
            if k and user < prev_user:
                raise ValueError("events must be sorted by (user_id, timestamp)")
            users.append(user)
            user_starts.append(k)
            prev_user = user
        elif ts < prev_ts:
            raise ValueError("events must be sorted by (user_id, timestamp)")
        prev_ts = ts
        if not event.clicked:
            continue
        actions = event.followup_actions
        if event.platform is Platform.VIDEO:
            if actions and not actions.isdisjoint(VIDEO_POSITIVE_ACTIONS):
                promoted.append(len(engaged))
            engaged.append(k)
            ratio.append(min(event.watch_duration / event.item_duration, cap))
            bucket.append(bisect_right(edges, event.item_duration))
            moment.append(ts)
        elif actions & ECOMMERCE_POSITIVE_ACTIONS:
            code[k] = _POSITIVE
        else:
            code[k] = _TOLERANCE

    if events:
        # Each user's events are in time order: the first and last bound them.
        earliest = min(events[k].timestamp for k in user_starts)
        latest = max(events[k - 1].timestamp for k in user_starts[1:] + [len(events)])
        if labeler._max_timestamp is not None and earliest <= labeler._max_timestamp:
            raise ValueError(
                f"batch timestamp {earliest} not after previously seen "
                f"{labeler._max_timestamp}"
            )
    for user in users:
        if user not in labeler.profiles:
            labeler.profiles[user] = UserProfile(user)

    # Arrays in place of the lists, which go as they are rebound.
    engaged = np.array(engaged, dtype=np.intp)
    ratio = np.array(ratio, dtype=np.float64)
    moment = np.array(moment)
    # Each (user, bucket) list's key: the user's position in users times the
    # bucket count, plus the bucket.
    key = np.searchsorted(user_starts, engaged, side="right") - 1
    key *= config.bucket_count
    key += np.array(bucket, dtype=np.intp)
    count, bucket_mean = _bucket_means(labeler, users, key, ratio, moment, loo)
    global_mean = _global_means(labeler, ratio, moment, count, loo)

    average = bucket_mean  # where the history is long enough, else global
    np.copyto(average, global_mean, where=count < config.min_history)
    positive = ratio >= average
    if config.rule_mode is RuleMode.RATIO_OR_ACTION:
        positive[promoted] = True
    baseline = global_mean if config.beta_baseline == "population" else average
    beta = np.zeros(len(ratio))
    np.divide(ratio, baseline, out=beta, where=~(baseline <= 0.0))
    np.copyto(beta, 0.0, where=0.0 > beta)  # max(beta, 0.0) as Python picks
    np.copyto(beta, 1.0, where=1.0 < beta)  # then min(beta, 1.0)

    codes = np.frombuffer(code, dtype=np.uint8)
    codes[engaged] = np.where(positive, _POSITIVE, _TOLERANCE)
    betas = np.zeros(len(events))
    betas[engaged] = beta
    tolerance = codes == _TOLERANCE
    # LabeledSample's checks: beta is present exactly for tolerance, as _label
    # builds the samples, and must lie in [0, 1].
    bad = np.flatnonzero(tolerance & ~((0.0 <= betas) & (betas <= 1.0)))
    if len(bad):
        raise ValueError(f"beta {float(betas[bad[0]])} outside [0, 1]")
    if events:
        labeler._max_timestamp = latest
    return code, betas[tolerance]


def _bucket_means(
    labeler: CausalLabeler,
    users: list[str],
    key: np.ndarray,
    ratio: np.ndarray,
    moment: np.ndarray,
    loo: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """The (count, mean) each engaged event reads from its (user, bucket)
    history, which ``key`` names (see :func:`_label`); pushes every ratio
    into the profiles."""
    # The (user, bucket) lists, laid end to end, each in time order.
    grouped = np.argsort(key, kind="stable")
    key = key[grouped]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    stats = []
    for list_key in key[starts].tolist():
        u, b = divmod(list_key, labeler.config.bucket_count)
        stats.append(labeler.profiles[users[u]].buckets.setdefault(b, BucketStats()))
    lengths = np.diff(starts, append=len(key))
    count, mean = _list_means(stats, ratio[grouped], lengths, loo)
    if not loo:
        first = _first_of_instant(moment[grouped], starts)
        count, mean = count[first], mean[first]
    # From the lists' order back to the events'.
    inverse = np.empty_like(grouped)
    inverse[grouped] = np.arange(len(grouped))
    return count[inverse], mean[inverse]


def _global_means(
    labeler: CausalLabeler,
    ratio: np.ndarray,
    moment: np.ndarray,
    count: np.ndarray,
    loo: bool,
) -> np.ndarray:
    """The global mean each engaged event reads, given the ``count`` of its
    (user, bucket) history; pushes every ratio into the global mean in time
    order. Leave-one-out reads it only where the rule uses it."""
    stats = labeler._global
    time_order = np.argsort(moment, kind="stable")
    global_mean = np.full(len(ratio), GLOBAL_MEAN_SEED)
    if loo:
        config = labeler.config
        uses = (count[time_order] < config.min_history) | (
            config.beta_baseline == "population"
        )
        skips = np.flatnonzero(uses)
        _, excluded = _running_means(stats, ratio[time_order].tolist(), skips.tolist())
        if stats.count > 1:
            global_mean[time_order[skips]] = excluded
    else:
        seen = stats.count
        before, _ = _running_means(stats, ratio[time_order].tolist())
        first = _first_of_instant(moment[time_order], [])
        read = np.array(before)[first]
        global_mean[time_order] = np.where(seen + first > 0, read, GLOBAL_MEAN_SEED)
    return global_mean


# ---------------------------------------------------------------------------
# File formats: labeled samples and profile snapshots are JSON lines.
# ---------------------------------------------------------------------------


_LABELS = {label.value: label for label in Label}
_SAMPLE_KEYS = frozenset({"user", "item", "ts", "label", "beta"})
_SAMPLE_FIELDS = itemgetter("user", "item", "ts", "label")


def sample_to_json(sample: LabeledSample) -> str:
    """One-line JSON form, the bytes of ``json.dumps(record, separators=(",", ":"))``."""
    beta = "" if sample.beta is None else f',"beta":{_json_number(sample.beta)}'
    return (
        f'{{"user":{_json_string(sample.user_id)},"item":{_json_string(sample.item_id)},'
        f'"ts":{int.__repr__(sample.timestamp)},"label":"{sample.label.value}"{beta}}}'
    )


def parse_sample(line: str, line_number: int = 0) -> LabeledSample:
    """Parse one sample record, checked once and then built without running
    :class:`LabeledSample`'s checks again; a rejection is an
    :class:`EventParseError` that names the line."""
    return _parse_sample(line, line_number, {})


def _parse_sample(line: str, line_number: int, ids: dict) -> LabeledSample:
    """:func:`parse_sample`, taking its ids from the read's table ``ids``."""
    user, item, ts, label, beta = _match_sample(line) or _decode_sample(line, line_number)
    kind = _LABELS.get(label) if type(label) is str else None
    if kind is None:
        raise EventParseError(line_number, f"unknown label {label!r}")
    if kind is Label.TOLERANCE:
        if beta is None:
            raise EventParseError(line_number, "label 'T' needs a beta")
        if (type(beta) is not float and type(beta) is not int) or not 0.0 <= beta <= 1.0:
            raise EventParseError(line_number, f"beta {beta!r} outside [0, 1]")
    elif beta is not None:
        raise EventParseError(line_number, f"beta given for label {label!r}")

    sample = _new(LabeledSample)
    _set(sample, "user_id", ids.setdefault(user, user))
    _set(sample, "item_id", ids.setdefault(item, item))
    _set(sample, "timestamp", ts)
    _set(sample, "label", kind)
    _set(sample, "beta", beta)
    return sample


def _match_sample(line: str) -> tuple | None:
    """The fields of a line in :func:`sample_to_json`'s form, or None."""
    match = _SAMPLE_LINE(line)
    if match is None:
        return None
    user, item, ts, label, beta = match.groups()
    try:
        return user, item, int(ts), label, beta if beta is None else _literal(beta)
    except ValueError:  # the int digit limit: `_read_record` rejects the line
        return None


def _decode_sample(line: str, line_number: int) -> tuple:
    record, values = _read_record(line, line_number, _SAMPLE_KEYS, _SAMPLE_FIELDS)
    return *values, record.get("beta")


def write_samples(path: str | Path, samples: list[LabeledSample]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for sample in samples:
            handle.write(sample_to_json(sample) + "\n")


def read_samples(path: str | Path) -> list[LabeledSample]:
    """The samples of a file, skipping lines of JSON whitespace only; raises
    :class:`EventParseError` at the first bad line. A line just as :func:`sample_to_json`
    writes it skips the JSON decode; any other goes through ``json``, messages unchanged."""
    ids: dict[str, str] = {}  # one string per id for this read's samples only
    with open(path, encoding="utf-8") as handle, _paused_gc():
        numbered = enumerate(handle, start=1)
        return [_parse_sample(line, k, ids) for k, line in numbered if line.strip(" \t\n\r")]


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
