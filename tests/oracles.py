"""Independent reference implementations used to cross-check the package.

These deliberately re-derive results from first principles (per-event
recomputation, coordinate-wise finite differences, relabeled copies)
rather than sharing code with the implementations they verify.
"""

import json
from bisect import bisect_left, bisect_right
from dataclasses import replace

import numpy as np

from tolrec.cohort import BucketReport, CohortConfig, CohortReport
from tolrec.events import (
    ACTION_VOCABULARY,
    EventParseError,
    EventValidationError,
    InteractionEvent,
    Platform,
    TimeWindow,
)
from tolrec.labeling import (
    GLOBAL_MEAN_SEED,
    BucketStats,
    CausalLabeler,
    Label,
    LabeledSample,
    LabelingConfig,
    LabelingResult,
    RuleMode,
    UserProfile,
    watch_ratio,
)
from tolrec.simulation import SimReport
from tolrec.trainer import (
    Objective,
    RankingModel,
    TrainConfig,
    TrainResult,
    _encode,
    gradient,
    loss,
)

_ECOM_POSITIVE = {"cart", "favorite", "purchase"}
_VIDEO_POSITIVE = {"like", "comment", "share", "follow"}


def reference_bucket(config: LabelingConfig, item_duration: float) -> int:
    """The duration bucket an item falls in: edges are lower-inclusive."""
    return bisect_right(config.duration_bucket_edges, item_duration)


def reference_push(stats: BucketStats, ratio: float) -> None:
    """Fold one ratio into a running mean, in the operand order that the
    package's batched means are pinned to."""
    stats.count += 1
    stats.mean += (ratio - stats.mean) / stats.count


def _running_mean(values) -> float:
    mean = 0.0
    for count, value in enumerate(values, start=1):
        mean += (value - mean) / count
    return mean


def reference_label(
    event: InteractionEvent,
    count: int,
    bucket_mean: float,
    global_mean: float,
    config: LabelingConfig,
) -> LabeledSample:
    """The P/T/N rule for one event, given the ``count`` and ``bucket_mean``
    of its (user, duration bucket) history and the global mean.

    E-commerce: no click is negative, a cart/favorite/purchase click is
    positive, a bare click is tolerance with beta 0. Video: no click is
    negative; the average is the bucket mean when ``count`` reaches
    ``min_history``, else the global mean; a capped ratio at or above it is
    positive, as is, under ``RATIO_OR_ACTION``, a like/comment/share/follow;
    anything else is tolerance with beta = clamp(ratio / baseline, 0, 1), or
    0 when the baseline is not positive.
    """
    beta = None
    if event.platform is Platform.ECOMMERCE:
        if not event.clicked:
            label = Label.NEGATIVE
        elif event.followup_actions & _ECOM_POSITIVE:
            label = Label.POSITIVE
        else:
            label, beta = Label.TOLERANCE, 0.0
    elif not event.clicked:
        label = Label.NEGATIVE
    else:
        ratio = min(event.watch_duration / event.item_duration, config.ratio_cap)
        average = bucket_mean if count >= config.min_history else global_mean
        is_positive = ratio >= average
        if config.rule_mode is RuleMode.RATIO_OR_ACTION:
            is_positive = is_positive or bool(event.followup_actions & _VIDEO_POSITIVE)
        if is_positive:
            label = Label.POSITIVE
        else:
            denominator = average if config.beta_baseline == "user" else global_mean
            if denominator <= 0.0:
                beta = 0.0
            else:
                beta = min(max(ratio / denominator, 0.0), 1.0)
            label = Label.TOLERANCE
    return LabeledSample(
        user_id=event.user_id,
        item_id=event.item_id,
        timestamp=event.timestamp,
        label=label,
        beta=beta,
    )


def brute_force_causal_labels(
    events: list[InteractionEvent], config: LabelingConfig
) -> list[LabeledSample]:
    """Label each event against statistics recomputed from scratch over
    all events with strictly earlier timestamps."""
    capped = {}
    for k, event in enumerate(events):
        if event.platform is Platform.VIDEO and event.clicked:
            capped[k] = min(
                event.watch_duration / event.item_duration, config.ratio_cap
            )

    # Global ratios in (timestamp, position) order with prefix running means.
    time_order = sorted(capped, key=lambda k: (events[k].timestamp, k))
    global_ts = [events[k].timestamp for k in time_order]
    prefix_means = [0.5]
    mean = 0.0
    for count, k in enumerate(time_order, start=1):
        mean += (capped[k] - mean) / count
        prefix_means.append(mean)

    by_user: dict[str, list[int]] = {}
    for k, event in enumerate(events):
        by_user.setdefault(event.user_id, []).append(k)

    samples = []
    for k, event in enumerate(events):
        count, average, global_mean = 0, 0.0, GLOBAL_MEAN_SEED
        if k in capped:
            bucket = reference_bucket(config, event.item_duration)
            prior = [
                capped[j]
                for j in by_user[event.user_id]
                if j in capped
                and events[j].timestamp < event.timestamp
                and reference_bucket(config, events[j].item_duration) == bucket
            ]
            n_earlier = bisect_left(global_ts, event.timestamp)
            global_mean = prefix_means[n_earlier] if n_earlier else 0.5
            count, average = len(prior), _running_mean(prior)
        samples.append(reference_label(event, count, average, global_mean, config))
    return samples


def update_profile(
    profile: UserProfile, event: InteractionEvent, config: LabelingConfig
) -> UserProfile:
    """Fold one event into the user's running statistics.

    Clicked video events update the matching duration bucket's running
    mean with the capped watch ratio; nothing else changes the profile.
    """
    if event.user_id != profile.user_id:
        raise ValueError(
            f"event user {event.user_id!r} does not match profile "
            f"{profile.user_id!r}"
        )
    if event.clicked and event.platform is Platform.VIDEO:
        bucket = reference_bucket(config, event.item_duration)
        stats = profile.buckets.setdefault(bucket, BucketStats())
        reference_push(stats, watch_ratio(event, config.ratio_cap))
    return profile


def reference_causal_extend(
    labeler: CausalLabeler, events: list[InteractionEvent]
) -> list[LabeledSample]:
    """The per-event causal loop: each timestamp group is labeled against
    ``labeler``'s state before that instant, then folded in one event at a
    time through :func:`update_profile`. Updates ``labeler``'s profiles and
    global mean as :meth:`CausalLabeler.extend` must; the batch checks of
    ``extend`` are left out."""

    def absorb(event: InteractionEvent) -> None:
        profile = labeler.profiles.setdefault(event.user_id, UserProfile(event.user_id))
        update_profile(profile, event, labeler.config)
        if event.platform is Platform.VIDEO and event.clicked:
            reference_push(labeler._global, watch_ratio(event, labeler.config.ratio_cap))

    samples: list[LabeledSample | None] = [None] * len(events)
    order = sorted(range(len(events)), key=lambda k: (events[k].timestamp, k))
    start = 0
    while start < len(order):
        stop = start
        ts = events[order[start]].timestamp
        while stop < len(order) and events[order[stop]].timestamp == ts:
            stop += 1
        group = order[start:stop]
        global_mean = labeler.global_mean
        for k in group:
            event = events[k]
            stats = BucketStats()
            if event.platform is Platform.VIDEO and event.user_id in labeler.profiles:
                bucket = reference_bucket(labeler.config, event.item_duration)
                stats = labeler.profiles[event.user_id].buckets.get(bucket, stats)
            samples[k] = reference_label(
                event, stats.count, stats.mean, global_mean, labeler.config
            )
        for k in group:
            absorb(events[k])
        start = stop
    return samples  # type: ignore[return-value]


def _mean_excluding(ratios: list[float], skip: int | None) -> tuple[int, float]:
    """Running mean over ``ratios`` with position ``skip`` left out."""
    count = 0
    mean = 0.0
    for index, ratio in enumerate(ratios):
        if index == skip:
            continue
        count += 1
        mean += (ratio - mean) / count
    return count, mean


def reference_label_leave_one_out(
    events: list[InteractionEvent], config: LabelingConfig
) -> LabelingResult:
    """Leave-one-out labels with every excluded-self mean recomputed from
    scratch, one rescan per event, and full-history profiles from a final
    pass in time order. The label rule is :func:`reference_label`, so no
    decision code is shared with the package."""
    per_bucket: dict[tuple[str, int], list[float]] = {}
    bucket_position: dict[int, int] = {}
    time_order = sorted(range(len(events)), key=lambda k: (events[k].timestamp, k))
    global_ratios: list[float] = []
    global_position: dict[int, int] = {}
    for k in time_order:
        event = events[k]
        if event.platform is Platform.VIDEO and event.clicked:
            global_position[k] = len(global_ratios)
            global_ratios.append(watch_ratio(event, config.ratio_cap))
    for k, event in enumerate(events):
        if event.platform is Platform.VIDEO and event.clicked:
            key = (event.user_id, reference_bucket(config, event.item_duration))
            ratios = per_bucket.setdefault(key, [])
            bucket_position[k] = len(ratios)
            ratios.append(watch_ratio(event, config.ratio_cap))

    samples: list[LabeledSample] = []
    for k, event in enumerate(events):
        count, mean, global_mean = 0, 0.0, GLOBAL_MEAN_SEED
        if event.platform is Platform.VIDEO and event.clicked:
            bucket = reference_bucket(config, event.item_duration)
            ratios = per_bucket[(event.user_id, bucket)]
            count, mean = _mean_excluding(ratios, bucket_position[k])
            if count < config.min_history or config.beta_baseline == "population":
                g_count, g_mean = _mean_excluding(global_ratios, global_position[k])
                if g_count:
                    global_mean = g_mean
        samples.append(reference_label(event, count, mean, global_mean, config))

    profiles: dict[str, UserProfile] = {}
    final_count, final_mean = 0, 0.0
    for k in time_order:
        event = events[k]
        profile = profiles.setdefault(event.user_id, UserProfile(event.user_id))
        update_profile(profile, event, config)
        if event.platform is Platform.VIDEO and event.clicked:
            final_count += 1
            ratio = watch_ratio(event, config.ratio_cap)
            final_mean += (ratio - final_mean) / final_count
    return LabelingResult(
        samples, profiles, final_mean if final_count else GLOBAL_MEAN_SEED
    )


def sample_loss(
    model: RankingModel, samples: list[LabeledSample], config: TrainConfig
) -> float:
    """:func:`tolrec.trainer.loss` of ``samples``, encoded as ``train``
    encodes them."""
    return loss(model, _encode(model, samples, config), config.l2)


def sample_gradient(
    model: RankingModel, samples: list[LabeledSample], config: TrainConfig
) -> RankingModel:
    """:func:`tolrec.trainer.gradient` over ``samples`` as one batch, shaped
    like the model: its ``table`` and ``global_bias`` hold the derivatives,
    so ``.user_factors`` and the other blocks read them. It shares ``users``
    and ``items`` with ``model``."""
    rows, weight, positive = _encode(model, samples, config)
    index = np.arange(model.table.size).reshape(model.table.shape)
    table, global_bias = gradient(model, rows.T, weight, positive, index, config.l2)
    return replace(model, table=table, global_bias=global_bias)


def finite_difference_gradient(
    model: RankingModel,
    samples: list[LabeledSample],
    config: TrainConfig,
    h: float = 1e-5,
) -> RankingModel:
    """Central differences of the loss for every parameter coordinate, as a
    model of the same shape."""

    def perturbed(attr, index, delta) -> float:
        clone = replace(model, table=model.table.copy())
        if attr == "global_bias":
            clone.global_bias += delta
        else:
            getattr(clone, attr)[index] += delta
        return sample_loss(clone, samples, config)

    def array_gradient(attr) -> np.ndarray:
        array = getattr(model, attr)
        out = np.zeros_like(array)
        for index in np.ndindex(array.shape):
            out[index] = (
                perturbed(attr, index, h) - perturbed(attr, index, -h)
            ) / (2 * h)
        return out

    grad = replace(model, table=model.table.copy())
    grad.user_factors = array_gradient("user_factors")
    grad.item_factors = array_gradient("item_factors")
    grad.user_bias = array_gradient("user_bias")
    grad.item_bias = array_gradient("item_bias")
    grad.global_bias = (
        perturbed("global_bias", None, h) - perturbed("global_bias", None, -h)
    ) / (2 * h)
    return grad


def relabel_tolerance_as_negative(
    samples: list[LabeledSample],
) -> list[LabeledSample]:
    out = []
    for sample in samples:
        if sample.label is Label.TOLERANCE:
            out.append(
                LabeledSample(
                    user_id=sample.user_id,
                    item_id=sample.item_id,
                    timestamp=sample.timestamp,
                    label=Label.NEGATIVE,
                )
            )
        else:
            out.append(sample)
    return out


def max_relative_gradient_error(
    analytic: RankingModel, numeric: RankingModel
) -> float:
    """Largest coordinate-wise relative difference, with a small floor so
    near-zero coordinates compare on an absolute scale."""
    worst = 0.0
    for attr in ("user_factors", "item_factors", "user_bias", "item_bias"):
        a = np.asarray(getattr(analytic, attr), dtype=float)
        b = np.asarray(getattr(numeric, attr), dtype=float)
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - b) / scale)))
    scale = max(abs(analytic.global_bias), abs(numeric.global_bias), 1e-8)
    worst = max(worst, abs(analytic.global_bias - numeric.global_bias) / scale)
    return worst


def reference_read_model(path) -> RankingModel:
    """Parse a ``write_model`` snapshot: a JSON header, then a JSON line per
    user and then per item. Each id takes the next row of its block. The
    input is assumed well formed."""
    with open(path, encoding="utf-8") as handle:
        header, *records = [json.loads(line) for line in handle]
    n_users = header["users"]
    table = np.array([[*r["vector"], r["bias"]] for r in records], dtype=np.float64)
    return RankingModel(
        users={r["user"]: k for k, r in enumerate(records[:n_users])},
        items={r["item"]: k for k, r in enumerate(records[n_users:])},
        table=table.reshape(n_users + header["items"], header["dimension"] + 1),
        global_bias=header["global_bias"],
    )


def reference_raw_score(model: RankingModel, user_id: str, item_id: str) -> float:
    """``RankingModel.raw_score`` one pair at a time, one id lookup per
    parameter array, with the dot product as a 1-D ``np.einsum``."""
    z = model.global_bias
    u = model.users.get(user_id)
    i = model.items.get(item_id)
    if u is not None:
        z += model.user_bias[u]
    if i is not None:
        z += model.item_bias[i]
    if u is not None and i is not None:
        z += float(np.einsum("i,i", model.user_factors[u], model.item_factors[i]))
    return z


def reference_encode(
    model: RankingModel, samples: list[LabeledSample], config: TrainConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_encode`` as a loop that sets the columns one sample at a time:
    (table rows (2, n), positive weight, is_positive)."""
    n = len(samples)
    rows = np.empty((2, n), dtype=np.intp)
    user_rows, item_rows = rows
    first_item = len(model.users)
    weight = np.ones(n, dtype=np.float64)
    positive = np.empty(n, dtype=bool)
    for k, sample in enumerate(samples):
        user_rows[k] = model.users[sample.user_id]
        item_rows[k] = first_item + model.items[sample.item_id]
        if sample.label is Label.POSITIVE:
            positive[k] = True
        elif sample.label is Label.NEGATIVE:
            positive[k] = False
        else:
            if config.objective is Objective.TOLERANCE_AS_NEGATIVE:
                positive[k] = False
            else:
                positive[k] = True
                if config.objective is Objective.TOLERANCE_AS_WEAK_POSITIVE:
                    if config.fixed_beta is not None:
                        weight[k] = config.fixed_beta
                    elif sample.beta is not None:
                        weight[k] = sample.beta
                    else:
                        raise ValueError(
                            "tolerance sample lacks beta; supply fixed_beta or "
                            "label with per-sample weights"
                        )
    return rows, weight, positive


def _reference_sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _reference_arrays(model, batch, config):
    """Per-batch encoding: one Python pass over the sample objects."""
    u_idx = np.array([model.users[s.user_id] for s in batch], dtype=np.intp)
    i_idx = np.array([model.items[s.item_id] for s in batch], dtype=np.intp)
    weight = np.ones(len(batch), dtype=np.float64)
    positive = np.empty(len(batch), dtype=bool)
    for k, sample in enumerate(batch):
        if sample.label is Label.TOLERANCE:
            positive[k] = config.objective is not Objective.TOLERANCE_AS_NEGATIVE
            if config.objective is Objective.TOLERANCE_AS_WEAK_POSITIVE:
                weight[k] = (
                    config.fixed_beta if config.fixed_beta is not None else sample.beta
                )
        else:
            positive[k] = sample.label is Label.POSITIVE
    z = (
        model.global_bias
        + model.user_bias[u_idx]
        + model.item_bias[i_idx]
        + np.einsum("ij,ij->i", model.user_factors[u_idx], model.item_factors[i_idx])
    )
    return u_idx, i_idx, weight, positive, z


def _reference_loss(model, batch, config) -> float:
    _, _, weight, positive, z = _reference_arrays(model, batch, config)
    terms = np.where(positive, weight * np.logaddexp(0.0, -z), np.logaddexp(0.0, z))
    value = float(np.mean(terms))
    if config.l2 == 0.0:
        return value
    return value + 0.5 * config.l2 * (
        float(np.sum(model.user_factors**2))
        + float(np.sum(model.item_factors**2))
        + float(np.sum(model.user_bias**2))
        + float(np.sum(model.item_bias**2))
    )


def _reference_step(model, batch, config) -> None:
    """One SGD step with the gradient scattered by ``np.add.at``."""
    u_idx, i_idx, weight, positive, z = _reference_arrays(model, batch, config)
    y_hat = _reference_sigmoid(z)
    dz = np.where(positive, weight * (y_hat - 1.0), y_hat) / len(batch)
    g_user_factors = np.zeros_like(model.user_factors)
    g_item_factors = np.zeros_like(model.item_factors)
    g_user_bias = np.zeros_like(model.user_bias)
    g_item_bias = np.zeros_like(model.item_bias)
    np.add.at(g_user_bias, u_idx, dz)
    np.add.at(g_item_bias, i_idx, dz)
    np.add.at(g_user_factors, u_idx, dz[:, None] * model.item_factors[i_idx])
    np.add.at(g_item_factors, i_idx, dz[:, None] * model.user_factors[u_idx])
    if config.l2:
        g_user_factors += config.l2 * model.user_factors
        g_item_factors += config.l2 * model.item_factors
        g_user_bias += config.l2 * model.user_bias
        g_item_bias += config.l2 * model.item_bias
    lr = config.learning_rate
    model.user_factors -= lr * g_user_factors
    model.item_factors -= lr * g_item_factors
    model.user_bias -= lr * g_user_bias
    model.item_bias -= lr * g_item_bias
    model.global_bias -= lr * float(np.sum(dz))


def reference_gradient(model, batch, config) -> RankingModel:
    """:func:`sample_gradient` as ``_reference_step`` computes it:
    each parameter array scattered on its own with ``np.add.at``, returned
    as a model of the same shape."""
    u_idx, i_idx, weight, positive, z = _reference_arrays(model, batch, config)
    y_hat = _reference_sigmoid(z)
    dz = np.where(positive, weight * (y_hat - 1.0), y_hat) / len(batch)
    g_user_factors = np.zeros_like(model.user_factors)
    g_item_factors = np.zeros_like(model.item_factors)
    g_user_bias = np.zeros_like(model.user_bias)
    g_item_bias = np.zeros_like(model.item_bias)
    np.add.at(g_user_bias, u_idx, dz)
    np.add.at(g_item_bias, i_idx, dz)
    np.add.at(g_user_factors, u_idx, dz[:, None] * model.item_factors[i_idx])
    np.add.at(g_item_factors, i_idx, dz[:, None] * model.user_factors[u_idx])
    if config.l2:
        g_user_factors += config.l2 * model.user_factors
        g_item_factors += config.l2 * model.item_factors
        g_user_bias += config.l2 * model.user_bias
        g_item_bias += config.l2 * model.item_bias
    grad = replace(model, table=model.table.copy())
    grad.user_factors = g_user_factors
    grad.item_factors = g_item_factors
    grad.user_bias = g_user_bias
    grad.item_bias = g_item_bias
    grad.global_bias = float(np.sum(dz))
    return grad


def reference_train(
    samples: list[LabeledSample],
    config: TrainConfig,
    init_model: RankingModel | None = None,
) -> TrainResult:
    """Minibatch SGD as a list of sample objects per step: every batch and
    every epoch loss is encoded afresh, and gradients are scattered with
    ``np.add.at``. Consumes the seeded generator in the same order as
    :func:`tolrec.trainer.train`, so the two must agree bit for bit."""
    rng = np.random.default_rng(config.seed)
    model = RankingModel.initialize(
        [s.user_id for s in samples],
        [s.item_id for s in samples],
        config.dimension,
        rng,
    )
    if init_model is not None:
        for user_id, old in init_model.users.items():
            if user_id in model.users:
                model.user_factors[model.users[user_id]] = init_model.user_factors[old]
                model.user_bias[model.users[user_id]] = init_model.user_bias[old]
        for item_id, old in init_model.items.items():
            if item_id in model.items:
                model.item_factors[model.items[item_id]] = init_model.item_factors[old]
                model.item_bias[model.items[item_id]] = init_model.item_bias[old]
        model.global_bias = init_model.global_bias
    history = [_reference_loss(model, samples, config)]
    for _ in range(config.epochs):
        order = rng.permutation(len(samples))
        for start in range(0, len(samples), config.batch_size):
            batch = [samples[k] for k in order[start : start + config.batch_size]]
            _reference_step(model, batch, config)
        history.append(_reference_loss(model, samples, config))
    return TrainResult(model=model, history=history)


# ---------------------------------------------------------------------------
# The fixture generator as it was before its numpy scalar calls were replaced.
# ---------------------------------------------------------------------------

_REFERENCE_ECOM_ACTIONS = ("cart", "favorite", "purchase")
_REFERENCE_VIDEO_ACTIONS = ("like", "comment", "share", "follow")


def reference_fixture_events(
    n_events: int = 10_000,
    n_users: int = 120,
    n_items: int = 400,
    seed: int = 7,
) -> list[InteractionEvent]:
    """``generate_fixture_events`` as it was: ``np.round``, ``np.clip`` and
    ``np.log`` on every event, and every id and action set built anew."""
    start, span = 1_717_200_000, 14 * 86_400
    rng = np.random.default_rng(seed)
    patience = rng.uniform(0.3, 0.9, n_users)
    events = []
    for _ in range(n_events):
        u = int(rng.integers(n_users))
        user_id = f"u{u:04d}"
        item_id = f"i{int(rng.integers(n_items)):04d}"
        timestamp = start + int(rng.integers(span // 600)) * 600
        if rng.random() < 0.7:
            platform, vocabulary = Platform.VIDEO, _REFERENCE_VIDEO_ACTIONS
            duration = float(np.round(np.exp(rng.uniform(np.log(10), np.log(900))), 1))
            clicked = bool(rng.random() < 0.75)
            watch = 0.0
            if clicked:
                ratio = float(np.clip(patience[u] + rng.normal(0.0, 0.25), 0.0, 1.2))
                watch = float(np.round(ratio * duration, 2))
            act = clicked and rng.random() < 0.15
        else:
            platform, vocabulary = Platform.ECOMMERCE, _REFERENCE_ECOM_ACTIONS
            duration = watch = None
            clicked = bool(rng.random() < 0.55)
            act = clicked and rng.random() < 0.35
        actions = (
            frozenset({vocabulary[int(rng.integers(len(vocabulary)))]}) if act else frozenset()
        )
        events.append(
            InteractionEvent(
                user_id, item_id, timestamp, platform, clicked, watch, duration, actions
            )
        )
    return events


# ---------------------------------------------------------------------------
# The record path as it was before it was checked once and formatted by hand:
# every record went through ``json.dumps`` and the validating constructors.
# ---------------------------------------------------------------------------


def _reference_event_invariants(event: InteractionEvent) -> None:
    """``InteractionEvent.__post_init__`` as it was: no finite-number rule."""
    if not event.user_id:
        raise EventValidationError("user_id", "must be a nonempty string")
    if not event.item_id:
        raise EventValidationError("item_id", "must be a nonempty string")
    if isinstance(event.timestamp, bool) or not isinstance(event.timestamp, int):
        raise EventValidationError("timestamp", "must be an integer")
    if event.platform is Platform.VIDEO:
        if event.watch_duration is None:
            raise EventValidationError("watch_duration", "required for video events")
        if event.item_duration is None:
            raise EventValidationError("item_duration", "required for video events")
        if event.watch_duration < 0:
            raise EventValidationError("watch_duration", "must be non-negative")
        if event.item_duration <= 0:
            raise EventValidationError("item_duration", "must be positive")
    else:
        if event.watch_duration is not None:
            raise EventValidationError("watch_duration", "only valid for video events")
        if event.item_duration is not None:
            raise EventValidationError("item_duration", "only valid for video events")
    unknown = event.followup_actions - ACTION_VOCABULARY
    if unknown:
        raise EventValidationError(
            "followup_actions", f"unknown actions {sorted(unknown)}"
        )
    if event.followup_actions and not event.clicked:
        raise EventValidationError("followup_actions", "actions require clicked=true")


def _reference_require(record: dict, key: str, line_number: int):
    if key not in record:
        raise EventParseError(line_number, f"missing key {key!r}")
    return record[key]


def _reference_record(line: str, line_number: int, keys: set) -> dict:
    """The JSON object of a record line with no key outside ``keys``."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        # The decoder's message, without its trailing "at", and the column.
        reason = exc.msg[:-3] if exc.msg.endswith(" at") else exc.msg
        raise EventParseError(
            line_number, f"invalid JSON ({reason} at column {exc.colno})"
        ) from exc
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise EventParseError(
            line_number, "invalid JSON (number with too many digits)"
        ) from exc
    if not isinstance(record, dict):
        raise EventParseError(line_number, "record must be a JSON object")
    unknown = set(record) - keys
    if unknown:
        raise EventParseError(line_number, f"unknown keys {sorted(unknown)}")
    return record


def reference_parse_event(line: str, line_number: int = 0) -> InteractionEvent:
    """``parse_event`` as it was: type checks here, then the event
    invariants, with the fields set directly so that the current
    constructor's checks play no part."""
    record = _reference_record(
        line,
        line_number,
        {"user", "item", "ts", "platform", "clicked", "watch", "duration", "actions"},
    )
    user = _reference_require(record, "user", line_number)
    item = _reference_require(record, "item", line_number)
    ts = _reference_require(record, "ts", line_number)
    platform_raw = _reference_require(record, "platform", line_number)
    clicked = _reference_require(record, "clicked", line_number)
    if not isinstance(user, str) or not isinstance(item, str):
        raise EventParseError(line_number, "user and item must be strings")
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise EventParseError(line_number, "ts must be an integer")
    if not isinstance(clicked, bool):
        raise EventParseError(line_number, "clicked must be a boolean")
    try:
        platform = Platform(platform_raw)
    except ValueError:
        raise EventParseError(
            line_number, f"platform must be one of {[p.value for p in Platform]}"
        ) from None

    def _number(key: str) -> float | None:
        value = record.get(key)
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise EventParseError(line_number, f"{key} must be a number")
        return value

    actions = record.get("actions", [])
    if not isinstance(actions, list) or not all(isinstance(a, str) for a in actions):
        raise EventParseError(line_number, "actions must be an array of strings")

    fields = dict(
        user_id=user,
        item_id=item,
        timestamp=ts,
        platform=platform,
        clicked=clicked,
        watch_duration=_number("watch"),
        item_duration=_number("duration"),
        followup_actions=frozenset(actions),
    )
    event = object.__new__(InteractionEvent)
    for name, value in fields.items():
        object.__setattr__(event, name, value)
    _reference_event_invariants(event)
    return event


def reference_ingest(path) -> tuple[list[InteractionEvent], list[tuple[int, str]]]:
    """Serial ``ingest_log`` over :func:`reference_parse_event`: the sorted
    events and the ``(line, message)`` rejections."""
    events, rejected = [], []
    with open(path, encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            if not line.strip(" \t\n\r"):  # JSON's whitespace; "\x0c" is no blank line
                continue
            try:
                events.append(reference_parse_event(line, number))
            except (EventParseError, EventValidationError) as exc:
                rejected.append((number, str(exc)))
    events.sort(key=lambda e: (e.user_id, e.timestamp))
    return events, rejected


def reference_event_to_json(event: InteractionEvent) -> str:
    record: dict = {
        "user": event.user_id,
        "item": event.item_id,
        "ts": event.timestamp,
        "platform": event.platform.value,
        "clicked": event.clicked,
    }
    if event.platform is Platform.VIDEO:
        record["watch"] = event.watch_duration
        record["duration"] = event.item_duration
    if event.followup_actions:
        record["actions"] = sorted(event.followup_actions)
    return json.dumps(record, separators=(",", ":"))


def reference_sample_to_json(sample: LabeledSample) -> str:
    record: dict = {
        "user": sample.user_id,
        "item": sample.item_id,
        "ts": sample.timestamp,
        "label": sample.label.value,
    }
    if sample.beta is not None:
        record["beta"] = sample.beta
    return json.dumps(record, separators=(",", ":"))


def reference_parse_sample(line: str, line_number: int = 0) -> LabeledSample:
    """One sample record through ``json.loads`` and a dict: each check in
    ``parse_sample``'s order and with its message, then the constructor."""
    record = _reference_record(line, line_number, {"user", "item", "ts", "label", "beta"})
    user = _reference_require(record, "user", line_number)
    item = _reference_require(record, "item", line_number)
    ts = _reference_require(record, "ts", line_number)
    label = _reference_require(record, "label", line_number)
    if not isinstance(user, str) or not isinstance(item, str):
        raise EventParseError(line_number, "user and item must be strings")
    if isinstance(ts, bool) or not isinstance(ts, int):
        raise EventParseError(line_number, "ts must be an integer")
    if label not in ("P", "T", "N"):
        raise EventParseError(line_number, f"unknown label {label!r}")
    beta = record.get("beta")
    if label == "T":
        if beta is None:
            raise EventParseError(line_number, "label 'T' needs a beta")
        number = isinstance(beta, (int, float)) and not isinstance(beta, bool)
        if not number or not 0.0 <= beta <= 1.0:
            raise EventParseError(line_number, f"beta {beta!r} outside [0, 1]")
    elif beta is not None:
        raise EventParseError(line_number, f"beta given for label {label!r}")
    return LabeledSample(user, item, ts, Label(label), beta)


def reference_write_profiles(path, profiles: dict[str, UserProfile]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for user_id in sorted(profiles):
            profile = profiles[user_id]
            for bucket in sorted(profile.buckets):
                stats = profile.buckets[bucket]
                record = {
                    "user": user_id,
                    "bucket": bucket,
                    "count": stats.count,
                    "mean": stats.mean,
                }
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


# ---------------------------------------------------------------------------
# Cohort analysis as it was before it became one pass over the log: events
# copied into per-user lists, each list scanned once per window, and the
# e-commerce statistic counted by running the reference rule on each event.
# ---------------------------------------------------------------------------


def _engagement(
    events: list[InteractionEvent],
    window: TimeWindow,
    platform: Platform,
    min_watch_seconds: float = 0.0,
) -> int:
    """Clicked events of one user inside the window (watched videos or
    clicked items)."""
    count = 0
    for event in events:
        if event.platform is not platform or not event.clicked:
            continue
        if not window.contains(event.timestamp):
            continue
        if (
            platform is Platform.VIDEO
            and event.watch_duration < min_watch_seconds
        ):
            continue
        count += 1
    return count


def _tolerance_stat(
    events: list[InteractionEvent],
    window: TimeWindow,
    platform: Platform,
    labeling: LabelingConfig,
) -> float | None:
    """Per-user tolerance statistic over one window.

    E-commerce: the number of tolerance-labeled events (clicks with no
    cart/favorite/purchase follow-up). Video: the mean capped watch ratio
    over engaged events, or None when the user watched nothing there.
    """
    in_window = [
        e for e in events if e.platform is platform and window.contains(e.timestamp)
    ]
    if platform is Platform.ECOMMERCE:
        count = 0
        for event in in_window:
            sample = reference_label(event, 0, 0.0, GLOBAL_MEAN_SEED, labeling)
            if sample.label is Label.TOLERANCE:
                count += 1
        return float(count)
    ratios = [watch_ratio(e, labeling.ratio_cap) for e in in_window if e.clicked]
    if not ratios:
        return None
    return sum(ratios) / len(ratios)


def _bucket_labels(edges: tuple[float, ...]) -> list[str]:
    labels = [f"<{edges[0]:g}"]
    labels += [f"[{a:g},{b:g})" for a, b in zip(edges, edges[1:])]
    labels.append(f">={edges[-1]:g}")
    return labels


def reference_analyze(events: list[InteractionEvent], config: CohortConfig) -> CohortReport:
    """Bucket users by reference-window tolerance and measure the share
    whose investigation-window engagement strictly declined (ties count
    as retained)."""
    labeling = LabelingConfig(ratio_cap=config.ratio_cap)
    by_user: dict[str, list[InteractionEvent]] = {}
    for event in events:
        by_user.setdefault(event.user_id, []).append(event)

    edges = config.effective_edges
    labels = _bucket_labels(edges)
    users = [0] * len(labels)
    declines = [0] * len(labels)
    considered = 0
    excluded = 0
    for user_id in sorted(by_user):
        user_events = by_user[user_id]
        ref = _engagement(
            user_events, config.reference, config.platform, config.min_watch_seconds
        )
        if ref == 0:
            excluded += 1
            continue
        stat = _tolerance_stat(user_events, config.reference, config.platform, labeling)
        if stat is None:
            excluded += 1
            continue
        considered += 1
        inv = _engagement(
            user_events,
            config.investigation,
            config.platform,
            config.min_watch_seconds,
        )
        bucket = bisect_right(edges, stat)
        users[bucket] += 1
        if inv < ref:
            declines[bucket] += 1

    return CohortReport(
        buckets=[
            BucketReport(label=lab, users=u, declines=d)
            for lab, u, d in zip(labels, users, declines)
        ],
        considered=considered,
        excluded=excluded,
    )


# ---------------------------------------------------------------------------
# The simulation criteria's metrics over a paired run's daily rows.
# ---------------------------------------------------------------------------


def reference_overall_tolerance_rate(report: SimReport, arm: str) -> float:
    """Tolerance events over impressions across every day of one arm."""
    rows = {"A": report.a, "B": report.b}[arm]
    impressions = sum(r.impressions for r in rows)
    if impressions == 0:
        return 0.0
    return sum(r.tolerance_events for r in rows) / impressions


def reference_average_retention_delta(report: SimReport) -> float:
    """Mean over days of arm B's retention minus arm A's, the deltas added
    left to right from 0."""
    total, days = 0, 0
    for a, b in zip(report.a, report.b):
        total += b.retention - a.retention
        days += 1
    return total / days if days else 0.0
