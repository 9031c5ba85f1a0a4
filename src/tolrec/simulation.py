"""Closed-loop retention experiment on a synthetic population.

Each simulated day, every active user receives a ranked slate, clicks
according to surface appeal, watches according to true affinity, and the
arm's model is retrained on its accumulated log labeled by the streaming
labeler. Tolerance-labeled sessions erode a user's trust
(``trust *= 1 - trust_decay``), positive sessions restore a little
(``trust += trust_recovery``), and next-day activity is a draw against a
logistic return curve over trust. Items whose surface vectors diverge
from their content vectors (``surface_true_correlation < 1``) are the
clickbait that manufactures tolerance.

The ``SimConfig`` seed fixes a read-only :class:`Population`: ids,
patience, durations, appeal and experience. Each arm is a separate run that
owns its state (trust, activity, per-user random streams, labeler, log and
model) and shares nothing with its partner. Both arms draw alike, so any
difference between them is attributable to the training objective alone.
"""

import csv
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .events import (
    _ACTION_SETS, _NO_ACTIONS, InteractionEvent, Platform, _check_types, _new, _set, _sum_floats
)
from .labeling import (
    CausalLabeler,
    Label,
    LabeledSample,
    LabelingConfig,
    RuleMode,
)
from .trainer import RankingModel, TrainConfig, train

DAY_SECONDS = 86_400
#: Follow-up actions a satisfied viewer may leave, each as its shared one-action set.
_VIDEO_ACTIONS = tuple(
    _ACTION_SETS[frozenset({action})] for action in ("like", "comment", "share", "follow")
)

# Response-model constants: every run of the simulator uses these values.

#: Weight of a shared taste direction in every user's vector, in [0, 1).
#: Above 0, broadly appealing items exist, so clickbait is an item-level
#: property the ranking model can pick up from pooled feedback.
POPULATION_TASTE = 0.6
#: Std-dev of the noise around the expected watch ratio.
RATIO_NOISE = 0.08
#: Sharpens the appeal/affinity sigmoids driving expectation and experience.
WATCH_SHARPNESS = 2.0
#: Multiplier pushing promise-kept watches past full completion, where the
#: ratio cap clusters them at exactly 1.0.
COMPLETION_GAIN = 2.0
#: Experienced-affinity sigmoid level above which follow-up actions can fire
#: (and only when the item delivered on its surface promise).
ACTION_AFFINITY_THRESHOLD = 0.5
ACTION_PROBABILITY = 0.9
#: Next-day return probability at trust 0 and at trust 1.
RETURN_FLOOR = 0.2
RETURN_CEILING = 0.9
#: Slope and centre, in trust, of the logistic return curve.
RETURN_STEEPNESS = 8.0
RETURN_MIDPOINT = 0.5


@dataclass(frozen=True, eq=False)
class Population:
    """The fixed world of one ``SimConfig``; users and items are indexed
    ``u`` and ``j`` in id order."""

    user_ids: tuple[str, ...]
    item_ids: tuple[str, ...]
    #: Each user's baseline completion tendency, in (0.65, 0.95).
    patience: tuple[float, ...]
    #: Each item's length in seconds. Like ``patience``, Python floats: an
    #: ``np.float64`` would reach the events' ``watch_duration``.
    durations: tuple[float, ...]
    #: ``appeal[u, j]`` is user ``u``'s taste dotted with item ``j``'s surface
    #: vector, ``experience`` with its true content; both are read-only.
    appeal: np.ndarray
    experience: np.ndarray


def _expit(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    ez = math.exp(z)
    return ez / (1.0 + ez)


def return_probability(trust: float) -> float:
    """Next-day return probability: logistic in trust, rescaled to hit
    ``RETURN_FLOOR`` exactly at trust 0 and ``RETURN_CEILING`` at trust 1."""
    low = _expit(RETURN_STEEPNESS * (0.0 - RETURN_MIDPOINT))
    high = _expit(RETURN_STEEPNESS * (1.0 - RETURN_MIDPOINT))
    raw = _expit(RETURN_STEEPNESS * (trust - RETURN_MIDPOINT))
    unit = (raw - low) / (high - low)
    return RETURN_FLOOR + (RETURN_CEILING - RETURN_FLOOR) * unit


@dataclass(frozen=True)
class SimConfig:
    population: int = 100
    catalog: int = 200
    days: int = 7
    slate_size: int = 10
    #: Random candidates drawn per user per day before ranking.
    candidate_pool: int = 40
    dimension: int = 8
    #: Softens the click probability sigmoid.
    temperature: float = 1.0
    #: Correlation between an item's surface and content vectors; below 1,
    #: surface appeal can exceed true affinity (clickbait).
    surface_true_correlation: float = 0.3
    #: Multiplicative trust loss per tolerance-labeled session.
    trust_decay: float = 0.05
    #: Additive trust gain per positive-labeled session.
    trust_recovery: float = 0.005
    seed: int = 0
    warm_start: bool = False
    #: Labeling rule of the streaming labeler; its other settings are defaults.
    rule_mode: RuleMode = RuleMode.RATIO_OR_ACTION

    def __post_init__(self):
        _check_types(self)
        if self.population < 2 or self.catalog < 1:
            raise ValueError("population must be >= 2 and catalog >= 1")
        if self.days < 1:
            raise ValueError("days must be >= 1")
        if self.slate_size < 1:
            raise ValueError("slate_size must be >= 1")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if not 0.0 <= self.surface_true_correlation <= 1.0:
            raise ValueError("surface_true_correlation must lie in [0, 1]")
        if not 0.0 <= self.trust_decay < 1.0:
            raise ValueError("trust_decay must lie in [0, 1)")
        if not self.trust_recovery >= 0:
            raise ValueError("trust_recovery must be non-negative")
        if self.slate_size > self.candidate_pool:
            raise ValueError("slate_size cannot exceed candidate_pool")
        if self.candidate_pool > self.catalog:
            raise ValueError("candidate_pool cannot exceed catalog")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


#: Both arms' training settings, but for objective and seed: ``tolrec simulate``
#: defaults to them and the acceptance criteria run them.
SIM_TRAINING = TrainConfig(learning_rate=0.3, epochs=30, l2=1e-4)


def generate_population(config: SimConfig) -> Population:
    """The seeded world of ``config``.

    Vector components are scaled so dot products are roughly unit-normal.
    An item's surface vector is ``rho * content + sqrt(1 - rho^2) * noise``,
    so component correlation equals ``surface_true_correlation`` and
    ``rho = 1`` makes surface and content identical. Users want what they
    click on (one taste vector drives both appeal and affinity) and share a
    taste direction with weight ``POPULATION_TASTE``; all deception is
    item-side.
    """
    rng = np.random.default_rng(config.seed)
    d = config.dimension
    scale = (4.0 / d) ** 0.25
    omega = POPULATION_TASTE
    shared_taste = rng.normal(0.0, scale, d)
    tastes, patience = [], []
    for _ in range(config.population):
        tastes.append(
            math.sqrt(1.0 - omega * omega) * rng.normal(0.0, scale, d)
            + omega * shared_taste
        )
        patience.append(float(rng.uniform(0.65, 0.95)))
    rho = config.surface_true_correlation
    surfaces, contents, durations = [], [], []
    for _ in range(config.catalog):
        content = rng.normal(0.0, scale, d)
        noise = rng.normal(0.0, scale, d)
        surfaces.append(rho * content + math.sqrt(1.0 - rho * rho) * noise)
        contents.append(content)
        durations.append(float(math.exp(rng.uniform(math.log(10.0), math.log(600.0)))))
    # Plain einsum sums in numpy's own loop: the BLAS kernel cannot move a bit.
    appeal = np.einsum("ud,id->ui", tastes, surfaces)
    experience = np.einsum("ud,id->ui", tastes, contents)
    appeal.flags.writeable = experience.flags.writeable = False
    return Population(
        user_ids=tuple(f"u{u:05d}" for u in range(config.population)),
        item_ids=tuple(f"i{j:05d}" for j in range(config.catalog)),
        patience=tuple(patience),
        durations=tuple(durations),
        appeal=appeal,
        experience=experience,
    )


@lru_cache(maxsize=1)
def _world(config: SimConfig) -> Population:
    """:func:`generate_population`, built once for the arms of one run; a
    ``Population`` is read-only, so the arms can share it."""
    return generate_population(config)


def user_response(
    world: Population,
    u: int,
    j: int,
    rng: np.random.Generator,
    timestamp: int,
    config: SimConfig,
) -> InteractionEvent:
    """Simulate user ``u``'s impression of item ``j``.

    Click probability follows surface appeal. Given a click, the watch
    ratio is sampled around ``COMPLETION_GAIN * patience * sigmoid(true
    affinity)``, normalized by the expectation the surface raised, then
    clamped to [0, 1]: an item that delivers on its promise gets watched
    to the end (the cap clusters kept promises at exactly full
    completion), while a deceptive one is abandoned at a depth that
    shrinks with the expectation gap and grows with patience. Follow-up
    actions fire only on genuinely liked items that kept their promise.
    """
    appeal = world.appeal.item(u, j)
    clicked = rng.random() < _expit(appeal / config.temperature)
    ratio, actions = 0.0, _NO_ACTIONS
    if clicked:
        expectation = _expit(WATCH_SHARPNESS * appeal)
        satisfaction = _expit(WATCH_SHARPNESS * world.experience.item(u, j))
        kept_promise = min(1.0, satisfaction / expectation)
        center = COMPLETION_GAIN * world.patience[u] * kept_promise
        ratio = center + rng.normal(0.0, RATIO_NOISE)
        ratio = min(max(ratio, 0.0), 1.0)
        if satisfaction >= expectation and satisfaction > ACTION_AFFINITY_THRESHOLD:
            if rng.random() < ACTION_PROBABILITY:
                actions = _VIDEO_ACTIONS[int(rng.integers(len(_VIDEO_ACTIONS)))]
    # Only valid values reach the event, so it skips the constructor's checks.
    event = _new(InteractionEvent)
    _set(event, "user_id", world.user_ids[u])
    _set(event, "item_id", world.item_ids[j])
    _set(event, "timestamp", timestamp)
    _set(event, "platform", Platform.VIDEO)
    _set(event, "clicked", clicked)
    _set(event, "watch_duration", ratio * world.durations[j])
    _set(event, "item_duration", world.durations[j])
    _set(event, "followup_actions", actions)
    return event


def update_trust(trust: float, label: Label, config: SimConfig) -> float:
    """Tolerance erodes trust multiplicatively; a positive session restores
    a little, capped at 1. Negatives (non-clicks) cost the user nothing."""
    if label is Label.TOLERANCE:
        return trust * (1.0 - config.trust_decay)
    if label is Label.POSITIVE:
        return min(1.0, trust + config.trust_recovery)
    return trust


@dataclass(frozen=True)
class DayArmStats:
    day: int
    active_users: int
    retention: float
    dwell_mean: float
    impressions: int
    tolerance_events: int

    @property
    def tolerance_rate(self) -> float:
        return self.tolerance_events / self.impressions if self.impressions else 0.0


@dataclass(frozen=True)
class SimReport:
    """Each arm's daily rows, day 1 first."""

    a: list[DayArmStats]
    b: list[DayArmStats]

    def table_rows(self) -> list[list[str]]:
        """Rows for the daily CSV: per-day per-arm stats with deltas taken
        against arm A, then one average row per arm."""
        out = []
        for base, row_b in zip(self.a, self.b):
            for arm, row in (("A", base), ("B", row_b)):
                out.append(
                    [
                        str(row.day),
                        arm,
                        str(row.active_users),
                        f"{row.retention - base.retention:.6f}",
                        f"{row.tolerance_rate:.6f}",
                        f"{row.dwell_mean - base.dwell_mean:.3f}",
                    ]
                )
        for arm, rows in (("A", self.a), ("B", self.b)):
            n = len(rows)
            pairs = list(zip(rows, self.a))
            out.append(
                [
                    "avg",
                    arm,
                    str(round(sum(r.active_users for r in rows) / n)),
                    f"{_sum_floats(r.retention - b.retention for r, b in pairs) / n:.6f}",
                    f"{_sum_floats(r.tolerance_rate for r in rows) / n:.6f}",
                    f"{_sum_floats(r.dwell_mean - b.dwell_mean for r, b in pairs) / n:.3f}",
                ]
            )
        return out


def simulate_arm(config: TrainConfig, sim: SimConfig) -> list[DayArmStats]:
    """Run one arm of the experiment and return its daily rows.

    The arm reads the world of ``sim`` and builds its own state from it:
    every user's trust and activity, per-user generators, labeler, log and
    model. So its rows depend only on ``config`` and ``sim``: never on its
    partner or its position.
    """
    world = _world(sim)
    catalog_index = {item_id: j for j, item_id in enumerate(world.item_ids)}
    # Seeded alike in every arm, so the arms' behaviour streams and return
    # draws are identical and only the ranking differs.
    rngs = [np.random.default_rng([sim.seed, 17, u]) for u in range(sim.population)]
    return_draws = np.random.default_rng([sim.seed, 23]).random(
        (sim.population, sim.days + 1)
    )
    labeler = CausalLabeler(LabelingConfig(rule_mode=sim.rule_mode))
    log: list[LabeledSample] = []
    model: RankingModel | None = None
    trust = dict.fromkeys(world.user_ids, 1.0)
    active = list(range(sim.population))

    rows = []
    for day in range(1, sim.days + 1):
        events: list[InteractionEvent] = []
        for u in active:
            rng = rngs[u]
            pool_idx = rng.choice(sim.catalog, size=sim.candidate_pool, replace=False)
            pool = [world.item_ids[j] for j in pool_idx]
            if model is None:
                slate = pool[: sim.slate_size]
            else:
                slate = model.rank(world.user_ids[u], pool)[: sim.slate_size]
            for slot, item_id in enumerate(slate):
                timestamp = day * DAY_SECONDS + slot * 60
                events.append(
                    user_response(world, u, catalog_index[item_id], rng, timestamp, sim)
                )

        events.sort(key=lambda e: (e.user_id, e.timestamp))
        samples = labeler.extend(events)
        tolerance_events = 0
        for event, sample in zip(events, samples):
            if sample.label is Label.TOLERANCE:
                if not event.clicked:
                    raise AssertionError(
                        "labeler produced a tolerance label for a non-click"
                    )
                tolerance_events += 1
            trust[sample.user_id] = update_trust(trust[sample.user_id], sample.label, sim)
        log.extend(samples)

        init = model if sim.warm_start else None
        model = train(log, config, init_model=init, history=False).model

        dwell: dict[str, float] = {world.user_ids[u]: 0.0 for u in active}
        for event in events:
            dwell[event.user_id] += event.watch_duration
        returning = [
            u for u, user_id in enumerate(world.user_ids)
            if return_draws[u, day - 1] < return_probability(trust[user_id])
        ]
        retained = len(set(active).intersection(returning))
        rows.append(
            DayArmStats(
                day=day,
                active_users=len(active),
                retention=retained / len(active) if active else 0.0,
                dwell_mean=_sum_floats(dwell.values()) / len(dwell) if dwell else 0.0,
                impressions=len(events),
                tolerance_events=tolerance_events,
            )
        )
        active = returning
    return rows


def simulate_experiment(
    config_a: TrainConfig, config_b: TrainConfig, sim: SimConfig
) -> SimReport:
    """Run the paired two-arm experiment and return each arm's daily rows.

    Give both configs the same seed to keep model initialization paired;
    everything else is paired by construction.
    """
    return SimReport(simulate_arm(config_a, sim), simulate_arm(config_b, sim))


DAILY_REPORT_HEADER = [
    "day",
    "arm",
    "active_users",
    "retention_delta",
    "tolerance_rate",
    "dwell_delta",
]


def write_daily_report(path, runs: list[tuple[int, SimReport]]) -> None:
    """Daily CSV of ``(seed, report)`` runs: `day,arm,active_users,
    retention_delta,tolerance_rate,dwell_delta`, behind a leading `seed`
    column when there is more than one run."""
    seed_column = len(runs) > 1
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["seed"] * seed_column + DAILY_REPORT_HEADER)
        for seed, report in runs:
            writer.writerows(
                [str(seed)] * seed_column + row for row in report.table_rows()
            )
