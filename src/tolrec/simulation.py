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

Each arm is a separate run seeded from the same ``SimConfig``: it builds
the same population, the same per-user random streams and the same matrix
of return-probability draws, and shares nothing with its partner. So any
difference between arms is attributable to the training objective alone.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .events import InteractionEvent, Platform
from .labeling import (
    CausalLabeler,
    Label,
    LabeledSample,
    LabelingConfig,
    RuleMode,
)
from .trainer import RankingModel, TrainConfig, train

DAY_SECONDS = 86_400
#: Follow-up actions a satisfied viewer may leave.
_VIDEO_ACTIONS = ("like", "comment", "share", "follow")

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


@dataclass
class SimUser:
    user_id: str
    true_affinity: np.ndarray
    #: Baseline completion tendency in (0, 1).
    patience: float
    trust: float = 1.0
    active: bool = True


@dataclass(frozen=True)
class SimItem:
    item_id: str
    surface: np.ndarray
    true_content: np.ndarray
    duration: float

    def __post_init__(self):
        if self.duration <= 0:
            raise ValueError("item duration must be positive")


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
        if not isinstance(self.rule_mode, RuleMode):
            raise ValueError(f"rule_mode must be a RuleMode, got {self.rule_mode!r}")
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
        if type(self.seed) is not int or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


def generate_population(config: SimConfig) -> tuple[list[SimUser], list[SimItem]]:
    """Seeded users and items.

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
    users = []
    for u in range(config.population):
        taste = (
            math.sqrt(1.0 - omega * omega) * rng.normal(0.0, scale, d)
            + omega * shared_taste
        )
        users.append(
            SimUser(
                user_id=f"u{u:05d}",
                true_affinity=taste,
                patience=float(rng.uniform(0.65, 0.95)),
            )
        )
    rho = config.surface_true_correlation
    items = []
    for i in range(config.catalog):
        content = rng.normal(0.0, scale, d)
        noise = rng.normal(0.0, scale, d)
        surface = rho * content + math.sqrt(1.0 - rho * rho) * noise
        duration = float(math.exp(rng.uniform(math.log(10.0), math.log(600.0))))
        items.append(
            SimItem(
                item_id=f"i{i:05d}",
                surface=surface,
                true_content=content,
                duration=duration,
            )
        )
    return users, items


def user_response(
    user: SimUser,
    item: SimItem,
    appeal: float,
    experience: float,
    rng: np.random.Generator,
    timestamp: int,
    config: SimConfig,
) -> InteractionEvent:
    """Simulate one impression.

    ``appeal`` and ``experience`` are the user's taste dotted with the
    item's surface and with its true content, as Python floats.
    Click probability follows surface appeal. Given a click, the watch
    ratio is sampled around ``COMPLETION_GAIN * patience * sigmoid(true
    affinity)``, normalized by the expectation the surface raised, then
    clamped to [0, 1]: an item that delivers on its promise gets watched
    to the end (the cap clusters kept promises at exactly full
    completion), while a deceptive one is abandoned at a depth that
    shrinks with the expectation gap and grows with patience. Follow-up
    actions fire only on genuinely liked items that kept their promise.
    """
    clicked = rng.random() < _expit(appeal / config.temperature)
    ratio, actions = 0.0, frozenset()
    if clicked:
        expectation = _expit(WATCH_SHARPNESS * appeal)
        satisfaction = _expit(WATCH_SHARPNESS * experience)
        kept_promise = min(1.0, satisfaction / expectation)
        center = COMPLETION_GAIN * user.patience * kept_promise
        ratio = center + rng.normal(0.0, RATIO_NOISE)
        ratio = min(max(ratio, 0.0), 1.0)
        if satisfaction >= expectation and satisfaction > ACTION_AFFINITY_THRESHOLD:
            if rng.random() < ACTION_PROBABILITY:
                action = _VIDEO_ACTIONS[int(rng.integers(len(_VIDEO_ACTIONS)))]
                actions = frozenset({action})
    return InteractionEvent(
        user_id=user.user_id,
        item_id=item.item_id,
        timestamp=timestamp,
        platform=Platform.VIDEO,
        clicked=clicked,
        watch_duration=ratio * item.duration,
        item_duration=item.duration,
        followup_actions=actions,
    )


def update_trust(user: SimUser, label: Label, config: SimConfig) -> None:
    """Tolerance erodes trust multiplicatively; a positive session restores
    a little, capped at 1. Negatives (non-clicks) cost the user nothing."""
    if label is Label.TOLERANCE:
        user.trust *= 1.0 - config.trust_decay
    elif label is Label.POSITIVE:
        user.trust = min(1.0, user.trust + config.trust_recovery)


@dataclass
class DayArmStats:
    day: int
    arm: str
    active_users: int
    retention: float
    dwell_mean: float
    impressions: int
    tolerance_events: int

    @property
    def tolerance_rate(self) -> float:
        return self.tolerance_events / self.impressions if self.impressions else 0.0


@dataclass
class SimReport:
    rows: list[DayArmStats]

    def arm_rows(self, arm: str) -> list[DayArmStats]:
        return [r for r in self.rows if r.arm == arm]

    def overall_tolerance_rate(self, arm: str) -> float:
        rows = self.arm_rows(arm)
        impressions = sum(r.impressions for r in rows)
        if impressions == 0:
            return 0.0
        return sum(r.tolerance_events for r in rows) / impressions

    def average_retention_delta(self) -> float:
        deltas = [
            b.retention - a.retention
            for a, b in zip(self.arm_rows("A"), self.arm_rows("B"))
        ]
        return sum(deltas) / len(deltas) if deltas else 0.0

    def table_rows(self) -> list[list[str]]:
        """Rows for the daily CSV: per-day per-arm stats with deltas taken
        against arm A, then one average row per arm."""
        a_rows = {r.day: r for r in self.arm_rows("A")}
        out = []
        for row in self.rows:
            base = a_rows[row.day]
            out.append(
                [
                    str(row.day),
                    row.arm,
                    str(row.active_users),
                    f"{row.retention - base.retention:.6f}",
                    f"{row.tolerance_rate:.6f}",
                    f"{row.dwell_mean - base.dwell_mean:.3f}",
                ]
            )
        for arm in ("A", "B"):
            rows = self.arm_rows(arm)
            base_rows = self.arm_rows("A")
            n = len(rows)
            out.append(
                [
                    "avg",
                    arm,
                    str(round(sum(r.active_users for r in rows) / n)),
                    f"{sum(r.retention - b.retention for r, b in zip(rows, base_rows)) / n:.6f}",
                    f"{sum(r.tolerance_rate for r in rows) / n:.6f}",
                    f"{sum(r.dwell_mean - b.dwell_mean for r, b in zip(rows, base_rows)) / n:.3f}",
                ]
            )
        return out


def simulate_arm(name: str, config: TrainConfig, sim: SimConfig) -> list[DayArmStats]:
    """Run one arm of the experiment and return its daily rows.

    The arm builds its own population, ground truth, per-user generators,
    labeler, log and model from ``sim``, so its rows depend only on
    ``config`` and ``sim``: never on its partner or its position.
    """
    users, items = generate_population(sim)
    user_by_id = {user.user_id: user for user in users}
    item_ids = [it.item_id for it in items]
    catalog_index = {item_id: j for j, item_id in enumerate(item_ids)}
    # Ground truth fixed for the run. Plain einsum sums in numpy's own loop,
    # so the bits do not depend on the BLAS kernel.
    tastes = [user.true_affinity for user in users]
    appeal = np.einsum("ud,id->ui", tastes, [it.surface for it in items])
    experience = np.einsum("ud,id->ui", tastes, [it.true_content for it in items])
    # Seeded alike in every arm, so the arms' behaviour streams and return
    # draws are identical and only the ranking differs.
    rngs = [np.random.default_rng([sim.seed, 17, u]) for u in range(sim.population)]
    return_draws = np.random.default_rng([sim.seed, 23]).random(
        (sim.population, sim.days + 1)
    )
    labeler = CausalLabeler(LabelingConfig(rule_mode=sim.rule_mode))
    log: list[LabeledSample] = []
    model: RankingModel | None = None

    rows = []
    for day in range(1, sim.days + 1):
        active = [u for u, user in enumerate(users) if user.active]
        events: list[InteractionEvent] = []
        for u in active:
            user, rng = users[u], rngs[u]
            pool_idx = rng.choice(sim.catalog, size=sim.candidate_pool, replace=False)
            pool = [item_ids[j] for j in pool_idx]
            if model is None:
                slate = pool[: sim.slate_size]
            else:
                slate = model.rank(user.user_id, pool)[: sim.slate_size]
            for slot, item_id in enumerate(slate):
                j = catalog_index[item_id]
                timestamp = day * DAY_SECONDS + slot * 60
                # Python floats: an np.float64 would reach watch_duration.
                events.append(user_response(
                    user, items[j], float(appeal[u, j]), float(experience[u, j]),
                    rng, timestamp, sim,
                ))

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
            update_trust(user_by_id[sample.user_id], sample.label, sim)
        log.extend(samples)

        if log:
            init = model if sim.warm_start else None
            model = train(log, config, init_model=init, history=False).model

        dwell: dict[str, float] = {users[u].user_id: 0.0 for u in active}
        for event in events:
            dwell[event.user_id] += event.watch_duration
        retained = 0
        for u, user in enumerate(users):
            next_active = bool(
                return_draws[u, day - 1] < return_probability(user.trust)
            )
            if user.active and next_active:
                retained += 1
            user.active = next_active
        rows.append(
            DayArmStats(
                day=day,
                arm=name,
                active_users=len(active),
                retention=retained / len(active) if active else 0.0,
                dwell_mean=sum(dwell.values()) / len(dwell) if dwell else 0.0,
                impressions=len(events),
                tolerance_events=tolerance_events,
            )
        )
    return rows


def simulate_experiment(
    config_a: TrainConfig, config_b: TrainConfig, sim: SimConfig
) -> SimReport:
    """Run the paired two-arm experiment and return the daily report, arm A
    then arm B for each day.

    Give both configs the same seed to keep model initialization paired;
    everything else is paired by construction.
    """
    rows_a = simulate_arm("A", config_a, sim)
    rows_b = simulate_arm("B", config_b, sim)
    return SimReport([row for pair in zip(rows_a, rows_b) for row in pair])


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
