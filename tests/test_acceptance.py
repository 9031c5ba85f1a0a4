"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import binom

from tolrec import simulation
from tolrec.cli import main as cli_main
from tolrec.cohort import CohortConfig, analyze
from tolrec.events import InteractionEvent, Platform, TimeWindow, write_events
from tolrec.fixtures import generate_fixture_events
from tolrec.labeling import (
    Label,
    LabelingConfig,
    LabelingMode,
    RuleMode,
    label_log,
    watch_ratio,
)
from tolrec.simulation import SimConfig, simulate_experiment
from tolrec.trainer import Objective, TrainConfig, sigmoid, train

from conftest import label_one, random_event_log
from oracles import (
    brute_force_causal_labels,
    finite_difference_gradient,
    max_relative_gradient_error,
    reference_average_retention_delta,
    reference_overall_tolerance_rate,
    relabel_tolerance_as_negative,
    sample_gradient,
    sample_loss,
)
from test_trainer import random_batch, random_model


@pytest.fixture(autouse=True)
def _visible_stdout(capsys):
    """Let the ACCEPTANCE lines through pytest's capture in any run mode."""
    global _capsys
    _capsys = capsys
    yield
    _capsys = None


_capsys = None


def report(number: int, ok: bool, description: str) -> None:
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {description}"
    if _capsys is not None:
        with _capsys.disabled():
            print(line)
    else:
        print(line)


def mean_and_se(values: list[float]) -> tuple[float, float]:
    """Mean and standard error of paired per-seed deltas."""
    se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
    return float(np.mean(values)), se


@pytest.fixture(scope="module")
def _arm_cache():
    return functools.cache(simulation.simulate_arm)


@pytest.fixture
def shared_arms(_arm_cache, monkeypatch):
    """Simulate each distinct arm once per module run. An arm's rows depend
    only on its train config and sim config (see
    ``test_arm_does_not_depend_on_partner_or_position``), so criteria 08
    and 09 A/A share their standard arms. Criterion 10 does not use this:
    its second pipeline run must simulate afresh."""
    monkeypatch.setattr(simulation, "simulate_arm", _arm_cache)


def sim_train_config(objective: Objective, seed: int) -> TrainConfig:
    """One arm's training config: the settings ``tolrec simulate`` runs at its defaults."""
    return replace(simulation.SIM_TRAINING, objective=objective, seed=seed)


def test_criterion_01_weak_positive_reduces_to_standard():
    """Empty tolerance set: the weak-positive and plain objectives agree."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        batch = random_batch(rng, n_samples=50, tolerance=False)
        model = random_model(
            [s.user_id for s in batch], [s.item_id for s in batch], 4, rng
        )
        standard = sample_loss(model, batch, TrainConfig(objective=Objective.STANDARD))
        weak = sample_loss(
            model,
            batch,
            TrainConfig(objective=Objective.TOLERANCE_AS_WEAK_POSITIVE),
        )
        fixed = sample_loss(
            model,
            batch,
            TrainConfig(
                objective=Objective.TOLERANCE_AS_WEAK_POSITIVE, fixed_beta=0.3
            ),
        )
        worst = max(worst, abs(weak - standard), abs(fixed - standard))
    ok = worst <= 1e-12
    report(1, ok, f"weak-positive equals standard on 100 tolerance-free batches (max diff {worst:.2e})")
    assert ok


def test_criterion_02_tolerance_as_negative_relabeling():
    """Merging tolerance into the negatives equals relabeling them."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        batch = random_batch(rng, n_samples=50)
        model = random_model(
            [s.user_id for s in batch], [s.item_id for s in batch], 4, rng
        )
        direct = sample_loss(
            model, batch, TrainConfig(objective=Objective.TOLERANCE_AS_NEGATIVE)
        )
        relabeled = sample_loss(
            model,
            relabel_tolerance_as_negative(batch),
            TrainConfig(objective=Objective.STANDARD),
        )
        worst = max(worst, abs(direct - relabeled))
    ok = worst <= 1e-12
    report(2, ok, f"tolerance-as-negative equals relabeled standard on 100 batches (max diff {worst:.2e})")
    assert ok


def test_criterion_03_gradients_match_finite_differences():
    """Analytic gradients of all three objectives vs central differences."""
    rng = np.random.default_rng(303)
    worst = 0.0
    for instance in range(20):
        batch = random_batch(rng, n_users=4, n_items=6, n_samples=25)
        model = random_model(
            [s.user_id for s in batch], [s.item_id for s in batch], 3, rng
        )
        for objective in Objective:
            config = TrainConfig(objective=objective, l2=0.01)
            analytic = sample_gradient(model, batch, config)
            numeric = finite_difference_gradient(model, batch, config, h=1e-5)
            worst = max(worst, max_relative_gradient_error(analytic, numeric))
    ok = worst < 1e-6
    report(3, ok, f"gradients match finite differences on 20 instances x 3 objectives (worst rel err {worst:.2e})")
    assert ok


@pytest.mark.parametrize("rule", [RuleMode.RATIO_OR_ACTION, RuleMode.RATIO_ONLY])
def test_criterion_04_labeler_matches_brute_force(rule):
    """Streaming causal labeler vs per-event recomputation, 20 seeds."""
    config = LabelingConfig(rule_mode=rule)
    ok = True
    for seed in range(20):
        events = random_event_log(np.random.default_rng(seed), n_events=1000)
        expected = brute_force_causal_labels(events, config)
        got = label_log(events, config, LabelingMode.CAUSAL).samples
        if got != expected:
            ok = False
            break
    report(4, ok, f"causal labeler equals brute force, 20 x 1000-event logs, rule={rule.value}")
    assert ok


def test_criterion_05_beta_contract():
    """Tolerance weights equal clamp(ratio/average) on the full grid; the
    exact-tie label flips to positive. Where the population baseline grades
    a tie with the global mean below the bucket mean, the weight is exactly
    1; a zero global mean gives weight 0."""
    config = LabelingConfig(duration_bucket_edges=())
    population = LabelingConfig(duration_bucket_edges=(), beta_baseline="population")
    history = config.min_history

    def watched(ratio):
        return InteractionEvent(
            user_id="u1",
            item_id="i1",
            timestamp=0,
            platform=Platform.VIDEO,
            clicked=True,
            watch_duration=ratio,
            item_duration=1.0,
        )

    ok = True
    ratios = [round(0.1 * k, 1) for k in range(11)]
    averages = [round(0.1 * k, 1) for k in range(1, 11)]
    for average in averages:
        for ratio in ratios:
            event = watched(ratio)
            sample = label_one(event, config, history, average)
            exact = watch_ratio(event, config.ratio_cap)
            if exact >= average:
                ok = ok and sample.label is Label.POSITIVE
                if exact == average < 1.0:
                    tie = label_one(event, population, history, 1.0, average)
                    ok = ok and tie.label is Label.TOLERANCE and tie.beta == 1.0
            else:
                expected = min(max(exact / average, 0.0), 1.0)
                ok = ok and sample.label is Label.TOLERANCE
                ok = ok and sample.beta == expected
                ok = ok and 0.0 <= sample.beta <= 1.0
    zero = label_one(watched(0.5), population, history, 1.0, 0.0)
    ok = ok and zero.label is Label.TOLERANCE and zero.beta == 0.0
    report(5, ok, "beta equals clamp(ratio/average) over the grid; ties label positive; a population-baseline tie weighs exactly 1")
    assert ok


def test_criterion_06_score_hierarchy():
    """Positive items score above tolerance items above negatives after
    weak-positive training with a fixed 0.5 discount."""
    samples = []
    for _ in range(3):
        for k in range(10):
            samples.append(
                _sample("u1", f"p{k:02d}", Label.POSITIVE)
            )
            samples.append(
                _sample("u1", f"t{k:02d}", Label.TOLERANCE, beta=0.7)
            )
        for k in range(30):
            samples.append(_sample("u1", f"n{k:02d}", Label.NEGATIVE))
    config = TrainConfig(
        objective=Objective.TOLERANCE_AS_WEAK_POSITIVE,
        learning_rate=0.3,
        epochs=1000,
        dimension=2,
        l2=0.02,
        seed=0,
        fixed_beta=0.5,
        batch_size=len(samples),
    )
    model = train(samples, config).model

    def mean_probability(prefix: str, count: int) -> float:
        scores = [model.raw_score("u1", f"{prefix}{k:02d}") for k in range(count)]
        return float(np.mean([float(sigmoid(z)) for z in scores]))

    mean_p = mean_probability("p", 10)
    mean_t = mean_probability("t", 10)
    mean_n = mean_probability("n", 30)
    ok = mean_p - mean_t > 0.05 and mean_t - mean_n > 0.05
    report(6, ok, f"score hierarchy P({mean_p:.3f}) > T({mean_t:.3f}) > N({mean_n:.3f}) with margins > 0.05")
    assert ok


def _sample(user, item, label, beta=None):
    from tolrec.labeling import LabeledSample

    return LabeledSample(
        user_id=user, item_id=item, timestamp=0, label=label, beta=beta
    )


def test_criterion_07_cohort_trend_recovers_generator():
    """Decline proportions rise with injected tolerance and stay inside the
    99% binomial band of the generating probabilities, 10 seeds."""
    edges = (5.0, 15.0, 30.0)
    bucket_users = 300
    design = [  # (injected tolerance count, decline probability)
        (2, 0.10),
        (12, 0.30),
        (25, 0.55),
        (60, 0.80),
    ]
    window_ref = TimeWindow(0, 100_000)
    window_inv = TimeWindow(100_000, 200_000)
    config = CohortConfig(
        reference=window_ref,
        investigation=window_inv,
        platform=Platform.ECOMMERCE,
        bucket_edges=edges,
    )
    ok = True
    for seed in range(10):
        rng = np.random.default_rng(seed)
        events = []
        for bucket, (tolerance_count, p_decline) in enumerate(design):
            for k in range(bucket_users):
                user = f"b{bucket}u{k:04d}"
                for t in range(tolerance_count):
                    events.append(_ecom_event(user, t, clicked=True))
                for t in range(tolerance_count, tolerance_count + 5):
                    events.append(
                        _ecom_event(user, t, clicked=True, actions=("purchase",))
                    )
                ref_total = tolerance_count + 5
                declined = bool(rng.random() < p_decline)
                # Half the retained users tie: equal engagement is no decline.
                inv_total = ref_total - 2 if declined else ref_total + k % 2
                for t in range(inv_total):
                    events.append(_ecom_event(user, 100_000 + t, clicked=True))
        result = analyze(events, config)
        proportions = [b.decline_proportion for b in result.buckets]
        monotone = all(b >= a for a, b in zip(proportions, proportions[1:]))
        in_band = True
        for bucket, (_, p_decline) in enumerate(design):
            stat = result.buckets[bucket]
            low, high = binom.interval(0.99, stat.users, p_decline)
            in_band = in_band and low <= stat.declines <= high
            in_band = in_band and stat.users == bucket_users
        ok = ok and monotone and in_band
    report(7, ok, "cohort decline proportions are monotone and inside the 99% binomial band, 10 seeds")
    assert ok


def _ecom_event(user, ts, clicked, actions=()):
    return InteractionEvent(
        user_id=user,
        item_id=f"i{ts}",
        timestamp=ts,
        platform=Platform.ECOMMERCE,
        clicked=clicked,
        followup_actions=frozenset(actions),
    )


@pytest.mark.usefixtures("shared_arms")
@pytest.mark.parametrize(
    "treated",
    [Objective.TOLERANCE_AS_NEGATIVE, Objective.TOLERANCE_AS_WEAK_POSITIVE],
    ids=["tol-neg", "tol-weak"],
)
def test_criterion_08_simulation_directional(treated):
    """In the default adversarial setting the treated arm shows lower
    tolerance rates and positive average retention deltas in >= 8/10
    paired seeds."""
    lower = 0
    deltas = []
    for seed in range(10):
        sim = SimConfig(seed=seed)
        rep = simulate_experiment(
            sim_train_config(Objective.STANDARD, seed),
            sim_train_config(treated, seed),
            sim,
        )
        rate_a, rate_b = (reference_overall_tolerance_rate(rep, arm) for arm in "AB")
        if rate_b < rate_a:
            lower += 1
        deltas.append(reference_average_retention_delta(rep))
    positive = sum(delta > 0 for delta in deltas)
    mean, se = mean_and_se(deltas)
    ok = lower >= 8 and positive >= 8
    report(
        8,
        ok,
        f"{treated.value} vs standard: lower tolerance in {lower}/10 seeds, "
        f"positive retention delta in {positive}/10 seeds "
        f"(mean delta {mean:+.4f}, SE {se:.4f})",
    )
    assert ok


def test_criterion_09_null_effect_without_trust_decay():
    """With trust decay 0, paired retention deltas are statistically
    indistinguishable from zero across 10 seeds.

    Trust then never leaves 1, so retention cannot depend on the ranking:
    every seed's per-day active users and retention must be exactly equal
    between the arms. The treatment must still change the ranking: tol-neg
    has the lower overall tolerance rate in >= 8/10 seeds, the gate of
    criterion 08."""
    deltas = []
    equal_rows = 0
    lower = 0
    for seed in range(10):
        sim = SimConfig(seed=seed, trust_decay=0.0)
        rep = simulate_experiment(
            sim_train_config(Objective.STANDARD, seed),
            sim_train_config(Objective.TOLERANCE_AS_NEGATIVE, seed),
            sim,
        )
        deltas.append(reference_average_retention_delta(rep))
        rows_a, rows_b = (
            [(r.day, r.active_users, r.retention) for r in rows]
            for rows in (rep.a, rep.b)
        )
        equal_rows += rows_a == rows_b
        rate_a, rate_b = (reference_overall_tolerance_rate(rep, arm) for arm in "AB")
        lower += rate_b < rate_a
    mean, se = mean_and_se(deltas)
    ok = abs(mean) <= 3.0 * se + 1e-12 and equal_rows == 10 and lower >= 8
    report(9, ok, f"null effect: |mean delta| {abs(mean):.2e} <= 3 x SE {se:.2e} over 10 seeds")
    assert ok, (
        f"per-day active users and retention equal in {equal_rows}/10 seeds; "
        f"tol-neg lower tolerance in {lower}/10 seeds"
    )


@pytest.mark.usefixtures("shared_arms")
def test_criterion_09_calibration_standard_vs_standard():
    """A/A calibration for 09 at the default trust decay: two standard arms
    whose models differ only in their train seed give paired deltas that
    vary (SE > 0) and whose mean lies within 3 SE of zero."""
    deltas = []
    for seed in range(10):
        rep = simulate_experiment(
            sim_train_config(Objective.STANDARD, seed),
            sim_train_config(Objective.STANDARD, seed + 1000),
            SimConfig(seed=seed),
        )
        deltas.append(reference_average_retention_delta(rep))
    positive = sum(delta > 0 for delta in deltas)
    mean, se = mean_and_se(deltas)
    ok = se > 0 and abs(mean) <= 3.0 * se
    report(
        9,
        ok,
        f"A/A calibration, standard vs standard (arm B train seed + 1000): "
        f"mean delta {mean:+.4f}, SE {se:.4f}, |mean| <= 3 x SE and SE > 0; "
        f"positive in {positive}/10 seeds",
    )
    assert ok


def test_criterion_10_end_to_end_determinism(tmp_path):
    """The full label -> train -> analyze -> simulate -> report pipeline is
    byte-identical across two runs on the bundled 10k-event corpus."""
    events_path = tmp_path / "events.jsonl"
    write_events(events_path, generate_fixture_events(n_events=10_000, seed=7))
    root = tmp_path / "out"
    root.mkdir()
    samples = root / "samples.jsonl"
    model = root / "model.txt"
    cohort = root / "cohort.csv"
    daily = root / "daily.csv"
    summary = root / "summary.txt"
    commands = [
        ["label", "--events", events_path, "--out", samples, "--mode", "causal"],
        [
            "train", "--samples", samples, "--out", model,
            "--objective", "tol-weak", "--epochs", "5", "--seed", "7",
        ],
        [
            "analyze", "--events", events_path, "--out", cohort,
            "--ref", "2024-06-01..2024-06-08",
            "--inv", "2024-06-08..2024-06-15", "--platform", "video",
        ],
        [
            "simulate", "--out", daily, "--seed", "7", "--days", "3",
            "--population", "40", "--catalog", "80", "--pool", "20",
            "--slate", "5", "--epochs", "5",
        ],
        [
            "report", "--out", summary, "--analyze", cohort,
            "--simulate", daily,
            "--train-history", root / "model.txt.history.csv",
        ],
    ]

    def run_pipeline() -> dict[str, bytes]:
        for argv in commands:
            assert cli_main([str(a) for a in argv]) == 0
        return {path.name: path.read_bytes() for path in sorted(root.iterdir())}

    first = run_pipeline()
    second = run_pipeline()
    all_equal = first.keys() == second.keys() and all(
        first[name] == second[name] for name in first
    )
    report(
        10,
        all_equal,
        f"pipeline outputs byte-identical across two runs ({len(first)} artifacts)",
    )
    assert all_equal
