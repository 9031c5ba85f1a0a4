import json
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from tolrec import simulation, trainer
from tolrec.events import Platform
from tolrec.labeling import CausalLabeler, Label, LabelingConfig, label_log
from tolrec.simulation import (
    ReturnCurve,
    SimConfig,
    SimUser,
    generate_population,
    simulate_arm,
    simulate_experiment,
    update_trust,
    user_response,
    write_daily_report,
)
from tolrec.trainer import Objective, TrainConfig

from conftest import outputs_under_blas_kernels, x86_64_only


def train_config(objective=Objective.STANDARD, seed=0, epochs=4):
    return TrainConfig(
        objective=objective,
        learning_rate=0.3,
        epochs=epochs,
        dimension=4,
        l2=1e-4,
        seed=seed,
        batch_size=256,
    )


def small_sim(**overrides):
    defaults = dict(population=30, catalog=60, days=3, slate_size=5, candidate_pool=15)
    defaults.update(overrides)
    return SimConfig(**defaults)


def respond(user, item, rng, timestamp, config):
    """``user_response`` given this pair's appeal and experience."""
    return user_response(
        user,
        item,
        float(np.einsum("d,d", user.true_affinity, item.surface)),
        float(np.einsum("d,d", user.true_affinity, item.true_content)),
        rng,
        timestamp,
        config,
    )


class TestSimConfig:
    @pytest.mark.parametrize("days", [0, -1])
    def test_rejects_fewer_than_one_day(self, days):
        with pytest.raises(ValueError, match="days"):
            small_sim(days=days)

    @pytest.mark.parametrize("slate", [0, -1])
    def test_rejects_empty_slate(self, slate):
        with pytest.raises(ValueError, match="slate_size"):
            small_sim(slate_size=slate)

    @pytest.mark.parametrize("temperature", [0.0, -1.0])
    def test_rejects_non_positive_temperature(self, temperature):
        with pytest.raises(ValueError, match="temperature"):
            small_sim(temperature=temperature)

    @pytest.mark.parametrize("dimension", [0, -1])
    def test_rejects_dimension_below_one(self, dimension):
        with pytest.raises(ValueError, match="dimension"):
            small_sim(dimension=dimension)

    @pytest.mark.parametrize(
        "field", ["temperature", "trust_recovery", "surface_true_correlation", "trust_decay"]
    )
    def test_rejects_nan(self, field):
        with pytest.raises(ValueError, match=field):
            small_sim(**{field: float("nan")})

    @pytest.mark.parametrize("rule_mode", ["ratio-only", "ratio-or-action", None])
    def test_rejects_rule_mode_that_is_not_a_rule_mode(self, rule_mode):
        with pytest.raises(ValueError, match="rule_mode"):
            small_sim(rule_mode=rule_mode)

    @pytest.mark.parametrize("seed", [-1, 1.0, "0", True, None])
    def test_rejects_seed_that_is_not_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match="seed"):
            small_sim(seed=seed)


class TestGeneratePopulation:
    def test_perfect_correlation_makes_surface_equal_content(self):
        users, items = generate_population(small_sim(surface_true_correlation=1.0))
        for item in items:
            np.testing.assert_array_equal(item.surface, item.true_content)

    def test_same_seed_identical_population(self):
        config = small_sim(seed=5)
        users_a, items_a = generate_population(config)
        users_b, items_b = generate_population(config)
        for a, b in zip(users_a, users_b):
            np.testing.assert_array_equal(a.true_affinity, b.true_affinity)
            assert a.patience == b.patience
        for a, b in zip(items_a, items_b):
            np.testing.assert_array_equal(a.surface, b.surface)
            assert a.duration == b.duration

    def test_zero_correlation_empirically_uncorrelated(self):
        config = SimConfig(
            population=2, catalog=10_000, surface_true_correlation=0.0, seed=3
        )
        _, items = generate_population(config)
        surface = np.array([it.surface for it in items]).ravel()
        content = np.array([it.true_content for it in items]).ravel()
        corr = np.corrcoef(surface, content)[0, 1]
        assert abs(corr) < 0.05

    def test_durations_positive(self):
        _, items = generate_population(small_sim())
        assert all(it.duration > 0 for it in items)

    def test_trust_starts_full_and_active(self):
        users, _ = generate_population(small_sim())
        assert all(u.trust == 1.0 and u.active for u in users)


class TestUserResponse:
    def test_strongly_repellent_item_never_clicked(self):
        config = small_sim()
        users, items = generate_population(config)
        user = users[0]
        item = items[0]
        # Point the item's surface directly away from the user's taste.
        hostile = type(item)(
            item_id=item.item_id,
            surface=-20.0 * user.true_affinity,
            true_content=item.true_content,
            duration=item.duration,
        )
        rng = np.random.default_rng(0)
        clicks = sum(
            respond(user, hostile, rng, t, config).clicked for t in range(2000)
        )
        assert clicks == 0

    def test_events_pass_validation_and_schema(self):
        config = small_sim()
        users, items = generate_population(config)
        rng = np.random.default_rng(1)
        for t in range(500):
            event = respond(users[t % len(users)], items[t % len(items)], rng, t, config)
            assert event.platform is Platform.VIDEO
            assert 0.0 <= event.watch_duration <= event.item_duration
            if event.followup_actions:
                assert event.clicked

    def test_aligned_high_affinity_beats_population_mean_ratio(self):
        """With surface == content, a strongly liked item is watched more
        (per impression) than the average random pairing."""
        config = small_sim(surface_true_correlation=1.0, population=50, catalog=200)
        users, items = generate_population(config)
        rng = np.random.default_rng(2)
        population_ratios = []
        for t in range(10_000):
            user = users[int(rng.integers(len(users)))]
            item = items[int(rng.integers(len(items)))]
            event = respond(user, item, rng, t, config)
            population_ratios.append(event.watch_duration / event.item_duration)
        user = users[0]
        best = max(items, key=lambda it: float(user.true_affinity @ it.true_content))
        liked_ratios = []
        for t in range(10_000):
            event = respond(user, best, rng, t, config)
            liked_ratios.append(event.watch_duration / event.item_duration)
        assert np.mean(liked_ratios) > np.mean(population_ratios) + 0.1


class TestTrustDynamics:
    def config(self, decay=0.1, recovery=0.05):
        return small_sim(trust_decay=decay, trust_recovery=recovery)

    def user(self, trust=1.0):
        return SimUser(
            user_id="u0",
            true_affinity=np.zeros(4),
            patience=0.8,
            trust=trust,
        )

    def test_bounds_under_any_sequence(self, rng):
        config = self.config()
        user = self.user()
        labels = [Label.POSITIVE, Label.TOLERANCE, Label.NEGATIVE]
        for _ in range(5000):
            update_trust(user, labels[int(rng.integers(3))], config)
            assert 0.0 <= user.trust <= 1.0

    def test_non_increasing_without_recovery(self, rng):
        config = self.config(recovery=0.0)
        user = self.user()
        previous = user.trust
        labels = [Label.POSITIVE, Label.TOLERANCE, Label.NEGATIVE]
        for _ in range(1000):
            update_trust(user, labels[int(rng.integers(3))], config)
            assert user.trust <= previous
            previous = user.trust

    def test_negatives_cost_nothing(self):
        config = self.config()
        user = self.user(trust=0.7)
        update_trust(user, Label.NEGATIVE, config)
        assert user.trust == 0.7

    def test_tolerance_then_positive_partial_recovery(self):
        config = self.config(decay=0.5, recovery=0.2)
        user = self.user()
        update_trust(user, Label.TOLERANCE, config)
        assert user.trust == 0.5
        update_trust(user, Label.POSITIVE, config)
        assert user.trust == 0.7


class TestReturnCurve:
    def test_floor_and_ceiling_hit_exactly(self):
        curve = ReturnCurve(floor=0.0, ceiling=0.9)
        assert curve.probability(0.0) == 0.0
        assert curve.probability(1.0) == pytest.approx(0.9)

    def test_monotone_in_trust(self):
        curve = ReturnCurve()
        values = [curve.probability(t) for t in np.linspace(0, 1, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_zero_floor_absorbs_churn(self):
        """An inactive user whose trust has hit zero can never come back:
        every return draw compares against probability exactly 0."""
        curve = ReturnCurve(floor=0.0)
        p = curve.probability(0.0)
        draws = np.random.default_rng(0).random(10_000)
        assert not np.any(draws < p)


class TestSimulateExperiment:
    def test_deterministic_report(self):
        config = small_sim(seed=9)
        a = simulate_experiment(train_config(), train_config(), config)
        b = simulate_experiment(train_config(), train_config(), config)
        assert a.table_rows() == b.table_rows()

    def test_trains_without_an_epoch_loss(self, monkeypatch):
        """The simulator drops the loss history, so it must not compute one."""

        def no_loss(*args):
            raise AssertionError("the simulator computed an epoch loss")

        monkeypatch.setattr(trainer, "_loss", no_loss)
        config = small_sim(seed=1, days=2)
        report = simulate_experiment(train_config(), train_config(), config)
        assert len(report.rows) == 2 * config.days

    def test_identical_objectives_give_zero_deltas(self):
        config = small_sim(seed=4)
        report = simulate_experiment(train_config(), train_config(), config)
        assert report.average_retention_delta() == 0.0
        for row_a, row_b in zip(report.arm_rows("A"), report.arm_rows("B")):
            assert row_a.retention == row_b.retention
            assert row_a.tolerance_rate == row_b.tolerance_rate

    def test_zero_decay_null_effect_is_exact(self):
        """With no trust decay, trust never drops, shared return draws make
        the arms' activity identical, and deltas vanish exactly."""
        config = small_sim(seed=7, trust_decay=0.0, days=4)
        report = simulate_experiment(
            train_config(Objective.STANDARD),
            train_config(Objective.TOLERANCE_AS_NEGATIVE),
            config,
        )
        for row_a, row_b in zip(report.arm_rows("A"), report.arm_rows("B")):
            assert row_a.retention == row_b.retention
            assert row_a.active_users == row_b.active_users

    def test_labels_agree_with_streaming_labeler(self, monkeypatch):
        """Re-labeling an arm's accumulated simulated log from scratch in
        one pass reproduces the labels the simulator acted on, day by day."""
        labelers = []

        class RecordingLabeler(CausalLabeler):
            def __init__(self, config):
                super().__init__(config)
                self.seen = []
                self.batches = 0
                labelers.append(self)

            def extend(self, events):
                samples = super().extend(events)
                self.seen += zip(events, samples)
                self.batches += 1
                return samples

        monkeypatch.setattr(simulation, "CausalLabeler", RecordingLabeler)
        config = small_sim(seed=2)
        simulate_experiment(
            train_config(Objective.STANDARD),
            train_config(Objective.TOLERANCE_AS_NEGATIVE),
            config,
        )
        assert len(labelers) == 2
        for labeler in labelers:
            assert labeler.batches == config.days
            seen = sorted(labeler.seen, key=lambda pair: (pair[0].user_id, pair[0].timestamp))
            events = [event for event, _ in seen]
            relabeled = label_log(events, LabelingConfig(rule_mode=config.rule_mode)).samples
            assert relabeled == [sample for _, sample in seen]

    def test_dwell_mean_sums_each_user_in_event_order(self, monkeypatch):
        """Each row's ``dwell_mean`` is exactly the per-user watch sums taken
        in event order, summed over the active users in order. The daily
        CSV rounds it to 3 decimals, so only this check sees the order."""
        days = []

        class RecordingLabeler(CausalLabeler):
            def extend(self, events):
                days.append(events)
                return super().extend(events)

        monkeypatch.setattr(simulation, "CausalLabeler", RecordingLabeler)
        report = simulate_experiment(
            train_config(Objective.STANDARD),
            train_config(Objective.TOLERANCE_AS_WEAK_POSITIVE),
            small_sim(seed=8),
        )
        # One extend call per arm-day: all of arm A's days, then arm B's.
        rows = report.arm_rows("A") + report.arm_rows("B")
        assert len(days) == len(rows) == len(report.rows)
        for row, events in zip(rows, days):
            dwell = {}
            for event in events:
                dwell[event.user_id] = dwell.get(event.user_id, 0.0) + event.watch_duration
            assert len(dwell) == row.active_users
            assert sum(dwell.values()) / len(dwell) == row.dwell_mean

    @pytest.mark.parametrize("warm_start", [False, True])
    def test_arm_does_not_depend_on_partner_or_position(self, warm_start):
        """An arm's full-precision rows are the same alone, as arm A beside
        either partner, and as arm B (but for its name)."""
        sim = small_sim(seed=5, warm_start=warm_start)
        arm = train_config(Objective.TOLERANCE_AS_WEAK_POSITIVE)
        alone = simulate_arm("A", arm, sim)
        assert [row.day for row in alone] == list(range(1, sim.days + 1))
        for partner in (
            train_config(Objective.STANDARD),
            train_config(Objective.TOLERANCE_AS_NEGATIVE, seed=1),
        ):
            assert simulate_experiment(arm, partner, sim).arm_rows("A") == alone
            as_b = simulate_experiment(partner, arm, sim).arm_rows("B")
            assert [replace(row, arm="A") for row in as_b] == alone

    def test_tolerance_label_on_non_click_fails_loudly(self, monkeypatch):
        """The in-loop fidelity check fires when the labeler marks a
        non-click as tolerance."""

        class MislabelingLabeler(CausalLabeler):
            def extend(self, events):
                samples = super().extend(events)
                k = next(i for i, e in enumerate(events) if not e.clicked)
                samples[k] = replace(samples[k], label=Label.TOLERANCE, beta=0.0)
                return samples

        monkeypatch.setattr(simulation, "CausalLabeler", MislabelingLabeler)
        with pytest.raises(AssertionError, match="non-click"):
            simulate_experiment(train_config(), train_config(), small_sim(seed=2))

    def test_aligned_catalog_shows_no_tolerance(self):
        config = small_sim(seed=3, surface_true_correlation=1.0)
        report = simulate_experiment(
            train_config(Objective.STANDARD),
            train_config(Objective.TOLERANCE_AS_NEGATIVE),
            config,
        )
        assert report.overall_tolerance_rate("A") < 0.01
        assert report.overall_tolerance_rate("B") < 0.01

    def test_daily_report_schema(self, tmp_path):
        config = small_sim(seed=1, days=2)
        report = simulate_experiment(train_config(), train_config(), config)
        path = tmp_path / "daily.csv"
        write_daily_report(path, [(1, report)])
        lines = path.read_text().splitlines()
        assert lines[0] == "day,arm,active_users,retention_delta,tolerance_rate,dwell_delta"
        # 2 days x 2 arms + 2 average rows
        assert len(lines) == 1 + 4 + 2
        assert lines[-2].startswith("avg,A") and lines[-1].startswith("avg,B")

    def test_simulated_events_are_labelable_in_one_pass(self):
        """A day's worth of raw responses satisfies the labeling module's
        ordering contract after the engine's (user, timestamp) sort."""
        config = small_sim(seed=6)
        users, items = generate_population(config)
        rng = np.random.default_rng(0)
        events = []
        for slot, item in enumerate(items[:10]):
            for user in users[:10]:
                events.append(respond(user, item, rng, 86_400 + slot * 60, config))
        events.sort(key=lambda e: (e.user_id, e.timestamp))
        result = label_log(events, LabelingConfig())
        assert len(result.samples) == len(events)


#: Runs seed 0 at ``SimConfig`` defaults, standard against tol-weak, and
#: prints every ``DayArmStats`` row with its floats as ``float.hex``.
_SIM_SCRIPT = textwrap.dedent(
    """
    import json
    from tolrec.simulation import SimConfig, simulate_experiment
    from tolrec.trainer import Objective, TrainConfig

    def arm(objective):
        return TrainConfig(objective=objective, learning_rate=0.3, epochs=10, l2=1e-4)

    report = simulate_experiment(
        arm(Objective.STANDARD), arm(Objective.TOLERANCE_AS_WEAK_POSITIVE), SimConfig()
    )
    print(json.dumps([
        [r.day, r.arm, r.active_users, r.retention.hex(), r.dwell_mean.hex(),
         r.impressions, r.tolerance_events]
        for r in report.rows
    ]))
    """
)


@x86_64_only
def test_simulation_does_not_depend_on_blas_kernel():
    """A paired simulation under two BLAS kernels gives the same rows to
    the last bit, retention and dwell included."""
    unset, prescott = (json.loads(out) for out in outputs_under_blas_kernels(_SIM_SCRIPT))
    assert len(unset) == 2 * SimConfig().days
    assert unset == prescott
