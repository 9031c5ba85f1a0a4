import json
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from tolrec import simulation, trainer
from tolrec.events import Platform, _ACTION_SETS, _check_event
from tolrec.labeling import CausalLabeler, Label, LabelingConfig, label_log
from tolrec.simulation import (
    RETURN_CEILING,
    RETURN_FLOOR,
    Population,
    SimConfig,
    generate_population,
    return_probability,
    simulate_arm,
    simulate_experiment,
    update_trust,
    user_response,
    write_daily_report,
)
from tolrec.trainer import Objective, TrainConfig

from conftest import outputs_under_blas_kernels, x86_64_only
from oracles import reference_average_retention_delta, reference_overall_tolerance_rate


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

    @pytest.mark.parametrize(
        "field", ["temperature", "surface_true_correlation", "trust_decay", "trust_recovery"]
    )
    @pytest.mark.parametrize("value", [True, "0", None])
    def test_rejects_rate_that_is_not_a_number_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be a number"):
            small_sim(**{field: value})

    def test_accepts_numpy_float_rates(self):
        config = small_sim(temperature=np.float64(2.0), trust_recovery=np.float64(0.0))
        assert (config.temperature, config.trust_recovery) == (2.0, 0.0)

    @pytest.mark.parametrize(
        "field", ["population", "catalog", "days", "slate_size", "candidate_pool", "dimension"]
    )
    @pytest.mark.parametrize("value", [2.5, True, None])
    def test_rejects_size_that_is_not_an_int_by_name(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            small_sim(**{field: value})


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param({"population": 1}, "population must be >= 2 and catalog >= 1",
                     id="population-1"),
        pytest.param({"slate_size": 16}, "slate_size cannot exceed candidate_pool",
                     id="slate-over-pool"),
        pytest.param({"candidate_pool": 61}, "candidate_pool cannot exceed catalog",
                     id="pool-over-catalog"),
    ],
)
def test_bad_config_fails_with_its_message(overrides, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        small_sim(**overrides)


class TestGeneratePopulation:
    @pytest.mark.parametrize("rho", [0.0, 0.3])
    def test_appeal_experience_correlation_is_rho(self, rho):
        world = generate_population(
            SimConfig(population=2, catalog=10_000, surface_true_correlation=rho, seed=3)
        )
        corr = np.corrcoef(world.appeal.ravel(), world.experience.ravel())[0, 1]
        assert abs(corr - rho) < 0.05

    def test_perfect_correlation_makes_appeal_equal_experience(self):
        world = generate_population(small_sim(surface_true_correlation=1.0))
        np.testing.assert_array_equal(world.appeal, world.experience)

    def test_same_seed_identical_population(self):
        config = small_sim(seed=5)
        a, b = generate_population(config), generate_population(config)
        assert (a.user_ids, a.item_ids) == (b.user_ids, b.item_ids)
        assert (a.patience, a.durations) == (b.patience, b.durations)
        np.testing.assert_array_equal(a.appeal, b.appeal)
        np.testing.assert_array_equal(a.experience, b.experience)

    def test_shapes_and_python_float_ranges(self):
        config = small_sim()
        world = generate_population(config)
        assert len(world.user_ids) == len(world.patience) == config.population
        assert len(world.item_ids) == len(world.durations) == config.catalog
        shape = (config.population, config.catalog)
        assert world.appeal.shape == world.experience.shape == shape
        assert all(type(p) is float and 0.65 <= p <= 0.95 for p in world.patience)
        assert all(type(d) is float and 10.0 <= d <= 600.0 for d in world.durations)

    @pytest.mark.parametrize("matrix", ["appeal", "experience"])
    def test_ground_truth_is_read_only(self, matrix):
        world = generate_population(small_sim())
        with pytest.raises(ValueError, match="read-only"):
            getattr(world, matrix)[0, 0] = 1.0


class TestUserResponse:
    def test_strongly_repellent_item_never_clicked(self):
        config = small_sim()
        # One user and one item whose surface points directly away from
        # the user's taste.
        world = Population(
            user_ids=("u0",),
            item_ids=("i0",),
            patience=(0.8,),
            durations=(120.0,),
            appeal=np.array([[-20.0]]),
            experience=np.array([[1.0]]),
        )
        rng = np.random.default_rng(0)
        clicks = sum(
            user_response(world, 0, 0, rng, t, config).clicked for t in range(2000)
        )
        assert clicks == 0

    def test_events_pass_validation_and_schema(self):
        config = small_sim()
        world = generate_population(config)
        rng = np.random.default_rng(1)
        acted = 0
        for t in range(500):
            u, j = t % config.population, t % config.catalog
            event = user_response(world, u, j, rng, t, config)
            _check_event(event)
            assert event.platform is Platform.VIDEO
            assert 0.0 <= event.watch_duration <= event.item_duration
            # One action at most, as the one shared set of that combination.
            assert len(event.followup_actions) <= 1
            assert event.followup_actions is _ACTION_SETS[event.followup_actions]
            if event.followup_actions:
                assert event.clicked
                acted += 1
        assert acted > 0

    def test_aligned_high_affinity_beats_population_mean_ratio(self):
        """With surface == content, a strongly liked item is watched more
        (per impression) than the average random pairing."""
        config = small_sim(surface_true_correlation=1.0, population=50, catalog=200)
        world = generate_population(config)
        rng = np.random.default_rng(2)
        population_ratios = []
        for t in range(10_000):
            u = int(rng.integers(config.population))
            j = int(rng.integers(config.catalog))
            event = user_response(world, u, j, rng, t, config)
            population_ratios.append(event.watch_duration / event.item_duration)
        best = int(np.argmax(world.experience[0]))
        liked_ratios = []
        for t in range(10_000):
            event = user_response(world, 0, best, rng, t, config)
            liked_ratios.append(event.watch_duration / event.item_duration)
        assert np.mean(liked_ratios) > np.mean(population_ratios) + 0.1


class TestTrustDynamics:
    def config(self, decay=0.1, recovery=0.05):
        return small_sim(trust_decay=decay, trust_recovery=recovery)

    def test_bounds_under_any_sequence(self, rng):
        config = self.config()
        trust = 1.0
        labels = [Label.POSITIVE, Label.TOLERANCE, Label.NEGATIVE]
        for _ in range(5000):
            trust = update_trust(trust, labels[int(rng.integers(3))], config)
            assert 0.0 <= trust <= 1.0

    def test_non_increasing_without_recovery(self, rng):
        config = self.config(recovery=0.0)
        previous = 1.0
        labels = [Label.POSITIVE, Label.TOLERANCE, Label.NEGATIVE]
        for _ in range(1000):
            trust = update_trust(previous, labels[int(rng.integers(3))], config)
            assert trust <= previous
            previous = trust

    def test_negatives_cost_nothing(self):
        assert update_trust(0.7, Label.NEGATIVE, self.config()) == 0.7

    def test_tolerance_then_positive_partial_recovery(self):
        config = self.config(decay=0.5, recovery=0.2)
        trust = update_trust(1.0, Label.TOLERANCE, config)
        assert trust == 0.5
        assert update_trust(trust, Label.POSITIVE, config) == 0.7


class TestReturnCurve:
    def test_floor_and_ceiling_hit_exactly(self):
        assert return_probability(0.0) == RETURN_FLOOR
        assert return_probability(1.0) == pytest.approx(RETURN_CEILING)

    def test_monotone_in_trust(self):
        values = [return_probability(t) for t in np.linspace(0, 1, 50)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestSimulateExperiment:
    def test_deterministic_report(self):
        config = small_sim(seed=9)
        a = simulate_experiment(train_config(), train_config(), config)
        b = simulate_experiment(train_config(), train_config(), config)
        assert a.table_rows() == b.table_rows()

    def test_builds_the_population_once(self, monkeypatch):
        """Both arms of one run read one world, built once."""
        builds = []

        def counting(config):
            builds.append(config)
            return generate_population(config)

        monkeypatch.setattr(simulation, "generate_population", counting)
        simulation._world.cache_clear()
        config = small_sim(seed=6, days=2)
        simulate_experiment(train_config(), train_config(Objective.TOLERANCE_AS_NEGATIVE), config)
        assert builds == [config]

    def test_trains_without_an_epoch_loss(self, monkeypatch):
        """The simulator drops the loss history, so it must not compute one."""

        def no_loss(*args):
            raise AssertionError("the simulator computed an epoch loss")

        monkeypatch.setattr(trainer, "loss", no_loss)
        config = small_sim(seed=1, days=2)
        report = simulate_experiment(train_config(), train_config(), config)
        assert len(report.a) == len(report.b) == config.days

    def test_identical_objectives_give_zero_deltas(self):
        config = small_sim(seed=4)
        report = simulate_experiment(train_config(), train_config(), config)
        assert reference_average_retention_delta(report) == 0.0
        for row_a, row_b in zip(report.a, report.b):
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
        for row_a, row_b in zip(report.a, report.b):
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
        config = small_sim(seed=8)
        report = simulate_experiment(
            train_config(Objective.STANDARD),
            train_config(Objective.TOLERANCE_AS_WEAK_POSITIVE),
            config,
        )
        # One extend call per arm-day: all of arm A's days, then arm B's.
        rows = report.a + report.b
        assert len(days) == len(rows) == 2 * config.days
        for row, events in zip(rows, days):
            dwell = {}
            for event in events:
                dwell[event.user_id] = dwell.get(event.user_id, 0.0) + event.watch_duration
            assert len(dwell) == row.active_users
            assert sum(dwell.values()) / len(dwell) == row.dwell_mean

    @pytest.mark.parametrize("warm_start", [False, True])
    def test_arm_does_not_depend_on_partner_or_position(self, warm_start):
        """An arm's full-precision rows are the same alone, as arm A beside
        either partner, and as arm B."""
        sim = small_sim(seed=5, warm_start=warm_start)
        arm = train_config(Objective.TOLERANCE_AS_WEAK_POSITIVE)
        alone = simulate_arm(arm, sim)
        assert [row.day for row in alone] == list(range(1, sim.days + 1))
        for partner in (
            train_config(Objective.STANDARD),
            train_config(Objective.TOLERANCE_AS_NEGATIVE, seed=1),
        ):
            assert simulate_experiment(arm, partner, sim).a == alone
            assert simulate_experiment(partner, arm, sim).b == alone

    def test_day_one_has_every_user_active(self):
        config = small_sim(seed=3, days=1)
        rows = simulate_arm(train_config(), config)
        assert rows[0].active_users == config.population

    def test_retention_is_the_share_of_active_users_back_next_day(self, monkeypatch):
        """A day's active users are those with events that day; its
        retention is the share of them active again the next day."""
        days = []

        class RecordingLabeler(CausalLabeler):
            def extend(self, events):
                days.append({event.user_id for event in events})
                return super().extend(events)

        monkeypatch.setattr(simulation, "CausalLabeler", RecordingLabeler)
        rows = simulate_arm(train_config(), small_sim(seed=8, days=4))
        assert any(row.retention < 1.0 for row in rows[:-1])
        for row, today, tomorrow in zip(rows, days, days[1:]):
            assert len(today) == row.active_users
            assert row.retention == len(today & tomorrow) / len(today)

    def test_simulated_events_pass_every_event_check(self, monkeypatch):
        """The simulator builds its events without the constructor's checks,
        so every event of a paired run must pass them all: the invariants
        of ``_check_event`` and the constructor's own type checks."""
        events = []

        class RecordingLabeler(CausalLabeler):
            def extend(self, day):
                events.extend(day)
                return super().extend(day)

        monkeypatch.setattr(simulation, "CausalLabeler", RecordingLabeler)
        simulate_experiment(
            train_config(Objective.STANDARD),
            train_config(Objective.TOLERANCE_AS_NEGATIVE),
            small_sim(seed=4),
        )
        assert events
        for event in events:
            _check_event(event)
            assert 0.0 <= event.watch_duration <= event.item_duration
            assert type(event.watch_duration) is type(event.item_duration) is float
            assert replace(event) == event

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
        assert reference_overall_tolerance_rate(report, "A") < 0.01
        assert reference_overall_tolerance_rate(report, "B") < 0.01

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
        world = generate_population(config)
        rng = np.random.default_rng(0)
        events = []
        for slot in range(10):
            for u in range(10):
                events.append(user_response(world, u, slot, rng, 86_400 + slot * 60, config))
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
        [arm, r.day, r.active_users, r.retention.hex(), r.dwell_mean.hex(),
         r.impressions, r.tolerance_events]
        for arm, rows in (("A", report.a), ("B", report.b))
        for r in rows
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
