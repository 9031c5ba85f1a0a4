from dataclasses import replace

import numpy as np
import pytest

from tolrec.cohort import CohortConfig, analyze
from tolrec.events import (
    EventParseError,
    InteractionEvent,
    Platform,
    TimeWindow,
    ingest_log,
    write_events,
)
from tolrec.fixtures import generate_fixture_events
from tolrec.labeling import (
    BucketStats,
    CausalLabeler,
    Label,
    LabeledSample,
    LabelingConfig,
    LabelingMode,
    RuleMode,
    UserProfile,
    label_log,
    parse_sample,
    read_samples,
    sample_to_json,
    watch_ratio,
    write_profiles,
    write_samples,
)
from tolrec.labeling import _first_of_instant, _list_means
from tolrec.trainer import Objective, TrainConfig, train

from conftest import label_one, long_value_id, metamorphic_log, random_event_log
from oracles import (
    brute_force_causal_labels,
    reference_causal_extend,
    reference_label_leave_one_out,
    reference_push,
    update_profile,
)


def video_event(
    user="u1",
    item="i1",
    ts=0,
    clicked=True,
    watch=5.0,
    duration=10.0,
    actions=(),
):
    return InteractionEvent(
        user_id=user,
        item_id=item,
        timestamp=ts,
        platform=Platform.VIDEO,
        clicked=clicked,
        watch_duration=watch,
        item_duration=duration,
        followup_actions=frozenset(actions),
    )


def ecom_event(user="u1", item="i1", ts=0, clicked=True, actions=()):
    return InteractionEvent(
        user_id=user,
        item_id=item,
        timestamp=ts,
        platform=Platform.ECOMMERCE,
        clicked=clicked,
        followup_actions=frozenset(actions),
    )


def oracle_logs():
    """Sparse and dense fixture logs plus edge cases, (user, timestamp)-sorted:
    a log whose only engaged event leaves a global count of 0, one with a
    length-1 bucket list and repeated identical and capped ratios, and one
    whose subnormal first ratio makes the second ratio over its baseline
    overflow to inf, which Python floats do without a warning."""

    def by_user(events):
        return sorted(events, key=lambda e: (e.user_id, e.timestamp))

    return {
        "sparse": by_user(generate_fixture_events(1200, n_users=600, seed=3)),
        "dense": by_user(generate_fixture_events(1200, n_users=20, seed=4)),
        "only-engaged": [
            ecom_event(ts=0),
            video_event(ts=1, clicked=False, watch=0.0),
            video_event(ts=2, watch=3.0),
            ecom_event(ts=3, clicked=False),
        ],
        "single-and-ties": by_user(
            [video_event(user="a", ts=0, watch=9.0, duration=500.0)]
            + [
                video_event(user=u, item=f"{u}{t}", ts=t % 3, watch=w)
                for u in "bcd"
                for t, w in enumerate([3.0, 3.0, 7.0, 3.0, 3.0, 12.0, 3.0])
            ]
        ),
        "tiny-baseline": [
            video_event(ts=0, watch=5e-324, duration=1.0),
            video_event(ts=1, watch=1.0, duration=1.0),
        ],
    }


ORACLE_CONFIGS = [
    LabelingConfig(),
    LabelingConfig(beta_baseline="population"),
    LabelingConfig(min_history=1),
    LabelingConfig(min_history=1, beta_baseline="population"),
    LabelingConfig(duration_bucket_edges=(), rule_mode=RuleMode.RATIO_ONLY),
]


class TestLabelingConfig:
    @pytest.mark.parametrize(
        "edges",
        [
            (60.0, float("nan")),
            (float("nan"),),
            (float("nan"), 60.0),
            (300.0, 60.0),
            (60.0, 60.0),
        ],
    )
    def test_rejects_nan_or_unordered_edges(self, edges):
        with pytest.raises(ValueError, match="duration_bucket_edges"):
            LabelingConfig(duration_bucket_edges=edges)

    @pytest.mark.parametrize("edges", [(), (60.0,), (60.0, float("inf"))])
    def test_accepts_ascending_edges(self, edges):
        assert LabelingConfig(duration_bucket_edges=edges).bucket_count == len(edges) + 1

    @pytest.mark.parametrize("rule_mode", ["ratio-only", "ratio-or-action", None])
    def test_rejects_rule_mode_that_is_not_a_rule_mode(self, rule_mode):
        with pytest.raises(ValueError, match="rule_mode"):
            LabelingConfig(rule_mode=rule_mode)

    @pytest.mark.parametrize("cap", [float("nan"), 0.0, -1.0])
    def test_rejects_ratio_cap_that_is_not_positive(self, cap):
        with pytest.raises(ValueError, match="ratio_cap"):
            LabelingConfig(ratio_cap=cap)

    def test_accepts_infinite_ratio_cap(self):
        assert LabelingConfig(ratio_cap=float("inf")).ratio_cap == float("inf")

    @pytest.mark.parametrize("cap", [True, "1", None])
    def test_rejects_ratio_cap_that_is_not_a_number_by_name(self, cap):
        with pytest.raises(ValueError, match="ratio_cap must be a number"):
            LabelingConfig(ratio_cap=cap)

    @pytest.mark.parametrize("min_history", [2.5, 5.0, True, "5", None])
    def test_rejects_min_history_that_is_not_an_int_by_name(self, min_history):
        with pytest.raises(ValueError, match="min_history must be an integer"):
            LabelingConfig(min_history=min_history)

    def test_accepts_numpy_float_ratio_cap(self):
        assert LabelingConfig(ratio_cap=np.float64(1.5)).ratio_cap == 1.5


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: label_log(
                [video_event(user="u2", ts=1), video_event(user="u1", ts=2)], LabelingConfig()
            ),
            r"events must be sorted by \(user_id, timestamp\)",
            id="later-user-sorts-first",
        ),
        pytest.param(
            lambda: LabelingConfig(beta_baseline="x"),
            "beta_baseline must be 'user' or 'population'",
            id="beta-baseline",
        ),
    ],
)
def test_bad_input_fails_with_its_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestWatchRatio:
    def test_direct_ratio(self):
        assert watch_ratio(video_event(watch=5, duration=10)) == 0.5

    def test_zero_watch(self):
        assert watch_ratio(video_event(watch=0, duration=30)) == 0.0

    def test_rewatch_clamped(self):
        assert watch_ratio(video_event(watch=90, duration=60)) == 1.0

    def test_ecommerce_rejected(self):
        with pytest.raises(ValueError):
            watch_ratio(ecom_event())


class TestUpdateProfile:
    def test_first_ratio(self):
        config = LabelingConfig(duration_bucket_edges=())
        profile = UserProfile("u1")
        update_profile(profile, video_event(watch=4, duration=10), config)
        assert profile.buckets == {0: BucketStats(1, 0.4)}

    def test_two_point_mean(self):
        config = LabelingConfig(duration_bucket_edges=())
        profile = UserProfile("u1")
        update_profile(profile, video_event(watch=4, duration=10), config)
        update_profile(profile, video_event(watch=8, duration=10, ts=1), config)
        assert profile.buckets[0].count == 2
        assert profile.buckets[0].mean == pytest.approx(0.6, abs=1e-15)

    def test_ecommerce_leaves_stats(self):
        config = LabelingConfig()
        profile = UserProfile("u1")
        update_profile(profile, ecom_event(clicked=True), config)
        update_profile(profile, ecom_event(clicked=False, ts=1), config)
        assert profile.buckets == {}

    def test_unclicked_video_leaves_stats(self):
        config = LabelingConfig()
        profile = UserProfile("u1")
        update_profile(profile, video_event(clicked=False, watch=0.0), config)
        assert profile.buckets == {}

    def test_user_mismatch(self):
        with pytest.raises(ValueError):
            update_profile(UserProfile("u2"), video_event(user="u1"), LabelingConfig())

    def test_running_mean_matches_batch_mean(self, rng):
        """1,000 random ratios: incremental mean vs full recomputation."""
        config = LabelingConfig(duration_bucket_edges=())
        profile = UserProfile("u1")
        ratios = []
        for ts in range(1000):
            duration = float(rng.uniform(10, 600))
            watch = float(rng.uniform(0, 1.2) * duration)
            event = video_event(ts=ts, watch=watch, duration=duration)
            update_profile(profile, event, config)
            ratios.append(min(watch / duration, 1.0))
        assert profile.buckets[0].mean == pytest.approx(float(np.mean(ratios)), abs=1e-12)

    def test_bucketing_by_duration(self):
        config = LabelingConfig(duration_bucket_edges=(60.0, 300.0))
        profile = UserProfile("u1")
        update_profile(profile, video_event(watch=10, duration=30), config)
        update_profile(profile, video_event(watch=10, duration=120, ts=1), config)
        update_profile(profile, video_event(watch=10, duration=400, ts=2), config)
        assert [profile.buckets[b].count for b in range(3)] == [1, 1, 1]


class TestLabelRule:
    """The rule for one event, run by the pipeline's labeler (``label_one``)."""

    def test_ecommerce_purchase_positive(self):
        sample = label_one(ecom_event(actions=("purchase",)), LabelingConfig())
        assert sample.label is Label.POSITIVE

    def test_ecommerce_bare_click_tolerance(self):
        sample = label_one(ecom_event(), LabelingConfig())
        assert sample.label is Label.TOLERANCE
        assert sample.beta == 0.0

    def test_ecommerce_no_click_negative(self):
        sample = label_one(ecom_event(clicked=False), LabelingConfig())
        assert sample.label is Label.NEGATIVE

    def test_ecommerce_video_action_does_not_promote(self):
        sample = label_one(ecom_event(actions=("like",)), LabelingConfig())
        assert sample.label is Label.TOLERANCE

    def test_video_below_average_tolerance_with_beta(self):
        config = LabelingConfig(duration_bucket_edges=())
        sample = label_one(video_event(watch=3, duration=10), config, 5, 0.6)
        assert sample.label is Label.TOLERANCE
        assert sample.beta == pytest.approx(0.5)

    def test_video_unclicked_negative(self):
        sample = label_one(video_event(clicked=False, watch=0.0), LabelingConfig())
        assert sample.label is Label.NEGATIVE

    def test_exact_tie_is_positive(self):
        config = LabelingConfig(duration_bucket_edges=())
        sample = label_one(video_event(watch=6, duration=10), config, 5, 0.6)
        assert sample.label is Label.POSITIVE

    def test_action_promotes_under_ratio_or_action(self):
        config = LabelingConfig(duration_bucket_edges=())
        event = video_event(watch=1, duration=10, actions=("like",))
        assert label_one(event, config, 5, 0.9).label is Label.POSITIVE

    def test_action_ignored_under_ratio_only(self):
        config = LabelingConfig(
            rule_mode=RuleMode.RATIO_ONLY, duration_bucket_edges=()
        )
        event = video_event(watch=1, duration=10, actions=("like",))
        assert label_one(event, config, 5, 0.9).label is Label.TOLERANCE

    def test_ecommerce_action_on_video_does_not_promote(self):
        config = LabelingConfig(duration_bucket_edges=())
        event = video_event(watch=1, duration=10, actions=("cart",))
        assert label_one(event, config, 5, 0.9).label is Label.TOLERANCE

    def test_short_history_falls_back_to_global(self):
        config = LabelingConfig(duration_bucket_edges=())
        # Two ratios, below min_history=5: 0.4 >= global 0.3, not < 0.9.
        sample = label_one(video_event(watch=4, duration=10), config, 2, 0.9, 0.3)
        assert sample.label is Label.POSITIVE

    def test_population_beta_baseline(self):
        config = LabelingConfig(
            duration_bucket_edges=(), beta_baseline="population"
        )
        sample = label_one(video_event(watch=2, duration=10), config, 5, 0.8, 0.4)
        assert sample.label is Label.TOLERANCE
        assert sample.beta == pytest.approx(0.2 / 0.4)


class TestBeta:
    """Tolerance weights against the population baseline, where the bucket
    mean decides the label and the global mean grades the weight."""

    config = LabelingConfig(duration_bucket_edges=(), beta_baseline="population")

    def test_zero_global_mean(self):
        sample = label_one(video_event(watch=3, duration=10), self.config, 5, 0.6, 0.0)
        assert sample.label is Label.TOLERANCE
        assert sample.beta == 0.0

    def test_boundary_is_one(self):
        for average in np.linspace(0.1, 1.0, 10).tolist():
            event = video_event(watch=average, duration=1.0)
            sample = label_one(event, self.config, 5, average + 0.5, average)
            assert sample.label is Label.TOLERANCE
            assert sample.beta == 1.0

    def test_clamped(self):
        sample = label_one(video_event(watch=6, duration=10), self.config, 5, 0.9, 0.3)
        assert sample.label is Label.TOLERANCE
        assert sample.beta == 1.0
        sample = label_one(video_event(watch=0, duration=10), self.config, 5, 0.9, 0.3)
        assert sample.beta == 0.0


class TestLabelLog:
    def test_first_event_against_global_seed(self):
        events = [video_event(watch=4, duration=10, ts=100)]
        result = label_log(events, LabelingConfig(), LabelingMode.CAUSAL)
        assert result.samples[0].label is Label.TOLERANCE
        assert result.samples[0].beta == pytest.approx(0.4 / 0.5)

    def test_identical_ratios_loo_all_positive(self):
        events = [
            video_event(watch=3.0, duration=10.0, ts=t, item=f"i{t}")
            for t in range(10)
        ]
        result = label_log(events, LabelingConfig(), LabelingMode.LEAVE_ONE_OUT)
        assert all(s.label is Label.POSITIVE for s in result.samples)

    def test_unsorted_input_rejected(self):
        events = [
            video_event(ts=5, watch=1, duration=10),
            video_event(ts=1, watch=1, duration=10),
        ]
        with pytest.raises(ValueError, match="sorted"):
            label_log(events, LabelingConfig())

    def test_output_order_matches_input(self, rng):
        events = random_event_log(rng, n_events=200)
        result = label_log(events, LabelingConfig())
        for event, sample in zip(events, result.samples):
            assert (event.user_id, event.item_id, event.timestamp) == (
                sample.user_id,
                sample.item_id,
                sample.timestamp,
            )

    def test_partition_every_event_labeled_once(self, rng):
        events = random_event_log(rng, n_events=500)
        result = label_log(events, LabelingConfig())
        assert len(result.samples) == len(events)
        assert all(s.label in Label for s in result.samples)

    def test_causal_determinism(self, rng):
        events = random_event_log(rng, n_events=300)
        first = label_log(events, LabelingConfig())
        second = label_log(events, LabelingConfig())
        assert first.samples == second.samples
        assert first.global_mean == second.global_mean

    def test_simultaneous_events_do_not_see_each_other(self):
        """Two same-timestamp watches both label against the pre-instant
        state, not against one another."""
        config = LabelingConfig(duration_bucket_edges=(), min_history=1)
        events = [
            video_event(watch=2, duration=10, ts=50, item="a"),
            video_event(watch=9, duration=10, ts=100, item="b"),
            video_event(watch=8, duration=10, ts=100, item="c"),
        ]
        result = label_log(events, config)
        # After ts=50 the personal mean is 0.2; both ts=100 events compare
        # against 0.2 (positive), not against each other.
        assert result.samples[1].label is Label.POSITIVE
        assert result.samples[2].label is Label.POSITIVE

    def test_final_profiles_cover_full_history(self, rng):
        events = random_event_log(rng, n_events=200)
        causal = label_log(events, LabelingConfig(), LabelingMode.CAUSAL)
        loo = label_log(events, LabelingConfig(), LabelingMode.LEAVE_ONE_OUT)
        assert causal.global_mean == loo.global_mean
        assert set(causal.profiles) == set(loo.profiles)
        for user_id, profile in causal.profiles.items():
            other = loo.profiles[user_id]
            for bucket, stats in profile.buckets.items():
                assert other.buckets[bucket].count == stats.count
                assert other.buckets[bucket].mean == stats.mean

    @pytest.mark.parametrize("rule", [RuleMode.RATIO_OR_ACTION, RuleMode.RATIO_ONLY])
    def test_matches_brute_force_oracle(self, rule):
        config = LabelingConfig(rule_mode=rule)
        for seed in range(5):
            events = random_event_log(np.random.default_rng(seed), n_events=600)
            expected = brute_force_causal_labels(events, config)
            got = label_log(events, config, LabelingMode.CAUSAL).samples
            assert got == expected

    def test_monotone_in_ratio_under_ratio_only(self):
        """Raising the watch ratio, profile held fixed, never demotes a
        positive back to tolerance."""
        config = LabelingConfig(
            rule_mode=RuleMode.RATIO_ONLY, duration_bucket_edges=()
        )
        previous_positive = False
        for ratio in np.linspace(0.0, 1.0, 101):
            event = video_event(watch=float(ratio) * 10.0, duration=10.0)
            label = label_one(event, config, 8, 0.55).label
            if previous_positive:
                assert label is Label.POSITIVE
            previous_positive = label is Label.POSITIVE

    def test_beta_bounds_and_limit(self, rng):
        """All betas lie in [0, 1] and approach 1 as the ratio approaches
        the personal average from below."""
        events = random_event_log(rng, n_events=800)
        result = label_log(events, LabelingConfig())
        betas = [s.beta for s in result.samples if s.label is Label.TOLERANCE]
        assert betas and all(0.0 <= b <= 1.0 for b in betas)
        config = LabelingConfig(duration_bucket_edges=())
        last = 0.0
        for ratio in np.linspace(0.1, 0.599, 20):
            event = video_event(watch=float(ratio) * 10, duration=10.0)
            sample = label_one(event, config, 5, 0.6)
            assert sample.beta >= last
            last = sample.beta
        assert last > 0.99

    def test_population_baseline_in_leave_one_out(self):
        """With the population baseline, a tolerance weight divides by the
        leave-one-out global mean even when personal history is long."""
        watches = {"a": [9.0, 9.0, 9.0, 9.0], "b": [2.0, 4.0, 2.0, 4.0]}
        events = sorted(
            (
                video_event(user=u, item=f"{u}{t}", ts=t, watch=w, duration=10)
                for u, series in watches.items()
                for t, w in enumerate(series)
            ),
            key=lambda e: (e.user_id, e.timestamp),
        )

        def run(baseline):
            config = LabelingConfig(
                duration_bucket_edges=(), min_history=2, beta_baseline=baseline
            )
            result = label_log(events, config, LabelingMode.LEAVE_ONE_OUT)
            return [s for s in result.samples if s.label is Label.TOLERANCE]

        # b's 0.2-ratio events fall below b's leave-one-out mean of 1/3.
        population = run("population")
        assert [s.user_id for s in population] == ["b", "b"]
        loo_global = (4 * 0.9 + 0.4 + 0.2 + 0.4) / 7
        for sample in population:
            assert sample.beta == pytest.approx(0.2 / loo_global)
        personal = run("user")
        for sample in personal:
            assert sample.beta == pytest.approx(0.2 / (1 / 3))

    def test_loo_matches_reference_bit_for_bit(self):
        """Leave-one-out labels, betas, profiles and global mean equal the
        per-event rescan exactly, on sparse and dense logs and edge cases."""
        for name, events in oracle_logs().items():
            for config in ORACLE_CONFIGS:
                case = (name, config)
                expected = reference_label_leave_one_out(events, config)
                got = label_log(events, config, LabelingMode.LEAVE_ONE_OUT)
                assert got.samples == expected.samples, case
                assert got.global_mean == expected.global_mean, case
                assert got.profiles == expected.profiles, case

    def test_causal_matches_reference_bit_for_bit(self):
        """Causal labels, betas, profiles and global mean equal the per-event
        loop exactly, fed whole, a day at a time and an instant at a time;
        both modes end in the same profiles and global mean."""
        for name, events in oracle_logs().items():
            days, instants = {}, {}
            for event in events:
                days.setdefault(event.timestamp // 86_400, []).append(event)
                instants.setdefault(event.timestamp, []).append(event)
            feeds = {
                "whole": [events],
                "days": [days[d] for d in sorted(days)],
                "instants": [instants[t] for t in sorted(instants)],
            }
            for config in ORACLE_CONFIGS:
                for feed, batches in feeds.items():
                    case = (name, feed, config)
                    labeler = CausalLabeler(config)
                    reference = CausalLabeler(config)
                    for batch in batches:
                        got = labeler.extend(batch)
                        assert got == reference_causal_extend(reference, batch), case
                    assert labeler.profiles == reference.profiles, case
                    assert labeler.global_mean == reference.global_mean, case
                causal = label_log(events, config, LabelingMode.CAUSAL)
                loo = label_log(events, config, LabelingMode.LEAVE_ONE_OUT)
                assert causal.profiles == loo.profiles == reference.profiles, name
                assert causal.global_mean == loo.global_mean, name
                assert loo.global_mean == reference.global_mean, name

    @pytest.mark.parametrize("mode", list(LabelingMode))
    def test_beta_outside_unit_interval_rejected(self, mode):
        """With no ratio cap, an infinite ratio makes the next running mean
        inf - inf = NaN, so the following event's beta is NaN: the batch
        fails as a LabeledSample with that beta would."""
        config = LabelingConfig(
            ratio_cap=float("inf"), min_history=1, duration_bucket_edges=()
        )
        events = [
            video_event(ts=0, item="a", watch=1e308, duration=1e-10),
            video_event(ts=1, item="b", watch=1.0, duration=10.0),
            video_event(ts=2, item="c", watch=1.0, duration=10.0),
        ]
        with pytest.raises(ValueError, match=r"beta nan outside \[0, 1\]"):
            label_log(events, config, mode)
        with pytest.raises(ValueError, match=r"beta nan outside \[0, 1\]"):
            reference_causal_extend(CausalLabeler(config), events)

    def test_extend_rejects_time_overlap(self):
        labeler = CausalLabeler(LabelingConfig())
        labeler.extend([video_event(ts=100, watch=1, duration=10)])
        with pytest.raises(ValueError, match="not after"):
            labeler.extend([video_event(ts=100, watch=2, duration=10)])

    def test_extend_in_batches_matches_single_pass(self, rng):
        events = random_event_log(rng, n_events=400)
        whole = label_log(events, LabelingConfig()).samples
        cut = max(e.timestamp for e in events) // 2
        early = sorted(
            (e for e in events if e.timestamp <= cut),
            key=lambda e: (e.user_id, e.timestamp),
        )
        late = sorted(
            (e for e in events if e.timestamp > cut),
            key=lambda e: (e.user_id, e.timestamp),
        )
        labeler = CausalLabeler(LabelingConfig())
        got = labeler.extend(early) + labeler.extend(late)
        key = lambda s: (s.user_id, s.timestamp, s.item_id, s.label.value, s.beta)
        assert sorted(got, key=key) == sorted(whole, key=key)


def random_lists(rng, n_lists=30):
    """(starting (count, mean), ratios, timestamps) of (user, bucket) lists:
    lengths 0-40, mostly nonzero starting state, ratios often repeated from
    a small pool, and runs of equal timestamps."""
    pool = rng.uniform(0.0, 1.0, 4).tolist()
    lists = []
    for _ in range(n_lists):
        length = int(rng.integers(0, 41))
        ratios = [
            pool[int(rng.integers(len(pool)))] if rng.random() < 0.5 else float(rng.random())
            for _ in range(length)
        ]
        timestamps = np.cumsum(rng.integers(0, 2, length)) + 100
        count = int(rng.integers(0, 9))
        start = (count, float(rng.random()) if count else 0.0)
        lists.append((start, ratios, timestamps))
    return lists


class TestListMeans:
    """The batched (user, bucket) running means against reference_push,
    one ratio at a time, compared with == on the floats."""

    @pytest.mark.parametrize("seed", range(6))
    def test_causal_reads_before_each_instant(self, seed):
        lists = random_lists(np.random.default_rng(seed))
        lengths = np.array([len(ratios) for _, ratios, _ in lists])
        stats = [BucketStats(*start) for start, _, _ in lists]
        count, mean = _list_means(
            stats, np.array([r for _, ratios, _ in lists for r in ratios]), lengths, False
        )
        starts = (np.cumsum(lengths) - lengths)[lengths > 0]
        first = _first_of_instant(np.concatenate([t for *_, t in lists]), starts)
        expected, finals = [], []
        for start, ratios, timestamps in lists:
            pushed = BucketStats(*start)
            for i, ratio in enumerate(ratios):
                if i == 0 or timestamps[i] != timestamps[i - 1]:
                    state = (pushed.count, pushed.mean)
                expected.append(state)
                reference_push(pushed, ratio)
            finals.append(pushed)
        assert list(zip(count[first].tolist(), mean[first].tolist())) == expected
        assert stats == finals

    @pytest.mark.parametrize("seed", range(6))
    def test_leave_one_out_skips_each_ratio(self, seed):
        lists = random_lists(np.random.default_rng(seed))
        lengths = np.array([len(ratios) for _, ratios, _ in lists])
        stats = [BucketStats(*start) for start, _, _ in lists]
        count, mean = _list_means(
            stats, np.array([r for _, ratios, _ in lists for r in ratios]), lengths, True
        )
        expected, finals = [], []
        for start, ratios, _ in lists:
            for skip in range(len(ratios)):
                pushed = BucketStats(*start)
                for i, ratio in enumerate(ratios):
                    if i != skip:
                        reference_push(pushed, ratio)
                expected.append((pushed.count, pushed.mean))
            finals.append(BucketStats(*start))
            for ratio in ratios:
                reference_push(finals[-1], ratio)
        assert list(zip(count.tolist(), mean.tolist())) == expected
        assert stats == finals


#: random_event_log shapes: many users with short histories, few users with
#: long ones, and most events in a handful of instants.
SWEEP_SHAPES = {
    "sparse": dict(n_events=240, n_users=120, ts_slots=100),
    "dense": dict(n_events=240, n_users=6, ts_slots=100),
    "one-instant": dict(n_events=240, n_users=20, ts_slots=3),
}


@pytest.mark.parametrize("seed", range(8))
def test_causal_sweep_matches_reference(seed):
    """Causal labels, profiles and global mean equal the per-event loop on
    each log shape and config, fed whole, a quarter of the log's time span
    at a time (as the simulator feeds a day), and an instant at a time."""
    for index, (shape, options) in enumerate(SWEEP_SHAPES.items()):
        events = random_event_log(np.random.default_rng([seed, index]), **options)
        period = 30 * options["ts_slots"] // 4 + 1
        feeds = {"whole": [events]}
        for feed, key in (("periods", period), ("instants", 1)):
            batches: dict[int, list] = {}
            for event in events:
                batches.setdefault(event.timestamp // key, []).append(event)
            feeds[feed] = [batches[b] for b in sorted(batches)]
        for config in ORACLE_CONFIGS:
            for feed, batches in feeds.items():
                case = (seed, shape, feed, config)
                labeler, reference = CausalLabeler(config), CausalLabeler(config)
                for batch in batches:
                    assert labeler.extend(batch) == reference_causal_extend(reference, batch), case
                assert labeler.profiles == reference.profiles, case
                assert labeler.global_mean == reference.global_mean, case


def test_integer_numbers_label_and_analyze_like_floats(tmp_path, rng):
    """One log written with integer watch and duration times (``3``, ``10``)
    and again with floats (``3.0``, ``10.0``) gives the same bytes of samples
    and profiles in both modes, and an equal cohort report."""

    def written(events, kind):
        return [
            replace(e, watch_duration=kind(round(e.watch_duration)),
                    item_duration=kind(round(e.item_duration)))
            if e.platform is Platform.VIDEO else e
            for e in events
        ]

    events = random_event_log(rng, n_events=600, n_users=30)
    cohort = CohortConfig(TimeWindow(0, 6000), TimeWindow(6000, 12000), Platform.VIDEO)
    outputs = {}
    for kind in (int, float):
        path = tmp_path / f"{kind.__name__}.jsonl"
        write_events(path, written(events, kind))
        ingested = ingest_log(path).events
        assert {type(e.item_duration) for e in ingested if e.item_duration} == {kind}
        outputs[kind] = [analyze(ingested, cohort)]
        for mode in LabelingMode:
            result = label_log(ingested, LabelingConfig(), mode)
            write_samples(tmp_path / "samples.jsonl", result.samples)
            write_profiles(tmp_path / "profiles.jsonl", result.profiles)
            outputs[kind] += [(tmp_path / name).read_bytes()
                              for name in ("samples.jsonl", "profiles.jsonl")]
    assert not outputs[int][0].empty
    assert outputs[int] == outputs[float]


class TestSampleSerialization:
    def test_round_trip(self):
        samples = [
            LabeledSample("u1", "i1", 5, Label.POSITIVE),
            LabeledSample("u1", "i2", 6, Label.TOLERANCE, beta=0.25),
            LabeledSample("u2", "i1", 7, Label.NEGATIVE),
        ]
        for sample in samples:
            assert parse_sample(sample_to_json(sample)) == sample

    def test_beta_only_on_tolerance(self):
        with pytest.raises(ValueError):
            LabeledSample("u1", "i1", 1, Label.POSITIVE, beta=0.5)
        with pytest.raises(ValueError):
            LabeledSample("u1", "i1", 1, Label.TOLERANCE)

    def test_read_shares_each_id_within_a_read_only(self, tmp_path):
        """One string per distinct id across a read's samples, and none shared
        with another read of the same file."""
        events = sorted(
            generate_fixture_events(n_events=500, n_users=40, n_items=60, seed=12),
            key=lambda e: (e.user_id, e.timestamp),
        )
        path = tmp_path / "samples.jsonl"
        write_samples(path, label_log(events, LabelingConfig()).samples)
        first, second = read_samples(path), read_samples(path)
        assert first == second
        for name in ("user_id", "item_id"):
            values = [getattr(sample, name) for sample in first]
            assert len(set(map(id, values))) == len(set(values)) < len(values), name
        for a, b in zip(first, second):
            assert a.user_id is not b.user_id and a.item_id is not b.item_id

    def test_samples_hold_their_events_ids(self, rng):
        events = random_event_log(rng, n_events=200)
        for mode in LabelingMode:
            samples = label_log(events, LabelingConfig(), mode).samples
            for event, sample in zip(events, samples):
                assert sample.user_id is event.user_id and sample.item_id is event.item_id


    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"item":"i1","ts":5,"label":"P"}', "line 3: missing key 'user'"),
            ('{"user":"u1","item":"i1","ts":5}', "line 3: missing key 'label'"),
            ('{"user":5,"item":"i1","ts":5,"label":"P"}', "line 3: user and item must be strings"),
            ('{"user":"u1","item":null,"ts":5,"label":"P"}', "line 3: user and item must be strings"),
            ('{"user":"u1","item":"i1","ts":"x","label":"P"}', "line 3: ts must be an integer"),
            ('{"user":"u1","item":"i1","ts":true,"label":"P"}', "line 3: ts must be an integer"),
            ('{"user":"u1","item":"i1","ts":5,"label":"X"}', "line 3: unknown label 'X'"),
            ('{"user":"u1","item":"i1","ts":5,"label":["T"]}', "line 3: unknown label ['T']"),
            (
                '{"user":"u1","item":"i1","ts":5,"label":"P","beta":0.5}',
                "line 3: beta given for label 'P'",
            ),
            ('{"user":"u1","item":"i1","ts":5,"label":"T"}', "line 3: label 'T' needs a beta"),
            (
                '{"user":"u1","item":"i1","ts":5,"label":"T","beta":1.5}',
                "line 3: beta 1.5 outside [0, 1]",
            ),
            (
                '{"user":"u1","item":"i1","ts":5,"label":"T","beta":NaN}',
                "line 3: beta nan outside [0, 1]",
            ),
            (
                '{"user":"u1","item":"i1","ts":5,"label":"T","beta":"0.5"}',
                "line 3: beta '0.5' outside [0, 1]",
            ),
            ('{"user":"u1"', "line 3: invalid JSON"),
            # A valid record and more than whitespace after it.
            *(
                (
                    '{"user":"u1","item":"i1","ts":5,"label":"P"}' + after,
                    "line 3: invalid JSON (Extra data at column 45)",
                )
                for after in ["x", '{"user":"u1"}', "\x0c", "\u3000", ","]
            ),
            ('["u1","i1",5,"P"]', "line 3: record must be a JSON object"),
            (
                '{"user":"u1","item":"i1","ts":5,"label":"P","bta":0.5}',
                "line 3: unknown keys ['bta']",
            ),
            # As in an event file, an unknown key is named before a missing one.
            ('{"user":"u1","item":"i1","ts":5,"bta":0.5}', "line 3: unknown keys ['bta']"),
            (
                '{"user":"u1","item":"i1","ts":' + "5" * 5001 + ',"label":"P"}',
                "line 3: invalid JSON (number with too many digits)",
            ),
        ],
        ids=long_value_id,
    )
    def test_read_rejects_naming_line(self, tmp_path, record, message):
        good = sample_to_json(LabeledSample("u1", "i1", 1, Label.NEGATIVE))
        path = tmp_path / "samples.jsonl"
        path.write_text(f"{good}\n\n{record}\n{good}\n")
        with pytest.raises(EventParseError) as caught:
            read_samples(path)
        assert str(caught.value).startswith(message)
        assert caught.value.line_number == 3


#: The metamorphic relations' rename and shift: one prefix before every id
#: keeps the ids' order, and the shift is off the log's 30 s grid.
PREFIX = "renamed/"
SHIFT = 7_777_777


def _renamed(records):
    return [replace(r, user_id=PREFIX + r.user_id, item_id=PREFIX + r.item_id) for r in records]


def _shifted(records):
    return [replace(r, timestamp=r.timestamp + SHIFT) for r in records]


@pytest.mark.parametrize("mode", list(LabelingMode))
def test_order_preserving_rename_renames_the_labels_only(mode):
    """The same prefix before every user and item id gives the same labels,
    betas and times under the new ids, and the same profiles and global mean."""
    events = metamorphic_log()
    base = label_log(events, LabelingConfig(), mode)
    renamed = label_log(_renamed(events), LabelingConfig(), mode)
    assert renamed.samples == _renamed(base.samples)
    assert renamed.profiles == {
        PREFIX + user: replace(profile, user_id=PREFIX + user)
        for user, profile in base.profiles.items()
    }
    assert renamed.global_mean == base.global_mean


def test_order_preserving_rename_trains_the_same_table():
    samples = label_log(metamorphic_log(), LabelingConfig()).samples
    config = TrainConfig(objective=Objective.TOLERANCE_AS_WEAK_POSITIVE, epochs=2)
    base, renamed = train(samples, config).model, train(_renamed(samples), config).model
    assert renamed.users == {PREFIX + user: row for user, row in base.users.items()}
    assert renamed.items == {PREFIX + item: row for item, row in base.items.items()}
    assert renamed.table.tobytes() == base.table.tobytes()
    assert renamed.global_bias == base.global_bias


@pytest.mark.parametrize("mode", list(LabelingMode))
def test_timestamp_shift_moves_the_sample_times_only(mode):
    """A constant added to every timestamp keeps every label, beta, profile
    and the global mean, and moves every sample's time by that constant."""
    events = metamorphic_log()
    base = label_log(events, LabelingConfig(), mode)
    shifted = label_log(_shifted(events), LabelingConfig(), mode)
    assert shifted.samples == _shifted(base.samples)
    assert shifted.profiles == base.profiles
    assert shifted.global_mean == base.global_mean
