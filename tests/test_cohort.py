import numpy as np
import pytest

from tolrec.cohort import (
    CohortConfig,
    CohortReport,
    analyze,
    engagement,
    tolerance_stat,
    write_plot_data,
)
from tolrec.events import InteractionEvent, Platform, TimeWindow
from tolrec.labeling import LabelingConfig

from conftest import random_event_log


def ecom(user, ts, clicked=True, actions=()):
    return InteractionEvent(
        user_id=user,
        item_id=f"i{ts}",
        timestamp=ts,
        platform=Platform.ECOMMERCE,
        clicked=clicked,
        followup_actions=frozenset(actions),
    )


def video(user, ts, ratio, clicked=True, duration=100.0):
    return InteractionEvent(
        user_id=user,
        item_id=f"v{ts}",
        timestamp=ts,
        platform=Platform.VIDEO,
        clicked=clicked,
        watch_duration=ratio * duration if clicked else 0.0,
        item_duration=duration,
    )


REF = TimeWindow(0, 100)
INV = TimeWindow(100, 200)


class TestEngagement:
    def test_counts_only_inside_window(self):
        events = [ecom("u1", ts) for ts in range(10)] + [
            ecom("u1", ts) for ts in range(100, 105)
        ]
        assert engagement(events, REF, Platform.ECOMMERCE) == 10

    def test_zero_events(self):
        assert engagement([], REF, Platform.ECOMMERCE) == 0

    def test_non_clicks_do_not_count(self):
        events = [ecom("u1", 1), ecom("u1", 2, clicked=False), ecom("u1", 3)]
        assert engagement(events, REF, Platform.ECOMMERCE) == 2

    def test_matches_independent_filter(self, rng):
        events = [e for e in random_event_log(rng, n_events=400) if e.user_id == "u001"]
        window = TimeWindow(0, 6000)
        expected = sum(
            1
            for e in events
            if e.platform is Platform.VIDEO
            and e.clicked
            and window.start <= e.timestamp < window.end
        )
        assert engagement(events, window, Platform.VIDEO) == expected

    def test_min_watch_seconds_threshold(self):
        events = [video("u1", 1, ratio=0.05, duration=100.0), video("u1", 2, ratio=0.5)]
        assert engagement(events, REF, Platform.VIDEO) == 2
        assert engagement(events, REF, Platform.VIDEO, min_watch_seconds=10.0) == 1


class TestToleranceStat:
    def test_ecommerce_counts_bare_clicks(self):
        events = [
            ecom("u1", 1),
            ecom("u1", 2),
            ecom("u1", 3),
            ecom("u1", 4, actions=("purchase",)),
            ecom("u1", 5, actions=("cart",)),
        ]
        assert tolerance_stat(events, REF, Platform.ECOMMERCE, LabelingConfig()) == 3.0

    def test_video_mean_ratio(self):
        events = [video("u1", 1, 0.2), video("u1", 2, 0.4)]
        stat = tolerance_stat(events, REF, Platform.VIDEO, LabelingConfig())
        assert stat == pytest.approx(0.3)

    def test_video_no_engagement_undefined(self):
        events = [video("u1", 1, 0.0, clicked=False)]
        assert tolerance_stat(events, REF, Platform.VIDEO, LabelingConfig()) is None

    def test_matches_independent_recomputation(self, rng):
        log = random_event_log(rng, n_events=500)
        window = TimeWindow(0, 9000)
        config = LabelingConfig()
        users = sorted({e.user_id for e in log})
        for user in users[:10]:
            events = [e for e in log if e.user_id == user]
            got = tolerance_stat(events, window, Platform.VIDEO, config)
            ratios = [
                min(e.watch_duration / e.item_duration, 1.0)
                for e in events
                if e.platform is Platform.VIDEO
                and e.clicked
                and window.start <= e.timestamp < window.end
            ]
            if not ratios:
                assert got is None
            else:
                assert got == pytest.approx(float(np.mean(ratios)), abs=1e-12)


class TestAnalyze:
    def config(self, platform=Platform.ECOMMERCE, edges=()):
        return CohortConfig(
            reference=REF,
            investigation=INV,
            platform=platform,
            bucket_edges=edges,
        )

    def test_strict_decrease_is_decline(self):
        events = [ecom("u1", ts) for ts in range(10)] + [
            ecom("u1", ts) for ts in range(100, 104)
        ]
        report = analyze(events, self.config(), LabelingConfig())
        assert report.considered == 1
        total_declines = sum(b.declines for b in report.buckets)
        assert total_declines == 1

    def test_tie_is_not_decline(self):
        events = [ecom("u1", ts) for ts in range(5)] + [
            ecom("u1", ts) for ts in range(100, 105)
        ]
        report = analyze(events, self.config(), LabelingConfig())
        assert report.considered == 1
        assert sum(b.declines for b in report.buckets) == 0

    def test_exclusion_accounting(self, rng):
        events = random_event_log(rng, n_events=600, ts_slots=10)
        config = CohortConfig(
            reference=TimeWindow(0, 150),
            investigation=TimeWindow(150, 300),
            platform=Platform.VIDEO,
        )
        report = analyze(events, config, LabelingConfig())
        assert report.considered + report.excluded == len({e.user_id for e in events})
        assert sum(b.users for b in report.buckets) == report.considered

    def test_window_independence(self):
        base = [ecom("u1", ts) for ts in range(10)] + [
            ecom("u1", ts) for ts in range(100, 104)
        ]
        noise = [ecom("u1", ts) for ts in range(500, 520)]
        first = analyze(base, self.config(), LabelingConfig())
        second = analyze(base + noise, self.config(), LabelingConfig())
        assert first.buckets == second.buckets

    def test_permutation_invariance(self, rng):
        events = random_event_log(rng, n_events=400, ts_slots=10)
        config = CohortConfig(
            reference=TimeWindow(0, 150),
            investigation=TimeWindow(150, 300),
            platform=Platform.VIDEO,
        )
        first = analyze(events, config, LabelingConfig())
        shuffled = list(events)
        rng.shuffle(shuffled)  # type: ignore[arg-type]
        second = analyze(shuffled, config, LabelingConfig())
        assert first.buckets == second.buckets

    def test_empty_report_flagged(self):
        events = [ecom("u1", 1, clicked=False)]
        report = analyze(events, self.config(), LabelingConfig())
        assert report.empty
        assert report.considered == 0
        assert report.excluded == 1

    def test_invalid_windows_rejected(self):
        with pytest.raises(ValueError):
            CohortConfig(
                reference=TimeWindow(0, 150),
                investigation=TimeWindow(100, 300),
                platform=Platform.VIDEO,
            )

    @pytest.mark.parametrize(
        "edges", [(0.5, float("nan")), (float("nan"),), (0.5, 0.5), (0.9, 0.5)]
    )
    def test_rejects_nan_or_unordered_edges(self, edges):
        with pytest.raises(ValueError, match="bucket_edges"):
            self.config(Platform.VIDEO, edges)

    @pytest.mark.parametrize("platform", ["video", "ecommerce", None])
    def test_rejects_platform_that_is_not_a_platform(self, platform):
        """A string platform used to construct and match no event, so every
        user was silently excluded."""
        with pytest.raises(ValueError, match="platform"):
            self.config(platform)

    @pytest.mark.parametrize("seconds", [float("nan"), -5.0, -float("inf")])
    def test_rejects_nan_or_negative_min_watch_seconds(self, seconds):
        with pytest.raises(ValueError, match="min_watch_seconds"):
            CohortConfig(
                reference=REF,
                investigation=INV,
                platform=Platform.VIDEO,
                min_watch_seconds=seconds,
            )

    def test_accepts_zero_and_infinite_min_watch_seconds(self):
        for seconds in (0.0, float("inf")):
            config = CohortConfig(
                reference=REF,
                investigation=INV,
                platform=Platform.VIDEO,
                min_watch_seconds=seconds,
            )
            assert config.min_watch_seconds == seconds

    def test_accepts_infinite_edge(self):
        assert self.config(edges=(10.0, float("inf"))).effective_edges[-1] == float("inf")

    def test_video_panel_declines_fall_as_ratio_rises(self, rng):
        """Higher mean watch ratio means less tolerance, so on synthetic
        video logs built that way the decline proportion is non-increasing
        across ascending ratio buckets."""
        events = []
        levels = [(0.15, 0.85), (0.35, 0.6), (0.55, 0.4), (0.75, 0.2), (0.95, 0.05)]
        for level, (ratio, p_decline) in enumerate(levels):
            for k in range(200):
                user = f"r{level}u{k:03d}"
                for t in range(8):
                    events.append(video(user, t, ratio))
                declined = rng.random() < p_decline
                for t in range(100, 100 + (4 if declined else 9)):
                    events.append(video(user, t, ratio))
        config = CohortConfig(
            reference=REF,
            investigation=INV,
            platform=Platform.VIDEO,
            bucket_edges=(0.25, 0.45, 0.65, 0.85),
        )
        report = analyze(events, config, LabelingConfig())
        proportions = [b.decline_proportion for b in report.buckets]
        assert all(b.users == 200 for b in report.buckets)
        assert all(b <= a for a, b in zip(proportions, proportions[1:]))

    def test_synthetic_monotone_decline(self, rng):
        """Users built with decline probability increasing in their injected
        tolerance count produce non-decreasing proportions across buckets."""
        events = []
        decline_probs = {0: 0.1, 1: 0.35, 2: 0.6, 3: 0.85}
        edges = (5.0, 15.0, 30.0)
        counts = {0: 2, 1: 10, 2: 20, 3: 40}
        for bucket, tolerance_count in counts.items():
            for k in range(150):
                user = f"b{bucket}u{k:03d}"
                for t in range(tolerance_count):
                    events.append(ecom(user, t))
                for t in range(tolerance_count, tolerance_count + 5):
                    events.append(ecom(user, t, actions=("purchase",)))
                ref_engagement = tolerance_count + 5
                declines = rng.random() < decline_probs[bucket]
                inv_count = ref_engagement - 3 if declines else ref_engagement
                for t in range(inv_count):
                    events.append(ecom(user, 100 + t))
        report = analyze(
            events,
            self.config(edges=edges),
            LabelingConfig(),
        )
        proportions = [b.decline_proportion for b in report.buckets if b.users]
        assert len(proportions) == 4
        assert all(b >= a for a, b in zip(proportions, proportions[1:]))


class TestReportFiles:
    def test_plot_data_shape(self, tmp_path):
        report = CohortReport(buckets=[], considered=0, excluded=0)
        path = tmp_path / "plot.csv"
        write_plot_data(path, report)
        assert path.read_text().splitlines()[0] == "x,y"
