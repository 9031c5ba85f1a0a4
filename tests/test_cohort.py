from collections import Counter
from dataclasses import replace
from functools import partial
from itertools import product

import numpy as np
import pytest

from tolrec.cohort import (
    CohortConfig,
    CohortReport,
    analyze,
    write_plot_data,
)
from tolrec.events import InteractionEvent, Platform, TimeWindow
from tolrec.fixtures import generate_fixture_events
from tolrec.labeling import LabelingConfig

from conftest import metamorphic_log, random_event_log
from oracles import reference_analyze


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


UNIT_EDGES = tuple(float(k) for k in range(1, 40))


def unit_config(platform=Platform.ECOMMERCE, edges=UNIT_EDGES, min_watch_seconds=0.0):
    return CohortConfig(REF, INV, platform, edges, min_watch_seconds)


def occupied(report):
    """{bucket index: (users, declines)} over the buckets that hold users.
    Under UNIT_EDGES an e-commerce user's bucket index is their count of
    reference-window clicks with no positive action."""
    return {k: (b.users, b.declines) for k, b in enumerate(report.buckets) if b.users}


class TestTally:
    """What analyze counts per user, read back through the bucket (the
    reference statistic) and the decline (the two window engagements)."""

    def test_counts_only_inside_window(self):
        events = [ecom("u1", ts) for ts in range(10)] + [
            ecom("u1", ts) for ts in range(100, 105)
        ]
        report = analyze(events, unit_config())
        assert occupied(report) == {10: (1, 1)}

    def test_windows_are_half_open(self):
        # u1: reference {0, 50, 99}, investigation {100, 199}: a decline.
        # u2: reference {0, 99}, investigation {100, 199}: a tie.
        events = [ecom("u1", ts) for ts in (0, 50, 99, 100, 199, 200)] + [
            ecom("u2", ts) for ts in (0, 99, 100, 199)
        ]
        report = analyze(events, unit_config())
        assert occupied(report) == {2: (1, 0), 3: (1, 1)}

    def test_zero_events(self):
        report = analyze([], unit_config())
        assert report.empty and report.excluded == 0

    @pytest.mark.parametrize(
        "platform, make, bucket",
        [
            (Platform.ECOMMERCE, ecom, 2),
            (Platform.VIDEO, partial(video, ratio=0.5), 0),
        ],
    )
    def test_non_clicks_do_not_count(self, platform, make, bucket):
        # u1: two clicks in each window, a tie; u2: two then one, a decline.
        events = [
            make("u1", 1), make("u1", 2, clicked=False), make("u1", 3),
            make("u1", 100), make("u1", 101), make("u1", 102, clicked=False),
            make("u2", 1), make("u2", 3),
            make("u2", 100), make("u2", 101, clicked=False),
        ]
        report = analyze(events, unit_config(platform))
        assert occupied(report) == {bucket: (2, 1)}

    def test_min_watch_seconds_limits_engagement_not_statistic(self):
        # u1 watched 5 s of one reference video and 50 s of another; u2 only
        # the 5 s one. Both mean ratios count the short video. u3 watched
        # exactly the 10 s threshold in each window, which counts.
        events = [
            video("u1", 1, 0.05), video("u1", 2, 0.5), video("u1", 100, 0.5),
            video("u2", 1, 0.05), video("u2", 100, 0.5),
            video("u3", 1, 0.1), video("u3", 100, 0.1),
        ]
        every = analyze(events, unit_config(Platform.VIDEO, ()))
        assert occupied(every) == {0: (1, 0), 1: (1, 0), 2: (1, 1)}
        config = unit_config(Platform.VIDEO, (), min_watch_seconds=10.0)
        short_skipped = analyze(events, config)
        assert occupied(short_skipped) == {1: (1, 0), 2: (1, 0)}
        assert short_skipped.excluded == 1

    def test_ecommerce_counts_bare_clicks(self):
        events = [
            ecom("u1", 1),
            ecom("u1", 2),
            ecom("u1", 3),
            ecom("u1", 4, actions=("purchase",)),
            ecom("u1", 5, actions=("cart",)),
            ecom("u1", 6, actions=("like",)),
            video("u1", 7, 0.1),
        ]
        assert occupied(analyze(events, unit_config())) == {4: (1, 1)}

    def test_video_statistic_is_mean_ratio(self):
        # Mean 0.3; the median 0.2, the maximum 0.6 and a mean that took
        # the non-click's 0 would each land in another bucket.
        events = [
            video("u1", 1, 0.1),
            video("u1", 2, 0.2),
            video("u1", 3, 0.6),
            video("u1", 4, 0.0, clicked=False),
        ]
        config = unit_config(Platform.VIDEO, (0.25, 0.35))
        assert occupied(analyze(events, config)) == {1: (1, 1)}

    def test_no_reference_engagement_excluded(self):
        events = [
            ecom("kept", 1),
            ecom("investigation-only", 150),
            ecom("outside-both", 250),
            ecom("non-click", 1, clicked=False),
            video("other-platform", 1, 0.5),
        ]
        report = analyze(events, unit_config())
        assert occupied(report) == {1: (1, 1)}
        assert (report.considered, report.excluded) == (1, 4)


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
        report = analyze(events, self.config())
        assert report.considered == 1
        total_declines = sum(b.declines for b in report.buckets)
        assert total_declines == 1

    def test_tie_is_not_decline(self):
        events = [ecom("u1", ts) for ts in range(5)] + [
            ecom("u1", ts) for ts in range(100, 105)
        ]
        report = analyze(events, self.config())
        assert report.considered == 1
        assert sum(b.declines for b in report.buckets) == 0

    def test_exclusion_accounting(self, rng):
        events = random_event_log(rng, n_events=600, ts_slots=10)
        config = CohortConfig(
            reference=TimeWindow(0, 150),
            investigation=TimeWindow(150, 300),
            platform=Platform.VIDEO,
        )
        report = analyze(events, config)
        assert report.considered + report.excluded == len({e.user_id for e in events})
        assert sum(b.users for b in report.buckets) == report.considered

    def test_window_independence(self):
        base = [ecom("u1", ts) for ts in range(10)] + [
            ecom("u1", ts) for ts in range(100, 104)
        ]
        noise = [ecom("u1", ts) for ts in range(500, 520)]
        first = analyze(base, self.config())
        second = analyze(base + noise, self.config())
        assert first.buckets == second.buckets

    def test_permutation_invariance(self, rng):
        events = random_event_log(rng, n_events=400, ts_slots=10)
        config = CohortConfig(
            reference=TimeWindow(0, 150),
            investigation=TimeWindow(150, 300),
            platform=Platform.VIDEO,
        )
        first = analyze(events, config)
        shuffled = list(events)
        rng.shuffle(shuffled)  # type: ignore[arg-type]
        second = analyze(shuffled, config)
        assert first.buckets == second.buckets

    def test_empty_report_flagged(self):
        events = [ecom("u1", 1, clicked=False)]
        report = analyze(events, self.config())
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

    @pytest.mark.parametrize("cap", [0.0, -1.0, float("nan")])
    def test_rejects_ratio_cap_that_is_not_positive_as_labeling_does(self, cap):
        with pytest.raises(ValueError, match="^ratio_cap must be positive$"):
            replace(self.config(Platform.VIDEO), ratio_cap=cap)
        with pytest.raises(ValueError, match="^ratio_cap must be positive$"):
            LabelingConfig(ratio_cap=cap)

    def test_accepts_infinite_ratio_cap(self):
        config = replace(self.config(Platform.VIDEO), ratio_cap=float("inf"))
        assert config.ratio_cap == float("inf")

    def test_ratio_cap_bounds_a_rewatch(self):
        """A user whose one reference watch is a 1.5x rewatch is bucketed
        by the capped ratio: 1.0 at the default cap, 1.5 under a cap of 2."""
        events = [video("u1", 1, 1.5), video("u1", 100, 1.5)]
        config = self.config(Platform.VIDEO, (1.2,))
        for cap, label in ((1.0, "<1.2"), (2.0, ">=1.2")):
            report = analyze(events, replace(config, ratio_cap=cap))
            assert [b.label for b in report.buckets if b.users] == [label]

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
        report = analyze(events, config)
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
        report = analyze(events, self.config(edges=edges))
        proportions = [b.decline_proportion for b in report.buckets if b.users]
        assert len(proportions) == 4
        assert all(b >= a for a, b in zip(proportions, proportions[1:]))


DAY = 86_400


def _log(kind):
    """(events, reference, investigation), each window covering only part
    of the log so that some events fall outside both."""
    if kind == "fixture":
        events = generate_fixture_events(n_events=4000, seed=3)
        start = min(e.timestamp for e in events)
        reference = TimeWindow(start + DAY, start + 7 * DAY)
        return events, reference, TimeWindow(start + 7 * DAY, start + 12 * DAY)
    events = random_event_log(np.random.default_rng(kind), n_events=1500, ts_slots=20)
    return events, TimeWindow(60, 300), TimeWindow(300, 510)


def _stray_users(reference, investigation):
    """Users whose events are all on one platform, or all outside both
    windows: excluded from the analysis of the other platform, or of any."""
    return [
        ecom("zz-ecommerce-only", reference.start),
        video("zz-video-only", reference.start, 0.9),
        ecom("zz-outside", reference.start - 1),
        video("zz-outside", investigation.end, 0.9),
    ]


def _edges_through_a_statistic(events, config):
    """Custom edges, one of them equal to the reference statistic of the
    user with the most clicked reference events on the platform."""
    clicked = [
        e
        for e in events
        if e.platform is config.platform
        and e.clicked
        and config.reference.start <= e.timestamp < config.reference.end
    ]
    counts = Counter(e.user_id for e in clicked)
    user = max(sorted(counts), key=counts.__getitem__)
    mine = [e for e in clicked if e.user_id == user]
    if config.platform is Platform.ECOMMERCE:
        positive = {"cart", "favorite", "purchase"}
        bare = [e for e in mine if not e.followup_actions & positive]
        return tuple(sorted({1.0, float(len(bare)), 60.0}))
    ratios = [min(e.watch_duration / e.item_duration, config.ratio_cap) for e in mine]
    return tuple(sorted({0.25, sum(ratios) / len(ratios), 0.75}))


@pytest.mark.parametrize("platform", list(Platform))
@pytest.mark.parametrize("kind", [0, 1, 2, "fixture"])
def test_analyze_matches_reference(kind, platform):
    """The one-pass analyze gives the whole report of the per-user rescans
    it replaced, on sorted and shuffled input, with and without a watch
    threshold, under two ratio caps, and under default edges and edges
    through a user's statistic."""
    events, reference, investigation = _log(kind)
    events = events + _stray_users(reference, investigation)
    shuffled = list(events)
    np.random.default_rng(5).shuffle(shuffled)  # type: ignore[arg-type]
    for ratio_cap, min_watch_seconds in product((1.0, 1.2), (0.0, 30.0)):
        config = CohortConfig(
            reference, investigation, platform,
            min_watch_seconds=min_watch_seconds, ratio_cap=ratio_cap,
        )
        edges = _edges_through_a_statistic(events, config)
        for cohort_config, log in product(
            (config, replace(config, bucket_edges=edges)), (events, shuffled)
        ):
            got = analyze(log, cohort_config)
            assert got == reference_analyze(log, cohort_config), (
                cohort_config,
                log is shuffled,
            )
            assert got.considered > 0 and got.excluded >= 2


#: Windows over the metamorphic log's times (0 to 1770 s), with events
#: before, between and after them, and edges that spread its users over
#: several buckets of each platform.
METAMORPHIC_REF, METAMORPHIC_INV = TimeWindow(300, 900), TimeWindow(900, 1500)
METAMORPHIC_EDGES = {Platform.ECOMMERCE: (1.0, 2.0, 3.0), Platform.VIDEO: ()}


@pytest.mark.parametrize("platform", list(Platform))
def test_timestamp_shift_with_the_windows_keeps_the_report(platform):
    shift = 7_777_777
    events = metamorphic_log()
    config = CohortConfig(METAMORPHIC_REF, METAMORPHIC_INV, platform, METAMORPHIC_EDGES[platform])
    shifted = [replace(e, timestamp=e.timestamp + shift) for e in events]
    shifted_config = replace(
        config,
        reference=TimeWindow(METAMORPHIC_REF.start + shift, METAMORPHIC_REF.end + shift),
        investigation=TimeWindow(METAMORPHIC_INV.start + shift, METAMORPHIC_INV.end + shift),
    )
    report = analyze(events, config)
    assert report.considered > 0 and report.excluded > 0
    assert analyze(shifted, shifted_config) == report


@pytest.mark.parametrize("platform", list(Platform))
def test_user_disjoint_halves_add_up_to_the_whole(platform):
    """Each bucket's users and declines, and the considered and excluded
    counts, of the whole log are the sums over two user-disjoint halves."""
    events = metamorphic_log()
    config = CohortConfig(METAMORPHIC_REF, METAMORPHIC_INV, platform, METAMORPHIC_EDGES[platform])
    first = set(sorted({e.user_id for e in events})[::2])
    halves = [
        analyze([e for e in events if (e.user_id in first) is side], config)
        for side in (True, False)
    ]
    whole = analyze(events, config)
    assert [(b.users, b.declines) for b in whole.buckets] == [
        (a.users + b.users, a.declines + b.declines)
        for a, b in zip(halves[0].buckets, halves[1].buckets)
    ]
    assert whole.considered == halves[0].considered + halves[1].considered
    assert whole.excluded == halves[0].excluded + halves[1].excluded
    assert all(half.considered > 0 for half in halves)


class TestReportFiles:
    def test_plot_data_shape(self, tmp_path):
        report = CohortReport(buckets=[], considered=0, excluded=0)
        path = tmp_path / "plot.csv"
        write_plot_data(path, report)
        assert path.read_text().splitlines()[0] == "x,y"
