"""Reference-week vs investigation-week engagement decline analysis.

Users active in a reference window are bucketed by how much tolerance
behavior they showed there (click-without-action counts for e-commerce,
mean watch ratio for video), and each bucket reports the share of users
whose engagement strictly dropped in a later investigation window. Users
with no reference-window engagement are excluded and counted, since a
decline from zero is undefined.
"""

import csv
from bisect import bisect_right
from dataclasses import dataclass
from pathlib import Path

from .events import InteractionEvent, Platform, TimeWindow
from .labeling import (
    Label, LabelingConfig, UserProfile, check_edges, label_event, watch_ratio
)

#: Tolerance-count bucket edges for e-commerce: 0-9, 10-19, 20-49, 50+.
DEFAULT_ECOMMERCE_EDGES = (10.0, 20.0, 50.0)
#: Watch-ratio deciles for video.
DEFAULT_VIDEO_EDGES = tuple(round(0.1 * k, 1) for k in range(1, 10))
#: Column header of the report CSV that :func:`write_report` writes.
COHORT_HEADER = ["bucket", "users", "decline_proportion"]


@dataclass(frozen=True)
class CohortConfig:
    reference: TimeWindow
    investigation: TimeWindow
    platform: Platform
    #: Strictly ascending bucket edges over the tolerance statistic;
    #: () selects the platform default.
    bucket_edges: tuple[float, ...] = ()
    #: Video engagements shorter than this (seconds watched) do not count
    #: toward window engagement.
    min_watch_seconds: float = 0.0

    def __post_init__(self):
        if not isinstance(self.platform, Platform):
            raise ValueError(f"platform must be a Platform, got {self.platform!r}")
        if not self.min_watch_seconds >= 0:
            raise ValueError("min_watch_seconds must be non-negative")
        if self.reference.end > self.investigation.start:
            raise ValueError("reference window must end before investigation starts")
        check_edges("bucket_edges", self.effective_edges)

    @property
    def effective_edges(self) -> tuple[float, ...]:
        if self.bucket_edges:
            return self.bucket_edges
        if self.platform is Platform.ECOMMERCE:
            return DEFAULT_ECOMMERCE_EDGES
        return DEFAULT_VIDEO_EDGES


@dataclass(frozen=True)
class BucketReport:
    label: str
    users: int
    declines: int

    @property
    def decline_proportion(self) -> float:
        return self.declines / self.users if self.users else 0.0


@dataclass
class CohortReport:
    buckets: list[BucketReport]
    considered: int
    excluded: int

    @property
    def empty(self) -> bool:
        """No user had reference-window engagement."""
        return self.considered == 0


def engagement(
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


def tolerance_stat(
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
            profile = UserProfile(event.user_id)
            sample = label_event(event, profile, 0.5, labeling)
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


def analyze(
    events: list[InteractionEvent],
    config: CohortConfig,
    labeling: LabelingConfig,
) -> CohortReport:
    """Bucket users by reference-window tolerance and measure the share
    whose investigation-window engagement strictly declined (ties count
    as retained)."""
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
        ref = engagement(
            user_events, config.reference, config.platform, config.min_watch_seconds
        )
        if ref == 0:
            excluded += 1
            continue
        stat = tolerance_stat(user_events, config.reference, config.platform, labeling)
        if stat is None:
            excluded += 1
            continue
        considered += 1
        inv = engagement(
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


def write_report(path: str | Path, report: CohortReport) -> None:
    """CSV with `bucket,users,decline_proportion` under `#` comment lines."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(
            "# video watch ratios are capped at the labeling config's ratio_cap\n"
            f"# considered={report.considered} excluded={report.excluded}\n"
        )
        if report.empty:
            handle.write("# warning: no users with reference-window engagement\n")
        writer = csv.writer(handle)
        writer.writerow(COHORT_HEADER)
        for bucket in report.buckets:
            writer.writerow(
                [bucket.label, bucket.users, f"{bucket.decline_proportion:.6f}"]
            )


def write_plot_data(path: str | Path, report: CohortReport) -> None:
    """Two-column x,y file: bucket ordinal against decline proportion."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "y"])
        for x, bucket in enumerate(report.buckets):
            writer.writerow([x, f"{bucket.decline_proportion:.6f}"])
