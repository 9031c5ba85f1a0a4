"""Reference-week vs investigation-week engagement decline analysis.

Users active in a reference window are bucketed by how much tolerance
behavior they showed there (clicks with no cart/favorite/purchase action
for e-commerce, mean capped watch ratio for video), and each bucket
reports the share of users whose engagement strictly dropped in a later
investigation window. :func:`analyze` reads the log once, in any order.
Every user in the log with no reference-window engagement on the platform,
other-platform users included, is excluded and counted, since a decline
from zero is undefined.
"""

import csv
from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from .events import InteractionEvent, Platform, TimeWindow, _check_types, _sum_floats
from .labeling import ECOMMERCE_POSITIVE_ACTIONS, check_edges, watch_ratio

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
    #: Cap on each video watch ratio, as in labeling.
    ratio_cap: float = 1.0

    def __post_init__(self):
        _check_types(self)
        if not self.min_watch_seconds >= 0:
            raise ValueError("min_watch_seconds must be non-negative")
        if not self.ratio_cap > 0:
            raise ValueError("ratio_cap must be positive")
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


def _bucket_labels(edges: tuple[float, ...]) -> list[str]:
    labels = [f"<{edges[0]:g}"]
    labels += [f"[{a:g},{b:g})" for a, b in zip(edges, edges[1:])]
    labels.append(f">={edges[-1]:g}")
    return labels


def analyze(events: list[InteractionEvent], config: CohortConfig) -> CohortReport:
    """Bucket users by reference-window tolerance and measure the share
    whose investigation-window engagement strictly declined (ties count
    as retained). One pass over ``events``, in any order; every user in
    the log without reference-window engagement is counted as excluded."""
    video = config.platform is Platform.VIDEO
    # Per user: reference engagement, investigation engagement, and the
    # terms of the reference statistic in input order: capped watch ratios
    # for video, clicks with no positive action for e-commerce.
    tallies = defaultdict(lambda: [0, 0, []])
    for event in events:
        tally = tallies[event.user_id]
        if event.platform is not config.platform or not event.clicked:
            continue
        if config.reference.contains(event.timestamp):
            window = 0
            if video:
                tally[2].append(watch_ratio(event, config.ratio_cap))
            elif not event.followup_actions & ECOMMERCE_POSITIVE_ACTIONS:
                tally[2].append(event)
        elif config.investigation.contains(event.timestamp):
            window = 1
        else:
            continue
        if not (video and event.watch_duration < config.min_watch_seconds):
            tally[window] += 1

    edges = config.effective_edges
    labels = _bucket_labels(edges)
    users = [0] * len(labels)
    declines = [0] * len(labels)
    for user_id in sorted(tallies):
        ref, inv, terms = tallies[user_id]
        if ref == 0:
            continue
        # Reference engagement means a video user's ratio list is not empty.
        stat = _sum_floats(terms) / len(terms) if video else float(len(terms))
        bucket = bisect_right(edges, stat)
        users[bucket] += 1
        if inv < ref:
            declines[bucket] += 1

    considered = sum(users)
    return CohortReport(
        buckets=[
            BucketReport(label=lab, users=u, declines=d)
            for lab, u, d in zip(labels, users, declines)
        ],
        considered=considered,
        excluded=len(tallies) - considered,
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
