import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tolrec
from tolrec.events import InteractionEvent, Platform
from tolrec.labeling import (
    BucketStats,
    CausalLabeler,
    LabeledSample,
    LabelingConfig,
    UserProfile,
)

from oracles import reference_bucket

ALL_ACTIONS = ("cart", "favorite", "purchase", "like", "comment", "share", "follow")


def random_event_log(
    rng: np.random.Generator,
    n_events: int = 1000,
    n_users: int = 40,
    n_items: int = 200,
    video_fraction: float = 0.7,
    ts_slots: int = 400,
) -> list[InteractionEvent]:
    """Mixed-platform log sorted by (user, timestamp).

    Timestamps are drawn on a coarse grid so same-user and cross-user
    ties occur; watch durations are continuous so ratio-vs-average
    comparisons never sit exactly on the decision boundary (except via
    the ratio cap, which both implementations under test clamp to the
    same exact value).
    """
    events = []
    for _ in range(n_events):
        user_id = f"u{int(rng.integers(n_users)):03d}"
        item_id = f"i{int(rng.integers(n_items)):03d}"
        timestamp = int(rng.integers(ts_slots)) * 30
        if rng.random() < video_fraction:
            duration = float(np.exp(rng.uniform(np.log(5.0), np.log(1200.0))))
            clicked = bool(rng.random() < 0.7)
            watch = float(rng.uniform(0.0, 1.3) * duration) if clicked else 0.0
            actions = frozenset()
            if clicked and rng.random() < 0.25:
                actions = frozenset({ALL_ACTIONS[int(rng.integers(len(ALL_ACTIONS)))]})
            events.append(
                InteractionEvent(
                    user_id=user_id,
                    item_id=item_id,
                    timestamp=timestamp,
                    platform=Platform.VIDEO,
                    clicked=clicked,
                    watch_duration=watch,
                    item_duration=duration,
                    followup_actions=actions,
                )
            )
        else:
            clicked = bool(rng.random() < 0.6)
            actions = frozenset()
            if clicked and rng.random() < 0.3:
                actions = frozenset({ALL_ACTIONS[int(rng.integers(len(ALL_ACTIONS)))]})
            events.append(
                InteractionEvent(
                    user_id=user_id,
                    item_id=item_id,
                    timestamp=timestamp,
                    platform=Platform.ECOMMERCE,
                    clicked=clicked,
                    followup_actions=actions,
                )
            )
    events.sort(key=lambda e: (e.user_id, e.timestamp))
    return events


def metamorphic_log() -> list[InteractionEvent]:
    """A 3000-event log sorted by (user, timestamp), with same-user and
    cross-user timestamp ties, for the metamorphic relations; four users
    at its end have one event each."""
    events = random_event_log(np.random.default_rng(29), n_events=3000, n_users=150, ts_slots=60)
    events += [
        InteractionEvent("w0", "i000", 300, Platform.VIDEO, True, 30.0, 40.0),
        InteractionEvent("w1", "i001", 300, Platform.VIDEO, False, 0.0, 40.0),
        InteractionEvent("w2", "i002", 600, Platform.ECOMMERCE, True),
        InteractionEvent(
            "w3", "i003", 960, Platform.ECOMMERCE, True,
            followup_actions=frozenset({"purchase"}),
        ),
    ]
    return events


def long_value_id(value):
    """A test id that names a long string parameter by its start and length;
    None, which keeps pytest's own id, for any other value."""
    if isinstance(value, str) and len(value) > 1000:
        return f"{value[:40]}...{len(value)}-chars"
    return None


def label_one(
    event: InteractionEvent,
    config: LabelingConfig,
    count: int = 0,
    mean: float = 0.0,
    global_mean: float | None = None,
) -> LabeledSample:
    """Label one event with the pipeline's rule: a fresh ``CausalLabeler``
    whose user holds ``count`` ratios of mean ``mean`` in the event's
    duration bucket and whose global mean is ``global_mean`` (one ratio), or
    the 0.5 seed when that is None."""
    labeler = CausalLabeler(config)
    if count:
        bucket = reference_bucket(config, event.item_duration)
        labeler.profiles[event.user_id] = UserProfile(
            event.user_id, {bucket: BucketStats(count, mean)}
        )
    if global_mean is not None:
        labeler._global = BucketStats(1, global_mean)
    return labeler.extend([event])[0]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


#: ``OPENBLAS_CORETYPE`` names x86-64 kernels, so elsewhere it means nothing.
x86_64_only = pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86-64 kernels",
)


def outputs_under_blas_kernels(script: str) -> list[str]:
    """Standard output of ``script`` run in two fresh interpreters, one with
    ``OPENBLAS_CORETYPE`` unset and one forcing OpenBLAS's Prescott
    kernels. On a BLAS build without run-time kernel dispatch the variable
    does nothing and both runs trivially agree."""
    package_root = str(Path(tolrec.__file__).resolve().parent.parent)
    outputs = []
    for coretype in (None, "Prescott"):
        env = dict(os.environ)
        env.pop("OPENBLAS_CORETYPE", None)
        if coretype is not None:
            env["OPENBLAS_CORETYPE"] = coretype
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [package_root, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    return outputs
