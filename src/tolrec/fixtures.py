"""Deterministic synthetic event corpora for tests and demos.

The generator is seeded and uses only stable float formatting, so the
same call always produces byte-identical files.
"""

import numpy as np

from .events import InteractionEvent, Platform

_ECOM_ACTIONS = ("cart", "favorite", "purchase")
_VIDEO_ACTIONS = ("like", "comment", "share", "follow")
#: Share of video events, and the window the timestamps fall in.
_VIDEO_FRACTION = 0.7
_START = 1_717_200_000
_SPAN = 14 * 86_400


def generate_fixture_events(
    n_events: int = 10_000,
    n_users: int = 120,
    n_items: int = 400,
    seed: int = 7,
) -> list[InteractionEvent]:
    """A mixed video/e-commerce log with per-user habits baked in.

    Each user gets a stable completion tendency so personalized
    thresholds are meaningful; timestamps are drawn with duplicates so
    ingestion and causal labeling see ties and out-of-order input.
    """
    rng = np.random.default_rng(seed)
    patience = rng.uniform(0.3, 0.9, n_users)
    events = []
    for _ in range(n_events):
        u = int(rng.integers(n_users))
        user_id = f"u{u:04d}"
        item_id = f"i{int(rng.integers(n_items)):04d}"
        # Coarse steps keep timestamp collisions frequent.
        timestamp = _START + int(rng.integers(_SPAN // 600)) * 600
        if rng.random() < _VIDEO_FRACTION:
            platform, vocabulary = Platform.VIDEO, _VIDEO_ACTIONS
            duration = float(np.round(np.exp(rng.uniform(np.log(10), np.log(900))), 1))
            clicked = bool(rng.random() < 0.75)
            watch = 0.0
            if clicked:
                ratio = float(np.clip(patience[u] + rng.normal(0.0, 0.25), 0.0, 1.2))
                watch = float(np.round(ratio * duration, 2))
            act = clicked and rng.random() < 0.15
        else:
            platform, vocabulary = Platform.ECOMMERCE, _ECOM_ACTIONS
            duration = watch = None
            clicked = bool(rng.random() < 0.55)
            act = clicked and rng.random() < 0.35
        # An action is drawn only after a click, so the draws keep their order.
        actions = (
            frozenset({vocabulary[int(rng.integers(len(vocabulary)))]}) if act else frozenset()
        )
        events.append(
            InteractionEvent(
                user_id, item_id, timestamp, platform, clicked, watch, duration, actions
            )
        )
    return events
