"""Deterministic synthetic event corpora for tests and demos.

The byte contract is the draw sequence: each event makes the same
``Generator`` calls (method, arguments, order) from the seeded stream, and
``test_fixture_bytes_are_pinned`` pins the files that come out. Around the
draws only exact Python float arithmetic stands in for numpy scalar calls.
"""

import numpy as np

from .events import InteractionEvent, Platform

#: One single-action set per action a follow-up draw can pick.
_ECOM_ACTIONS = tuple(frozenset({a}) for a in ("cart", "favorite", "purchase"))
_VIDEO_ACTIONS = tuple(frozenset({a}) for a in ("like", "comment", "share", "follow"))
#: Share of video events, and the window the timestamps fall in.
_VIDEO_FRACTION = 0.7
_START = 1_717_200_000
_SPAN = 14 * 86_400
#: The log-duration range of video items: 10 s to 15 min.
_LOG_SHORTEST, _LOG_LONGEST = float(np.log(10)), float(np.log(900))


def _round(x: float, scale: float) -> float:
    """``float(np.round(x, k))`` for ``scale == 10.0**k``, bit for bit: numpy
    too multiplies by the scale, rounds half to even (``rint``) and divides,
    and the int ``round`` makes of a finite ``x * scale`` below 2**53 (here
    non-negative, so no -0.0) converts back exactly."""
    return round(x * scale) / scale


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
    shape = {"n_events": (n_events, 0), "n_users": (n_users, 1), "n_items": (n_items, 1)}
    for name, (value, least) in shape.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, got {value!r}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    rng = np.random.default_rng(seed)
    patience = rng.uniform(0.3, 0.9, n_users).tolist()
    users = [f"u{u:04d}" for u in range(n_users)]
    items = [f"i{i:04d}" for i in range(n_items)]
    events = []
    for _ in range(n_events):
        u = int(rng.integers(n_users))
        item_id = items[rng.integers(n_items)]
        # Coarse steps keep timestamp collisions frequent.
        timestamp = _START + int(rng.integers(_SPAN // 600)) * 600
        if rng.random() < _VIDEO_FRACTION:
            platform, vocabulary = Platform.VIDEO, _VIDEO_ACTIONS
            # ``np.exp`` stays: ``math.exp`` may differ in the last bit.
            duration = _round(float(np.exp(rng.uniform(_LOG_SHORTEST, _LOG_LONGEST))), 10.0)
            clicked = rng.random() < 0.75
            watch = 0.0
            if clicked:
                ratio = min(max(patience[u] + rng.normal(0.0, 0.25), 0.0), 1.2)
                watch = _round(ratio * duration, 100.0)
            act = clicked and rng.random() < 0.15
        else:
            platform, vocabulary = Platform.ECOMMERCE, _ECOM_ACTIONS
            duration = watch = None
            clicked = rng.random() < 0.55
            act = clicked and rng.random() < 0.35
        # An action is drawn only after a click, so the draws keep their order.
        actions = vocabulary[rng.integers(len(vocabulary))] if act else frozenset()
        events.append(
            InteractionEvent(
                users[u], item_id, timestamp, platform, clicked, watch, duration, actions
            )
        )
    return events
