import hashlib

import numpy as np
import pytest

from tolrec import fixtures
from tolrec.events import event_to_json, ingest_log, write_events
from tolrec.fixtures import _round, generate_fixture_events

from oracles import reference_fixture_events


def test_generation_is_byte_stable():
    first = [event_to_json(e) for e in generate_fixture_events(n_events=500, seed=7)]
    second = [event_to_json(e) for e in generate_fixture_events(n_events=500, seed=7)]
    assert first == second


def test_fixture_round_trips_through_ingestion(tmp_path):
    path = tmp_path / "fixture.jsonl"
    events = generate_fixture_events(n_events=500, seed=9)
    write_events(path, events)
    result = ingest_log(path)
    assert len(result.events) == len(events)
    assert result.rejected_count == 0


def test_mixed_platforms_present():
    events = generate_fixture_events(n_events=500, seed=1)
    platforms = {e.platform.value for e in events}
    assert platforms == {"video", "ecommerce"}


@pytest.mark.parametrize(
    "shape, digest",
    [
        # The log-pipeline and loo-sparse benchmark inputs, before malformed lines.
        (
            dict(n_events=50_000, n_users=1000, n_items=2000, seed=0),
            "0decc1ee37a6bda7e64792057ef634ef523cc32e8737d0c9ea72b626d21de4f2",
        ),
        (
            dict(n_events=10_000, n_users=5000, n_items=2000, seed=0),
            "677bfe2aaa33acfd7cb0a28667c89a2520c4d355e48f99b5d0b61c1410405fb5",
        ),
        ({}, "d353efd313823e8eb491a88cb4f630849d73781d2a890d2542ebc1d056a3b870"),
    ],
)
def test_fixture_bytes_are_pinned(shape, digest):
    """The sha256 of the file ``write_events`` makes from the fixture."""
    lines = "".join(event_to_json(e) + "\n" for e in generate_fixture_events(**shape))
    assert hashlib.sha256(lines.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "shape, videos",
    [
        (dict(n_events=0), 0),
        (dict(n_events=400, n_users=1, n_items=1, seed=3), None),
        # Seeds whose first 30 events are mostly video, and mostly e-commerce.
        (dict(n_events=30, seed=299), 29),
        (dict(n_events=30, seed=934), 12),
        # The bench shapes, at fewer events.
        (dict(n_events=4000, n_users=1000, n_items=2000, seed=0), None),
        (dict(n_events=4000, n_users=1000, n_items=2000, seed=1), None),
        (dict(n_events=2000, n_users=5000, n_items=2000, seed=0), None),
        (dict(n_events=2000, n_users=5000, n_items=2000, seed=2), None),
    ],
    ids=["empty", "one-user-one-item", "video-heavy", "ecommerce-heavy",
         "log-pipeline-0", "log-pipeline-1", "loo-sparse-0", "loo-sparse-2"],
)
def test_generation_matches_the_reference(shape, videos):
    events = generate_fixture_events(**shape)
    assert events == reference_fixture_events(**shape)
    assert len(events) == shape["n_events"]
    if videos is not None:
        assert sum(e.platform.value == "video" for e in events) == videos


def test_round_equals_numpy_round_bit_for_bit():
    rng = np.random.default_rng(0)
    values = [0.0, 0.05, 0.15, 0.25, 0.5, 2.5, 2.675, 0.005, 0.125, 1e6 + 0.5]
    values += rng.uniform(0.0, 1100.0, 20_000).tolist()
    values += [(2 * j + 1) / 20 for j in range(2000)]  # the decimals x.x5
    values += [(2 * j + 1) / 200 for j in range(2000)]  # the decimals x.xx5
    values += [j / 16 for j in range(20_000)]  # dyadic, with exact halves
    for k, scale in ((1, 10.0), (2, 100.0)):
        halves = [x for x in values if (x * scale) % 1 == 0.5]
        assert len(halves) > 1000
        for x in values:
            assert _round(x, scale).hex() == float(np.round(x, k)).hex(), (x, k)


@pytest.mark.parametrize(
    "shape, name",
    [
        (dict(n_events=-5), "n_events"),
        (dict(n_users=0), "n_users"),
        (dict(n_items=0), "n_items"),
        (dict(n_users=-1), "n_users"),
        (dict(n_events=10.0), "n_events"),
        (dict(n_users="3"), "n_users"),
        (dict(n_items=True), "n_items"),
        (dict(n_events=None), "n_events"),
    ],
)
def test_bad_shape_fails_naming_argument_before_any_draw(monkeypatch, shape, name):
    def no_draws(seed):
        raise AssertionError("drew before checking the shape")

    monkeypatch.setattr(fixtures.np.random, "default_rng", no_draws)
    with pytest.raises(ValueError, match=f"^{name} must be "):
        generate_fixture_events(**shape)
