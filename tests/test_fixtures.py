import hashlib

import pytest

from tolrec.events import event_to_json, ingest_log, write_events
from tolrec.fixtures import generate_fixture_events


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
