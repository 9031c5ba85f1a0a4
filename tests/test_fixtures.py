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
