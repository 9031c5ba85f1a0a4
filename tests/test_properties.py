"""Round-trip properties of the record formats, searched by hypothesis.

The inputs are ones the fixture generator never makes: any subset of the
action vocabulary, ids that differ only in case or by trailing NULs, and
logs whose timestamps tie within and across users. Every search is
derandomized and keeps no example database, so a run is deterministic.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tolrec.events import (
    ACTION_VOCABULARY,
    InteractionEvent,
    Platform,
    _ACTION_SETS,
    event_to_json,
    ingest_log,
    parse_event,
    write_events,
)
from tolrec.labeling import Label, LabeledSample, parse_sample, sample_to_json


def search(examples: int):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None)


@st.composite
def id_pools(draw) -> list[str]:
    """A few ids and their near twins: swapped case and trailing NULs."""
    pool = []
    for base in draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3)):
        pool += [base, base.swapcase(), base + "\0", base + "\0\0"]
    return pool


#: A few instants, so that events tie, or any integer second.
timestamps = st.integers(0, 3) | st.integers()
durations = st.floats(min_value=0, exclude_min=True, allow_infinity=False)


@st.composite
def events(draw, ids=None) -> InteractionEvent:
    ids = draw(id_pools()) if ids is None else ids
    actions = draw(st.frozensets(st.sampled_from(sorted(ACTION_VOCABULARY))))
    clicked = True if actions else draw(st.booleans())
    watch = duration = None
    platform = draw(st.sampled_from(Platform))
    if platform is Platform.VIDEO:
        duration = draw(durations)
        watch = draw(st.floats(min_value=0, allow_infinity=False))
    return InteractionEvent(
        draw(st.sampled_from(ids)), draw(st.sampled_from(ids)), draw(timestamps),
        platform, clicked, watch, duration, actions,
    )


@st.composite
def samples(draw) -> LabeledSample:
    ids = draw(id_pools())
    label = draw(st.sampled_from(Label))
    beta = draw(st.floats(0.0, 1.0)) if label is Label.TOLERANCE else None
    return LabeledSample(
        draw(st.sampled_from(ids)), draw(st.sampled_from(ids)), draw(timestamps), label, beta
    )


@st.composite
def logs(draw) -> list[InteractionEvent]:
    ids = draw(id_pools())
    return draw(st.lists(events(ids), max_size=12))


@search(150)
@given(events())
def test_event_round_trip(event):
    parsed = parse_event(event_to_json(event))
    assert parsed == event
    assert parsed.followup_actions is _ACTION_SETS[event.followup_actions]


@search(150)
@given(samples())
def test_sample_round_trip(sample):
    assert parse_sample(sample_to_json(sample)) == sample


@search(100)
@given(logs())
def test_written_log_ingests_in_stable_user_time_order(log):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "events.jsonl"
        write_events(path, log)
        result = ingest_log(path)
    assert result.rejected == []
    assert result.events == sorted(log, key=lambda e: (e.user_id, e.timestamp))
