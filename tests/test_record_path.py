"""The record path against its old form in ``oracles``: every parsed event,
every rejection and every written byte must be equal.

Lines with a non-finite ``watch`` or ``duration`` are left out of these
comparisons: the old parser accepted them, and rejecting them is a
deliberate change, checked in ``test_events.py``. So are lines with an
integer ``watch`` or ``duration`` too large for a float, on which the old
parser raised ``OverflowError`` and aborted the whole log; they are now
rejected lines, also checked there.
"""

import random

import pytest

from tolrec.events import (
    EventParseError,
    EventValidationError,
    InteractionEvent,
    Platform,
    event_to_json,
    ingest_log,
    parse_event,
    write_events,
)
from tolrec.fixtures import generate_fixture_events
from tolrec.labeling import (
    BucketStats,
    Label,
    LabeledSample,
    LabelingConfig,
    LabelingMode,
    UserProfile,
    label_log,
    parse_sample,
    read_samples,
    sample_to_json,
    write_profiles,
    write_samples,
)

from conftest import random_event_log
from oracles import (
    reference_event_to_json,
    reference_ingest,
    reference_parse_event,
    reference_parse_sample,
    reference_sample_to_json,
    reference_write_profiles,
)

VIDEO = '"user":"u1","item":"v1","ts":5,"platform":"video","clicked":true'
ECOM = '"user":"u1","item":"i1","ts":5,"platform":"ecommerce","clicked":true'

#: One line per rejection the parser can make.
ONE_FAULT = [
    "{not json",
    '{"user":"u1"',
    "\ufeff{" + ECOM + "}",
    "[1, 2]",
    '"text"',
    "null",
    "{" + ECOM + ',"extra":1}',
    '{"item":"i1","ts":5,"platform":"ecommerce","clicked":true}',
    '{"user":"u1","ts":5,"platform":"ecommerce","clicked":true}',
    '{"user":"u1","item":"i1","platform":"ecommerce","clicked":true}',
    '{"user":"u1","item":"i1","ts":5,"clicked":true}',
    '{"user":"u1","item":"i1","ts":5,"platform":"ecommerce"}',
    '{"user":7,"item":"i1","ts":5,"platform":"ecommerce","clicked":true}',
    '{"user":"u1","item":null,"ts":5,"platform":"ecommerce","clicked":true}',
    '{"user":"u1","item":"i1","ts":true,"platform":"ecommerce","clicked":true}',
    '{"user":"u1","item":"i1","ts":"5","platform":"ecommerce","clicked":true}',
    '{"user":"u1","item":"i1","ts":5.0,"platform":"ecommerce","clicked":true}',
    '{"user":"u1","item":"i1","ts":5,"platform":"ecommerce","clicked":1}',
    '{"user":"u1","item":"i1","ts":5,"platform":"ecommerce","clicked":"yes"}',
    '{"user":"u1","item":"i1","ts":5,"platform":"radio","clicked":true}',
    '{"user":"u1","item":"i1","ts":5,"platform":["video"],"clicked":true}',
    '{"user":"u1","item":"i1","ts":5,"platform":null,"clicked":true}',
    "{" + ECOM + ',"actions":"cart"}',
    "{" + ECOM + ',"actions":[1]}',
    "{" + ECOM + ',"actions":null}',
    "{" + ECOM + ',"actions":{"cart":1}}',
    "{" + VIDEO + ',"watch":"3","duration":10}',
    "{" + VIDEO + ',"watch":true,"duration":10}',
    "{" + VIDEO + ',"watch":3,"duration":"10"}',
    "{" + VIDEO + ',"watch":3,"duration":false}',
    '{"user":"","item":"i1","ts":5,"platform":"ecommerce","clicked":true}',
    '{"user":"u1","item":"","ts":5,"platform":"ecommerce","clicked":true}',
    "{" + VIDEO + ',"duration":10}',
    "{" + VIDEO + ',"watch":3}',
    "{" + VIDEO + ',"watch":-1,"duration":10}',
    "{" + VIDEO + ',"watch":-Infinity,"duration":10}',
    "{" + VIDEO + ',"watch":3,"duration":0}',
    "{" + VIDEO + ',"watch":3,"duration":-5.5}',
    "{" + ECOM + ',"watch":3}',
    "{" + ECOM + ',"duration":10}',
    "{" + ECOM + ',"actions":["retweet"]}',
    '{"user":"u1","item":"i1","ts":5,"platform":"ecommerce","clicked":false,'
    '"actions":["cart"]}',
]

#: Lines with two faults: the first one in check order must be reported.
TWO_FAULTS = [
    '{"user":"u","item":"i","ts":1,"platform":"video","clicked":true,'
    '"watch":"x","duration":5,"actions":[1]}',
    '{"ts":5,"platform":"ecommerce","clicked":true}',
    '{"ts":5,"platform":"ecommerce","clicked":true,"extra":1}',
    '{"user":7,"item":"i1","ts":"5","platform":"ecommerce","clicked":true}',
    '{"user":"u1","item":"i1","ts":1.5,"platform":"ecommerce","clicked":0}',
    '{"user":"u1","item":"i1","ts":5,"platform":"radio","clicked":0}',
    '{"user":"u1","item":"i1","ts":5,"platform":"radio","clicked":true,"actions":[1]}',
    "{" + VIDEO + ',"watch":"3","duration":"10"}',
    '{"user":"","item":"v1","ts":5,"platform":"video","clicked":true,'
    '"watch":3,"duration":"10"}',
    '{"user":"","item":"","ts":5,"platform":"ecommerce","clicked":true}',
    '{"user":"u1","item":"","ts":5,"platform":"video","clicked":true,"duration":10}',
    "{" + ECOM + ',"watch":3,"actions":["retweet"]}',
    '{"user":"u1","item":"i1","ts":5,"platform":"ecommerce","clicked":false,'
    '"actions":["retweet"]}',
    "{" + VIDEO + ',"watch":-1,"duration":0}',
    '{"user":"u1","item":"v1","ts":5,"platform":"video","clicked":false,'
    '"watch":3,"duration":0,"actions":["like"]}',
]


def _outcome(parse, line: str):
    try:
        return parse(line, 3)
    except (EventParseError, EventValidationError) as exc:
        return type(exc), str(exc)


def _special_events() -> list[InteractionEvent]:
    """Integer durations, ids JSON must escape, and several actions."""
    return [
        InteractionEvent("u1", "v1", 5, Platform.VIDEO, True, 41, 60),
        InteractionEvent("ü", "日本", 7, Platform.VIDEO, False, 0, 12.5),
        InteractionEvent('q"\\\n\t\x01', "😀", 2**40, Platform.VIDEO, True, 3.25, 7),
        InteractionEvent(
            "ñ", "i/2", -3, Platform.ECOMMERCE, True,
            followup_actions=frozenset({"purchase", "cart", "favorite"}),
        ),
        InteractionEvent("u2", "v2", 0, Platform.VIDEO, True, 1e-300, 1e300),
        InteractionEvent("u3", "v3", 1, Platform.VIDEO, True, 0.1 + 0.2, 1 / 3),
    ]


@pytest.mark.parametrize("line", ONE_FAULT + TWO_FAULTS)
def test_rejection_matches_reference(line):
    expected = _outcome(reference_parse_event, line)
    assert isinstance(expected, tuple), "corpus line must be rejected"
    assert _outcome(parse_event, line) == expected


def test_actions_checked_before_watch():
    with pytest.raises(EventParseError, match="actions must be an array of strings"):
        parse_event(TWO_FAULTS[0])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ingest_matches_reference_on_fixture_log(tmp_path, seed):
    """A fixture log with 1% of its lines truncated, as the benchmark's
    sparse log is built, and the bad-line corpus mixed in."""
    events = generate_fixture_events(n_events=3000, n_users=300, n_items=500, seed=seed)
    lines = [reference_event_to_json(event) for event in events]
    for k in random.Random(seed).sample(range(len(lines)), len(lines) // 100):
        lines[k] = lines[k][: len(lines[k]) // 2]
    for k, bad in enumerate(ONE_FAULT + TWO_FAULTS):
        lines.insert(37 * k + seed, bad)
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    result = ingest_log(path)
    events_ref, rejected_ref = reference_ingest(path)
    assert len(rejected_ref) == len(events) // 100 + len(ONE_FAULT + TWO_FAULTS)
    assert result.rejected == rejected_ref
    assert result.events == events_ref
    # Events without actions share one empty set instead of one set each.
    assert len({id(e.followup_actions) for e in result.events if not e.followup_actions}) == 1


def test_parse_matches_reference_on_valid_lines(rng):
    events = random_event_log(rng, n_events=500) + _special_events()
    for event in events:
        line = reference_event_to_json(event)
        assert parse_event(line) == reference_parse_event(line)
    line = "{" + VIDEO + ',"watch":41,"duration":60,"actions":[]}'
    assert parse_event(line) == reference_parse_event(line)


def test_event_bytes_match_reference(tmp_path, rng):
    events = (
        generate_fixture_events(n_events=2000, seed=3)
        + random_event_log(rng, n_events=500)
        + _special_events()
    )
    expected = [reference_event_to_json(event) for event in events]
    assert [event_to_json(event) for event in events] == expected
    path = tmp_path / "events.jsonl"
    write_events(path, events)
    assert path.read_bytes() == "".join(line + "\n" for line in expected).encode()


def _samples() -> list[LabeledSample]:
    events = sorted(
        generate_fixture_events(n_events=3000, seed=5),
        key=lambda e: (e.user_id, e.timestamp),
    )
    samples = []
    for mode in LabelingMode:
        samples += label_log(events, LabelingConfig(), mode).samples
    return samples + [
        LabeledSample("ü", "日本", 5, Label.TOLERANCE, beta=0),
        LabeledSample('q"\\\n', "😀", 6, Label.TOLERANCE, beta=1),
        LabeledSample("u", "i", 7, Label.TOLERANCE, beta=1 / 3),
        LabeledSample("u", "i", 8, Label.TOLERANCE, beta=5e-324),
        LabeledSample("u", "i", 9, Label.POSITIVE),
        LabeledSample("u", "i", 10, Label.NEGATIVE),
    ]


def test_sample_round_trip_matches_reference(tmp_path):
    samples = _samples()
    expected = [reference_sample_to_json(sample) for sample in samples]
    assert [sample_to_json(sample) for sample in samples] == expected
    path = tmp_path / "samples.jsonl"
    write_samples(path, samples)
    assert path.read_bytes() == "".join(line + "\n" for line in expected).encode()
    assert read_samples(path) == [reference_parse_sample(line) for line in expected]
    assert read_samples(path) == samples
    assert [parse_sample(line) for line in expected] == samples


def test_profile_bytes_match_reference(tmp_path):
    events = sorted(
        generate_fixture_events(n_events=3000, seed=6),
        key=lambda e: (e.user_id, e.timestamp),
    )
    profiles = label_log(events, LabelingConfig()).profiles
    profiles["ü"] = UserProfile(
        "ü",
        {2: BucketStats(3, float("nan")), 0: BucketStats(1, float("inf")), 1: BucketStats()},
    )
    written, expected = tmp_path / "profiles", tmp_path / "expected"
    write_profiles(written, profiles)
    reference_write_profiles(expected, profiles)
    assert written.read_bytes() == expected.read_bytes()
