"""The record path against its old form in ``oracles``: every parsed event,
every rejection and every written byte must be equal.

Lines with a non-finite ``watch`` or ``duration`` are left out of these
comparisons: the old parser accepted them, and rejecting them is a
deliberate change, checked in ``test_events.py``. So are lines with an
integer ``watch`` or ``duration`` too large for a float, on which the old
parser raised ``OverflowError`` and aborted the whole log; they are now
rejected lines, also checked there.
"""

import copy
import gc
import json
import pickle
import random
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import pytest

from tolrec.events import (
    ACTION_VOCABULARY,
    EventParseError,
    EventValidationError,
    InteractionEvent,
    LogFormatError,
    Platform,
    _ACTION_SETS,
    _paused_gc,
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
    # A valid record and more than whitespace after it: `json.loads` rejects
    # these, though a decoder that reads one value from the start accepts it.
    "{" + ECOM + "}x",
    "{" + ECOM + "}{" + ECOM + "}",
    "{" + ECOM + "}\x0c",
    "{" + ECOM + "}\u3000",
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


#: Lines that ``str.strip`` empties, so ingest skips them but still counts them.
BLANK_LINES = ["", " ", "\t  ", "\x0c", "\u3000 "]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ingest_matches_reference_on_fixture_log(tmp_path, seed):
    """A fixture log with 1% of its lines truncated, as the benchmark's
    sparse log is built, the bad-line corpus and blank lines mixed in.
    Seed 2 ends its lines with CRLF and has no final newline."""
    events = generate_fixture_events(n_events=3000, n_users=300, n_items=500, seed=seed)
    lines = [reference_event_to_json(event) for event in events]
    draw = random.Random(seed)
    for k in draw.sample(range(len(lines)), len(lines) // 100):
        lines[k] = lines[k][: len(lines[k]) // 2]
    for k, bad in enumerate(ONE_FAULT + TWO_FAULTS):
        lines.insert(37 * k + seed, bad)
    for k in sorted(draw.sample(range(len(lines)), 60), reverse=True):
        lines.insert(k, BLANK_LINES[k % len(BLANK_LINES)])
    newline, end = ("\r\n", "") if seed == 2 else ("\n", "\n")
    path = tmp_path / "events.jsonl"
    path.write_bytes((newline.join(lines) + end).encode("utf-8"))

    result = ingest_log(path)
    events_ref, rejected_ref = reference_ingest(path)
    assert len(rejected_ref) == len(events) // 100 + len(ONE_FAULT + TWO_FAULTS)
    assert result.rejected == rejected_ref
    assert result.events == events_ref
    # Each distinct id and action set, the empty one included, is one object
    # across the read's events, and each action set is the table's.
    for name in ("user_id", "item_id", "followup_actions"):
        values = [getattr(event, name) for event in result.events]
        assert len(set(map(id, values))) == len(set(values)), name
    assert all(e.followup_actions is _ACTION_SETS[e.followup_actions] for e in result.events)


def test_each_read_has_its_own_id_table(tmp_path):
    """Two reads of one log give equal events that share no id string: a
    table that outlived its read would keep every id it ever saw."""
    path = tmp_path / "events.jsonl"
    write_events(path, generate_fixture_events(n_events=300, seed=4))
    first, second = ingest_log(path).events, ingest_log(path).events
    assert first == second
    for a, b in zip(first, second):
        assert a.user_id is not b.user_id and a.item_id is not b.item_id


def test_every_action_combination_parses_to_its_shared_set():
    """Each nonempty subset of the vocabulary, in any order, is one object;
    a set with an unknown action keeps its own and is rejected."""
    combinations = [actions for actions in _ACTION_SETS if actions]
    assert len(combinations) == 2 ** len(ACTION_VOCABULARY) - 1
    for actions in combinations:
        for order in (sorted(actions), sorted(actions, reverse=True)):
            line = "{" + ECOM + ',"actions":' + json.dumps(order) + "}"
            assert parse_event(line).followup_actions is _ACTION_SETS[actions]
    with pytest.raises(EventValidationError, match=r"unknown actions \['wish'\]"):
        parse_event("{" + ECOM + ',"actions":["cart","wish"]}')


@pytest.mark.parametrize(
    "record",
    [
        InteractionEvent("u1", "v1", 5, Platform.VIDEO, True, 3.0, 10.0, frozenset({"like"})),
        LabeledSample("u1", "i1", 5, Label.TOLERANCE, beta=0.5),
    ],
    ids=["event", "sample"],
)
def test_slotted_records_stay_frozen_values(record):
    """A record keeps its fields in slots, with no instance dict, and stays a
    frozen value: copies, pickles and replacements are equal and hash alike."""
    assert not hasattr(record, "__dict__")
    with pytest.raises(FrozenInstanceError):
        record.user_id = "u2"
    # A name that is no field has no slot. Which error says so depends on the
    # Python version: 3.11's frozen __setattr__ raises TypeError on a slotted class.
    with pytest.raises((AttributeError, TypeError)):
        record.note = "extra"
    for twin in (replace(record), copy.copy(record), pickle.loads(pickle.dumps(record))):
        assert twin == record and hash(twin) == hash(record)
    assert replace(record, user_id="u2").user_id == "u2"


def test_records_stay_within_their_memory_budget(tmp_path):
    """Traced bytes that a read keeps per record, on a log that repeats its
    ids and action sets. Slotted records that share their ids and action
    sets keep about 178 B per event and 128 B per sample; with instance
    dicts and a copy of each value per record they kept 363 B and 268 B."""
    events = generate_fixture_events(n_events=5000, n_users=200, n_items=500, seed=9)
    log, samples = tmp_path / "events.jsonl", tmp_path / "samples.jsonl"
    write_events(log, events)
    events.sort(key=lambda e: (e.user_id, e.timestamp))
    write_samples(samples, label_log(events, LabelingConfig()).samples)
    del events
    assert not tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        ingested = ingest_log(log).events
        after_events = tracemalloc.get_traced_memory()[0]
        read = read_samples(samples)
        after_samples = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(ingested) == len(read) == 5000
    assert after_events / len(ingested) <= 250
    assert (after_samples - after_events) / len(read) <= 180


@pytest.mark.parametrize(
    "before, after",
    [(" ", ""), ("\t ", ""), ("", " \t\r"), ("  ", "\r\n"), ("\n", " \t\r\n")],
)
def test_padded_record_parses_as_reference(before, after):
    """Whitespace to `json.loads` around a record leaves the record standing."""
    line = before + "{" + VIDEO + ',"watch":3,"duration":10}' + after
    assert parse_event(line) == reference_parse_event(line)
    line = before + '{"user":"u1","item":"i1","ts":5,"label":"T","beta":0.5}' + after
    assert parse_sample(line) == reference_parse_sample(line)


def test_ingest_accepts_whitespace_around_records(tmp_path):
    """Leading spaces and trailing spaces, tabs and carriage returns do not
    reject an event line, in the reference as in ``ingest_log``."""
    lines = [
        " " * (k % 3) + reference_event_to_json(event) + " \t\r"[: k % 4]
        for k, event in enumerate(generate_fixture_events(n_events=300, seed=7))
    ]
    path = tmp_path / "events.jsonl"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    result = ingest_log(path)
    events_ref, rejected_ref = reference_ingest(path)
    assert result.rejected == rejected_ref == []
    assert result.events == events_ref
    assert len(result.events) == len(lines)


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


def test_read_samples_accepts_whitespace_around_records(tmp_path):
    samples = _samples()
    lines = [
        " " * (k % 3) + reference_sample_to_json(sample) + " \t\r"[: k % 4]
        for k, sample in enumerate(samples)
    ]
    path = tmp_path / "samples.jsonl"
    path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
    assert read_samples(path) == samples


@pytest.fixture
def collector():
    """Leave the cyclic collector on after the test, whatever the test did."""
    yield
    gc.enable()


@pytest.mark.parametrize("enabled", [True, False])
def test_paused_gc_restores_the_callers_setting(collector, enabled):
    (gc.enable if enabled else gc.disable)()
    with _paused_gc():
        assert not gc.isenabled()
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_bulk_builds_restore_the_collector(tmp_path, collector, enabled):
    events = sorted(
        generate_fixture_events(n_events=300, seed=8), key=lambda e: (e.user_id, e.timestamp)
    )
    log, samples = tmp_path / "events.jsonl", tmp_path / "samples.jsonl"
    write_events(log, events)
    write_samples(samples, label_log(events, LabelingConfig()).samples)
    for build in (
        lambda: ingest_log(log),
        lambda: read_samples(samples),
        lambda: label_log(events, LabelingConfig(), LabelingMode.LEAVE_ONE_OUT),
    ):
        (gc.enable if enabled else gc.disable)()
        build()
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_restored_when_a_bulk_build_raises(tmp_path, collector, enabled):
    log = tmp_path / "bogus.jsonl"
    log.write_text("a,b\n1,2\n")
    (gc.enable if enabled else gc.disable)()
    with pytest.raises(LogFormatError):
        ingest_log(log)
    assert gc.isenabled() is enabled

    good = sample_to_json(LabeledSample("u1", "i1", 1, Label.NEGATIVE))
    samples = tmp_path / "samples.jsonl"
    samples.write_text(f"{good}\n" * 50 + "nope\n" + f"{good}\n" * 50)
    with pytest.raises(EventParseError, match="^line 51: invalid JSON"):
        read_samples(samples)
    assert gc.isenabled() is enabled


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
