import json
import random
from dataclasses import fields, replace

import pytest

from tolrec.cohort import CohortConfig
from tolrec.events import (
    EventParseError,
    EventValidationError,
    InteractionEvent,
    LogFormatError,
    Platform,
    TimeWindow,
    _sum_floats,
    _type_test,
    event_to_json,
    ingest_log,
    parse_event,
    write_events,
)

from tolrec.labeling import Label, LabeledSample, LabelingConfig
from tolrec.simulation import SimConfig
from tolrec.trainer import TrainConfig

from conftest import random_event_log


def test_parse_ecommerce_record():
    line = (
        '{"user":"u1","item":"i1","ts":100,"platform":"ecommerce",'
        '"clicked":true,"actions":["purchase"]}'
    )
    event = parse_event(line)
    assert event.user_id == "u1"
    assert event.item_id == "i1"
    assert event.timestamp == 100
    assert event.platform is Platform.ECOMMERCE
    assert event.clicked
    assert event.followup_actions == frozenset({"purchase"})
    assert event.watch_duration is None


def test_parse_video_record():
    line = (
        '{"user":"u1","item":"v9","ts":5,"platform":"video",'
        '"clicked":true,"watch":5,"duration":10}'
    )
    event = parse_event(line)
    assert event.watch_duration == 5.0
    assert event.item_duration == 10.0


def test_ecommerce_with_watch_is_validation_error():
    line = (
        '{"user":"u1","item":"i1","ts":1,"platform":"ecommerce",'
        '"clicked":true,"watch":3}'
    )
    with pytest.raises(EventValidationError, match="watch_duration"):
        parse_event(line)


def test_video_missing_duration_names_field():
    line = '{"user":"u1","item":"v1","ts":1,"platform":"video","clicked":true,"watch":3}'
    with pytest.raises(EventValidationError, match="item_duration"):
        parse_event(line)


def test_parse_error_carries_line_number():
    with pytest.raises(EventParseError, match="line 7"):
        parse_event("{not json", line_number=7)


@pytest.mark.parametrize(
    "numbers, name",
    [
        ('"watch":NaN,"duration":10', "watch_duration"),
        ('"watch":Infinity,"duration":Infinity', "watch_duration"),
        ('"watch":3,"duration":Infinity', "item_duration"),
        ('"watch":3,"duration":NaN', "item_duration"),
        # Beyond the float range, a decimal decodes to inf and an integer
        # stays an int; the one finiteness check gives both one message.
        ('"watch":1e400,"duration":10', "watch_duration"),
        pytest.param('"watch":1%s,"duration":10' % ("0" * 400), "watch_duration",
                     id="watch-400-digits"),
        ('"watch":3,"duration":1e400', "item_duration"),
        pytest.param('"watch":3,"duration":1%s' % ("0" * 400), "item_duration",
                     id="duration-400-digits"),
    ],
)
def test_ingest_rejects_non_finite_numbers(tmp_path, numbers, name):
    good = (
        '{"user":"u1","item":"v1","ts":%d,"platform":"video","clicked":true,'
        '"watch":3,"duration":10}'
    )
    bad = '{"user":"u1","item":"v2","ts":9,"platform":"video","clicked":true,%s}'
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join([good % 1, bad % numbers, good % 2]) + "\n")
    result = ingest_log(path)
    assert [e.timestamp for e in result.events] == [1, 2]
    assert result.rejected == [(2, f"{name}: must be finite")]


@pytest.mark.parametrize(
    "numbers, message",
    [
        ('"watch":1%s,"duration":10' % ("0" * 400), "watch_duration: must be finite"),
        ('"watch":3,"duration":-1%s' % ("0" * 400), "item_duration: must be positive"),
    ],
    ids=["watch-1e400", "duration-minus-1e400"],
)
def test_ingest_rejects_integers_beyond_float_range(tmp_path, numbers, message):
    """Such an integer is kept as written and fails the event checks by
    name, like any other number out of range, instead of aborting the log."""
    line = '{"user":"u1","item":"v2","ts":9,"platform":"video","clicked":true,%s}'
    path = tmp_path / "events.jsonl"
    path.write_text("\n".join([line % '"watch":3,"duration":10', line % numbers]) + "\n")
    result = ingest_log(path)
    assert len(result.events) == 1
    assert result.rejected == [(2, message)]


@pytest.mark.parametrize(
    "watch, duration, name",
    [
        (float("nan"), 10.0, "watch_duration"),
        (float("inf"), 10.0, "watch_duration"),
        (3.0, float("inf"), "item_duration"),
        (3.0, float("nan"), "item_duration"),
        pytest.param(10**400, 10, "watch_duration", id="huge-int-watch"),
        pytest.param(3, 10**400, "item_duration", id="huge-int-duration"),
        pytest.param(10**400, 10**400, "watch_duration", id="huge-int-both"),
    ],
)
def test_constructor_rejects_non_finite_numbers(watch, duration, name):
    with pytest.raises(EventValidationError, match=f"{name}: must be finite"):
        InteractionEvent("u1", "v1", 1, Platform.VIDEO, True, watch, duration)


@pytest.mark.parametrize(
    "watch, duration, actions, name",
    [
        ("3", 10, frozenset(), "watch_duration"),
        (3, "10", frozenset(), "item_duration"),
        (True, 10, frozenset(), "watch_duration"),
        (3, 10, ["like"], "followup_actions"),
        (3, 10, frozenset({1}), "followup_actions"),
    ],
    ids=["str-watch", "str-duration", "bool-watch", "list-actions", "int-action"],
)
def test_constructor_rejects_wrong_types(watch, duration, actions, name):
    with pytest.raises(EventValidationError, match=f"^{name}: must be "):
        InteractionEvent("u1", "v1", 1, Platform.VIDEO, True, watch, duration, actions)


def test_unknown_action_rejected():
    line = (
        '{"user":"u1","item":"i1","ts":1,"platform":"ecommerce",'
        '"clicked":true,"actions":["retweet"]}'
    )
    with pytest.raises(EventValidationError, match="retweet"):
        parse_event(line)


def test_unknown_key_rejected():
    line = '{"user":"u1","item":"i1","ts":1,"platform":"ecommerce","clicked":false,"extra":1}'
    with pytest.raises(EventParseError, match="extra"):
        parse_event(line)


def test_action_without_click_rejected():
    with pytest.raises(EventValidationError, match="clicked"):
        InteractionEvent(
            user_id="u1",
            item_id="i1",
            timestamp=1,
            platform=Platform.ECOMMERCE,
            clicked=False,
            followup_actions=frozenset({"cart"}),
        )


@pytest.mark.parametrize("bad_ts", ["true", '"100"', "1.5"])
def test_timestamp_must_be_integer(bad_ts):
    line = (
        f'{{"user":"u1","item":"i1","ts":{bad_ts},"platform":"ecommerce",'
        '"clicked":false}'
    )
    with pytest.raises(EventParseError, match="ts"):
        parse_event(line)


def test_round_trip_random_events(rng):
    events = random_event_log(rng, n_events=300)
    for event in events:
        assert parse_event(event_to_json(event)) == event


def test_float_sum_is_uncompensated():
    """Left to right from 0, as Python 3.11's ``sum``: the 1.0 is lost to
    rounding, where the compensated ``sum`` of 3.12 and ``math.fsum`` keep it."""
    assert _sum_floats([1e16, 1.0, -1e16]) == 0.0
    assert _sum_floats(iter([0.1, 0.2, 0.3])) == (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3)


def test_float_sum_equals_an_explicit_loop():
    draw = random.Random(15)
    pool = [-0.0, 0.0, 1.0, -1.0, 1e16, -1e16, 0.1, 5e-324, 1e308]
    for _ in range(500):
        values = [
            draw.choice(pool) if draw.random() < 0.5 else draw.uniform(-1e3, 1e3)
            for _ in range(draw.randint(1, 12))
        ]
        total = 0
        for value in values:
            total = total + value
        # float.hex tells -0.0 from 0.0, which == does not.
        assert float.hex(_sum_floats(values)) == float.hex(total), values
    assert float.hex(_sum_floats([-0.0, -0.0])) == float.hex(0.0)


def test_ingest_well_formed_file(tmp_path):
    path = tmp_path / "events.jsonl"
    events = [
        InteractionEvent("u1", "i1", 10, Platform.ECOMMERCE, True),
        InteractionEvent("u1", "i2", 20, Platform.ECOMMERCE, False),
        InteractionEvent("u2", "i1", 5, Platform.ECOMMERCE, True),
    ]
    write_events(path, events)
    result = ingest_log(path)
    assert len(result.events) == 3
    assert result.rejected_count == 0


def test_ingest_reports_rejects(tmp_path):
    path = tmp_path / "events.jsonl"
    lines = [
        event_to_json(InteractionEvent(f"u{i}", "i1", i, Platform.ECOMMERCE, False))
        for i in range(9)
    ]
    lines.insert(4, "definitely not json")
    path.write_text("\n".join(lines) + "\n")
    result = ingest_log(path)
    assert len(result.events) == 9
    assert result.rejected_count == 1
    assert result.rejected[0][0] == 5  # 1-based line number


def test_ingest_sorts_per_user(rng):
    """Out-of-order input comes back sorted, matching an independent stable
    sort event for event: events with equal keys stay in input order."""
    events = random_event_log(rng, n_events=400)
    shuffled = list(events)
    rng.shuffle(shuffled)  # type: ignore[arg-type]
    return_sorted = sorted(shuffled, key=lambda e: (e.user_id, e.timestamp))
    import tempfile, os

    fd, path = tempfile.mkstemp(suffix=".jsonl")
    os.close(fd)
    try:
        write_events(path, shuffled)
        result = ingest_log(path)
    finally:
        os.unlink(path)
    keys = [(e.user_id, e.timestamp) for e in return_sorted]
    assert len(set(keys)) < len(keys)  # equal keys, whose order the sort keeps
    assert [event_to_json(e) for e in result.events] == [
        event_to_json(e) for e in return_sorted
    ]


def test_ingest_is_permutation_of_input(tmp_path, rng):
    events = random_event_log(rng, n_events=200)
    shuffled = list(events)
    rng.shuffle(shuffled)  # type: ignore[arg-type]
    path = tmp_path / "events.jsonl"
    write_events(path, shuffled)
    result = ingest_log(path)
    assert sorted(map(event_to_json, result.events)) == sorted(
        map(event_to_json, shuffled)
    )


def test_ingest_aborts_on_format_mismatch(tmp_path):
    path = tmp_path / "bogus.csv"
    good = event_to_json(InteractionEvent("u1", "i1", 1, Platform.ECOMMERCE, False))
    path.write_text("a,b,c\n1,2,3\n4,5,6\n" + good + "\n")
    with pytest.raises(LogFormatError):
        ingest_log(path)


@pytest.mark.parametrize(
    "first, text",
    [
        ("nope", "line 1: invalid JSON (Expecting value at column 1)"),
        # A line cut inside a string: its newline is the offending character.
        (
            '{"user":"u1","item":"i',
            "line 1: invalid JSON (Invalid control character at column 23)",
        ),
        (
            '{"user":"u1","item":"v1","ts":1,"platform":"video","clicked":true,'
            '"watch":-1,"duration":10}',
            "line 1: watch_duration: must be non-negative",
        ),
    ],
    ids=["parse-error", "cut-line", "validation-error"],
)
def test_format_error_names_first_line_once(tmp_path, first, text):
    path = tmp_path / "bogus.jsonl"
    good = event_to_json(InteractionEvent("u1", "i1", 1, Platform.ECOMMERCE, False))
    path.write_text(f"{first}\nnope\n{good}\n")
    with pytest.raises(LogFormatError) as error:
        ingest_log(path)
    assert str(error.value) == (
        f"2 of 3 lines rejected; this does not look like an event log (first: {text})"
    )


def test_ingest_tolerates_exactly_half_rejects(tmp_path):
    path = tmp_path / "half.jsonl"
    good = event_to_json(InteractionEvent("u1", "i1", 1, Platform.ECOMMERCE, False))
    path.write_text(f"{good}\nnope\n{good}\nnope\n")
    result = ingest_log(path)
    assert len(result.events) == 2
    assert result.rejected_count == 2


def test_ingest_missing_file():
    with pytest.raises(OSError):
        ingest_log("/nonexistent/events.jsonl")


def test_ingest_skips_blank_lines(tmp_path):
    path = tmp_path / "events.jsonl"
    good = event_to_json(InteractionEvent("u1", "i1", 1, Platform.ECOMMERCE, False))
    path.write_text(f"\n{good}\n\n   \n{good}\n")
    result = ingest_log(path)
    assert len(result.events) == 2
    assert result.rejected_count == 0


def test_time_window():
    window = TimeWindow(10, 20)
    assert window.contains(10)
    assert not window.contains(20)
    with pytest.raises(ValueError):
        TimeWindow(20, 10)


def test_serialized_form_uses_schema_keys(rng):
    events = random_event_log(rng, n_events=50)
    for event in events:
        record = json.loads(event_to_json(event))
        assert set(record) <= {
            "user",
            "item",
            "ts",
            "platform",
            "clicked",
            "watch",
            "duration",
            "actions",
        }


#: A valid instance of every class whose constructor applies the type rule.
TYPED_INSTANCES = [
    InteractionEvent("u1", "v1", 1, Platform.VIDEO, True, 3.0, 10.0, frozenset({"like"})),
    TimeWindow(0, 10),
    LabeledSample("u1", "i1", 1, Label.TOLERANCE, 0.5),
    LabelingConfig(),
    TrainConfig(fixed_beta=0.5),
    SimConfig(),
    CohortConfig(TimeWindow(0, 10), TimeWindow(10, 20), Platform.VIDEO),
]


@pytest.mark.parametrize(
    "instance, name",
    [(instance, f.name) for instance in TYPED_INSTANCES for f in fields(instance)],
    ids=[f"{type(i).__name__}.{f.name}" for i in TYPED_INSTANCES for f in fields(i)],
)
def test_no_field_escapes_the_type_rule(instance, name):
    """Every field, a later one too, rejects a value of no type it names."""
    error = EventValidationError if type(instance) is InteractionEvent else ValueError
    with pytest.raises(error, match=f"^{name}:? must be ") as caught:
        replace(instance, **{name: object()})
    if error is EventValidationError:
        assert caught.value.field_name == name


@pytest.mark.parametrize(
    "instance, changes, message",
    [
        (SimConfig(), {"warm_start": "no"}, "warm_start must be a boolean, got 'no'"),
        (SimConfig(), {"warm_start": 1}, "warm_start must be a boolean, got 1"),
        (TYPED_INSTANCES[0], {"user_id": 5}, "user_id: must be a string"),
        (TYPED_INSTANCES[0], {"item_id": 5}, "item_id: must be a string"),
        (TYPED_INSTANCES[0], {"platform": "video"}, "platform: must be a Platform"),
        (TYPED_INSTANCES[0], {"clicked": 1}, "clicked: must be a boolean"),
        (TYPED_INSTANCES[1], {"start": 0.5, "end": 2.5}, "start must be an integer, got 0.5"),
        (TYPED_INSTANCES[2], {"label": "P", "beta": None}, "label must be a Label, got 'P'"),
        (TYPED_INSTANCES[2], {"beta": "0.5"}, "beta must be a number, got '0.5'"),
        (
            LabelingConfig(),
            {"duration_bucket_edges": (True, 5.0)},
            "duration_bucket_edges must be a tuple of numbers, got (True, 5.0)",
        ),
        (
            LabelingConfig(),
            {"duration_bucket_edges": ("a",)},
            "duration_bucket_edges must be a tuple of numbers, got ('a',)",
        ),
        (
            LabelingConfig(),
            {"duration_bucket_edges": [60.0, 300.0]},
            "duration_bucket_edges must be a tuple of numbers, got [60.0, 300.0]",
        ),
        (
            TYPED_INSTANCES[6],
            {"min_watch_seconds": "1"},
            "min_watch_seconds must be a number, got '1'",
        ),
    ],
    ids=[
        "warm_start-str", "warm_start-int", "user_id-int", "item_id-int", "platform-str",
        "clicked-int", "start-float", "label-str", "beta-str", "edges-bool", "edges-str",
        "edges-list", "min_watch_seconds-str",
    ],
)
def test_mistyped_value_fails_by_name(instance, changes, message):
    with pytest.raises(ValueError) as error:
        replace(instance, **changes)
    assert str(error.value) == message


@pytest.mark.parametrize("kind", [list[int], int | str], ids=["list", "union"])
def test_annotation_without_a_rule_fails_naming_it(kind):
    """An annotation the type rule does not cover is an error, not a test
    that admits every value."""
    with pytest.raises(TypeError) as error:
        _type_test(kind)
    assert str(error.value) == f"no type rule for the annotation {kind!r}"
