"""The canonical-line grammars against the full record path.

A line in exactly the form ``event_to_json`` or ``sample_to_json`` writes
is read by a compiled grammar, with no JSON decode; every other line goes
through ``json``. Whichever path a line takes, ``parse_event`` and
``parse_sample`` must give what ``reference_parse_event`` and
``reference_parse_sample`` give: equal records whose numbers have the
same types, or errors of the same type and message. The lines are drawn
by the annotation-derived strategies of ``test_properties``, then
perturbed in fixed ways that a grammar could get wrong, or given one field
of the wrong type. Every search is derandomized and keeps no example
database.
"""

import json
import re
import sys
from contextlib import contextmanager
from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tolrec import events as events_module
from tolrec import labeling as labeling_module
from tolrec.events import (
    EventParseError,
    EventValidationError,
    InteractionEvent,
    Platform,
    _EVENT_LINE,
    _SAMPLE_LINE,
    _match_event,
    event_to_json,
    parse_event,
    write_events,
)
from tolrec.fixtures import generate_fixture_events
from tolrec.labeling import (
    Label,
    LabeledSample,
    LabelingConfig,
    LabelingMode,
    _match_sample,
    label_log,
    parse_sample,
    sample_to_json,
    write_samples,
)

from oracles import reference_parse_event, reference_parse_sample
from test_properties import events, samples, search

LINE = 4
MANY_DIGITS = "3" * 5001


def _number_to(text: str):
    """Write ``text`` for the value of ``watch`` (an event) or ``beta`` (a sample)."""
    return lambda line: re.sub(r'("(?:watch|beta)":)[^,}]+', rf"\g<1>{text}", line, count=1)


def _ts_to(text: str):
    return lambda line: re.sub(r'"ts":-?[0-9]+', f'"ts":{text}', line, count=1)


def _actions_to(text: str):
    """Give the line ``"actions":text``, in place of its own or as a new key."""
    def perturb(line: str) -> str:
        if '"actions":' in line:
            return re.sub(r'"actions":\[[^\]]*\]', f'"actions":{text}', line)
        return f'{line[:-1]},"actions":{text}}}'
    return perturb


#: Fixed changes to a canonical line: each leaves a line that JSON reads
#: the same or rejects, and each is one a grammar could read differently.
PERTURBATIONS = {
    "space after a colon": lambda line: line.replace(":", ": ", 1),
    "space before the brace": lambda line: line[:-1] + " }",
    "keys reordered": lambda line: json.dumps(
        dict(reversed(json.loads(line).items())), separators=(",", ":")
    ),
    "key repeated": lambda line: '{"user":"twin",' + line[1:],
    "escaped id": lambda line: line.replace('"item":"', '"item":"\\u0041', 1),
    "control character in an id": lambda line: line.replace('"item":"', '"item":"\x01', 1),
    # `int("1\u0665")` is 15 and `float("0.\u0665")` is 0.5; JSON admits neither.
    "unicode digit in ts": _ts_to("1\u0665"),
    "unicode digit in a number": _number_to("0.\u0665"),
    "ts -0": _ts_to("-0"),
    "ts 1E5": _ts_to("1E5"),
    f"ts of {len(MANY_DIGITS)} digits": _ts_to(MANY_DIGITS),
    "number -0": _number_to("-0"),
    "number -0.0": _number_to("-0.0"),
    "number 1E5": _number_to("1E5"),
    "number 2.5e-1": _number_to("2.5e-1"),
    "number 1e400": _number_to("1e400"),
    f"number of {len(MANY_DIGITS)} digits": _number_to(MANY_DIGITS),
    "no actions": _actions_to("[]"),
    "action holding a comma": _actions_to('["cart,like"]'),
    "actions repeated, out of order": _actions_to('["like","cart","like"]'),
    "trailing comma in actions": _actions_to('["cart",]'),
    "CRLF ending": lambda line: line + "\r\n",
    "tab ending": lambda line: line + "\t",
    "text after the record": lambda line: line + "x",
    "two records": lambda line: line + line,
}


def _outcome(parse, line: str):
    """A record and the type of each field, or an error's type and message."""
    try:
        record = parse(line, LINE)
    except (EventParseError, EventValidationError) as exc:
        return type(exc), str(exc)
    values = [getattr(record, f.name) for f in fields(record)]
    return record, [(type(value), repr(value)) for value in values]


def _expected_event(line: str):
    """The reference's outcome, but for one deliberate change: the package
    rejects a ``watch`` or ``duration`` beyond the float range (checked in
    ``test_events.py``), which the reference accepts."""
    outcome = _outcome(reference_parse_event, line)
    event = outcome[0]
    if isinstance(event, InteractionEvent) and event.watch_duration is not None:
        for name in ("watch_duration", "item_duration"):
            if not getattr(event, name) <= sys.float_info.max:
                return EventValidationError, f"{name}: must be finite"
    return outcome


@contextmanager
def _decoded(module):
    """The lines that ``module`` hands to ``_read_record`` within the block,
    and the texts that ``json.loads`` decodes there."""
    lines, loaded = [], []
    decode, loads = module._read_record, json.loads

    def spy(line, *args):
        lines.append(line)
        return decode(line, *args)

    def loads_spy(text, *args, **kwargs):
        loaded.append(text)
        return loads(text, *args, **kwargs)

    module._read_record, json.loads = spy, loads_spy
    try:
        yield lines, loaded
    finally:
        module._read_record, json.loads = decode, loads


def _check_paths(parse, match, module, line: str, expected) -> None:
    """``parse`` gives ``expected`` on ``line``, and decodes it with one
    ``json.loads`` call exactly when ``match`` does not read it."""
    with _decoded(module) as (decoded, loaded):
        assert _outcome(parse, line) == expected, line
    assert decoded == loaded == ([] if match(line) else [line]), line


def _lines(written: str, match) -> list[str]:
    """The written line, the same with its ids unescaped, and each
    perturbation of it with plain ids: a canonical line, since drawn ids
    often need escapes, which send a line through ``json``."""
    record = json.loads(written)
    raw = json.dumps(record, separators=(",", ":"), ensure_ascii=False)
    record.update(user="u1", item="i1")
    plain = json.dumps(record, separators=(",", ":"))
    assert match(plain) is not None, plain
    return [written, raw, *(perturb(plain) for perturb in PERTURBATIONS.values())]


@search(100)
@given(events())
def test_event_lines_parse_as_the_reference(event):
    for line in _lines(event_to_json(event), _match_event):
        expected = _expected_event(line)
        _check_paths(parse_event, _match_event, events_module, line, expected)


@search(100)
@given(samples())
def test_sample_lines_parse_as_the_reference(sample):
    for line in _lines(sample_to_json(sample), _match_sample):
        expected = _outcome(reference_parse_sample, line)
        _check_paths(parse_sample, _match_sample, labeling_module, line, expected)


@pytest.mark.parametrize(
    "parse, match, module, line",
    [
        (parse_event, _match_event, events_module, event_to_json(InteractionEvent(
            "u1", "i1", 5, Platform.VIDEO, True, 2.5, 10, frozenset({"cart", "like"})
        ))),
        (parse_sample, _match_sample, labeling_module,
         sample_to_json(LabeledSample("u1", "i1", 5, Label.TOLERANCE, 0.25))),
    ],
    ids=["event", "sample"],
)
def test_escaped_byte_is_rejected_before_the_decode(parse, match, module, line):
    """A byte that is not UTF-8, which a file read gives as a code point in
    U+DC80..U+DCFF, fails the grammar wherever it stands in a canonical line,
    and the line is rejected naming its column with no ``json.loads`` call:
    ``json`` would take the code point into an id."""
    line += "\n"
    for at in range(len(line) + 1):
        for code in (0xDC80, 0xDCFF):
            bad = line[:at] + chr(code) + line[at:]
            assert match(bad) is None, bad
            expected = f"line {LINE}: not UTF-8 (byte 0x{code - 0xDC00:02x} at column {at + 1})"
            with _decoded(module) as (decoded, loaded):
                assert _outcome(parse, bad) == (EventParseError, expected)
            assert decoded == [bad] and loaded == [], bad


#: Per key, values of the wrong type and the error that names the key.
WRONG_EVENT_VALUES = {
    "user": ([7, None, True, ["u"]], "user and item must be strings"),
    "item": ([7.5, False, {"i": 1}], "user and item must be strings"),
    "ts": (["5", 5.0, True, None, [5]], "ts must be an integer"),
    "platform": ([1, None, "radio", ["video"]], "platform must be one of ['ecommerce', 'video']"),
    "clicked": ([1, 0, "true", None, []], "clicked must be a boolean"),
    "watch": (["3", True, [3], {}], "watch must be a number"),
    "duration": (["10", False, [10]], "duration must be a number"),
    "actions": (
        ["cart", [1], None, {"cart": 1}, [["cart"]]], "actions must be an array of strings"
    ),
}
WRONG_SAMPLE_VALUES = {
    "user": ([7, None, ["u"]], "user and item must be strings"),
    "item": ([0.5, True], "user and item must be strings"),
    "ts": (["5", 5.5, False, None], "ts must be an integer"),
    "label": ([1, None, "X", "p", ["T"]], "unknown label {!r}"),
    "beta": (["0.5", True, [0.5], {}], "beta {!r} outside [0, 1]"),
}


@st.composite
def wrong_field(draw, records, wrong: dict) -> tuple[str, str]:
    """A drawn record's line with one field of the wrong type, and the
    message that names it."""
    record = json.loads(draw(records))
    key = draw(st.sampled_from(sorted(record.keys() & wrong.keys())))
    values, message = wrong[key]
    record[key] = value = draw(st.sampled_from(values))
    return json.dumps(record, separators=(",", ":")), f"line {LINE}: {message.format(value)}"


@search(50)
@given(wrong_field(events().map(event_to_json), WRONG_EVENT_VALUES))
def test_event_field_of_the_wrong_type_is_named(case):
    line, message = case
    assert _EVENT_LINE(line) is None  # every such line takes the full path
    expected = (EventParseError, message)
    assert _outcome(parse_event, line) == _outcome(reference_parse_event, line) == expected


@search(50)
@given(wrong_field(samples().map(sample_to_json), WRONG_SAMPLE_VALUES))
def test_sample_field_of_the_wrong_type_is_named(case):
    line, message = case
    assert _SAMPLE_LINE(line) is None
    expected = (EventParseError, message)
    assert _outcome(parse_sample, line) == _outcome(reference_parse_sample, line) == expected


def test_every_written_line_matches_its_grammar(tmp_path):
    """The lines tolrec writes take the grammar's path, so a change to a
    writer or a pattern cannot send them all through ``json`` unseen."""
    log = generate_fixture_events(n_events=2000, n_users=100, n_items=300, seed=0)
    log.sort(key=lambda e: (e.user_id, e.timestamp))
    event_path, sample_path = tmp_path / "events.jsonl", tmp_path / "samples.jsonl"
    write_events(event_path, log)
    labeled = [label_log(log, LabelingConfig(), mode).samples for mode in LabelingMode]
    write_samples(sample_path, [sample for batch in labeled for sample in batch])
    for path, match in ((event_path, _match_event), (sample_path, _match_sample)):
        with open(path, encoding="utf-8") as handle:
            unmatched = [line for line in handle if match(line) is None]
        assert unmatched == [], path.name
