"""Interaction-log data model and line-delimited ingestion.

Event files are UTF-8 text with one JSON object per line:

    {"user": "u1", "item": "i1", "ts": 100, "platform": "ecommerce",
     "clicked": true, "actions": ["purchase"]}

Keys: ``user`` (string), ``item`` (string), ``ts`` (integer seconds),
``platform`` ("ecommerce" | "video"), ``clicked`` (boolean),
``watch`` (number, video only), ``duration`` (number, video only),
``actions`` (array of strings, optional). ``watch`` and ``duration`` must
be finite: ``NaN`` and ``Infinity``, which JSON parsers accept, and
integers too large for a float are rejected. Unknown keys and unknown
action strings are rejected rather than dropped, so schema drift
surfaces early.
"""

import gc
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cache, reduce
from itertools import combinations
from operator import add, attrgetter, itemgetter
from pathlib import Path
from types import UnionType


class Platform(Enum):
    ECOMMERCE = "ecommerce"
    VIDEO = "video"


#: Every follow-up action the schema accepts, across both platforms.
ACTION_VOCABULARY = frozenset(
    {"cart", "favorite", "purchase", "like", "comment", "share", "follow"}
)

_EVENT_KEYS = frozenset(
    {"user", "item", "ts", "platform", "clicked", "watch", "duration", "actions"}
)
_EVENT_FIELDS = itemgetter("user", "item", "ts", "platform", "clicked")
_PLATFORMS = {p.value: p for p in Platform}
#: Each subset of the vocabulary, keyed by itself: an event holds the one
#: object here that equals its actions, not a set of its own.
_ACTION_SETS = {
    actions: actions
    for size in range(len(ACTION_VOCABULARY) + 1)
    for actions in map(frozenset, combinations(sorted(ACTION_VOCABULARY), size))
}
#: Shared by every event without follow-up actions.
_NO_ACTIONS: frozenset[str] = _ACTION_SETS[frozenset()]
# Build a frozen dataclass instance field by field, without its checks.
_new = object.__new__
_set = object.__setattr__


def _sum_floats(values) -> float:
    """``values`` added left to right from 0, as ``sum`` adds floats up to
    Python 3.11. From 3.12 ``sum`` compensates the rounding, which could move
    the last bit of an output between interpreter versions."""
    return reduce(add, values, 0)


def _is_number(value) -> bool:
    return isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool))


#: (test, words for messages) of each annotation that is not a class or ``X | None``.
_KNOWN_TYPES = {
    int: (lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: (_is_number, "a number"),
    bool: (bool.__instancecheck__, "a boolean"),
    str: (str.__instancecheck__, "a string"),
    tuple[float, ...]: (lambda v: isinstance(v, tuple) and all(map(_is_number, v)),
                        "a tuple of numbers"),
    frozenset[str]: (lambda v: isinstance(v, frozenset) and all(map(str.__instancecheck__, v)),
                     "a set of strings"),
}


def _type_test(kind) -> tuple:
    """The test of a value against the annotation ``kind`` and the words naming the type.
    Only ``bool`` admits a bool; ``T.__instancecheck__(v)`` is ``isinstance(v, T)``."""
    if kind in _KNOWN_TYPES:
        return _KNOWN_TYPES[kind]
    if isinstance(kind, UnionType) and kind.__args__[1:] == (type(None),):
        test, what = _type_test(kind.__args__[0])
        return (lambda v: v is None or test(v)), what
    if isinstance(kind, type):  # a class: an enum, a window
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        return kind.__instancecheck__, f"{article} {kind.__name__}"
    raise TypeError(f"no type rule for the annotation {kind!r}")


# Built once per class from the field annotations. No module may use
# `from __future__ import annotations`, which makes every annotation a string.
@cache
def _field_tests(cls) -> tuple:
    return tuple((f.name, *_type_test(f.type)) for f in fields(cls))


def _check_types(instance, error=None) -> None:
    """Raise for the first field of ``instance`` that its annotation does not
    admit: ``error(name, "must be <type>")``, or a ValueError naming the value."""
    for name, test, what in _field_tests(type(instance)):
        if not test(value := getattr(instance, name)):
            raise (error(name, f"must be {what}") if error
                   else ValueError(f"{name} must be {what}, got {value!r}"))


class EventValidationError(ValueError):
    """An event violates an invariant; ``field_name`` names the offender."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


class EventParseError(ValueError):
    """A line of an event file or a sample file could not be parsed as a record."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class LogFormatError(ValueError):
    """More than half the lines of a log file were rejected."""


@dataclass(frozen=True, slots=True)
class InteractionEvent:
    """One user-item interaction.

    ``watch_duration`` and ``item_duration`` are present exactly when
    ``platform`` is video; follow-up actions imply ``clicked``.
    """

    user_id: str
    item_id: str
    timestamp: int
    platform: Platform
    clicked: bool
    watch_duration: float | None = None
    item_duration: float | None = None
    followup_actions: frozenset[str] = _NO_ACTIONS

    def __post_init__(self):
        _check_types(self, EventValidationError)
        _check_event(self)


def _check_event(event: InteractionEvent) -> None:
    """Raise :class:`EventValidationError` for the first broken invariant: the
    checks of the public constructor and of :func:`parse_event` alike."""
    if not event.user_id:
        raise EventValidationError("user_id", "must be a nonempty string")
    if not event.item_id:
        raise EventValidationError("item_id", "must be a nonempty string")
    watch, duration = event.watch_duration, event.item_duration
    if event.platform is Platform.VIDEO:
        if watch is None:
            raise EventValidationError("watch_duration", "required for video events")
        if duration is None:
            raise EventValidationError("item_duration", "required for video events")
        if watch < 0:
            raise EventValidationError("watch_duration", "must be non-negative")
        if duration <= 0:
            raise EventValidationError("item_duration", "must be positive")
        # Both are non-negative here. Unlike ``math.isfinite``, which raises
        # OverflowError on an int beyond the float range, ``<=`` compares it.
        if not watch <= sys.float_info.max:
            raise EventValidationError("watch_duration", "must be finite")
        if not duration <= sys.float_info.max:
            raise EventValidationError("item_duration", "must be finite")
    else:
        if watch is not None:
            raise EventValidationError("watch_duration", "only valid for video events")
        if duration is not None:
            raise EventValidationError("item_duration", "only valid for video events")
    actions = event.followup_actions
    if actions:
        unknown = actions - ACTION_VOCABULARY
        if unknown:
            raise EventValidationError(
                "followup_actions", f"unknown actions {sorted(unknown)}"
            )
        if not event.clicked:
            raise EventValidationError("followup_actions", "actions require clicked=true")


@dataclass(frozen=True)
class TimeWindow:
    """Half-open timestamp range ``[start, end)``."""

    start: int
    end: int

    def __post_init__(self):
        _check_types(self)
        if self.start >= self.end:
            raise ValueError(f"window start {self.start} must precede end {self.end}")

    def contains(self, timestamp: int) -> bool:
        return self.start <= timestamp < self.end


def _number(record: dict, key: str, line_number: int) -> float | None:
    value = record.get(key)
    if value is None or type(value) is float:
        return value
    if type(value) is not int:
        raise EventParseError(line_number, f"{key} must be a number")
    try:
        return float(value)
    except OverflowError:  # a JSON integer beyond the float range
        raise EventParseError(line_number, f"{key} must be a finite number") from None


# `json.loads` skips leading whitespace, decodes, then requires only this
# whitespace after the value; a line starting with its value needs the last two.
_decode = json.JSONDecoder().raw_decode
_skip_space = json.decoder.WHITESPACE.match


def _read_record(
    line: str, line_number: int, keys: frozenset, fields: itemgetter, ids: dict
) -> tuple:
    """The checks every record makes, in this order: valid JSON, an object,
    no key outside ``keys``, each of ``fields`` present, string user and
    item, integer ts. Returns the record and the values of ``fields``, which
    start with user, item and ts; the user and item are the first equal
    string that ``ids`` has seen, so the records of one read share each id.
    A line that does not decode from its first character, or has more than
    whitespace after its value, goes through ``json.loads``, which accepts
    it or names the fault's column."""
    try:
        record, end = _decode(line)
    except json.JSONDecodeError:
        end = None
    if end is None or _skip_space(line, end).end() != len(line):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            message = f"{exc.msg.removesuffix(' at')} at column {exc.colno}"
            raise EventParseError(line_number, f"invalid JSON ({message})") from exc
    if type(record) is not dict:
        raise EventParseError(line_number, "record must be a JSON object")
    if not record.keys() <= keys:
        raise EventParseError(line_number, f"unknown keys {sorted(record.keys() - keys)}")
    try:
        values = fields(record)
    except KeyError as exc:
        raise EventParseError(line_number, f"missing key {exc.args[0]!r}") from None
    # JSON values have exact builtin types: `type(x) is T` tells bool from int.
    if type(values[0]) is not str or type(values[1]) is not str:
        raise EventParseError(line_number, "user and item must be strings")
    if type(values[2]) is not int:
        raise EventParseError(line_number, "ts must be an integer")
    user, item = values[0], values[1]
    return record, (ids.setdefault(user, user), ids.setdefault(item, item), *values[2:])


def parse_event(line: str, line_number: int = 0) -> InteractionEvent:
    """Parse one JSON record into a validated :class:`InteractionEvent`.

    Raises :class:`EventParseError` for malformed records and
    :class:`EventValidationError` when a well-formed record violates an
    event invariant. Each check runs once; the event is then built
    without running them again.
    """
    return _parse_event(line, line_number, {})


def _parse_event(line: str, line_number: int, ids: dict) -> InteractionEvent:
    """:func:`parse_event`, taking its ids from the read's table ``ids``."""
    record, (user, item, ts, platform, clicked) = _read_record(
        line, line_number, _EVENT_KEYS, _EVENT_FIELDS, ids
    )
    if type(clicked) is not bool:
        raise EventParseError(line_number, "clicked must be a boolean")
    try:
        platform = _PLATFORMS[platform]
    except (KeyError, TypeError):
        raise EventParseError(
            line_number, f"platform must be one of {[p.value for p in Platform]}"
        ) from None
    actions = record.get("actions", _NO_ACTIONS)
    if actions is not _NO_ACTIONS:
        if type(actions) is not list or not all(type(a) is str for a in actions):
            raise EventParseError(line_number, "actions must be an array of strings")
        actions = frozenset(actions)
        actions = _ACTION_SETS.get(actions, actions)  # a set with an unknown action is its own
    watch = _number(record, "watch", line_number)
    duration = _number(record, "duration", line_number)
    event = _new(InteractionEvent)
    _set(event, "user_id", user)
    _set(event, "item_id", item)
    _set(event, "timestamp", ts)
    _set(event, "platform", platform)
    _set(event, "clicked", clicked)
    _set(event, "watch_duration", watch)
    _set(event, "item_duration", duration)
    _set(event, "followup_actions", actions)
    _check_event(event)
    return event


_json_string = json.encoder.encode_basestring_ascii


def _json_number(value: float) -> str:
    """``value`` as ``json.dumps`` writes it, which is the repr of a finite float."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    return json.dumps(value)


def event_to_json(event: InteractionEvent) -> str:
    """Serialize an event to its one-line JSON form (round-trips exactly),
    byte for byte as ``json.dumps`` writes it with ``separators=(",", ":")``."""
    text = (
        f'{{"user":{_json_string(event.user_id)},"item":{_json_string(event.item_id)},'
        f'"ts":{int.__repr__(event.timestamp)},"platform":"{event.platform.value}",'
        f'"clicked":{"true" if event.clicked else "false"}'
    )
    if event.platform is Platform.VIDEO:
        text += (
            f',"watch":{_json_number(event.watch_duration)}'
            f',"duration":{_json_number(event.item_duration)}'
        )
    if event.followup_actions:
        text += f',"actions":[{",".join(map(_json_string, sorted(event.followup_actions)))}]'
    return text + "}"


@dataclass
class IngestResult:
    """Valid events sorted by (user, timestamp) plus rejection accounting."""

    events: list[InteractionEvent]
    rejected: list[tuple[int, str]] = field(default_factory=list)

    @property
    def rejected_count(self) -> int:
        return len(self.rejected)

    @property
    def first_rejection(self) -> str:
        """``line K: reason`` for the first rejected line, naming it once."""
        number, message = self.rejected[0]  # a parse error's message names its line
        return f"line {number}: {message.removeprefix(f'line {number}: ')}"


@contextmanager
def _paused_gc():
    """Turn the cyclic collector off while a loop builds many acyclic records,
    which it would scan again and again and never free; then restore the
    caller's setting, also when the loop raises."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def ingest_log(path: str | Path) -> IngestResult:
    """Read an event file, tolerating out-of-order and malformed lines.

    One serial pass streams the file: blank lines are skipped, and each
    other line becomes an event or a ``(line number, message)`` rejection.
    Output is sorted by (user_id, timestamp), which downstream causal
    labeling relies on. Raises :class:`LogFormatError` if more than half
    the non-blank lines are rejected, since that indicates the wrong file
    format rather than a few bad records.
    """
    events: list[InteractionEvent] = []
    rejected: list[tuple[int, str]] = []
    ids: dict[str, str] = {}  # one string per id for this read's events only
    with _paused_gc():
        with open(path, encoding="utf-8") as handle:
            for number, line in enumerate(handle, start=1):
                if not line.strip():
                    continue
                try:
                    events.append(_parse_event(line, number, ids))
                except (EventParseError, EventValidationError) as exc:
                    rejected.append((number, str(exc)))

        result = IngestResult(events=events, rejected=rejected)
        if len(rejected) > len(events):
            raise LogFormatError(
                f"{len(rejected)} of {len(events) + len(rejected)} lines rejected; "
                f"this does not look like an event log (first: {result.first_rejection})"
            )

        # Two stable passes give the (user_id, timestamp) order, ties in
        # input order, without a key tuple per event.
        events.sort(key=attrgetter("timestamp"))
        events.sort(key=attrgetter("user_id"))
    return result


def write_events(path: str | Path, events: list[InteractionEvent]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(event_to_json(event) + "\n")
