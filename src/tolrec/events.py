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

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path


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
_PLATFORMS = {p.value: p for p in Platform}
#: Shared by every event without follow-up actions.
_NO_ACTIONS: frozenset[str] = frozenset()
# Build a frozen dataclass instance field by field, without its checks.
_new = object.__new__
_set = object.__setattr__


class EventValidationError(ValueError):
    """An event violates a type invariant; ``field`` names the offender."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


class EventParseError(ValueError):
    """A line could not be parsed as an event record."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class LogFormatError(ValueError):
    """More than half the lines of a log file were rejected."""


@dataclass(frozen=True)
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
        ts = self.timestamp
        _check_event(self, not isinstance(ts, bool) and isinstance(ts, int))


def _check_event(event: InteractionEvent, timestamp_is_int: bool = True) -> None:
    """Raise :class:`EventValidationError` for the first broken invariant: the
    checks of the public constructor and of :func:`parse_event` alike."""
    if not event.user_id:
        raise EventValidationError("user_id", "must be a nonempty string")
    if not event.item_id:
        raise EventValidationError("item_id", "must be a nonempty string")
    if not timestamp_is_int:
        raise EventValidationError("timestamp", "must be an integer")
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
        if not math.isfinite(watch):
            raise EventValidationError("watch_duration", "must be finite")
        if not math.isfinite(duration):
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


def parse_event(line: str, line_number: int = 0) -> InteractionEvent:
    """Parse one JSON record into a validated :class:`InteractionEvent`.

    Raises :class:`EventParseError` for malformed records and
    :class:`EventValidationError` when a well-formed record violates an
    event invariant. Each check runs once; the event is then built
    without running them again.
    """
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise EventParseError(line_number, f"invalid JSON ({exc.msg})") from exc
    if type(record) is not dict:
        raise EventParseError(line_number, "record must be a JSON object")
    if not record.keys() <= _EVENT_KEYS:
        unknown = sorted(record.keys() - _EVENT_KEYS)
        raise EventParseError(line_number, f"unknown keys {unknown}")
    try:
        user, item, ts = record["user"], record["item"], record["ts"]
        platform, clicked = record["platform"], record["clicked"]
    except KeyError as exc:
        raise EventParseError(line_number, f"missing key {exc.args[0]!r}") from None
    # JSON values have exact builtin types: `type(x) is T` tells bool from int.
    if type(user) is not str or type(item) is not str:
        raise EventParseError(line_number, "user and item must be strings")
    if type(ts) is not int:
        raise EventParseError(line_number, "ts must be an integer")
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
        actions = frozenset(actions) if actions else _NO_ACTIONS
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


def _parse_or_reject(
    numbered: tuple[int, str],
) -> tuple[InteractionEvent | None, tuple[int, str] | None]:
    number, line = numbered
    try:
        return parse_event(line, number), None
    except (EventParseError, EventValidationError) as exc:
        return None, (number, str(exc))


def ingest_log(path: str | Path, workers: int = 1) -> IngestResult:
    """Read an event file, tolerating out-of-order and malformed lines.

    Blank lines are skipped. Output is sorted by (user_id, timestamp),
    which downstream causal labeling relies on. Raises
    :class:`LogFormatError` if more than half the non-blank lines are
    rejected, since that indicates the wrong file format rather than a
    few bad records. Parsing may fan out over ``workers`` threads; the
    final sort keeps the result deterministic either way.
    """
    with open(path, encoding="utf-8") as handle:
        numbered = [
            (i, line) for i, line in enumerate(handle, start=1) if line.strip()
        ]

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_parse_or_reject, numbered))
    else:
        outcomes = [_parse_or_reject(pair) for pair in numbered]

    events = [event for event, _ in outcomes if event is not None]
    rejected = [reject for _, reject in outcomes if reject is not None]

    if numbered and len(rejected) * 2 > len(numbered):
        raise LogFormatError(
            f"{len(rejected)} of {len(numbered)} lines rejected; "
            f"this does not look like an event log (first: "
            f"line {rejected[0][0]}: {rejected[0][1]})"
        )

    events.sort(key=lambda e: (e.user_id, e.timestamp))
    return IngestResult(events=events, rejected=rejected)


def write_events(path: str | Path, events: list[InteractionEvent]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(event_to_json(event) + "\n")
