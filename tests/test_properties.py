"""Properties of the record formats and of the labeling and cohort pipeline,
searched by hypothesis.

The inputs are ones the fixture generator never makes: any subset of the
action vocabulary, ids that differ only in case or by trailing NULs, logs
whose timestamps tie within and across users, one-event users, durations
exactly on a bucket edge, clicked videos with no action, and numbers
written as integers, also above 2**53 and near the top of the float range.
Each record field is drawn by the strategy of its annotation, the one that
``_field_tests`` reads, so a new field or annotation cannot be missed.
Every search is derandomized and keeps no example database, so a run is
deterministic.
"""

import sys
import tempfile
from bisect import bisect_right
from dataclasses import fields
from itertools import groupby
from pathlib import Path
from types import UnionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tolrec.cohort import CohortConfig, analyze
from tolrec.events import (
    ACTION_VOCABULARY,
    InteractionEvent,
    Platform,
    TimeWindow,
    _ACTION_SETS,
    event_to_json,
    ingest_log,
    parse_event,
    write_events,
)
from tolrec.labeling import (
    CausalLabeler,
    Label,
    LabeledSample,
    LabelingConfig,
    LabelingMode,
    RuleMode,
    label_log,
    parse_sample,
    sample_to_json,
)

from oracles import (
    brute_force_causal_labels,
    reference_analyze,
    reference_causal_extend,
    reference_label_leave_one_out,
)


def search(examples: int):
    return settings(max_examples=examples, derandomize=True, database=None, deadline=None)


@st.composite
def id_pools(draw) -> list[str]:
    """A few ids and their near twins: swapped case and trailing NULs."""
    pool = []
    for base in draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=3)):
        pool += [base, base.swapcase(), base + "\0", base + "\0\0"]
    return pool


FLOAT_MAX = int(sys.float_info.max)
#: A few instants, so that events tie, or any integer second.
timestamps = st.integers(0, 3) | st.integers()
#: Non-negative numbers as a line may write them: any finite float, a small
#: integer, a round one whose ratios tie (30 / 60 is the global mean's seed)
#: or that lies on a bucket edge of the default labeling config, an integer
#: around 2**53, where a float would round it, or one at the top of the
#: float range.
numbers = (
    st.floats(min_value=0, allow_infinity=False)
    | st.integers(0, 100)
    | st.sampled_from([3, 10, 30, 60, 60.0, 300, 300.0])
    | st.integers(2**53 - 1, 2**53 + 3)
    | st.integers(FLOAT_MAX - 2**975, FLOAT_MAX)
)


#: One strategy per field annotation of the records, but for ``str``, which
#: draws from the ids of a pool; an annotation ``X | None`` also draws None.
BY_ANNOTATION = {
    int: timestamps,
    float: numbers,
    bool: st.booleans(),
    Platform: st.sampled_from(Platform),
    Label: st.sampled_from(Label),
    frozenset[str]: st.frozensets(st.sampled_from(sorted(ACTION_VOCABULARY))),
}


def _annotated(kind, strategies: dict):
    if isinstance(kind, UnionType) and kind.__args__[1:] == (type(None),):
        return _annotated(kind.__args__[0], strategies) | st.none()
    return strategies[kind]


def records(cls, ids: list[str]):
    """Dicts with a value for every field of ``cls``, drawn by its annotation."""
    strategies = {**BY_ANNOTATION, str: st.sampled_from(ids)}
    return st.fixed_dictionaries({f.name: _annotated(f.type, strategies) for f in fields(cls)})


def events(ids: list[str] | None = None):
    if ids is None:
        return id_pools().flatmap(events)
    return _valid_event(records(InteractionEvent, ids))


@st.composite
def _valid_event(draw, records) -> InteractionEvent:
    """An event from drawn fields, made to hold the invariants: actions
    imply a click, and a video has a watch time and a positive duration,
    which other events lack."""
    value = draw(records)
    value["clicked"] |= bool(value["followup_actions"])
    if value["platform"] is Platform.VIDEO:
        for name in ("watch_duration", "item_duration"):
            if value[name] is None:
                value[name] = draw(numbers)
        value["item_duration"] = value["item_duration"] or 1
    else:
        value["watch_duration"] = value["item_duration"] = None
    return InteractionEvent(**value)


@st.composite
def samples(draw) -> LabeledSample:
    """A sample from drawn fields; beta is present exactly on tolerance,
    folded into [0, 1]."""
    value = draw(records(LabeledSample, draw(id_pools())))
    beta = None
    if value["label"] is Label.TOLERANCE:
        beta = draw(numbers) if value["beta"] is None else value["beta"]
        beta = beta if beta <= 1 else 1 / beta
    value["beta"] = beta
    return LabeledSample(**value)


@st.composite
def logs(draw) -> list[InteractionEvent]:
    """Up to 12 events whose ids come from the first few of a pool, so that
    users recur within a log."""
    pool = draw(id_pools())
    return draw(st.lists(events(pool[: draw(st.integers(1, len(pool)))]), max_size=12))


#: Histories short enough for a few events to reach; both rules and baselines.
labeling_configs = st.builds(
    LabelingConfig,
    rule_mode=st.sampled_from(RuleMode),
    min_history=st.integers(1, 3),
    ratio_cap=st.sampled_from([1.0, 2.0]),
    beta_baseline=st.sampled_from(["user", "population"]),
)


@st.composite
def cohort_cases(draw) -> tuple[list[InteractionEvent], CohortConfig]:
    """A log, adjacent windows bounded by its instants or just after them,
    so that users engage in both windows, and either ratio cap."""
    log = draw(logs())
    bounds = sorted({bound for e in log for bound in (e.timestamp, e.timestamp + 1)} | {0, 1, 2})
    start, split, end = sorted(draw(st.sets(st.sampled_from(bounds), min_size=3, max_size=3)))
    config = CohortConfig(
        TimeWindow(start, split),
        TimeWindow(split, end),
        draw(st.sampled_from(Platform)),
        min_watch_seconds=draw(numbers),
        ratio_cap=draw(st.sampled_from([1.0, 2.0])),
    )
    return log, config


@pytest.mark.parametrize("cls", [InteractionEvent, LabeledSample])
def test_every_record_field_has_a_strategy(cls):
    """A new field with a new annotation needs its strategy here."""
    try:
        records(cls, ["u"])
    except KeyError as exc:
        pytest.fail(f"no strategy for the annotation {exc.args[0]!r} of a {cls.__name__} field")


@search(150)
@given(events())
def test_event_round_trip(event):
    parsed = parse_event(event_to_json(event))
    assert parsed == event
    assert parsed.followup_actions is _ACTION_SETS[event.followup_actions]


@search(100)
@given(events())
def test_event_line_round_trip(event):
    line = event_to_json(event)
    assert event_to_json(parse_event(line)) == line


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


@search(150)
@given(logs(), labeling_configs, st.lists(st.integers(0, 4), max_size=3))
def test_labels_match_the_oracles(log, config, cuts):
    """Causal labels equal the brute-force oracle's, and again the per-event
    reference loop's when the log comes in batches split at the ``cuts``
    instants, each later than the ones before it; leave-one-out labels,
    profiles and global mean equal the reference's. One log serves all three
    relations, since drawing it costs more than checking it."""
    log.sort(key=lambda e: (e.user_id, e.timestamp))
    assert label_log(log, config).samples == brute_force_causal_labels(log, config)

    labeler, reference = CausalLabeler(config), CausalLabeler(config)
    cuts = sorted(set(cuts))

    def batch_of(event):
        return bisect_right(cuts, event.timestamp)

    for _, batch in groupby(sorted(log, key=batch_of), key=batch_of):
        batch = list(batch)
        assert labeler.extend(batch) == reference_causal_extend(reference, batch)
    assert labeler.profiles == reference.profiles
    assert labeler.global_mean == reference.global_mean

    result = label_log(log, config, LabelingMode.LEAVE_ONE_OUT)
    expected = reference_label_leave_one_out(log, config)
    assert result.samples == expected.samples
    assert result.profiles == expected.profiles
    assert result.global_mean == expected.global_mean


@search(100)
@given(cohort_cases())
def test_cohort_analysis_matches_the_reference(case):
    log, config = case
    assert analyze(log, config) == reference_analyze(log, config)
