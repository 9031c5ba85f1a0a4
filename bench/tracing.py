"""In-memory spans around tolrec's public functions, patched from outside.

Each wrapper replaces a function where its caller looks it up (for
example ``tolrec.simulation.train``, not only ``tolrec.trainer.train``),
records a span (name, start, end, parent) and adds work counts taken
from the call's arguments or result. Nothing under ``src/`` changes;
:meth:`Tracer.restore` puts every original attribute back.
"""

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

Counter = Callable[[tuple, Any], dict[str, float]]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` becomes a span named ``name``."""

    owner: Any
    attr: str
    name: str
    count: Counter | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._originals: list[tuple[Any, str, Any]] = []

    def wrap(self, fn: Callable, name: str, count: Counter | None = None) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                for stat, value in count(args, result).items():
                    self.counts[f"{name}.{stat}"] += value
            return result

        return wrapper

    def install(self, targets: list[Target]) -> None:
        for target in targets:
            # Read through __dict__ for classes so a method is restored as
            # the plain function it was, not as a bound or inherited one.
            if isinstance(target.owner, type):
                original = vars(target.owner)[target.attr]
            else:
                original = getattr(target.owner, target.attr)
            self._originals.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self.wrap(original, target.name, target.count))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans and counts; wrappers stay installed."""
        self.spans.clear()
        self.counts.clear()

    def stats(self) -> dict[str, float]:
        """`<name>.s`, `<name>.calls` and `<name>.self_s` per span name,
        plus the recorded work counts."""
        return {**span_stats(self.spans), **self.counts}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans come from one thread, so a span's children never overlap.
    """
    own = [span.end - span.start for span in spans]
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.end - span.start
    return own


def span_stats(spans: list[Span]) -> dict[str, float]:
    stats: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        stats[f"{span.name}.s"] += span.end - span.start
        stats[f"{span.name}.calls"] += 1
        stats[f"{span.name}.self_s"] += own
    return dict(stats)


def tolrec_targets() -> list[Target]:
    """The layer boundaries the benchmark traces, at their call sites."""
    from tolrec import cli, labeling, simulation, trainer

    def ingested(args, result):
        return {"lines": len(result.events) + result.rejected_count,
                "rejected": result.rejected_count}

    def trained(args, result):
        return {"sample_epochs": len(args[0]) * args[1].epochs}

    return [
        Target(cli, "main", "cli.main"),
        Target(cli, "ingest_log", "events.ingest_log", ingested),
        Target(cli, "label_log", "labeling.label_log",
               lambda args, result: {"events": len(args[0])}),
        Target(cli, "write_samples", "labeling.write_samples"),
        Target(cli, "write_profiles", "labeling.write_profiles"),
        Target(cli, "read_samples", "labeling.read_samples"),
        Target(cli, "train", "trainer.train", trained),
        Target(cli, "write_model", "trainer.write_model"),
        Target(cli, "analyze", "cohort.analyze",
               lambda args, result: {"users": result.considered + result.excluded}),
        Target(cli, "write_report", "cohort.write_report"),
        Target(cli, "simulate_experiment", "simulation.simulate_experiment"),
        Target(simulation, "train", "trainer.train", trained),
        Target(simulation, "user_response", "simulation.user_response"),
        Target(trainer, "gradient", "trainer.gradient",
               lambda args, result: {"samples": len(args[1])}),
        Target(trainer, "loss", "trainer.loss"),
        Target(trainer.RankingModel, "rank", "trainer.RankingModel.rank",
               lambda args, result: {"candidates": len(args[2])}),
        Target(labeling.CausalLabeler, "extend", "labeling.CausalLabeler.extend",
               lambda args, result: {"events": len(args[1])}),
    ]
