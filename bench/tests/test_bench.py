"""Tests of the benchmark itself: span arithmetic, patching, verification.

Run with `python3 -m pytest bench/tests` from the repository root.
"""

import sys
import types
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run as bench  # noqa: E402
from tracing import Span, Target, Tracer, self_times, span_stats, tolrec_targets  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, write_inputs  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("root", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("leaf", 2.0, 3.0, 1),
        Span("a", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    stats = span_stats(spans)
    assert stats["a.s"] == 7.0
    assert stats["a.calls"] == 2
    assert stats["a.self_s"] == 6.0
    assert stats["root.self_s"] == 3.0


def test_wrappers_nest_count_and_restore():
    ns = types.SimpleNamespace()
    ns.inner = lambda items: len(items)
    ns.outer = lambda items: ns.inner(items) + ns.inner(items[:1])
    inner, outer = ns.inner, ns.outer
    tracer = Tracer()
    tracer.install(
        [
            Target(ns, "outer", "outer"),
            Target(ns, "inner", "inner", lambda args, result: {"items": len(args[0])}),
        ]
    )
    assert ns.outer([1, 2, 3]) == 4
    tracer.restore()

    assert ns.inner is inner and ns.outer is outer
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None),
        ("inner", 0),
        ("inner", 0),
    ]
    assert tracer.stats()["inner.items"] == 4
    assert tracer.stats()["inner.calls"] == 2


def _current(target: Target):
    if isinstance(target.owner, type):
        return vars(target.owner)[target.attr]
    return getattr(target.owner, target.attr)


def test_tolrec_targets_are_patched_at_call_sites_and_restored():
    targets = tolrec_targets()
    originals = [_current(t) for t in targets]
    tracer = Tracer()
    tracer.install(targets)
    try:
        assert all(_current(t) is not o for t, o in zip(targets, originals))
    finally:
        tracer.restore()
    assert all(_current(t) is o for t, o in zip(targets, originals))


def test_flipped_byte_counts_as_failed_operation(tmp_path):
    workload = WORKLOADS["loo-sparse"]
    write_inputs(workload, DEFAULT_SEED, tmp_path)
    results = bench.run_commands(workload.commands, tmp_path)
    ops = bench.Operations(workload, DEFAULT_SEED, tmp_path)
    ops.check(results)
    assert (ops.attempted, ops.failed) == (1, 0)

    samples = tmp_path / "out" / "samples.jsonl"
    data = bytearray(samples.read_bytes())
    data[len(data) // 2] ^= 0x01
    samples.write_bytes(bytes(data))
    ops.check(results)
    assert (ops.attempted, ops.failed) == (2, 1)


def test_traced_run_verifies_covers_and_restores():
    targets = tolrec_targets()
    originals = [_current(t) for t in targets]
    metrics, ops = bench.run(WORKLOADS["sim-paired"], DEFAULT_SEED, 0, trace=True)
    assert ops.attempted == 1 and ops.failed == 0
    assert metrics["cli.main.covered"] >= 0.9
    assert metrics["trainer.train.calls"] == 14
    assert all(_current(t) is o for t, o in zip(targets, originals))
