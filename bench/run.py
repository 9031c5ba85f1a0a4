"""tolrec benchmark: runs the public CLI in-process on seeded inputs.

    python3 bench/run.py                    every workload, untraced then traced,
                                            as a table (--out FILE saves it as JSON)
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                                            one run; the last stdout line is JSON
    python3 bench/run.py --record-digests   re-pin digests.json at the default seed

A run writes the workload's inputs from the seed, runs whole iterations
of its CLI commands for the given seconds, checks every command's
outputs, and reports medians over the iterations, in seconds scaled by
a reference computation timed alongside (REFERENCE_NOMINAL_S). With --trace 1 the
public functions of each layer are wrapped from outside (tracing.py)
and the run reports per-layer times and work counts instead. See
README.md in this directory for the workloads and metrics.
"""

import os

# One thread everywhere, before numpy can be imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

from tracing import Tracer, tolrec_targets  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED,
    DIGESTS_PATH,
    WORKLOADS,
    Workload,
    artifact_digests,
    expected_digests,
    verify,
    write_inputs,
)

#: Fresh processes that import tolrec and write the inputs; setup_s is their median.
SETUP_REPEATS = 3
#: Nominal seconds of `reference_seconds()`. Every time the benchmark
#: reports is measured seconds times this over the mean of the reference
#: times taken just before and just after the measured command, so that
#: the host's speed drift cancels. `wall_raw_s` is the one unscaled figure.
REFERENCE_NOMINAL_S = 0.3


@contextlib.contextmanager
def _cwd(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


def run_commands(
    commands: tuple[tuple[str, ...], ...], directory: Path
) -> list[tuple[str, int, float]]:
    """Run CLI commands through ``tolrec.cli.main``, looked up per call so
    a traced ``main`` is used. Returns (command, exit code, seconds)."""
    from tolrec import cli

    results = []
    with _cwd(directory):
        for argv in commands:
            captured = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stderr(captured):
                code = cli.main(list(argv))
            results.append((argv[0], code, time.perf_counter() - start))
            if code != 0:
                print(f"{argv[0]} exited {code}: {captured.getvalue()}", file=sys.stderr)
    return results


class Operations:
    """Every CLI command is one operation; it fails on a nonzero exit or
    on a problem in its outputs."""

    def __init__(self, workload: Workload, seed: int, directory: Path):
        self.workload = workload
        self.directory = directory
        self.expected = expected_digests(workload, seed)
        self.attempted = 0
        self.failed = 0

    def check(self, results: list[tuple[str, int, float]]) -> None:
        problems = verify(self.workload, self.directory, self.expected)
        for command, code, _ in results:
            self.attempted += 1
            if code != 0 or problems[command]:
                self.failed += 1
                for problem in problems[command]:
                    print(f"{command}: {problem}", file=sys.stderr)


def _setup_once(workload: Workload, seed: int, directory: Path) -> float:
    """Seconds a fresh process takes to import tolrec and write the inputs."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--setup-dir", str(directory),
         "--workload", workload.name, "--seed", str(seed)],
        capture_output=True,
        text=True,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return float(proc.stdout.split()[-1])


def _speed(before: float, after: float) -> float:
    return 2.0 * REFERENCE_NOMINAL_S / (before + after)


def setup_seconds(workload: Workload, seed: int, directory: Path) -> list[float]:
    reference = reference_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        seconds = _setup_once(workload, seed, directory)
        following = reference_seconds()
        setups.append(seconds * _speed(reference, following))
        reference = following
    return setups


def setup_main(workload: Workload, seed: int, directory: Path) -> float:
    start = time.perf_counter()
    import tolrec.cli  # noqa: F401

    write_inputs(workload, seed, directory)
    return time.perf_counter() - start


def src_lines() -> int:
    return sum(
        1
        for path in sorted((SRC / "tolrec").glob("*.py"))
        for line in path.read_text(encoding="utf-8").splitlines()
        if line.strip()
    )


def loo_growth(seed: int) -> float:
    """LOO labeling time on the loo-sparse log over the time on a log of
    half the events and half the users: 2 when cost grows linearly."""
    from tolrec.fixtures import generate_fixture_events
    from tolrec.labeling import LabelingConfig, LabelingMode, label_log

    shape = WORKLOADS["loo-sparse"]
    times = []
    for divisor in (1, 2):
        events = sorted(
            generate_fixture_events(
                n_events=shape.n_events // divisor,
                n_users=shape.n_users // divisor,
                n_items=shape.n_items,
                seed=seed,
            ),
            key=lambda e: (e.user_id, e.timestamp),
        )
        start = time.perf_counter()
        label_log(events, LabelingConfig(), LabelingMode.LEAVE_ONE_OUT)
        times.append(time.perf_counter() - start)
    return times[0] / times[1]


def reference_seconds() -> float:
    """Time of a fixed computation that does not use tolrec: interpreter
    work on a dict and small numpy scatter-adds, the mix of tolrec's hot
    paths. Run between iterations, it tracks how fast the host runs this
    process at the time."""
    import numpy as np

    rng = np.random.default_rng(0)
    table = rng.random((2000, 8))
    rows = rng.integers(0, 2000, 256)
    start = time.perf_counter()
    acc: dict[int, float] = {}
    for i in range(450_000):
        acc[i % 977] = acc.get(i % 977, 0.0) + i * 0.5
    for _ in range(4500):
        grad = np.zeros_like(table)
        np.add.at(grad, rows, table[rows] * 0.5)
    return time.perf_counter() - start


def _measure(
    workload: Workload, directory: Path, seconds: float, ops: Operations, tracer
) -> dict[str, float]:
    """Whole iterations for ``seconds``; the median of each figure."""
    iterations: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    reference = reference_seconds()
    while not iterations or time.perf_counter() < deadline:
        gc.collect()
        record: dict[str, float] = defaultdict(float)
        results = []
        for argv in workload.commands:
            if tracer is not None:
                tracer.reset()
            (command, code, dt), = run_commands((argv,), directory)
            results.append((command, code, dt))
            following = reference_seconds()
            speed = _speed(reference, following)
            reference = following
            record["wall_raw_s"] += dt
            record["wall_s"] += dt * speed
            record[f"{command}_s"] = dt * speed
            if tracer is not None:
                for key, value in tracer.stats().items():
                    record[key] += value * speed if key.endswith((".s", ".self_s")) else value
        ops.check(results)
        iterations.append(record)
    keys = {key for record in iterations for key in record}
    medians = {
        key: statistics.median(record.get(key, 0.0) for record in iterations)
        for key in keys
    }
    medians["iterations"] = len(iterations)
    return medians


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, Operations]:
    """One benchmark run. Untraced, it reports the end-to-end figures;
    traced, the per-layer ones. The process running it must be fresh for
    `peak_rss_mb` to be the workload's."""
    directory = WORK / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    ops = Operations(workload, seed, directory)
    try:
        metrics: dict[str, float] = {}
        if trace:
            write_inputs(workload, seed, directory)
            tracer = Tracer()
            tracer.install(tolrec_targets())
            try:
                measured = _measure(workload, directory, seconds, ops, tracer)
            finally:
                tracer.restore()
            metrics.update(
                {key: value for key, value in measured.items() if "." in key}
            )
            metrics["traced.wall_s"] = measured["wall_s"]
            for command, *_ in workload.commands:
                metrics[f"cli.{command}.s"] = measured[f"{command}_s"]
            metrics["cli.main.covered"] = 1.0 - metrics["cli.main.self_s"] / metrics["cli.main.s"]
            metrics["src.lines"] = src_lines()
            metrics["labeling.label_log.growth"] = loo_growth(seed)
            metrics["iterations"] = measured["iterations"]
        else:
            metrics["setup_s"] = statistics.median(setup_seconds(workload, seed, directory))
            import tolrec.cli  # noqa: F401 - imported outside every timed region

            metrics.update(_measure(workload, directory, seconds, ops, None))
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return metrics, ops
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _result_line(metrics: dict, ops: Operations, trace: bool) -> str:
    declared = _declared()["per_layer" if trace else "end_to_end"]
    return json.dumps(
        {
            "correct": ops.failed == 0,
            "attempted": ops.attempted,
            "failed": ops.failed,
            "metrics": {
                m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]}
                for m in declared
            },
        }
    )


def _units() -> dict[str, str]:
    declared = _declared()
    return {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}


def _print_metrics(title: str, metrics: dict) -> None:
    units = _units()
    print(f"== {title}")
    for name in sorted(metrics):
        unit = units.get(name, "s" if name.endswith(("_s", ".s")) else "count")
        print(f"  {name:40s} {metrics[name]:14.6g} {unit}")
    sys.stdout.flush()


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    report = {"seed": seed, "seconds": seconds, "workloads": {}}
    failed = 0
    # A directory of its own keeps WORK non-empty while the runs clean up.
    scratch = WORK / f"all-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    saved = scratch / "run.json"
    try:
        for workload in WORKLOADS:
            entry = {}
            for trace in (0, 1):
                subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                     "--out", str(saved)],
                    check=True,
                )
                entry["traced" if trace else "untraced"] = result = json.loads(saved.read_text())
                failed += result["failed"]
            overhead = (
                entry["traced"]["metrics"]["traced.wall_s"]
                / entry["untraced"]["metrics"]["wall_s"]
            )
            entry["tracing_overhead"] = overhead
            print(f"{workload}: tracing overhead (traced.wall_s / wall_s) {overhead:.4f}")
            report["workloads"][workload] = entry
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    if out:
        Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 1 if failed else 0


def record_digests() -> None:
    digests = {}
    for workload in WORKLOADS.values():
        directory = WORK / f"record-{workload.name}"
        try:
            write_inputs(workload, DEFAULT_SEED, directory)
            results = run_commands(workload.commands, directory)
            if any(code != 0 for _, code, _ in results):
                raise RuntimeError(f"{workload.name}: a command failed")
            digests[workload.name] = artifact_digests(workload, directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)
    DIGESTS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="save every figure as JSON")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--setup-dir", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "tolrec" / "__init__.py").is_file():
        print(f"error: no tolrec sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_dir:
        print(setup_main(WORKLOADS[args.workload], args.seed, Path(args.setup_dir)))
        return 0
    if args.record_digests:
        record_digests()
        return 0
    seconds = args.seconds if args.seconds is not None else _declared()["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, args.out)
    trace = bool(args.trace)
    metrics, ops = run(WORKLOADS[args.workload], args.seed, seconds, trace)
    _print_metrics(
        f"{args.workload} {'traced' if trace else 'untraced'}, seed {args.seed}: "
        f"{ops.attempted} operations, {ops.failed} failed",
        metrics,
    )
    if args.out:
        Path(args.out).write_text(
            json.dumps({"attempted": ops.attempted, "failed": ops.failed, "metrics": metrics})
        )
    print(_result_line(metrics, ops, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
