"""The benchmark's workloads: seeded inputs, the CLI commands of one
iteration, and the checks on what those commands write.

Every path handed to the CLI is relative to the workload's work
directory, so manifests do not depend on where the checkout lives.
"""

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

#: The seed whose artifacts are pinned by sha256 digests in ``digests.json``.
DEFAULT_SEED = 0
DIGESTS_PATH = Path(__file__).with_name("digests.json")

EVENTS = "events.jsonl"
SIM_CONFIG = "simulate.json"
SIM_DAYS = 7  # CLI default for `simulate --days`
TRAIN_EPOCHS = 20  # CLI default for `train --epochs`


@dataclass(frozen=True)
class Workload:
    name: str
    #: One argv per CLI command, run in order within one iteration.
    commands: tuple[tuple[str, ...], ...]
    #: Files each command writes, keyed by command name; the first one
    #: carries the command's manifest sidecar.
    artifacts: dict[str, tuple[str, ...]]
    #: Event log shape for `tolrec.fixtures` (0 events: no event log).
    n_events: int = 0
    n_users: int = 0
    n_items: int = 0
    #: Lines of the event log replaced by truncated JSON.
    malformed: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sim-paired",
            commands=(
                (
                    "simulate", "--config", SIM_CONFIG, "--objA", "standard",
                    "--objB", "tol-weak", "--out", "out/daily.csv",
                ),
            ),
            artifacts={"simulate": ("out/daily.csv",)},
        ),
        Workload(
            name="log-pipeline",
            commands=(
                ("label", "--events", EVENTS, "--out", "out/samples.jsonl"),
                (
                    "train", "--samples", "out/samples.jsonl", "--objective",
                    "tol-weak", "--out", "out/model.json",
                ),
                (
                    "analyze", "--events", EVENTS, "--ref", "2024-06-01..2024-06-08",
                    "--inv", "2024-06-08..2024-06-15", "--out", "out/cohort.csv",
                ),
            ),
            artifacts={
                "label": ("out/samples.jsonl", "out/samples.jsonl.profiles"),
                "train": ("out/model.json", "out/model.json.history.csv"),
                "analyze": ("out/cohort.csv", "out/cohort.csv.plot.csv"),
            },
            n_events=50_000,
            n_users=1000,
            n_items=2000,
        ),
        Workload(
            name="loo-sparse",
            commands=(
                ("label", "--mode", "loo", "--events", EVENTS, "--out", "out/samples.jsonl"),
            ),
            artifacts={"label": ("out/samples.jsonl", "out/samples.jsonl.profiles")},
            n_events=10_000,
            n_users=5000,
            n_items=2000,
            malformed=100,
        ),
    )
}


def write_inputs(workload: Workload, seed: int, directory: Path) -> None:
    """Generate the workload's input files from ``seed`` into ``directory``."""
    from tolrec.events import event_to_json
    from tolrec.fixtures import generate_fixture_events

    directory.mkdir(parents=True, exist_ok=True)
    (directory / "out").mkdir(exist_ok=True)
    if not workload.n_events:
        (directory / SIM_CONFIG).write_text(json.dumps({"seed": seed}) + "\n")
        return
    events = generate_fixture_events(
        n_events=workload.n_events,
        n_users=workload.n_users,
        n_items=workload.n_items,
        seed=seed,
    )
    lines = [event_to_json(event) for event in events]
    for k in random.Random(seed).sample(range(len(lines)), workload.malformed):
        lines[k] = lines[k][: len(lines[k]) // 2]
    (directory / EVENTS).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Output verification
# ---------------------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _json_digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def command_digests(paths: tuple[str, ...], directory: Path) -> dict[str, str]:
    """sha256 of one command's artifacts, and of its manifest's `config`
    and `inputs` (the rest of a manifest holds the tool version)."""
    digests = {rel: _sha256_file(directory / rel) for rel in paths}
    manifest = json.loads((directory / (paths[0] + ".manifest.json")).read_text())
    for key in ("config", "inputs"):
        digests[f"{paths[0]}.manifest.json:{key}"] = _json_digest(manifest[key])
    return digests


def artifact_digests(workload: Workload, directory: Path) -> dict[str, str]:
    digests = {}
    for paths in workload.artifacts.values():
        digests.update(command_digests(paths, directory))
    return digests


def _check_samples(workload: Workload, directory: Path, rel: str) -> list[str]:
    # Streamed, so checking does not add to the benchmark process's peak memory.
    problems = []
    count = 0
    with open(directory / rel, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            count += 1
            beta = record.get("beta")
            if record["label"] == "T" and not (beta is not None and 0.0 <= beta <= 1.0):
                problems.append(f"{rel}: tolerance beta {beta!r} outside [0, 1]")
                break
    expected = workload.n_events - workload.malformed
    if not problems and count != expected:
        problems.append(f"{rel}: {count} labels for {expected} ingested events")
    return problems


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return [row for row in csv.reader(handle) if row and not row[0].startswith("#")]


def _check_history(directory: Path, rel: str) -> list[str]:
    rows = _csv_rows(directory / rel)[1:]
    if len(rows) != TRAIN_EPOCHS + 1:
        return [f"{rel}: {len(rows)} loss rows, expected {TRAIN_EPOCHS + 1}"]
    if not all(math.isfinite(float(row[2])) for row in rows):
        return [f"{rel}: non-finite loss"]
    return []


def _check_cohort(directory: Path, report: str, plot: str) -> list[str]:
    buckets = _csv_rows(directory / report)[1:]
    points = _csv_rows(directory / plot)[1:]
    if not buckets or len(points) != len(buckets):
        return [f"{plot}: {len(points)} points for {len(buckets)} buckets"]
    if not all(0.0 <= float(row[2]) <= 1.0 for row in buckets):
        return [f"{report}: decline proportion outside [0, 1]"]
    return []


def _check_daily(directory: Path, rel: str) -> list[str]:
    rows = _csv_rows(directory / rel)[1:]
    if len(rows) != 2 * SIM_DAYS + 2:
        return [f"{rel}: {len(rows)} rows, expected {2 * SIM_DAYS + 2}"]
    return []


def _invariants(workload: Workload, command: str, directory: Path) -> list[str]:
    paths = workload.artifacts[command]
    if command == "label":
        return _check_samples(workload, directory, paths[0])
    if command == "train":
        return _check_history(directory, paths[1])
    if command == "analyze":
        return _check_cohort(directory, *paths)
    return _check_daily(directory, paths[0])


def verify(
    workload: Workload, directory: Path, expected: dict[str, str] | None
) -> dict[str, list[str]]:
    """Problems found in each command's outputs, keyed by command name.

    Invariants are checked at every seed; ``expected`` digests, when
    given, pin every artifact byte for byte as well.
    """
    problems: dict[str, list[str]] = {}
    for command, paths in workload.artifacts.items():
        found = []
        missing = [rel for rel in paths if not (directory / rel).is_file()]
        if missing:
            problems[command] = [f"missing {rel}" for rel in missing]
            continue
        try:
            found += _invariants(workload, command, directory)
            if expected is not None:
                actual = command_digests(paths, directory)
                found += [
                    f"{key}: digest differs"
                    for key, digest in actual.items()
                    if expected.get(key) != digest
                ]
        except (OSError, ValueError, KeyError, IndexError) as exc:
            found.append(f"unreadable output: {exc!r}")
        problems[command] = found
    return problems


def expected_digests(workload: Workload, seed: int) -> dict[str, str] | None:
    """The pinned digests for ``workload`` at the default seed, else None."""
    if seed != DEFAULT_SEED:
        return None
    return json.loads(DIGESTS_PATH.read_text())[workload.name]
