"""Command-line pipeline: label -> train -> analyze -> simulate -> report.

Every command accepts ``--config FILE`` (a JSON object whose keys mirror
the long flag names with dashes replaced by underscores); explicit flags
override the file, which overrides built-in defaults. An option that sets
a config field takes its default from that field, and ``simulate``'s
training options take theirs from ``simulation.SIM_TRAINING``. Config-file
values are checked like flags (type, choices, ``null`` only where the
default is ``null``) but not converted, and a failed check names the key.
Each option is declared once, in ``OPTIONS``. Each output file gets a
``<name>.manifest.json`` sidecar recording the resolved configuration,
input digests, tool version, and seed, so identical manifests imply
identical outputs.
"""

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone
from enum import EnumMeta
from pathlib import Path

from . import __version__
from .cohort import COHORT_HEADER, CohortConfig, analyze, write_plot_data, write_report
from .events import InteractionEvent, Platform, TimeWindow, _type_test, ingest_log
from .labeling import (
    BETA_BASELINES,
    LabelingConfig,
    LabelingMode,
    label_log,
    read_samples,
    write_profiles,
    write_samples,
)
from .simulation import (
    DAILY_REPORT_HEADER,
    SIM_TRAINING,
    SimConfig,
    simulate_experiment,
    write_daily_report,
)
from .trainer import (
    HISTORY_HEADER,
    Objective,
    TrainConfig,
    augment_with_sampled_negatives,
    train,
    write_history,
    write_model,
)


def _iso_to_epoch(text: str) -> int:
    moment = datetime.fromisoformat(text)
    if moment.tzinfo is None:
        moment = moment.replace(tzinfo=timezone.utc)
    return int(moment.timestamp())


def parse_window(text: str) -> TimeWindow:
    """`2024-06-01..2024-06-08` -> half-open window in epoch seconds (UTC)."""
    start, sep, end = text.partition("..")
    if not sep:
        raise ValueError(f"window {text!r} must look like ISODATE..ISODATE")
    return TimeWindow(_iso_to_epoch(start), _iso_to_epoch(end))


def _parse_edges(text: str) -> tuple[float, ...]:
    return tuple(float(part) for part in text.split(",")) if text else ()


def _parse_beta(text: str) -> float | None:
    if text == "from-samples":
        return None
    if text.startswith("fixed:"):
        return float(text.split(":", 1)[1])
    raise ValueError(f"beta spec {text!r} must be 'from-samples' or 'fixed:<value>'")


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(path: str, command: str, resolved: dict) -> None:
    inputs = [resolved[name] for name in _INPUTS if resolved.get(name)]
    manifest = {
        "command": command,
        "config": {k: resolved[k] for k in sorted(resolved)},
        "inputs": {path: _sha256(path) for path in sorted(inputs)},
        "version": __version__,
        "seed": resolved.get("seed"),
    }
    _write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _choices(enum) -> list[str]:
    return [member.value for member in enum]


#: Config field -> its option, where the names differ.
_OPTION_NAMES = {
    "rule_mode": "rule", "duration_bucket_edges": "buckets", "bucket_edges": "buckets",
    "learning_rate": "lr", "dimension": "dim", "fixed_beta": "beta",
    "slate_size": "slate", "candidate_pool": "pool", "surface_true_correlation": "rho",
    "reference": "ref", "investigation": "inv",
}
#: Annotation -> the parse of a flag whose form differs from the field's value.
_PARSERS = {tuple[float, ...]: _parse_edges, float | None: _parse_beta, TimeWindow: parse_window}
#: The choices of a ``str`` field.
_FIELD_CHOICES = {"beta_baseline": list(BETA_BASELINES)}


def _field_options(cls, base=None, skip=(), **given) -> dict[str, tuple]:
    """An option per field of ``cls`` not in ``skip``: the field's default
    (``base``'s value, if given) and its annotation, an enum's as its values.
    ``given`` maps an option to its help, or to its whole entry where the flag
    form differs (``_PARSERS``) or the field has no default; a ``given``
    name that is no option of ``cls`` raises."""
    options = {}
    for f in fields(cls):
        if (name := _OPTION_NAMES.get(f.name, f.name)) in skip:
            continue
        entry = given.get(name)
        if not isinstance(entry, tuple):
            default = getattr(base, f.name) if base else f.default
            kind = _FIELD_CHOICES.get(f.name, f.type)
            if isinstance(f.type, EnumMeta):
                default, kind = default.value, _choices(f.type)
            entry = (default, kind, entry)
        options[name] = entry
    if unused := sorted(given.keys() - options.keys()):
        raise ValueError(f"{cls.__name__} has no field with the option {unused[0]!r}")
    return options


_OBJECTIVES = _choices(Objective)
_OUT = {"out": (..., str, "primary output file")}
_BETA = ("from-samples", str, "'from-samples' or 'fixed:<v>'")
#: Kept so manifest configs stay as they were; ingest is one serial pass.
_THREADS = (1, int, "must be 1: ingest is serial, since JSON parsing holds the GIL")

#: Every option of every command: ``name -> (default, kind[, help])``.
#: ``kind`` is ``int``, ``float``, ``str``, ``bool`` (a bare switch) or a
#: list of choices; a default of ``...`` marks a required flag. An option
#: that sets a config field reads its default and kind from the field
#: (``_field_options``); only ``--buckets`` and ``--beta``, whose form
#: differs, and analyze's ``--platform`` write theirs here. The flag is
#: ``--name`` with dashes for underscores unless ``_FLAG_NAMES`` says
#: otherwise. CLI flags override the config file, which overrides these
#: defaults; everything lands in the manifest fully materialized.
OPTIONS: dict[str, dict[str, tuple]] = {
    "label": _OUT | {
        "events": (..., str, "event JSONL file"),
        "mode": ("causal", _choices(LabelingMode)),
        **_field_options(
            LabelingConfig, buckets=("60,300", str, "duration bucket edges, e.g. 60,300")
        ),
        "profiles_out": (None, str, "profile snapshot path"),
        "threads": _THREADS,
    },
    "train": _OUT | {
        "samples": (..., str, "labeled sample JSONL file"),
        **_field_options(TrainConfig, beta=_BETA),
        "neg_sample": (
            0, int, "sample this many negatives per positive (logs without impressions)"
        ),
        "history_out": (None, str, "loss history CSV path"),
    },
    "analyze": _OUT | {
        "events": (..., str),
        **_field_options(
            CohortConfig,
            ref=(..., str, "reference window, ISO..ISO"),
            inv=(..., str, "investigation window, ISO..ISO"),
            platform=("video", _choices(Platform)),
            buckets=("", str, "tolerance-stat bucket edges"),
        ),
        "plot_out": (None, str),
        "threads": _THREADS,
    },
    "simulate": _OUT | {
        "seeds": (1, int, "number of paired seeds"),
        "obj_a": ("standard", _OBJECTIVES),
        "obj_b": ("tol-weak", _OBJECTIVES),
        **_field_options(SimConfig, seed="base seed", rho="surface/content correlation"),
        # Each arm sets its objective and seed; --dim sets both dimensions.
        **_field_options(TrainConfig, SIM_TRAINING, ("objective", "seed", "dim"), beta=_BETA),
    },
    "report": _OUT | {
        "analyze": (None, str, "cohort report CSV"),
        "simulate": (None, str, "simulation daily CSV"),
        "train_history": (None, str, "loss history CSV"),
    },
}

_FLAG_NAMES = {"obj_a": "--objA", "obj_b": "--objB"}

#: Output options that default to ``--out`` plus a suffix.
_SIDECARS = {"profiles_out": ".profiles", "history_out": ".history.csv", "plot_out": ".plot.csv"}
#: Options that name a file the command reads; the manifest digests each.
_INPUTS = ("events", "samples", "analyze", "simulate", "train_history")

_COMMAND_HELP = {
    "label": "label an event log",
    "train": "train a ranking model on labeled samples",
    "analyze": "reference/investigation cohort analysis",
    "simulate": "paired two-arm retention simulation",
    "report": "merge pipeline outputs into one summary",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tolrec",
        description="Label engagement logs, train tolerance-aware rankers, "
        "and analyze retention.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, options in OPTIONS.items():
        p = sub.add_parser(command, help=_COMMAND_HELP[command])
        p.add_argument("--config", help="JSON config file; flags override it")
        for name, (default, kind, *help_text) in options.items():
            if kind is bool:
                how = {"action": "store_const", "const": True}
            elif isinstance(kind, list):
                how = {"choices": kind}
            else:
                how = {"type": kind}
            p.add_argument(
                _FLAG_NAMES.get(name, "--" + name.replace("_", "-")),
                dest=name,
                required=default is ...,
                help=help_text[0] if help_text else None,
                **how,
            )
    return parser


def _check_config_value(name: str, value, default, kind) -> None:
    """Reject a config-file value that the option's flag would not accept,
    an int beyond the float range included. The value is checked, not
    converted, so a valid file resolves as it always did."""
    if isinstance(kind, list):
        valid = value in kind
    else:  # the constructors' rule: a bool only for a switch, null for a null default
        valid = _type_test(kind if default is not None else kind | None)[0](value)
    if not valid:
        expected = f"one of {kind}" if isinstance(kind, list) else kind.__name__
        raise ValueError(f"config file: {name} must be {expected}, got {value!r}")
    if kind is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ValueError(f"config file: {name} must be a float, got an int beyond its range")


def _resolve(args: argparse.Namespace) -> dict:
    options = OPTIONS[args.command]
    resolved = {name: entry[0] for name, entry in options.items()}
    if args.config:
        with open(args.config, encoding="utf-8") as handle:
            file_config = json.load(handle)
        if not isinstance(file_config, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(file_config) - set(options)
        if unknown:
            raise ValueError(f"config file has unknown keys {sorted(unknown)}")
        for name, value in file_config.items():
            _check_config_value(name, value, *options[name][:2])
        resolved.update(file_config)
    for name in options:
        value = getattr(args, name)
        if value is not None:
            resolved[name] = value
    # NaN passes every range check downstream; inf stays ("--ratio-cap inf").
    for name, value in resolved.items():
        if isinstance(value, float) and math.isnan(value):
            raise ValueError(f"{name} must be a number, got nan")
    for name, suffix in _SIDECARS.items():
        if name in resolved:
            resolved[name] = resolved[name] or resolved["out"] + suffix
    return resolved


def _outputs(resolved: dict) -> dict[str, str]:
    """Every file the command writes, by output name, in the order written."""
    paths = {name: resolved[name] for name in ("out", *_SIDECARS) if name in resolved}
    return paths | {"manifest": resolved["out"] + ".manifest.json"}


def _check_paths(resolved: dict, config: str | None) -> None:
    """Reject a run in which an output names the same file as an input or
    another output, before any file is read or written."""
    inputs = {"config": config} | {name: resolved.get(name) for name in _INPUTS}
    seen = {os.path.realpath(path): name for name, path in inputs.items() if path}
    for name, path in _outputs(resolved).items():
        other = seen.setdefault(os.path.realpath(path), name)
        if other != name:
            raise ValueError(f"{name} and {other} name the same file {path!r}")


def _config(cls, resolved: dict, **given):
    """``cls`` built from the options its fields read, each flag form parsed
    and a failure named by its option; ``given`` sets fields outright."""
    values = {}
    for f in fields(cls):
        if (name := _OPTION_NAMES.get(f.name, f.name)) not in resolved:
            continue
        value = resolved[name]
        try:
            if f.type in _PARSERS:
                value = _PARSERS[f.type](value)
            elif isinstance(f.type, EnumMeta):
                value = f.type(value)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        values[f.name] = value
    return cls(**values | given)


def _ingest(resolved: dict) -> list[InteractionEvent]:
    if resolved["threads"] != 1:
        raise ValueError("threads must be 1 (ingest is serial)")
    result = ingest_log(resolved["events"])
    if result.rejected_count:
        print(f"note: rejected {result.rejected_count} malformed lines "
              f"(first: {result.first_rejection})", file=sys.stderr)
    return result.events


def _cmd_label(resolved: dict) -> dict:
    config = _config(LabelingConfig, resolved)
    mode = LabelingMode(resolved["mode"])
    labeled = label_log(_ingest(resolved), config, mode)
    return {
        "out": (write_samples, labeled.samples),
        "profiles_out": (write_profiles, labeled.profiles),
    }


def _cmd_train(resolved: dict) -> dict:
    config = _config(TrainConfig, resolved)
    if resolved["neg_sample"] < 0:
        raise ValueError(f"neg_sample must be non-negative, got {resolved['neg_sample']}")
    samples = read_samples(resolved["samples"])
    if resolved["neg_sample"]:
        before = len(samples)
        samples = augment_with_sampled_negatives(
            samples, resolved["neg_sample"], seed=resolved["seed"]
        )
        print(f"note: negative sampling added {len(samples) - before} samples", file=sys.stderr)
    result = train(samples, config)
    return {
        "out": (write_model, result.model),
        "history_out": (write_history, result.history, config.objective),
    }


def _cmd_analyze(resolved: dict) -> dict:
    config = _config(CohortConfig, resolved)
    report = analyze(_ingest(resolved), config)
    if report.empty:
        print("warning: no users with reference-window engagement", file=sys.stderr)
    return {"out": (write_report, report), "plot_out": (write_plot_data, report)}


def _cmd_simulate(resolved: dict) -> dict:
    if resolved["seeds"] < 1:
        raise ValueError(f"seeds must be >= 1, got {resolved['seeds']}")
    runs = []
    for seed in range(resolved["seed"], resolved["seed"] + resolved["seeds"]):
        config = _config(SimConfig, resolved, seed=seed)
        arms = [_config(TrainConfig, resolved, objective=Objective(resolved[arm]), seed=seed)
                for arm in ("obj_a", "obj_b")]
        runs.append((seed, simulate_experiment(*arms, config)))
    return {"out": (write_daily_report, runs)}


#: ``report`` option -> (section tag, headers it accepts, what its file is).
_REPORT_SECTIONS = {
    "analyze": ("cohort", [COHORT_HEADER], "a cohort report"),
    "simulate": (
        "simulation",
        [DAILY_REPORT_HEADER, ["seed"] + DAILY_REPORT_HEADER],
        "a simulation daily report",
    ),
    "train_history": ("training", [HISTORY_HEADER], "a loss history"),
}


def _cmd_report(resolved: dict) -> dict:
    """Copy each input's header and rows, `#` comments skipped, under its
    section tag; the cohort section ends with its user counts."""
    sections = []
    for option, (tag, headers, what) in _REPORT_SECTIONS.items():
        path = resolved[option]
        if not path:
            continue
        with open(path, encoding="utf-8", newline="") as handle:
            lines = list(handle)
        rows = list(csv.reader(line for line in lines if not line.startswith("#")))
        if not rows or rows[0] not in headers:
            raise ValueError(f"{path}: not {what}")
        section = [f"[{tag}] " + ",".join(rows[0])]
        section += [",".join(row) for row in rows[1:]]
        if option == "analyze":
            counts = [line for line in lines if line.startswith("# considered=")]
            if not counts:
                raise ValueError(f"{path}: cohort report has no considered= line")
            section.append(counts[-1][2:].strip())
        sections.append("\n".join(section))
    if not sections:
        raise ValueError("report needs at least one of --analyze/--simulate/--train-history")
    summary = f"tolrec {__version__} run summary\n\n" + "\n\n".join(sections) + "\n"
    return {"out": (_write_text, summary)}


#: Each handler computes its command's result and returns
#: ``{output name: (writer, *data)}``; ``main`` writes every output.
_HANDLERS = {
    "label": _cmd_label,
    "train": _cmd_train,
    "analyze": _cmd_analyze,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    written: list[str] = []
    try:
        resolved = _resolve(args)
        _check_paths(resolved, args.config)
        writes = _HANDLERS[args.command](resolved)
        writes["manifest"] = (_write_manifest, args.command, resolved)
        # Each path is registered before its write, so a failed run leaves none.
        for name, path in _outputs(resolved).items():
            write, *data = writes[name]
            written.append(path)
            write(path, *data)
    except Exception as exc:  # noqa: BLE001 - single CLI failure funnel
        for path in written:
            try:
                Path(path).unlink(missing_ok=True)
            except OSError:
                pass
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
