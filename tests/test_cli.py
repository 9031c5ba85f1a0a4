import csv
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tolrec
from tolrec import cli
from tolrec.cli import OPTIONS, _outputs, _resolve, build_parser, main, parse_window
from tolrec.cohort import CohortConfig
from tolrec.events import Platform, write_events
from tolrec.fixtures import generate_fixture_events
from tolrec.labeling import LabelingConfig, LabelingMode
from tolrec.simulation import SimConfig
from tolrec.trainer import Objective, TrainConfig

from conftest import long_value_id
from test_acceptance import sim_train_config


@pytest.fixture
def event_file(tmp_path):
    path = tmp_path / "events.jsonl"
    write_events(path, generate_fixture_events(n_events=800, n_users=30, seed=3))
    return path


def run(*argv):
    return main([str(a) for a in argv])


class TestWindows:
    def test_iso_dates_half_open(self):
        window = parse_window("2024-06-01..2024-06-08")
        assert window.end - window.start == 7 * 86_400

    def test_datetime_accepted(self):
        window = parse_window("2024-06-01T12:00:00..2024-06-02T12:00:00")
        assert window.end - window.start == 86_400

    def test_missing_separator_rejected(self):
        with pytest.raises(ValueError):
            parse_window("2024-06-01")


class TestLabelCommand:
    def test_writes_samples_profiles_manifest(self, tmp_path, event_file):
        out = tmp_path / "samples.jsonl"
        assert run("label", "--events", event_file, "--out", out) == 0
        assert out.exists()
        assert (tmp_path / "samples.jsonl.profiles").exists()
        manifest = json.loads((tmp_path / "samples.jsonl.manifest.json").read_text())
        assert manifest["command"] == "label"
        assert manifest["config"]["mode"] == "causal"
        assert str(event_file) in manifest["inputs"]

    def test_non_finite_watch_is_a_rejected_line(self, tmp_path, capsys):
        """A NaN watch time is counted as a rejected line instead of
        reaching the labeler and poisoning the user's bucket mean, and an
        integer one too large for a float instead of aborting the log."""
        lines = [
            json.dumps({"user": "u1", "item": f"v{k}", "ts": k, "platform": "video",
                        "clicked": True, "watch": 1.0 + k, "duration": 20.0})
            for k in range(16)
        ]
        lines[7] = lines[7].replace('"watch": 8.0', '"watch": NaN')
        lines[9] = lines[9].replace('"watch": 10.0', '"watch": 1' + "0" * 400)
        events = tmp_path / "events.jsonl"
        events.write_text("\n".join(lines) + "\n")
        out = tmp_path / "samples.jsonl"
        assert run("label", "--events", events, "--out", out) == 0
        assert "rejected 2 malformed lines" in capsys.readouterr().err
        samples = out.read_text().splitlines()
        assert len(samples) == 14
        assert not any("NaN" in line or "nan" in line for line in samples)

    def test_integer_past_the_digit_limit_is_a_rejected_line(self, tmp_path, event_file, capsys):
        """An integer longer than the interpreter converts rejects its line,
        not the whole log."""
        lines = event_file.read_text().splitlines()
        lines[4] = lines[4].replace('"ts":', '"ts":' + "9" * 5001, 1)
        events = tmp_path / "huge.jsonl"
        events.write_text("\n".join(lines) + "\n")
        out = tmp_path / "samples.jsonl"
        assert run("label", "--events", events, "--out", out) == 0
        assert (
            "note: rejected 1 malformed lines (first: line 5: invalid JSON "
            "(number with too many digits))"
        ) in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == len(lines) - 1

    def test_flags_override_defaults(self, tmp_path, event_file):
        out = tmp_path / "samples.jsonl"
        assert run(
            "label", "--events", event_file, "--out", out, "--mode", "loo",
            "--rule", "ratio-only", "--min-history", "2",
        ) == 0
        manifest = json.loads((tmp_path / "samples.jsonl.manifest.json").read_text())
        assert manifest["config"]["mode"] == "loo"
        assert manifest["config"]["rule"] == "ratio-only"
        assert manifest["config"]["min_history"] == 2

    def test_config_file_under_flags(self, tmp_path, event_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"mode": "loo", "min_history": 3, "ratio_cap": 1, "profiles_out": None}
        ))
        out = tmp_path / "samples.jsonl"
        assert run(
            "label", "--events", event_file, "--out", out,
            "--config", config, "--min-history", "4",
        ) == 0
        manifest = json.loads((tmp_path / "samples.jsonl.manifest.json").read_text())
        assert manifest["config"]["mode"] == "loo"  # from file
        assert manifest["config"]["min_history"] == 4  # flag wins
        assert type(manifest["config"]["ratio_cap"]) is int  # checked, not converted

    def test_unknown_config_key_fails(self, tmp_path, event_file):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"no_such_flag": 1}))
        out = tmp_path / "samples.jsonl"
        assert run(
            "label", "--events", event_file, "--out", out, "--config", config
        ) == 1
        assert not out.exists()

    def test_missing_input_nonzero_exit(self, tmp_path):
        out = tmp_path / "samples.jsonl"
        assert run("label", "--events", tmp_path / "nope.jsonl", "--out", out) == 1
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-1", "2"])
    @pytest.mark.parametrize("command", ["label", "analyze"])
    def test_rejects_threads_other_than_one(
        self, tmp_path, event_file, capsys, command, threads
    ):
        windows = ["--ref", "2024-06-01..2024-06-08", "--inv", "2024-06-08..2024-06-15"]
        argv = ["--events", event_file, "--out", tmp_path / "out", "--threads", threads]
        assert run(command, *argv, *windows * (command == "analyze")) == 1
        assert not any(p.name.startswith("out") for p in tmp_path.iterdir())
        assert "threads" in capsys.readouterr().err

    def test_bad_option_named_before_ingest(self, tmp_path, capsys):
        """The configuration is built before the log is read, so a bad
        option is named even when the event file is missing."""
        assert run(
            "label", "--events", tmp_path / "missing.jsonl",
            "--out", tmp_path / "samples.jsonl", "--min-history", "0",
        ) == 1
        assert list(tmp_path.iterdir()) == []
        assert "min_history" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--out", "--profiles-out"])
    def test_output_that_is_a_directory_fails_and_is_kept(
        self, tmp_path, event_file, capsys, flag
    ):
        """The write fails, and so does the cleanup's unlink of the directory;
        the run reports the write's error alone and leaves the directory be."""
        directory = tmp_path / "taken"
        directory.mkdir()
        (directory / "kept.txt").write_text("kept")
        before = sorted(tmp_path.iterdir())
        samples = directory if flag == "--out" else tmp_path / "samples.jsonl"
        profiles = directory if flag == "--profiles-out" else tmp_path / "profiles"
        argv = ("--events", event_file, "--out", samples, "--profiles-out", profiles)
        assert run("label", *argv) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(directory)!r}\n"
        assert sorted(tmp_path.iterdir()) == before
        assert [p.name for p in directory.iterdir()] == ["kept.txt"]


class TestConfigFile:
    @pytest.mark.parametrize(
        "command, config, keys",
        [
            ("label", {"mode": "casual"}, ["mode"]),
            ("simulate", {"warm_start": "false"}, ["warm_start"]),
            ("label", {"threads": "2"}, ["threads"]),
            ("label", {"min_history": 2.5}, ["min_history"]),
            ("label", {"command": "train", "config": "other.json"}, ["command", "config"]),
            ("label", {"min_history": True}, ["min_history"]),
            ("label", {"threads": None}, ["threads"]),
            ("label", ["mode"], ["error: config file must hold a JSON object"]),
        ],
        ids=[
            "mode-typo", "warm_start-string", "threads-string", "min_history-float",
            "command-config-keys", "min_history-bool", "threads-null", "json-array",
        ],
    )
    def test_bad_value_fails_naming_key(
        self, tmp_path, event_file, capsys, command, config, keys
    ):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        inputs = ["--events", event_file] if command == "label" else []
        assert run(command, "--out", out, "--config", path, *inputs) == 1
        assert not any(p.name.startswith("out") for p in tmp_path.iterdir())
        err = capsys.readouterr().err
        assert all(key in err for key in keys), err

    #: Every command's defaults written out literally, so that no edit of
    #: `OPTIONS` moves one unnoticed; the benchmark's pinned manifests cover
    #: only the commands and flags it runs. A sidecar output defaults to
    #: ``--out`` plus its suffix, as the manifest records it.
    DEFAULTS = {
        "label": {
            "mode": "causal",
            "rule": "ratio-or-action",
            "buckets": "60,300",
            "min_history": 5,
            "ratio_cap": 1.0,
            "beta_baseline": "user",
            "profiles_out": "o.profiles",
            "threads": 1,
        },
        "train": {
            "objective": "standard",
            "beta": "from-samples",
            "lr": 0.1,
            "epochs": 20,
            "dim": 8,
            "l2": 0.0,
            "batch_size": 256,
            "seed": 0,
            "neg_sample": 0,
            "history_out": "o.history.csv",
        },
        "analyze": {
            "platform": "video",
            "buckets": "",
            "ratio_cap": 1.0,
            "min_watch_seconds": 0.0,
            "plot_out": "o.plot.csv",
            "threads": 1,
        },
        "simulate": {
            "seeds": 1,
            "seed": 0,
            "obj_a": "standard",
            "obj_b": "tol-weak",
            "beta": "from-samples",
            "days": 7,
            "population": 100,
            "catalog": 200,
            "slate": 10,
            "pool": 40,
            "dim": 8,
            "temperature": 1.0,
            "rho": 0.3,
            "trust_decay": 0.05,
            "trust_recovery": 0.005,
            "lr": 0.3,
            "epochs": 30,
            "l2": 1e-4,
            "batch_size": 256,
            "warm_start": False,
            "rule": "ratio-or-action",
        },
        "report": {"analyze": None, "simulate": None, "train_history": None},
    }
    REQUIRED = {
        "label": {"out": "o", "events": "e"},
        "train": {"out": "o", "samples": "s"},
        "analyze": {"out": "o", "events": "e", "ref": "r", "inv": "i"},
        "simulate": {"out": "o"},
        "report": {"out": "o"},
    }

    FLOATS = [
        (command, name)
        for command, options in OPTIONS.items()
        for name, entry in options.items()
        if entry[1] is float
    ]

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "command, name", FLOATS, ids=[f"{c}-{n}" for c, n in FLOATS]
    )
    def test_nan_fails_naming_option(self, tmp_path, capsys, command, name, source):
        argv = [command]
        for key, value in self.REQUIRED[command].items():
            argv += [f"--{key}", tmp_path / value]
        if source == "flag":
            argv += ["--" + name.replace("_", "-"), "nan"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({name: float("nan")}))  # written as NaN
            argv += ["--config", config]
        assert run(*argv) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"] * (
            source == "config"
        )
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("sign", ["", "-"])
    @pytest.mark.parametrize(
        "command, name", FLOATS, ids=[f"{c}-{n}" for c, n in FLOATS]
    )
    def test_int_beyond_float_range_fails_naming_key(
        self, tmp_path, capsys, command, name, sign
    ):
        """A JSON int too large for a float fails by name before any input
        is read, where it used to fail deep in the run naming no field (or,
        for `ratio_cap`, to pass)."""
        config = tmp_path / "config.json"
        config.write_text(f'{{"{name}": {sign}1{"0" * 400}}}')
        argv = [command, "--config", config]
        for key, value in self.REQUIRED[command].items():
            argv += [f"--{key}", tmp_path / value]
        assert run(*argv) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
        assert capsys.readouterr().err == (
            f"error: config file: {name} must be a float, got an int beyond its range\n"
        )

    def test_large_int_in_float_range_kept_as_written(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"temperature": 10**308}))
        args = build_parser().parse_args(["simulate", "--out", "o", "--config", str(config)])
        assert _resolve(args)["temperature"] == 10**308

    @pytest.mark.parametrize(
        "command, buckets, field",
        [
            ("label", "60,nan", "duration_bucket_edges"),
            ("label", "nan", "duration_bucket_edges"),
            ("analyze", "0.5,nan", "bucket_edges"),
        ],
    )
    def test_nan_bucket_edge_fails_naming_field(
        self, tmp_path, capsys, event_file, command, buckets, field
    ):
        argv = [command, "--events", event_file, "--out", tmp_path / "out"]
        if command == "analyze":
            argv += ["--ref", "2024-06-01..2024-06-08", "--inv", "2024-06-08..2024-06-15"]
        assert run(*argv, "--buckets", buckets) == 1
        assert [p.name for p in tmp_path.iterdir()] == [event_file.name]
        assert field in capsys.readouterr().err

    def test_inf_means_no_cap(self):
        argv = ["label", "--out", "o", "--events", "e", "--ratio-cap", "inf"]
        assert _resolve(build_parser().parse_args(argv))["ratio_cap"] == float("inf")

    @pytest.mark.parametrize("command", list(DEFAULTS))
    def test_resolved_defaults(self, command):
        required = self.REQUIRED[command]
        argv = [command] + [arg for k, v in required.items() for arg in (f"--{k}", v)]
        resolved = _resolve(build_parser().parse_args(argv))
        # Compared as manifest JSON, so 1 and 1.0 differ.
        assert json.dumps(resolved, sort_keys=True) == json.dumps(
            {**self.DEFAULTS[command], **required}, sort_keys=True
        )

    def test_option_table_slip_fails_naming_class_and_name(self):
        with pytest.raises(ValueError, match="^LabelingConfig .* 'bucket_edgez'$"):
            cli._field_options(LabelingConfig, bucket_edgez=("", str, "bucket edges"))

    def test_option_table_builds_as_imported(self):
        """A fresh import of the module builds ``OPTIONS`` without a table
        slip, equal to the one the commands run."""
        spec = importlib.util.spec_from_file_location("tolrec._fresh_cli", cli.__file__)
        fresh = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(fresh)
        assert fresh.OPTIONS == OPTIONS


class TestCommandDefaults:
    """Each command at its defaults builds its config classes' defaults, the
    literal-form `--buckets` and `--beta` included, and `simulate` trains
    both arms as the acceptance criteria do (`sim_train_config`)."""

    @staticmethod
    def calls(monkeypatch, target, *argv) -> list[tuple]:
        """The arguments ``cli.<target>`` receives in ``main(argv)``; the
        first call ends the run."""
        calls = []

        def capture(*args):
            calls.append(args)
            raise RuntimeError("captured")

        monkeypatch.setattr(cli, target, capture)
        assert run(*argv) == 1
        return calls

    def test_label(self, monkeypatch, tmp_path, event_file):
        argv = ("label", "--events", event_file, "--out", tmp_path / "o")
        [(_, config, mode)] = self.calls(monkeypatch, "label_log", *argv)
        assert (config, mode) == (LabelingConfig(), LabelingMode.CAUSAL)

    def test_train(self, monkeypatch, tmp_path):
        samples = tmp_path / "s.jsonl"
        samples.write_text("")
        argv = ("train", "--samples", samples, "--out", tmp_path / "o")
        [(_, config)] = self.calls(monkeypatch, "train", *argv)
        assert config == TrainConfig()

    def test_analyze(self, monkeypatch, tmp_path, event_file):
        argv = ("analyze", "--events", event_file, "--out", tmp_path / "o", *_WINDOWS)
        [(_, config)] = self.calls(monkeypatch, "analyze", *argv)
        ref, inv = (parse_window(text) for text in _WINDOWS[1::2])
        assert config == CohortConfig(ref, inv, Platform.VIDEO)

    @pytest.mark.parametrize("paired", [False, True], ids=["no-flags", "sim-paired"])
    def test_simulate_trains_as_the_acceptance_criteria(self, monkeypatch, tmp_path, paired):
        argv = ["simulate", "--out", tmp_path / "daily.csv"]
        if paired:  # the benchmark's sim-paired command at seed 0
            config = tmp_path / "simulate.json"
            config.write_text('{"seed": 0}\n')
            argv += ["--config", config, "--objA", "standard", "--objB", "tol-weak"]
        assert self.calls(monkeypatch, "simulate_experiment", *argv) == [(
            sim_train_config(Objective.STANDARD, 0),
            sim_train_config(Objective.TOLERANCE_AS_WEAK_POSITIVE, 0),
            SimConfig(),
        )]


class TestTrainCommand:
    def test_accepts_label_output(self, tmp_path, event_file):
        samples = tmp_path / "samples.jsonl"
        model = tmp_path / "model.txt"
        assert run("label", "--events", event_file, "--out", samples) == 0
        assert run(
            "train", "--samples", samples, "--out", model,
            "--objective", "tol-weak", "--epochs", "3",
        ) == 0
        assert model.exists()
        history = (tmp_path / "model.txt.history.csv").read_text().splitlines()
        assert history[0] == "epoch,objective,loss"
        assert len(history) == 2 + 3  # header + init + 3 epochs

    def test_fixed_beta_spec(self, tmp_path, event_file):
        samples = tmp_path / "samples.jsonl"
        model = tmp_path / "model.txt"
        assert run("label", "--events", event_file, "--out", samples) == 0
        assert run(
            "train", "--samples", samples, "--out", model,
            "--objective", "tol-weak", "--beta", "fixed:0.4", "--epochs", "2",
        ) == 0

    def test_bad_beta_spec_fails_clean(self, tmp_path, event_file):
        samples = tmp_path / "samples.jsonl"
        model = tmp_path / "model.txt"
        assert run("label", "--events", event_file, "--out", samples) == 0
        assert run(
            "train", "--samples", samples, "--out", model, "--beta", "half"
        ) == 1
        assert not model.exists()
        assert not (tmp_path / "model.txt.history.csv").exists()


    def test_divergence_is_one_error_line_and_no_output(self, tmp_path, event_file, capsys):
        samples = tmp_path / "samples.jsonl"
        assert run("label", "--events", event_file, "--out", samples) == 0
        before = sorted(tmp_path.iterdir())
        capsys.readouterr()
        assert run("train", "--samples", samples, "--out", tmp_path / "model.txt",
                   "--lr", "1e300") == 1
        assert capsys.readouterr().err == (
            "error: training diverged at epoch 1; lower the learning rate\n"
        )
        assert sorted(tmp_path.iterdir()) == before

    def test_failed_sidecar_removes_written_model(self, tmp_path, event_file, capsys):
        samples = tmp_path / "samples.jsonl"
        model = tmp_path / "model.txt"
        assert run("label", "--events", event_file, "--out", samples) == 0
        history = tmp_path / "missing" / "h.csv"
        assert run(
            "train", "--samples", samples, "--out", model, "--history-out", history,
            "--epochs", "1",
        ) == 1
        assert "h.csv" in capsys.readouterr().err
        assert not model.exists()
        assert not (tmp_path / "model.txt.manifest.json").exists()

    def test_negative_sampling_writes_model_and_notes_count(
        self, tmp_path, event_file, capsys
    ):
        samples = tmp_path / "samples.jsonl"
        model = tmp_path / "model.txt"
        assert run("label", "--events", event_file, "--out", samples) == 0
        capsys.readouterr()
        assert run(
            "train", "--samples", samples, "--out", model, "--neg-sample", "1",
            "--epochs", "1",
        ) == 0
        assert model.exists()
        manifest = json.loads((tmp_path / "model.txt.manifest.json").read_text())
        assert manifest["config"]["neg_sample"] == 1
        positives = sum('"label":"P"' in line for line in samples.read_text().splitlines())
        added = int(capsys.readouterr().err.split("negative sampling added ")[1].split()[0])
        assert added == positives > 0  # each user has unseen items left

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"item":"i1","ts":5,"label":"P"}', "line 2: missing key 'user'"),
            ('{"user":"u1","item":"i1","ts":5,"label":"X"}', "line 2: unknown label 'X'"),
            ('{"user":5,"item":"i1","ts":5,"label":"P"}', "line 2: user and item must be strings"),
            ('{"user":"u1","item":"i1","ts":"x","label":"P"}', "line 2: ts must be an integer"),
            (
                '{"user":"u1","item":"i1","ts":' + "5" * 5001 + ',"label":"P"}',
                "line 2: invalid JSON (number with too many digits)",
            ),
        ],
        ids=long_value_id,
    )
    def test_bad_sample_fails_naming_line(self, tmp_path, capsys, record, message):
        samples = tmp_path / "samples.jsonl"
        samples.write_text('{"user":"u1","item":"i1","ts":1,"label":"N"}\n' + record + "\n")
        model = tmp_path / "model.txt"
        assert run("train", "--samples", samples, "--out", model) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["samples.jsonl"]


class TestAnalyzeCommand:
    def test_report_and_plot(self, tmp_path, event_file):
        out = tmp_path / "cohort.csv"
        assert run(
            "analyze", "--events", event_file, "--out", out,
            "--ref", "2024-06-01..2024-06-08", "--inv", "2024-06-08..2024-06-15",
            "--platform", "video",
        ) == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "bucket,users,decline_proportion"
        plot = (tmp_path / "cohort.csv.plot.csv").read_text().splitlines()
        assert plot[0] == "x,y"

    def test_notes_rejected_lines(self, tmp_path, event_file, capsys):
        lines = event_file.read_text().splitlines()
        lines.insert(1, lines[1][: len(lines[1]) // 2])
        events = tmp_path / "truncated.jsonl"
        events.write_text("\n".join(lines) + "\n")
        assert run(
            "analyze", "--events", events, "--out", tmp_path / "cohort.csv",
            "--ref", "2024-06-01..2024-06-08", "--inv", "2024-06-08..2024-06-15",
        ) == 0
        err = capsys.readouterr().err
        assert "note: rejected 1 malformed lines" in err
        assert "malformed lines (first: line 2: invalid JSON (" in err

    def test_bad_window_fails(self, tmp_path, event_file):
        out = tmp_path / "cohort.csv"
        assert run(
            "analyze", "--events", event_file, "--out", out,
            "--ref", "2024-06-08..2024-06-01", "--inv", "2024-06-08..2024-06-15",
        ) == 1
        assert not out.exists()

    def test_negative_min_watch_seconds_fails_naming_field(
        self, tmp_path, event_file, capsys
    ):
        assert run(
            "analyze", "--events", event_file, "--out", tmp_path / "cohort.csv",
            "--ref", "2024-06-01..2024-06-08", "--inv", "2024-06-08..2024-06-15",
            "--min-watch-seconds", "-5",
        ) == 1
        assert [p.name for p in tmp_path.iterdir()] == [event_file.name]
        assert "min_watch_seconds" in capsys.readouterr().err

    def test_bad_window_named_before_ingest(self, tmp_path, capsys):
        """The windows are parsed before the log is read, so a bad one is
        named even when the event file is missing."""
        assert run(
            "analyze", "--events", tmp_path / "missing.jsonl",
            "--out", tmp_path / "cohort.csv",
            "--ref", "bad", "--inv", "2024-06-08..2024-06-15",
        ) == 1
        assert list(tmp_path.iterdir()) == []
        assert "window 'bad'" in capsys.readouterr().err

    def test_bad_ratio_cap_named_before_ingest(self, tmp_path, capsys):
        assert run(
            "analyze", "--events", tmp_path / "missing.jsonl",
            "--out", tmp_path / "cohort.csv", "--ratio-cap", "0",
            "--ref", "2024-06-01..2024-06-08", "--inv", "2024-06-08..2024-06-15",
        ) == 1
        assert list(tmp_path.iterdir()) == []
        assert "error: ratio_cap must be positive" in capsys.readouterr().err


class TestSimulateCommand:
    def test_single_seed_schema(self, tmp_path):
        out = tmp_path / "daily.csv"
        assert run(
            "simulate", "--out", out, "--days", "2", "--population", "20",
            "--catalog", "40", "--pool", "12", "--slate", "4", "--epochs", "2",
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "day,arm,active_users,retention_delta,tolerance_rate,dwell_delta"

    def test_multi_seed_adds_seed_column(self, tmp_path):
        out = tmp_path / "daily.csv"
        assert run(
            "simulate", "--out", out, "--seeds", "2", "--days", "2",
            "--population", "20", "--catalog", "40", "--pool", "12",
            "--slate", "4", "--epochs", "2",
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("seed,day,arm")
        seeds = {line.split(",")[0] for line in lines[1:]}
        assert seeds == {"0", "1"}

    @pytest.mark.parametrize("seeds", ["0", "-2"])
    def test_rejects_fewer_than_one_seed(self, tmp_path, capsys, seeds):
        out = tmp_path / "daily.csv"
        assert run("simulate", "--out", out, "--seeds", seeds) == 1
        assert list(tmp_path.iterdir()) == []
        assert "seeds" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "train"])
def test_negative_seed_fails_by_name(tmp_path, capsys, command):
    # `train` gets no samples file: the seed must fail before it is read.
    argv = ["--samples", tmp_path / "absent.jsonl"] * (command == "train")
    assert run(command, *argv, "--out", tmp_path / "out", "--seed", "-1") == 1
    assert list(tmp_path.iterdir()) == []
    assert "seed must be a non-negative integer" in capsys.readouterr().err


def test_negative_neg_sample_fails_by_name(tmp_path, capsys):
    # No samples file: the count must fail before it is read.
    argv = ["--samples", tmp_path / "absent.jsonl", "--out", tmp_path / "out"]
    assert run("train", *argv, "--neg-sample", "-1") == 1
    assert list(tmp_path.iterdir()) == []
    assert "neg_sample must be non-negative" in capsys.readouterr().err


@pytest.fixture(scope="module")
def report_inputs(tmp_path_factory):
    """One input of each kind that `report` merges, made by the commands:
    a video cohort (its bucket labels hold commas, so the CSV quotes them),
    a cohort with no engaged user, a 3-seed daily CSV and a loss history."""
    root = tmp_path_factory.mktemp("report-inputs")
    events = root / "events.jsonl"
    write_events(events, generate_fixture_events(n_events=800, n_users=30, seed=3))
    # No event falls in May, so the second cohort has no engaged user.
    refs = {"video": "2024-06-01..2024-06-08", "empty": "2024-05-01..2024-05-08"}
    for name, ref in refs.items():
        assert run(
            "analyze", "--events", events, "--out", root / f"{name}.csv", "--ref", ref,
            "--inv", "2024-06-08..2024-06-15", "--platform", "video",
        ) == 0
    assert run(
        "simulate", "--out", root / "daily.csv", "--seeds", "3", "--days", "2",
        "--population", "20", "--catalog", "40", "--pool", "12", "--slate", "4",
        "--epochs", "2",
    ) == 0
    assert run("label", "--events", events, "--out", root / "samples.jsonl") == 0
    assert run(
        "train", "--samples", root / "samples.jsonl", "--out", root / "model.txt",
        "--epochs", "2",
    ) == 0
    return {
        "video": root / "video.csv",
        "empty": root / "empty.csv",
        "daily": root / "daily.csv",
        "history": root / "model.txt.history.csv",
    }


#: Input name -> (report flag, section tag), in the order `report` writes them.
REPORT_SECTIONS = {
    "video": ("--analyze", "cohort"),
    "empty": ("--analyze", "cohort"),
    "daily": ("--simulate", "simulation"),
    "history": ("--train-history", "training"),
}


def expected_summary(inputs: dict[str, Path], names: tuple[str, ...]) -> str:
    """The summary `report` should write, built from its inputs with the
    csv module: each file's header and rows under its tag, comma-joined,
    and the cohort's `considered=` comment after its rows."""
    blocks = []
    for name in names:
        with open(inputs[name], encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))
        comments = [row[0][1:].strip() for row in rows if row[0].startswith("#")]
        table = [",".join(row) for row in rows if not row[0].startswith("#")]
        tag = REPORT_SECTIONS[name][1]
        block = [f"[{tag}] {table[0]}", *table[1:]]
        if tag == "cohort":
            block += [c for c in comments if c.startswith("considered=")]
        blocks.append("\n".join(block))
    return f"tolrec {tolrec.__version__} run summary\n\n" + "\n\n".join(blocks) + "\n"


class TestReportCommand:
    @pytest.mark.parametrize(
        "names",
        [
            ("video", "daily", "history"),
            ("empty", "daily", "history"),
            ("video",),
            ("empty",),
            ("daily",),
            ("history",),
        ],
        ids="+".join,
    )
    def test_summary_copies_input_rows(self, tmp_path, report_inputs, names):
        summary = tmp_path / "summary.txt"
        argv = [arg for n in names for arg in (REPORT_SECTIONS[n][0], report_inputs[n])]
        assert run("report", "--out", summary, *argv) == 0
        text = summary.read_text(encoding="utf-8")
        assert text == expected_summary(report_inputs, names)
        if "video" in names:
            assert "\n[0.1,0.2)," in text  # the label unquoted
        if "empty" in names:
            assert "\nconsidered=0 excluded=" in text
        if "daily" in names:
            assert "\n[simulation] seed,day,arm," in text

    @pytest.mark.parametrize(
        "flag, content",
        [
            (flag, content)
            for flag in ["--analyze", "--simulate", "--train-history"]
            for content in ["a,b,c\n1,2,3\n", ""]
        ]
        + [("--analyze", "bucket,users,decline_proportion\n<0.1,0,0.000000\n")],
        ids=lambda value: value if value.startswith("--") else
        {"": "empty", "a,b,c\n1,2,3\n": "foreign"}.get(value, "no-counts"),
    )
    def test_bad_input_fails_naming_file(self, tmp_path, capsys, flag, content):
        bad = tmp_path / "bad.csv"
        bad.write_text(content)
        assert run("report", "--out", tmp_path / "summary.txt", flag, bad) == 1
        assert list(tmp_path.iterdir()) == [bad]
        assert str(bad) in capsys.readouterr().err

    def test_merges_pipeline_outputs(self, tmp_path, event_file):
        samples = tmp_path / "samples.jsonl"
        model = tmp_path / "model.txt"
        cohort = tmp_path / "cohort.csv"
        daily = tmp_path / "daily.csv"
        summary = tmp_path / "summary.txt"
        assert run("label", "--events", event_file, "--out", samples) == 0
        assert run("train", "--samples", samples, "--out", model, "--epochs", "2") == 0
        assert run(
            "analyze", "--events", event_file, "--out", cohort,
            "--ref", "2024-06-01..2024-06-08", "--inv", "2024-06-08..2024-06-15",
        ) == 0
        assert run(
            "simulate", "--out", daily, "--days", "2", "--population", "20",
            "--catalog", "40", "--pool", "12", "--slate", "4", "--epochs", "2",
        ) == 0
        assert run(
            "report", "--out", summary, "--analyze", cohort,
            "--simulate", daily, "--train-history", tmp_path / "model.txt.history.csv",
        ) == 0
        text = summary.read_text()
        assert "[cohort]" in text and "[simulation]" in text and "[training]" in text

    def test_rejects_foreign_simulation_csv(self, tmp_path):
        bogus = tmp_path / "bogus.csv"
        bogus.write_text("a,b,c\n1,2,3\n")
        summary = tmp_path / "summary.txt"
        assert run("report", "--out", summary, "--simulate", bogus) == 1
        assert not summary.exists()

    def test_requires_at_least_one_input(self, tmp_path):
        assert run("report", "--out", tmp_path / "summary.txt") == 1


_WINDOWS = ("--ref", "2024-06-01..2024-06-08", "--inv", "2024-06-08..2024-06-15")
_SMALL_SIM = ("--days", "1", "--population", "10", "--catalog", "20", "--pool", "8",
              "--slate", "4", "--epochs", "1")

#: Case -> (argv, with file names relative to the run's directory; the two
#: option names the error must give, `manifest` for `<out>.manifest.json`).
#: `link.jsonl` is a symlink to the events.
COLLISIONS = {
    "label-out-is-events": (
        ("label", "--events", "events.jsonl", "--out", "events.jsonl"),
        ("out", "events"),
    ),
    "label-out-is-events-profiles-unwritable": (
        ("label", "--events", "events.jsonl", "--out", "events.jsonl",
         "--profiles-out", "missing/p"),
        ("out", "events"),
    ),
    "label-out-is-events-by-symlink": (
        ("label", "--events", "events.jsonl", "--out", "link.jsonl"),
        ("out", "events"),
    ),
    "label-out-is-config": (
        ("label", "--events", "events.jsonl", "--config", "config.json",
         "--out", "config.json"),
        ("out", "config"),
    ),
    "label-profiles-is-events": (
        ("label", "--events", "events.jsonl", "--out", "s.jsonl",
         "--profiles-out", "events.jsonl"),
        ("profiles_out", "events"),
    ),
    "label-profiles-is-out": (
        ("label", "--events", "events.jsonl", "--out", "s.jsonl",
         "--profiles-out", "s.jsonl"),
        ("profiles_out", "out"),
    ),
    "label-profiles-is-manifest": (
        ("label", "--events", "events.jsonl", "--out", "s.jsonl",
         "--profiles-out", "s.jsonl.manifest.json"),
        ("manifest", "profiles_out"),
    ),
    "train-out-is-samples": (
        ("train", "--samples", "samples.jsonl", "--out", "samples.jsonl"),
        ("out", "samples"),
    ),
    "train-history-is-samples": (
        ("train", "--samples", "samples.jsonl", "--out", "m.txt",
         "--history-out", "samples.jsonl"),
        ("history_out", "samples"),
    ),
    "train-history-is-out": (
        ("train", "--samples", "samples.jsonl", "--out", "m.txt", "--history-out", "m.txt"),
        ("history_out", "out"),
    ),
    "train-history-is-manifest": (
        ("train", "--samples", "samples.jsonl", "--out", "m.txt",
         "--history-out", "m.txt.manifest.json"),
        ("manifest", "history_out"),
    ),
    "analyze-out-is-events": (
        ("analyze", *_WINDOWS, "--events", "events.jsonl", "--out", "events.jsonl"),
        ("out", "events"),
    ),
    "analyze-plot-is-events": (
        ("analyze", *_WINDOWS, "--events", "events.jsonl", "--out", "c.csv",
         "--plot-out", "events.jsonl"),
        ("plot_out", "events"),
    ),
    "analyze-plot-is-out": (
        ("analyze", *_WINDOWS, "--events", "events.jsonl", "--out", "c.csv",
         "--plot-out", "c.csv"),
        ("plot_out", "out"),
    ),
    "analyze-plot-is-manifest": (
        ("analyze", *_WINDOWS, "--events", "events.jsonl", "--out", "c.csv",
         "--plot-out", "c.csv.manifest.json"),
        ("manifest", "plot_out"),
    ),
    "simulate-out-is-config": (
        ("simulate", *_SMALL_SIM, "--config", "config.json", "--out", "config.json"),
        ("out", "config"),
    ),
    "report-out-is-analyze": (
        ("report", "--analyze", "video.csv", "--out", "video.csv"),
        ("out", "analyze"),
    ),
    "report-out-is-simulate": (
        ("report", "--simulate", "daily.csv", "--out", "daily.csv"),
        ("out", "simulate"),
    ),
    "report-out-is-train-history": (
        ("report", "--train-history", "history.csv", "--out", "history.csv"),
        ("out", "train_history"),
    ),
    "report-out-is-config": (
        ("report", "--analyze", "video.csv", "--config", "config.json",
         "--out", "config.json"),
        ("out", "config"),
    ),
}


@pytest.mark.parametrize("case", list(COLLISIONS))
def test_output_naming_an_input_or_output_fails(
    tmp_path, monkeypatch, capsys, report_inputs, case
):
    """An output that resolves to an input or to another output fails the
    run before any file is written: every input keeps its bytes, no file
    appears, and the error names both options."""
    root = report_inputs["video"].parent
    for name in ("events.jsonl", "samples.jsonl"):
        shutil.copy(root / name, tmp_path / name)
    for name in ("video", "daily", "history"):
        shutil.copy(report_inputs[name], tmp_path / f"{name}.csv")
    (tmp_path / "config.json").write_text("{}\n")
    (tmp_path / "link.jsonl").symlink_to(tmp_path / "events.jsonl")

    def files():
        return {p.name: p.is_symlink() or p.read_bytes() for p in tmp_path.iterdir()}

    before = files()
    argv, flags = COLLISIONS[case]
    monkeypatch.chdir(tmp_path)
    assert run(*argv) == 1
    assert files() == before
    err = capsys.readouterr().err
    assert f"{flags[0]} and {flags[1]} name the same file" in err, err


@pytest.mark.parametrize(
    "argv, name",
    [
        (("label", "--buckets", "abc"), "buckets"),
        (("analyze", *_WINDOWS, "--buckets", "1,x"), "buckets"),
        (("train", "--samples", "absent.jsonl", "--beta", "fixed:abc"), "beta"),
        (("simulate", "--beta", "fixed:abc"), "beta"),
        (("analyze", "--ref", "x", "--inv", "2024-06-08..2024-06-15"), "ref"),
        (("analyze", "--ref", "2024-06-01..2024-06-08", "--inv", "2024-06-15..2024-06-08"),
         "inv"),
    ],
    ids=["label-buckets", "analyze-buckets", "train-beta", "simulate-beta", "ref", "inv"],
)
def test_unparsable_string_option_fails_by_name(tmp_path, capsys, argv, name):
    """A string option that does not parse fails naming the option, before
    the (here missing) log is read and before any file is written."""
    events = ("--events", tmp_path / "missing.jsonl") * (argv[0] in ("label", "analyze"))
    assert run(*argv, *events, "--out", tmp_path / "out") == 1
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().err.startswith(f"error: {name}: ")


#: Command -> (argv, with file names relative to a directory of inputs; the
#: files a run adds there, in the order written; and flags that make its
#: last data write fail).
OUTPUT_CASES = {
    "label": (
        ("label", "--events", "events.jsonl", "--out", "s.jsonl"),
        ("s.jsonl", "s.jsonl.profiles", "s.jsonl.manifest.json"),
        ("--profiles-out", "missing/p"),
    ),
    "train": (
        ("train", "--samples", "samples.jsonl", "--out", "m.txt", "--epochs", "1"),
        ("m.txt", "m.txt.history.csv", "m.txt.manifest.json"),
        ("--history-out", "missing/h.csv"),
    ),
    "analyze": (
        ("analyze", *_WINDOWS, "--events", "events.jsonl", "--out", "c.csv"),
        ("c.csv", "c.csv.plot.csv", "c.csv.manifest.json"),
        ("--plot-out", "missing/p"),
    ),
    "simulate": (
        ("simulate", *_SMALL_SIM, "--out", "d.csv"),
        ("d.csv", "d.csv.manifest.json"),
        ("--out", "missing/d.csv"),
    ),
    "report": (
        ("report", "--analyze", "video.csv", "--out", "s.txt"),
        ("s.txt", "s.txt.manifest.json"),
        ("--out", "missing/s.txt"),
    ),
}


@pytest.fixture
def inputs_dir(tmp_path, monkeypatch, report_inputs):
    """The working directory, holding one input of each kind."""
    root = report_inputs["video"].parent
    for name in ("events.jsonl", "samples.jsonl"):
        shutil.copy(root / name, tmp_path / name)
    shutil.copy(report_inputs["video"], tmp_path / "video.csv")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def files_in(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


@pytest.mark.parametrize("command", list(OUTPUT_CASES))
def test_run_adds_exactly_its_outputs(inputs_dir, command):
    """A run adds its listed outputs and nothing else, so an output written
    outside the list that the collision check and the cleanup use fails here."""
    argv, added, _ = OUTPUT_CASES[command]
    before = files_in(inputs_dir)
    assert run(*argv) == 0
    after = files_in(inputs_dir)
    assert sorted(after) == sorted([*before, *added])
    assert {name: after[name] for name in before} == before
    assert tuple(_outputs(_resolve(build_parser().parse_args(argv))).values()) == added


@pytest.mark.parametrize("command", list(OUTPUT_CASES))
def test_failed_write_removes_every_output(inputs_dir, capsys, command):
    """A write that fails removes every output written before it: no
    `--out`, no sidecar and no manifest is left."""
    argv, _, failing = OUTPUT_CASES[command]
    before = files_in(inputs_dir)
    assert run(*argv, *failing) == 1
    assert files_in(inputs_dir) == before
    assert failing[1] in capsys.readouterr().err


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def declared_script():
    """The `tolrec` entry point and the version that pyproject.toml declares."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    return project["scripts"]["tolrec"], project["version"]


def run_declared_script(*argv):
    """Run the declared `module:attr` in a fresh interpreter, as the wrapper
    that pip writes for a console script does, importing `tolrec` from where
    this process found it."""
    target, _ = declared_script()
    module, attr = target.split(":")
    code = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    package_root = str(Path(tolrec.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, env=env,
    )


class TestEntryPoint:
    def test_installed_script(self):
        _, version = declared_script()
        proc = run_declared_script("--version")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{version}\n"
        assert version == tolrec.__version__

    def test_public_names_resolve(self):
        """Every exported name exists, once, so a name that leaves the
        package cannot stay in ``__all__``."""
        assert len(set(tolrec.__all__)) == len(tolrec.__all__)
        assert [name for name in tolrec.__all__ if not hasattr(tolrec, name)] == []

    @pytest.mark.skipif(
        shutil.which("tolrec") is None,
        reason="no tolrec script on PATH (pip install -e . --no-build-isolation)",
    )
    def test_script_on_path(self):
        proc = subprocess.run(
            ["tolrec", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == run_declared_script("--version").stdout


class TestManifestDeterminism:
    def test_rerun_produces_identical_manifest_and_outputs(self, tmp_path, event_file):
        out_a = tmp_path / "a" / "samples.jsonl"
        out_b = tmp_path / "b" / "samples.jsonl"
        out_a.parent.mkdir()
        out_b.parent.mkdir()
        assert run("label", "--events", event_file, "--out", out_a) == 0
        assert run("label", "--events", event_file, "--out", out_b) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        manifest_a = json.loads((tmp_path / "a" / "samples.jsonl.manifest.json").read_text())
        manifest_b = json.loads((tmp_path / "b" / "samples.jsonl.manifest.json").read_text())
        manifest_a["config"]["out"] = manifest_b["config"]["out"] = ""
        manifest_a["config"]["profiles_out"] = manifest_b["config"]["profiles_out"] = ""
        assert manifest_a == manifest_b
