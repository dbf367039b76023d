"""Command-line interface: subcommands, outputs, exit codes."""

import functools
import json
import math
import random
import shlex
from pathlib import Path

import numpy as np
import pytest

import wfpredict.cli as cli_mod
import wfpredict.pipeline as pipeline_mod
import wfpredict.store as store_mod
from conftest import (
    PAST_B, header_of, log_line, make_features, make_record, parse_line, series_block,
)
from wfpredict.cli import main
from wfpredict.domain import B, MetricKind, Scenario, TaskExecutionRecord
from wfpredict.forecaster import SequenceModel, TrainingDivergedError
from wfpredict.pipeline import REGISTRY_VERSION, PipelineConfig, Registry
from wfpredict.store import RecordLog


@pytest.fixture(scope="module")
def gen_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    assert main(["generate", "--out", str(path), "--records", "60", "--seed", "5"]) == 0
    return path


def test_generate_refuses_overwrite(gen_log):
    assert main(["generate", "--out", str(gen_log), "--records", "5"]) == 1


def test_a_failed_generate_leaves_no_file_and_blocks_no_retry(tmp_path, capsys):
    """A bad seed is refused before the log is opened, so no empty file is
    left behind for the existing-path refusal to turn a retry away."""
    out = tmp_path / "c.jsonl"
    assert main(["generate", "--out", str(out), "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: --seed must be >= 0, got -1\n"
    assert not out.exists()
    assert main(["generate", "--out", str(out), "--records", "5"]) == 0
    assert RecordLog(out).count == 5


def test_generate_rejects_bad_count(tmp_path):
    assert main(["generate", "--out", str(tmp_path / "x.jsonl"), "--records", "0"]) == 1


def test_ingest_copies_records(tmp_path, gen_log):
    dest = tmp_path / "copy.jsonl"
    assert main(["ingest", "--input", str(gen_log), "--log", str(dest)]) == 0
    assert RecordLog(dest).count == 60


def test_generate_and_ingest_fsync_once_per_run(tmp_path, gen_log, monkeypatch):
    calls = []
    monkeypatch.setattr(store_mod.os, "fsync", lambda fd: calls.append(fd))
    assert main(["generate", "--out", str(tmp_path / "g.jsonl"), "--records", "30"]) == 0
    assert len(calls) == 1
    dest = tmp_path / "copy.jsonl"
    assert main(["ingest", "--input", str(gen_log), "--log", str(dest)]) == 0
    assert len(calls) == 2
    assert dest.read_bytes() == gen_log.read_bytes()


def test_diverged_forecaster_update_is_one_error_line(tmp_path, gen_log, monkeypatch, capsys):
    def diverge(self, fenc, inputs, targets, lengths):
        return np.full(len(inputs), np.nan), np.zeros_like(self.flat_params)

    monkeypatch.setattr(SequenceModel, "_gradients", diverge)
    rc = main([
        "replay-predict", "--log", str(gen_log), "--scenario", "time_series",
        "--tau", "5", "--out", str(tmp_path / "p.jsonl"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: non-finite loss") and err.count("\n") == 1


_JSON_HEAD = (
    '{"features": {"task_name": "align", "task_id": "align", "input_name": "chr20", '
    '"vm_vcpus": 2, "vm_memory": 4096.0, "vm_storage": 40.0, "submission_day": 3, '
    '"submission_hour": 14}, "runtime_seconds": 12.0, "series": '
)
_JSON_LINES = {
    # one {"tau", "values"} object per metric name
    "per-metric": _JSON_HEAD + '{"utime": {"tau": 5, "values": [1, 2.5]}}}',
    # one block, its samples the base64 text of their float64 bytes
    "base64-block": _JSON_HEAD
    + '{"tau": 5, "metrics": ["utime"], "lengths": [2], "f64": "AAAAAAAA8D8AAAAAAAAEQA=="}}',
}


@pytest.mark.parametrize("layout", sorted(_JSON_LINES))
def test_ingest_refuses_a_log_in_a_json_layout(tmp_path, capsys, layout):
    """The JSON layouts written before the binary payload are not read: a
    line without a NUL is a corrupt entry, and ingest appends nothing."""
    src = tmp_path / "json.jsonl"
    src.write_text(_JSON_LINES[layout] + "\n", encoding="utf-8")
    dest = tmp_path / "dest.jsonl"
    RecordLog(dest).extend([make_record()])
    before = dest.read_bytes()
    assert main(["ingest", "--input", str(src), "--log", str(dest)]) == 1
    err = capsys.readouterr().err
    assert err == (f"error: corrupt entry in {src} after 0 records: "
                   "no NUL after a header: not a line of the record log\n")
    assert dest.read_bytes() == before


def test_ingest_of_a_log_into_itself_appends_its_records_once(tmp_path, gen_log):
    """A read stops at the log's size when it began, so ingest never reads
    the records it appends to its own input."""
    log = tmp_path / "self.jsonl"
    log.write_bytes(gen_log.read_bytes())
    records = RecordLog(log).read_all()
    assert main(["ingest", "--input", str(log), "--log", str(log)]) == 0
    assert RecordLog(log).read_all() == records + records
    assert log.read_bytes() == gen_log.read_bytes() * 2


@pytest.mark.parametrize("argv", [
    ["ingest", "--input", "{log}", "--log", "{out}"],
    ["eval-online", "--log", "{log}", "--out", "{out}"],
    ["eval-batch", "--log", "{log}", "--d", "0.8", "--out", "{out}"],
    ["replay-predict", "--log", "{log}"],
    ["sweep", "--log", "{log}", "--out-dir", "{out}"],
    ["select-features", "--log", "{log}", "--threshold", "0.5"],
], ids=lambda argv: argv[0])
def test_a_reading_command_refuses_a_missing_log(tmp_path, capsys, argv):
    """All but ingest once read a missing log as an empty one: replay-predict
    and select-features exited 0 with no output."""
    log = tmp_path / "missing.jsonl"
    assert main([a.format(log=log, out=tmp_path / "out") for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(log) in err and err.count("\n") == 1
    assert not log.exists()


def test_eval_online_writes_reports(tmp_path, gen_log):
    out = tmp_path / "report"
    rc = main([
        "eval-online", "--log", str(gen_log), "--scenario", "baseline",
        "--tau", "5", "--out", str(out),
    ])
    assert rc == 0
    body = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
    assert body["mode"] == "online"
    assert body["n_predictions"] == 60
    assert (tmp_path / "report.txt").read_text(encoding="utf-8").startswith("scenario baseline")


def test_eval_online_rejects_bad_flags(tmp_path, gen_log):
    out = str(tmp_path / "r")
    args = ["eval-online", "--log", str(gen_log), "--out", out]
    assert main(args + ["--tau", "0"]) == 1
    assert main(args + ["--k", "0"]) == 1
    assert main(args + ["--lag", "-1"]) == 1
    assert main(args + ["--window-capacity", "0"]) == 1
    assert main(args + ["--epochs-per-update", "-1"]) == 1


@pytest.mark.parametrize("skip", ["-1", "60"])
def test_eval_online_skip_first_out_of_range_is_one_error_line(tmp_path, gen_log, capsys, skip):
    out = tmp_path / "r"
    rc = main(["eval-online", "--log", str(gen_log), "--out", str(out), "--skip-first", skip])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == f"error: skip_first must be in [0, 60) for this log, got {skip}\n"
    assert not (tmp_path / "r.json").exists()


def test_eval_batch_writes_reports(tmp_path, gen_log):
    out = tmp_path / "batch"
    rc = main([
        "eval-batch", "--log", str(gen_log), "--scenario", "two_stages",
        "--tau", "5", "--d", "0.5", "--out", str(out),
    ])
    assert rc == 0
    body = json.loads((tmp_path / "batch.json").read_text(encoding="utf-8"))
    assert body["mode"] == "batch(0.5)"


def test_eval_batch_rejects_bad_fraction(tmp_path, gen_log):
    rc = main([
        "eval-batch", "--log", str(gen_log), "--d", "1.0", "--out", str(tmp_path / "r"),
    ])
    assert rc == 1


def test_replay_predict_streams_jsonl(tmp_path, gen_log):
    out = tmp_path / "preds.jsonl"
    rc = main([
        "replay-predict", "--log", str(gen_log), "--scenario", "baseline",
        "--tau", "5", "--out", str(out),
    ])
    assert rc == 0
    lines = [json.loads(l) for l in out.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 60
    assert {"task_name", "predicted", "actual"} <= set(lines[0])


def _corpus_with_a_corrupt_line(path, gen_log, index):
    lines = gen_log.read_bytes().splitlines()
    lines[index] = b"not a record"
    return _write_log(path, lines)


@pytest.mark.parametrize("corrupt", [None, 3], ids=["missing-log", "corrupt-4th-line"])
def test_a_refused_replay_leaves_an_existing_out_as_it_was(tmp_path, gen_log, capsys, corrupt):
    """The predictions reach --out only when the whole replay succeeds: a
    refused one once left an existing file at 0 bytes."""
    log = tmp_path / "log.jsonl"
    if corrupt is not None:
        _corpus_with_a_corrupt_line(log, gen_log, corrupt)
    out = tmp_path / "p.jsonl"
    out.write_bytes(b'{"kept": true}\n')
    assert main(["replay-predict", "--log", str(log), "--tau", "5", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert out.read_bytes() == b'{"kept": true}\n'
    assert not (tmp_path / "p.jsonl.tmp").exists()


@pytest.mark.parametrize("corrupt", [None, 0], ids=["missing-log", "corrupt-1st-line"])
def test_a_replay_refused_before_its_first_record_creates_no_out_or_directory(
    tmp_path, gen_log, corrupt
):
    log = tmp_path / "log.jsonl"
    if corrupt is not None:
        _corpus_with_a_corrupt_line(log, gen_log, corrupt)
    out = tmp_path / "new_dir" / "p.jsonl"
    assert main(["replay-predict", "--log", str(log), "--tau", "5", "--out", str(out)]) == 1
    assert not (tmp_path / "new_dir").exists()


@pytest.mark.parametrize("argv", [
    ["replay-predict", "--tau", "5", "--scenario", "baseline"],
    ["select-features", "--tau", "5", "--threshold", "0.5"],
], ids=lambda argv: argv[0])
def test_an_out_in_a_directory_that_does_not_exist_creates_it(tmp_path, gen_log, argv):
    out = tmp_path / "a" / "b" / "out.json"
    assert main(argv + ["--log", str(gen_log), "--out", str(out)]) == 0
    assert out.read_bytes() and [p.name for p in out.parent.iterdir()] == ["out.json"]


def _spy_reads(monkeypatch):
    """The list to which each read of a log appends its path."""
    reads, spans = [], RecordLog._spans

    def spy(self):
        reads.append(self.path)
        return spans(self)

    monkeypatch.setattr(RecordLog, "_spans", spy)
    return reads


def _tree(root):
    """Each path under root with its bytes, None for a directory."""
    return {p: None if p.is_dir() else p.read_bytes() for p in sorted(root.rglob("*"))}


@pytest.mark.parametrize("argv, log_name", [
    pytest.param(["replay-predict", "--tau", "5", "--out", "{dir}/c.jsonl"], "c.jsonl",
                 id="replay-predict"),
    pytest.param(["select-features", "--threshold", "0.5", "--out", "{dir}/c.jsonl"], "c.jsonl",
                 id="select-features"),
    pytest.param(["eval-online", "--out", "{dir}/c"], "c.json", id="eval-online"),
    pytest.param(["eval-batch", "--d", "0.8", "--out", "{dir}/c"], "c.txt", id="eval-batch"),
    pytest.param(["sweep", "--scenarios", "baseline", "--taus", "5", "--lags", "2",
                  "--out-dir", "{dir}/d"], "d/baseline_tau5_lag2.json", id="sweep"),
    pytest.param(["replay-predict", "--tau", "5", "--registry-dir", "{dir}/d"], "d/index.json",
                 id="registry-dir"),
])
def test_an_out_that_is_the_log_is_refused_with_the_log_intact(
    tmp_path, gen_log, capsys, monkeypatch, argv, log_name
):
    """A written path naming the --log file, by another spelling too, is
    refused before the log is read, in one error line naming the flag and
    --log. --out once emptied the log and exited 0; an eval or sweep report
    and a registry's index.json replaced the log with themselves."""
    log = tmp_path / log_name
    log.parent.mkdir(exist_ok=True)
    log.write_bytes(gen_log.read_bytes())
    before = _tree(tmp_path)
    reads = _spy_reads(monkeypatch)
    for spelling in (str(tmp_path), f"{tmp_path}/."):
        args = [a.format(dir=spelling) for a in argv]
        assert main(args + ["--log", str(log)]) == 1
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.count("\n") == 1
        assert err.startswith(f"error: {args[-2]} {args[-1]} ") and "--log" in err
        assert (reads, _tree(tmp_path)) == ([], before)


def _line(rec):
    return log_line(header_of(rec), rec.series.samples)


def _write_log(path, lines):
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return path


def test_a_non_finite_vm_memory_stops_every_scenario_at_decode(tmp_path, capsys):
    """A record whose vm_memory reads NaN is a corrupt line: every scenario
    prints the predictions before it and one error line, and ingest refuses it."""
    records = [make_record(runtime=10.0 + i, input_name=f"chr{20 + i}") for i in range(3)]
    headers = [header_of(rec) for rec in records]
    headers[1]["features"]["vm_memory"] = math.nan
    log = _write_log(tmp_path / "nan.jsonl", [
        log_line(h, rec.series.samples) for h, rec in zip(headers, records)])
    assert math.isnan(parse_line(log.read_bytes().split(b"\n")[1])[0]["vm_memory"])
    runs = []
    for scenario in Scenario:
        rc = main(["replay-predict", "--log", str(log), "--scenario", scenario.value])
        runs.append((rc, *capsys.readouterr()))
    assert runs[0] == runs[1] == runs[2]
    rc, out, err = runs[0]
    assert rc == 1 and len(out.splitlines()) == 1
    assert err.startswith(f"error: corrupt entry in {log} after 1 records")
    assert err.endswith(": vm_memory must be in (0, B], B = 2**64, got nan\n")
    assert err.count("\n") == 1
    assert main(["ingest", "--input", str(log), "--log", str(tmp_path / "copy.jsonl")]) == 1
    assert capsys.readouterr().err.count("\n") == 1


def _log_with_features(path, n, **values):
    """A log of n records; values[field][i], where given, is record i's value of field."""
    records = [make_record(runtime=10.0 + 2 * i) for i in range(n)]
    headers = [header_of(rec) for rec in records]
    for field, column in values.items():
        for h, v in zip(headers, column):
            h["features"][field] = v
    return _write_log(path, [log_line(h, rec.series.samples) for h, rec in zip(headers, records)])


@pytest.mark.parametrize("argv, values, delivered, detail", [
    # an int input_name once read back as another value after a save and load;
    # a line's names are UTF-8 bytes now, so the name it cannot decode
    (["replay-predict", "--scenario", "baseline", "--registry-dir", "OUT"],
     dict(input_name=[b"chr\xff"] * 6), 0, "a name is not UTF-8"),
    # a null task_name once failed the registry save with a traceback; an
    # hour is a byte now, so one past the day's last
    (["replay-predict", "--scenario", "two_stages", "--registry-dir", "OUT"],
     dict(submission_hour=[9, 24]), 1, "submission_hour must be an integer in [0, 23], got 24"),
    # a vcpu count too large for a float once failed the replay with a traceback
    (["eval-online", "--scenario", "two_stages", "--out", "OUT"],
     dict(vm_vcpus=[2, 2, 2**53 + 1]), 2, "vm_vcpus must be an integer in [1, 9007199254740992]"),
])
def test_a_feature_of_another_type_is_one_corrupt_entry_line(
    tmp_path, capsys, argv, values, delivered, detail
):
    """The record is refused at decode: no registry or report is written."""
    log = _log_with_features(tmp_path / "log.jsonl", 6, **values)
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    assert main(argv[:1] + ["--log", str(log)] + argv[1:]) == 1
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == (delivered if argv[0] == "replay-predict" else 0)
    assert err.startswith(f"error: corrupt entry in {log} after {delivered} records: {detail}")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["log.jsonl"]


def test_ingest_of_an_input_with_a_corrupt_entry_appends_nothing(tmp_path, capsys):
    """Every input record is checked before any is appended: a corrupt entry
    leaves the destination's bytes as they were, so one ingest of the mended
    input appends each of its records once."""
    records = [make_record(runtime=10.0 + i, input_name=f"chr{20 + i}") for i in range(3)]
    headers = [header_of(rec) for rec in records]
    headers[1]["features"]["vm_memory"] = math.nan
    src = _write_log(tmp_path / "src.jsonl", [
        log_line(h, rec.series.samples) for h, rec in zip(headers, records)])
    first = make_record(runtime=7.0)
    dest = tmp_path / "dest.jsonl"
    RecordLog(dest).extend([first])
    before = dest.read_bytes()
    assert main(["ingest", "--input", str(src), "--log", str(dest)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: corrupt entry in {src} after 1 records") and err.count("\n") == 1
    assert dest.read_bytes() == before
    _write_log(src, [_line(rec) for rec in records])
    assert main(["ingest", "--input", str(src), "--log", str(dest)]) == 0
    assert RecordLog(dest).read_all() == [first] + records


def test_ingest_into_a_log_that_ends_in_a_partial_line_is_one_error_line(tmp_path, capsys):
    """A log whose last line a crash cut short takes no record: ingest prints
    one error line, exits 1 and leaves the log's bytes as they were."""
    dest = _write_log(tmp_path / "torn.jsonl",
                      [_line(make_record(runtime=5.0 + i)) for i in range(3)])
    dest.write_bytes(dest.read_bytes()[:-60])
    torn = dest.read_bytes()
    src = _write_log(tmp_path / "src.jsonl", [_line(make_record(runtime=9.0))])
    assert main(["ingest", "--input", str(src), "--log", str(dest)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {dest} ends in a partial line; not appending\n"
    assert dest.read_bytes() == torn


def test_a_record_without_series_reads_as_sampled_at_tau_in_every_command(tmp_path, capsys):
    """A record that holds no series has no interval of its own, so its
    series interval (3) is not held against --tau 5: select-features reads
    it through the same block reader as replay-predict, and both succeed."""
    empty = header_of(make_record(runtime=4.0))
    empty["series"] = {"tau": 3, "metrics": [], "lengths": []}
    log = _write_log(tmp_path / "empty.jsonl",
                     [log_line(empty, ()), _line(make_record(runtime=12.0))])
    out = tmp_path / "sel.json"
    assert main([
        "select-features", "--log", str(log), "--tau", "5", "--threshold", "0.5", "--out", str(out),
    ]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["align"]["rho"]["utime"] == 0.0
    for scenario in Scenario:
        rc = main(["replay-predict", "--log", str(log), "--scenario", scenario.value, "--tau", "5"])
        assert rc == 0
    assert capsys.readouterr().err == ""


def test_a_sample_past_b_is_one_error_line_in_every_scenario(tmp_path, capsys):
    """Eight samples of 1e308, past the domain bound B, are a corrupt line:
    every scenario prints the prediction before it and one error line naming
    the series and B. Before, only two_stages stopped, as their sum, the
    aggregate, overflowed; the other scenarios took the record."""
    huge = make_record(runtime=10.0, n=8)
    log = _write_log(tmp_path / "huge.jsonl", [
        _line(make_record(runtime=12.0, n=8)),
        log_line(header_of(huge), np.full(huge.series.samples.size, 1e308))])
    runs = []
    for scenario in Scenario:
        rc = main(["replay-predict", "--log", str(log), "--scenario", scenario.value, "--tau", "1"])
        runs.append((rc, *capsys.readouterr()))
    assert runs[0] == runs[1] == runs[2]
    rc, out, err = runs[0]
    assert rc == 1 and len(out.splitlines()) == 1
    assert err == (f"error: corrupt entry in {log} after 1 records: "
                   "procs sample 1e+308 is outside [-B, B], B = 2**64\n")


def test_an_aggregate_past_b_is_one_error_line(tmp_path, capsys):
    """Four samples of 2**63, within B, add up to an aggregate of 2**65:
    two_stages refuses the row where the window adds it, with one error line
    naming the column and B and no numpy warning. The other scenarios read
    no aggregate and take the record."""
    log = _write_log(tmp_path / "big.jsonl", [
        _line(make_record(runtime=12.0, n=8)),
        _line(make_record(runtime=10.0, n=4, level=2.0**63))])
    rc = main(["replay-predict", "--log", str(log), "--scenario", "two_stages", "--tau", "1"])
    out, err = capsys.readouterr()
    assert rc == 1 and len(out.splitlines()) == 2
    assert err == f"error: agg_procs {4 * 2.0**63!r} is outside [-B, B], B = 2**64\n"
    for scenario in ("baseline", "time_series"):
        rc = main(["replay-predict", "--log", str(log), "--scenario", scenario, "--tau", "1"])
        out, err = capsys.readouterr()
        assert rc == 0 and len(out.splitlines()) == 2 and err == ""


@pytest.mark.parametrize("command, lines", [
    pytest.param(["replay-predict", "--scenario", "time_series"], 3, id="replay-predict"),
    pytest.param(["select-features", "--threshold", "0.5"], 1, id="select-features"),
])
def test_samples_whose_trev_moments_underflow_are_taken(tmp_path, capsys, command, lines):
    """utime samples of 1e-110 to 5e-110: the power 1.5 of their mean squared
    difference underflows to 0.0, and a time_series replay once died in
    ZeroDivisionError after its first prediction, a selection before its
    report. Each such trev reads 0.0."""
    samples = (1e-110, 3e-110, 5e-110, 2e-110, 4e-110)
    log = _write_log(tmp_path / "tiny.jsonl", [
        _line(TaskExecutionRecord(
            make_features(), series_block({MetricKind.utime: samples}), 10.0 + i))
        for i in range(3)])
    rc = main([*command, "--log", str(log), "--tau", "1"])
    out, err = capsys.readouterr()
    assert rc == 0 and len(out.splitlines()) == lines and err == ""


def test_replay_predict_saves_registry(tmp_path, gen_log):
    reg_dir = tmp_path / "registry"
    rc = main([
        "replay-predict", "--log", str(gen_log), "--scenario", "two_stages",
        "--tau", "5", "--out", str(tmp_path / "p.jsonl"), "--registry-dir", str(reg_dir),
    ])
    assert rc == 0
    assert (reg_dir / "index.json").is_file()
    assert main(["registry", "list", "--dir", str(reg_dir)]) == 0


def test_registry_list_counts_forecast_metrics_and_rejects_version_1(tmp_path, gen_log, capsys):
    reg_dir = tmp_path / "registry"
    rc = main([
        "replay-predict", "--log", str(gen_log), "--scenario", "time_series",
        "--tau", "5", "--out", str(tmp_path / "p.jsonl"), "--registry-dir", str(reg_dir),
    ])
    assert rc == 0
    capsys.readouterr()
    assert main(["registry", "list", "--dir", str(reg_dir)]) == 0
    listed = capsys.readouterr().out.splitlines()
    assert listed and all("13 forecasters" in line for line in listed)

    index_path = reg_dir / "index.json"
    index = json.loads(index_path.read_text(encoding="utf-8"))
    for version in (1, 2, 6):
        index["version"] = version
        index_path.write_text(json.dumps(index), encoding="utf-8")
        assert main(["registry", "list", "--dir", str(reg_dir)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: unsupported registry version {version}"
        ]


def test_select_features_reports_correlations(tmp_path, gen_log, capsys):
    out = tmp_path / "sel.json"
    rc = main([
        "select-features", "--log", str(gen_log), "--tau", "5",
        "--threshold", "0.5", "--out", str(out),
    ])
    assert rc == 0
    body = json.loads(out.read_text(encoding="utf-8"))
    for task, entry in body.items():
        assert len(entry["rho"]) == 13
        assert isinstance(entry["selected"], list)


def test_select_features_reads_zero_for_sides_that_never_vary(tmp_path):
    # 3 identical records: runtime and utime's trev (1.673265181724069 at lag
    # 2) are both constant at values that are not dyadic fractions, so a
    # two-pass mean leaves a rounding residue on each side, which read +1.0
    series = series_block({MetricKind.utime: (1.0, 5.0, 2.0, 3.0, 3.0, 9.0, 4.0)})
    rec = TaskExecutionRecord(features=make_features(), series=series, runtime_seconds=7.1)
    log = RecordLog(tmp_path / "flat.jsonl")
    log.extend([rec] * 3)
    out = tmp_path / "sel.json"
    rc = main([
        "select-features", "--log", str(log.path), "--tau", "1",
        "--threshold", "0.5", "--out", str(out),
    ])
    assert rc == 0
    entry = json.loads(out.read_text(encoding="utf-8"))["align"]
    assert entry["rho"] == {m.value: 0.0 for m in MetricKind}
    assert entry["selected"] == []


def test_select_features_rejects_bad_threshold(tmp_path, gen_log):
    rc = main(["select-features", "--log", str(gen_log), "--threshold", "1.5"])
    assert rc == 1


@pytest.mark.parametrize("flag", ["--tau", "--lag"])
def test_select_features_refuses_a_tau_or_lag_below_1_in_one_line(tmp_path, gen_log, capsys, flag):
    out = tmp_path / "sel.json"
    rc = main([
        "select-features", "--log", str(gen_log), flag, "0",
        "--threshold", "0.5", "--out", str(out),
    ])
    assert rc == 1
    assert capsys.readouterr().err == "error: --tau and --lag must be >= 1\n"
    assert not out.exists()


def test_select_features_leaves_out_a_task_with_a_single_record(tmp_path, capsys):
    """A correlation needs 2 records: a task seen once gets no entry."""
    log = RecordLog(tmp_path / "log.jsonl")
    log.extend([make_record(runtime=r) for r in (6.0, 9.0, 7.0)]
               + [make_record(runtime=8.0, task_name="merge", task_id="merge")])
    out = tmp_path / "sel.json"
    rc = main([
        "select-features", "--log", str(log.path), "--tau", "1",
        "--threshold", "0.5", "--out", str(out),
    ])
    assert rc == 0
    assert list(json.loads(out.read_text(encoding="utf-8"))) == ["align"]
    assert capsys.readouterr().out.startswith("align: selected ")


def test_sweep_emits_one_report_per_configuration(tmp_path, gen_log):
    out_dir = tmp_path / "sweep"
    rc = main([
        "sweep", "--log", str(gen_log), "--scenarios", "baseline",
        "--taus", "1", "5", "--lags", "2", "3", "--out-dir", str(out_dir),
    ])
    assert rc == 0
    names = sorted(p.name for p in out_dir.glob("*.json"))
    assert names == [
        "baseline_tau1_lag2.json", "baseline_tau1_lag3.json",
        "baseline_tau5_lag2.json", "baseline_tau5_lag3.json",
    ]
    assert len(list(out_dir.glob("*.txt"))) == 4


def test_a_refused_sweep_leaves_no_out_dir(tmp_path):
    out_dir = tmp_path / "sweep"
    assert main(["sweep", "--log", str(tmp_path / "missing.jsonl"), "--out-dir", str(out_dir)]) == 1
    assert not out_dir.exists()


_UNDER_A_FILE = "{flag} {value} is, or lies under, a file that is not a directory"


@pytest.mark.parametrize("argv, error", [
    pytest.param(["sweep", "--scenarios", "baseline", "--taus", "1", "--lags", "2",
                  "--out-dir", "{afile}"], _UNDER_A_FILE, id="a-file"),
    pytest.param(["sweep", "--scenarios", "baseline", "--taus", "1", "--lags", "2",
                  "--out-dir", "{afile}/sub"], _UNDER_A_FILE, id="under-a-file"),
    pytest.param(["replay-predict", "--tau", "5", "--out", "{keep}", "--registry-dir", "{afile}"],
                 _UNDER_A_FILE, id="registry-dir-a-file"),
    pytest.param(["replay-predict", "--tau", "5", "--out", "{afile}/p.jsonl"], _UNDER_A_FILE,
                 id="replay-out-under-a-file"),
    pytest.param(["select-features", "--threshold", "0.5", "--out", "{afile}/s.json"],
                 _UNDER_A_FILE, id="select-out-under-a-file"),
    pytest.param(["eval-online", "--out", "{afile}/r"], _UNDER_A_FILE, id="online-under-a-file"),
    pytest.param(["eval-batch", "--d", "0.8", "--out", "{afile}/r"], _UNDER_A_FILE,
                 id="batch-under-a-file"),
    pytest.param(["replay-predict", "--tau", "5", "--out", "{adir}"],
                 "{flag} {value}: {value} is an existing directory", id="replay-out-a-directory"),
    pytest.param(["select-features", "--threshold", "0.5", "--out", "{adir}"],
                 "{flag} {value}: {value} is an existing directory", id="select-out-a-directory"),
    pytest.param(["eval-online", "--out", "{dir}/r"],
                 "{flag} {value}: {value}.json.tmp is an existing directory",
                 id="online-out-tmp-a-directory"),
    pytest.param(["replay-predict", "--tau", "5", "--out", "{dir}/p.jsonl"],
                 "{flag} {value}: {value}.tmp is an existing directory",
                 id="replay-out-tmp-a-directory"),
    pytest.param(["replay-predict", "--tau", "5", "--registry-dir", "{dir}/reg"],
                 "{flag} {value}: {value}/index.json.tmp is an existing directory",
                 id="registry-dir-tmp-a-directory"),
    pytest.param(["eval-online", "--out", "{dir}/q/"],
                 "{flag} {value}: {dir}/q.json is an existing directory",
                 id="online-out-slash-json-a-directory"),
    pytest.param(["eval-batch", "--d", "0.8", "--out", "{dir}/q/"],
                 "{flag} {value}: {dir}/q.json is an existing directory",
                 id="batch-out-slash-json-a-directory"),
    *(pytest.param(argv, "{flag} is empty; give a path", id=f"{argv[0]}-{argv[-2][2:]}-empty")
      for argv in (["eval-online", "--out", ""], ["eval-batch", "--d", "0.8", "--out", ""],
                   ["sweep", "--scenarios", "baseline", "--taus", "1", "--lags", "2",
                    "--out-dir", ""],
                   ["replay-predict", "--tau", "5", "--out", ""],
                   ["replay-predict", "--tau", "5", "--registry-dir", ""],
                   ["select-features", "--threshold", "0.5", "--out", ""])),
])
def test_a_sweep_out_dir_at_or_under_a_file_is_refused_before_any_run(
    tmp_path, gen_log, capsys, monkeypatch, argv, error
):
    """A written path that is an existing directory, or that lies under a
    regular file, as a sweep --out-dir or a --registry-dir that is a file
    does, is refused before the log is read, with one error line naming the
    flag; every file keeps its bytes and nothing is created. Before, the
    sweep ran its first configuration in full and only then failed with a
    bare "[Errno 17] File exists"; a replay with such a --registry-dir first
    replaced its --out, and the others ran all their work before failing.
    So is a path whose temp_path, which replace_file writes first, is a
    directory: that once failed only after all the work, naming no flag.
    An --out q/ whose q.json is a directory ran the whole evaluation and then
    failed with a bare "[Errno 21]", as the check looked at q/.json; an empty
    value, which the cases run in tmp_path, wrote ..json and ..txt there, or
    a sweep's reports, or was read as a flag not given."""
    afile, adir, keep = tmp_path / "afile", tmp_path / "adir", tmp_path / "keep.jsonl"
    afile.write_bytes(b"kept\n")
    keep.write_bytes(b'{"kept": true}\n')
    # directories where the -a-directory cases' writes would stage or land
    for d in ("adir", "r.json.tmp", "p.jsonl.tmp", "reg/index.json.tmp", "q.json"):
        (tmp_path / d).mkdir(parents=True)
    monkeypatch.chdir(tmp_path)
    before = _tree(tmp_path)
    reads = _spy_reads(monkeypatch)
    args = [a.format(afile=afile, adir=adir, keep=keep, dir=tmp_path) for a in argv]
    rc = main(args + ["--log", str(gen_log)])
    out, err = capsys.readouterr()
    assert (rc, out, reads) == (1, "", [])
    assert err == "error: " + error.format(flag=args[-2], value=args[-1], dir=tmp_path) + "\n"
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("argv", [
    pytest.param(["replay-predict", "--tau", "5", "--out", "@out", "--registry-dir", "@reg"],
                 id="replay-predict"),
    pytest.param(["eval-online", "--scenario", "baseline", "--out", "@r"], id="eval-online"),
    pytest.param(["eval-batch", "--scenario", "baseline", "--d", "0.8", "--out", "@b"],
                 id="eval-batch"),
    pytest.param(["sweep", "--scenarios", "baseline", "--taus", "5", "--lags", "2", "3",
                  "--out-dir", "@sw"], id="sweep"),
    pytest.param(["select-features", "--threshold", "0.5", "--out", "@s.json"],
                 id="select-features"),
])
def test_the_check_and_the_writers_see_the_same_paths(tmp_path, gen_log, monkeypatch, argv):
    """Each path a command writes through replace_file is one the write check
    returned, in the same spelling, however the value ("@name" in argv) is
    spelled: plain, with a trailing "/" or with "./". So replay-predict --out
    out/ writes the file out, not a directory, with the bytes of a plain --out.
    Before, the writers spelled their paths apart from the check: such an
    --out ran the whole replay, left an empty directory and failed with
    "[Errno 20]"."""
    checked, written, refuse, replace = [], [], cli_mod._refuse_writes, pipeline_mod.replace_file

    def spy_refuse(*a, **kw):
        paths = refuse(*a, **kw)
        checked.extend(paths)
        return paths

    def spy_replace(path, chunks):
        written.append(path)
        replace(path, chunks)

    monkeypatch.setattr(cli_mod, "_refuse_writes", spy_refuse)
    monkeypatch.setattr(cli_mod, "replace_file", spy_replace)
    monkeypatch.setattr(pipeline_mod, "replace_file", spy_replace)
    trees = {}
    for spelling, spell in (("plain", "{root}/{name}"), ("slash", "{root}/{name}/"),
                            ("dot", "./{name}")):
        root = tmp_path / spelling
        root.mkdir()
        monkeypatch.chdir(root)
        del checked[:], written[:]
        args = [spell.format(root=root, name=a[1:]) if a[0] == "@" else a for a in argv]
        assert main(args + ["--log", str(gen_log)]) == 0, spelling
        assert sorted(map(str, written)) == sorted(map(str, checked)) != [], spelling
        trees[spelling] = {p.relative_to(root): b for p, b in _tree(root).items()}
    assert trees["slash"] == trees["dot"] == trees["plain"]


def test_sweep_rejects_bad_grid(tmp_path, gen_log):
    rc = main([
        "sweep", "--log", str(gen_log), "--taus", "0", "--out-dir", str(tmp_path / "s"),
    ])
    assert rc == 1


@pytest.mark.parametrize("doc", [
    {"magic": "wfpredict-registry", "version": REGISTRY_VERSION},
    {"magic": "wfpredict-registry", "version": REGISTRY_VERSION, "vocab": {}, "config": {},
     "bundles": 5},
    {"magic": "wfpredict-registry", "version": REGISTRY_VERSION, "vocab": {}, "config": [],
     "bundles": []},
    {"magic": "wfpredict-registry", "version": REGISTRY_VERSION, "vocab": {},
     "config": {"k": 1}, "bundles": []},
    {"magic": "wfpredict-registry", "version": REGISTRY_VERSION, "vocab": {}, "config": {},
     "bundles": [{}]},
    {"magic": "wfpredict-registry", "version": REGISTRY_VERSION, "vocab": {},
     "config": {**PipelineConfig().to_dict(), "k": 0}, "bundles": []},
    {"magic": "wfpredict-registry", "version": REGISTRY_VERSION,
     "vocab": {"task_name": {}, "task_id": {}, "input_name": {}},
     "config": {**PipelineConfig().to_dict(), "k": 2.5}, "bundles": []},
])
def test_registry_list_reports_a_malformed_registry_in_one_line(tmp_path, capsys, doc):
    _assert_listing_fails_in_one_line(tmp_path, capsys, doc)


def _assert_listing_fails_in_one_line(tmp_path, capsys, doc, error=None):
    (tmp_path / "index.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["registry", "list", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    error = error or f"malformed registry in {tmp_path}"
    assert len(err) == 1 and err[0].startswith(f"error: {error}")


@pytest.fixture(scope="module")
def saved_doc(gen_log, tmp_path_factory):
    """The document save wrote for every scenario, trained on the log's first records."""
    reg_dir = tmp_path_factory.mktemp("saved")
    reg = Registry(storage_dir=reg_dir, config=PipelineConfig(target_tau=5))
    for rec in RecordLog(gen_log).read_all()[:12]:
        for scenario in Scenario:
            reg.observe_completion(rec, scenario)
    reg.save()
    return json.loads((reg_dir / "index.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("field", ["task_name", "task_id", "input_name"])
def test_registry_list_reports_a_vocabulary_without_a_field_in_one_line(
    tmp_path, capsys, saved_doc, field
):
    """A vocabulary that lacks a categorical field would code every value of
    it afresh and change predictions; the registry is refused instead."""
    doc = json.loads(json.dumps(saved_doc))
    del doc["vocab"][field]
    _assert_listing_fails_in_one_line(tmp_path, capsys, doc)


def test_registry_list_reports_a_vocabulary_that_merges_categories_in_one_line(
    tmp_path, capsys, gen_log
):
    """Every input_name coded 0: the values would become one, and 31 of the
    60 two_stages predictions would change; the registry is refused instead."""
    reg_dir = tmp_path / "registry"
    assert main([
        "replay-predict", "--log", str(gen_log), "--scenario", "two_stages",
        "--tau", "5", "--out", str(tmp_path / "p.jsonl"), "--registry-dir", str(reg_dir),
    ]) == 0
    doc = json.loads((reg_dir / "index.json").read_text(encoding="utf-8"))
    assert len(doc["vocab"]["input_name"]) > 1
    doc["vocab"]["input_name"] = dict.fromkeys(doc["vocab"]["input_name"], 0)
    capsys.readouterr()
    _assert_listing_fails_in_one_line(reg_dir, capsys, doc)


def _largest_bundle(doc, scenario):
    return max((b for b in doc["bundles"] if b["scenario"] == scenario),
               key=lambda b: len(b["regressor"]["rows"]))


def _set_bundle(scenario, key, value):
    """An edit of a saved doc: set key of its largest bundle in the scenario
    to value(bundle)."""
    def edit(doc):
        bundle = _largest_bundle(doc, scenario)
        bundle[key] = value(bundle)
    return edit


def _set_config(key, value):
    return lambda doc: doc["config"].update({key: value})


@pytest.mark.parametrize("edit", [
    pytest.param(_set_bundle("baseline", "task_name", lambda b: 7), id="task-name-7"),
    pytest.param(_set_bundle("two_stages", "task_name", lambda b: None), id="task-name-null"),
    pytest.param(_set_bundle("baseline", "runtime_count", lambda b: "x"),
                 id="runtime-count-a-string"),
    pytest.param(_set_bundle("baseline", "runtime_count", lambda b: True),
                 id="runtime-count-true"),
    pytest.param(_set_bundle("time_series", "runtime_count", lambda b: float(b["runtime_count"])),
                 id="runtime-count-a-float"),
    pytest.param(_set_bundle("two_stages", "runtime_count", lambda b: b["runtime_count"] - 1),
                 id="runtime-count-below-the-rows"),
    pytest.param(_set_config("seed", 1.5), id="seed-a-float"),
    pytest.param(_set_config("trev_lag", None), id="trev-lag-null"),
    pytest.param(_set_config("window_capacity", True), id="window-capacity-true"),
])
def test_registry_list_reports_a_setting_or_bundle_field_of_another_type_in_one_line(
    tmp_path, capsys, saved_doc, edit
):
    """Each bundle field loaded before: a string runtime_count listed as
    "x completions", and a task name 7 died in a traceback. A saved setting
    is refused as PipelineConfig refuses it."""
    assert all(len(b["regressor"]["rows"]) == b["runtime_count"] > 1 for b in saved_doc["bundles"])
    doc = json.loads(json.dumps(saved_doc))
    edit(doc)
    _assert_listing_fails_in_one_line(tmp_path, capsys, doc)


@pytest.mark.parametrize("hidden_size", [pytest.param(2**53, id="2**53"), 0, "4"])
def test_registry_list_reads_only_the_settings_of_its_config(
    tmp_path, capsys, saved_doc, hidden_size
):
    """A saved hidden_size once sized the forecasters' weights: at 2**53 the
    listing died in numpy's _ArrayMemoryError, and 0 or "4" were refused. The
    forecaster's width is its own, and the key is not read."""
    (tmp_path / "index.json").write_text(json.dumps(saved_doc), encoding="utf-8")
    assert main(["registry", "list", "--dir", str(tmp_path)]) == 0
    listed = capsys.readouterr()
    assert any("time_series" in line for line in listed.out.splitlines())
    doc = json.loads(json.dumps(saved_doc))
    doc["config"]["hidden_size"] = hidden_size
    (tmp_path / "index.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["registry", "list", "--dir", str(tmp_path)]) == 0
    assert capsys.readouterr() == listed


def _set_forecaster(key, value):
    """An edit of a saved doc: set item 0 of key in the forecaster of its
    largest time_series bundle to value."""
    def edit(doc):
        _largest_bundle(doc, "time_series")["forecaster"][key][0] = value
    return edit


@pytest.mark.parametrize("edit", [
    pytest.param(_set_forecaster("flat_params", math.nan), id="param-nan"),
    pytest.param(_set_forecaster("flat_params", math.inf), id="param-inf"),
    pytest.param(_set_forecaster("flat_params", None), id="param-null"),
    pytest.param(_set_forecaster("len_sum", 1e308), id="len-sum-1e308"),
    pytest.param(_set_forecaster("len_sum", math.inf), id="len-sum-inf"),
    pytest.param(_set_forecaster("len_sum", 2**63), id="len-sum-2**63"),
    pytest.param(_set_forecaster("len_sum", 2**53), id="len-sum-2**53"),
    pytest.param(_set_forecaster("len_count", 2**53), id="len-count-2**53"),
    pytest.param(_set_forecaster("len_sum", -1), id="len-sum-minus-1"),
    pytest.param(_set_forecaster("len_count", 1.0), id="len-count-a-float"),
    pytest.param(_set_forecaster("len_count", True), id="len-count-true"),
])
def test_registry_list_reports_forecaster_state_that_is_not_finite_or_counted_in_one_line(
    tmp_path, capsys, saved_doc, edit
):
    """Each loaded before: a len_sum of 1e308 raised OverflowError out of the
    load in a traceback, and a NaN parameter listed and failed only at the
    next update."""
    doc = json.loads(json.dumps(saved_doc))
    edit(doc)
    _assert_listing_fails_in_one_line(tmp_path, capsys, doc)


def test_registry_list_reports_a_bundle_listed_twice_in_one_line(tmp_path, capsys, saved_doc):
    """The later copy once replaced the earlier one in silence, and its
    predictions were served."""
    doc = json.loads(json.dumps(saved_doc))
    twice = json.loads(json.dumps(_largest_bundle(doc, "baseline")))
    twice["regressor"]["targets"] = [5.0] * len(twice["regressor"]["targets"])
    doc["bundles"].append(twice)
    _assert_listing_fails_in_one_line(tmp_path, capsys, doc)
    # the document without the copy lists
    doc["bundles"].pop()
    (tmp_path / "index.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["registry", "list", "--dir", str(tmp_path)]) == 0


@pytest.mark.parametrize("scenario, part, key, edit", [
    ("baseline", "regressor", "targets", lambda v: v[:1]),
    ("two_stages", "regressor", "rows", lambda v: [row[:8] for row in v]),
    ("two_stages", "regressor", "targets", lambda v: [0.0] + v[1:]),
    ("time_series", "regressor", "rows", lambda v: [[math.nan] + row[1:] for row in v]),
    ("time_series", "forecaster", "len_sum", lambda v: v[:5]),
    ("time_series", "forecaster", "len_count", lambda v: v[:5]),
    ("time_series", "forecaster", "value_norm", lambda v: {b: v[b][:5] for b in v}),
    ("time_series", "forecaster", "feat_norm", lambda v: {b: v[b][:5] for b in v}),
])
def test_registry_list_reports_state_that_does_not_fit_the_model_in_one_line(
    tmp_path, capsys, saved_doc, scenario, part, key, edit
):
    doc = json.loads(json.dumps(saved_doc))
    bundle = max((b for b in doc["bundles"] if b["scenario"] == scenario),
                 key=lambda b: len(b["regressor"]["rows"]))
    assert len(bundle["regressor"]["rows"]) > 1
    bundle[part][key] = edit(bundle[part][key])
    _assert_listing_fails_in_one_line(tmp_path, capsys, doc)


# each leaf of a saved registry is set to each of these in turn
_LEAF_VALUES = [True, None, 0, -1, 2.5, 1e308, 10**400, "7", "", [], {}, math.nan]

# a leaf that holds a model input or a length statistic: the name its refusal
# gives, and the value just past its bound, which it is set to as well: B for
# an input, 2**53 for a length; 1e308 is past both
_BOUNDED_LEAVES = {
    ("bundles", "*", "regressor", "rows", "*", "*"): ("rows", PAST_B),
    ("bundles", "*", "regressor", "targets", "*"): ("targets", PAST_B),
    ("bundles", "*", "forecaster", "value_norm", "lo", "*"): ("value_norm lo", PAST_B),
    ("bundles", "*", "forecaster", "value_norm", "hi", "*"): ("value_norm hi", -PAST_B),
    ("bundles", "*", "forecaster", "feat_norm", "lo", "*", "*"): ("feat_norm lo", -PAST_B),
    ("bundles", "*", "forecaster", "feat_norm", "hi", "*", "*"): ("feat_norm hi", PAST_B),
    ("bundles", "*", "forecaster", "len_sum", "*"): ("len_sum", 2**53),
    ("bundles", "*", "forecaster", "len_count", "*"): ("len_count", 2**53),
}


def _leaf_kinds(doc):
    """One seeded position per kind of leaf: a leaf's path with its list
    indices taken as one kind, so every row, target or parameter is one."""
    kinds = {}

    def walk(node, path):
        if isinstance(node, dict) and node:
            for key, child in node.items():
                walk(child, path + (key,))
        elif isinstance(node, list) and node:
            for i, child in enumerate(node):
                walk(child, path + (i,))
        else:
            kind = tuple("*" if type(p) is int else p for p in path)
            kinds.setdefault(kind, []).append(path)

    walk(doc, ())
    rng = random.Random(15)
    return {kind: rng.choice(paths) for kind, paths in kinds.items()}


def _at(doc, path, value):
    node = doc
    for p in path[:-1]:
        node = node[p]
    node[path[-1]] = value


@pytest.mark.parametrize("scenario", [s.value for s in Scenario])
def test_every_registry_leaf_mutant_is_refused_or_runs_and_saves_its_own_bytes(
    tmp_path, capsys, monkeypatch, gen_log, scenario
):
    """Each leaf kind of a saved registry, set to each value of a fixed list:
    the mutant is refused with its one error line, or it loads, predicts,
    observes, saves and loads again, and a second save writes the same bytes.
    A value past its leaf's bound (_BOUNDED_LEAVES) is refused, naming the leaf;
    a parameter past B loads, as parameters are not inputs."""
    records = RecordLog(gen_log).read_all()
    # forecasters of width 1 keep the test fast; a registry loads with the width it saved with
    monkeypatch.setattr(pipeline_mod, "SequenceModel",
                        functools.partial(SequenceModel, hidden_size=1))
    # two metrics a task keep the document small, and put a selection in it
    selected = {rec.features.task_name: {MetricKind.utime, MetricKind.vmRSS}
                for rec in records}
    reg = Registry(storage_dir=tmp_path / "saved", config=PipelineConfig(
        target_tau=5, window_capacity=30, selected_metrics=selected))
    for rec in records[:12]:
        reg.observe_completion(rec, Scenario(scenario))
    reg.save()
    saved = (tmp_path / "saved" / "index.json").read_text(encoding="utf-8")
    mutant_dir, first, second = tmp_path / "mutant", tmp_path / "first", tmp_path / "second"
    mutant_dir.mkdir()
    kinds = _leaf_kinds(json.loads(saved))
    accepted = 0
    for kind, path in kinds.items():
        error = {("magic",): "not a registry directory",
                 ("version",): "unsupported registry version"}.get(
                     kind, f"malformed registry in {mutant_dir}")
        listed = False
        name, past_bound = _BOUNDED_LEAVES.get(kind, (None, None))
        for value in _LEAF_VALUES + [past_bound] * (name is not None):
            doc = json.loads(saved)
            _at(doc, path, value)
            (mutant_dir / "index.json").write_text(json.dumps(doc), encoding="utf-8")
            where = f"{kind} = {value!r}"
            past = name is not None and value in (past_bound, 1e308)
            try:
                reg = Registry.load(mutant_dir)
            except ValueError as exc:
                assert not past or name in str(exc), where
                # the CLI prints the error as one line: each message is
                # checked, and the first refusal of each kind is listed
                assert str(exc).startswith(error) and "\n" not in str(exc), where
                if not listed:
                    _assert_listing_fails_in_one_line(mutant_dir, capsys, doc, error)
                    listed = True
                continue
            assert not past, where
            accepted += 1
            reg.storage_dir = first
            # a parameter as large as 1e308 is taken like another: a gate it
            # drives saturates, as exp overflows to inf, and an update it makes
            # can diverge and be rolled back
            diverges = value == 1e308 and kind == ("bundles", "*", "forecaster", "flat_params", "*")
            quiet = dict(over="ignore", invalid="ignore") if diverges else {}
            for rec in records[10:14]:
                try:
                    with np.errstate(**quiet):
                        reg.predict_task(rec.features, Scenario(scenario))
                        reg.observe_completion(rec, Scenario(scenario))
                except TrainingDivergedError:
                    assert diverges, where
            reg.save()
            again = Registry.load(first)
            again.storage_dir = second
            again.save()
            assert (first / "index.json").read_bytes() == (second / "index.json").read_bytes(), where
    assert len(kinds) > 25 and accepted
    if scenario == "time_series":
        assert set(_BOUNDED_LEAVES) <= set(kinds)
        assert ("bundles", "*", "forecaster", "flat_params", "*") in kinds


def _readme_commands():
    """The wfpredict lines of README.md's first sh block under "## Command-line
    usage", each continuation line joined to its command, as argument lists."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    usage = readme.split("\n## Command-line usage\n", 1)[1]
    block = usage.split("```sh\n", 1)[1].split("\n```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line) for line in lines if line.startswith("wfpredict ")]


def test_the_readme_command_block_runs(tmp_path, monkeypatch):
    """Every command of the README's block exits 0, in its order, in one
    directory, with its --records 2000 set to 60."""
    monkeypatch.chdir(tmp_path)
    commands = _readme_commands()
    assert commands and commands[0][:2] == ["wfpredict", "generate"]
    for argv in commands:
        if "--records" in argv:
            at = argv.index("--records") + 1
            assert argv[at] == "2000"
            argv[at] = "60"
        assert main(argv[1:]) == 0, argv
