"""Command-line interface: subcommands, outputs, exit codes."""

import json

import numpy as np
import pytest

import wfpredict.store as store_mod
from wfpredict.cli import main
from wfpredict.domain import Scenario
from wfpredict.forecaster import SequenceModel
from wfpredict.pipeline import REGISTRY_VERSION, PipelineConfig
from wfpredict.store import RecordLog


@pytest.fixture(scope="module")
def gen_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "corpus.jsonl"
    assert main(["generate", "--out", str(path), "--records", "60", "--seed", "5"]) == 0
    return path


def test_generate_refuses_overwrite(gen_log):
    assert main(["generate", "--out", str(gen_log), "--records", "5"]) == 1


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


def _legacy_line(input_name, runtime, utime, vm_rss):
    """One record as a foreign tool writes it in the legacy layout: an object
    of {"tau", "values"} per metric name."""
    return (
        '{"features": {"task_name": "align", "task_id": "align", '
        f'"input_name": "{input_name}", "vm_vcpus": 2, "vm_memory": 4096.0, '
        '"vm_storage": 40.0, "submission_day": 3, "submission_hour": 14}, '
        f'"runtime_seconds": {runtime}, "series": {{'
        f'"utime": {{"tau": 5, "values": {utime}}}, '
        f'"vmRSS": {{"tau": 5, "values": {vm_rss}}}}}}}'
    )


LEGACY_LINES = [
    _legacy_line("chr20", 12.0, "[1, 2.5, 3.25]", "[100.0, 120.5, 99.75]"),
    _legacy_line("chr21", 7.5, "[0.125, 4]", "[1e-300, 2.2250738585072014e-308]"),
    _legacy_line("chr20", 11.0, "[-0.0, 3.5, 1e100]", "[64.0, 64.0]"),
    _legacy_line("chr22", 20.0, "[9.75, 9.5, 9.25, 9.0, 8.75]", "[5e-324]"),
    _legacy_line("chr21", 6.0, "[0.5]", "[2048.0, 4096.0]"),
]


def test_ingest_converts_a_legacy_log_to_the_block_layout(tmp_path):
    legacy = tmp_path / "legacy.jsonl"
    legacy.write_text("\n".join(LEGACY_LINES) + "\n", encoding="utf-8")
    converted = tmp_path / "converted.jsonl"
    assert main(["ingest", "--input", str(legacy), "--log", str(converted)]) == 0
    lines = [json.loads(l) for l in converted.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == len(LEGACY_LINES)
    for line in lines:
        assert list(line["series"]) == ["tau", "metrics", "lengths", "f64"]
        assert line["series"]["metrics"] == ["utime", "vmRSS"]
    assert RecordLog(converted).read_all() == RecordLog(legacy).read_all()
    for scenario in Scenario:
        outs = []
        for log in (legacy, converted):
            out = tmp_path / f"{log.stem}_{scenario.value}.jsonl"
            assert main([
                "replay-predict", "--log", str(log), "--scenario", scenario.value,
                "--tau", "5", "--out", str(out),
            ]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] and outs[0].count(b"\n") == len(LEGACY_LINES)


def test_ingest_missing_input(tmp_path):
    rc = main(["ingest", "--input", str(tmp_path / "no.jsonl"), "--log", str(tmp_path / "d.jsonl")])
    assert rc == 1


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
    for version in (1, 2):
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


def test_select_features_rejects_bad_threshold(tmp_path, gen_log):
    rc = main(["select-features", "--log", str(gen_log), "--threshold", "1.5"])
    assert rc == 1


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
])
def test_registry_list_reports_a_malformed_registry_in_one_line(tmp_path, capsys, doc):
    (tmp_path / "index.json").write_text(json.dumps(doc), encoding="utf-8")
    assert main(["registry", "list", "--dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: malformed registry in {tmp_path}")
