"""Shared fixtures: corpora reused across test modules."""

import base64
import dataclasses
import json

import pytest

from wfpredict.domain import MetricKind, MetricSeries, PreRuntimeFeatures, TaskExecutionRecord
from wfpredict.evaluation import (
    STANDARD_SEED,
    GeneratorConfig,
    TaskTypeSpec,
    generate_synthetic,
    standard_corpus_config,
)


@pytest.fixture(scope="session")
def standard_log(tmp_path_factory):
    """The fixed 2000-record corpus every end-to-end threshold refers to."""
    path = tmp_path_factory.mktemp("corpus") / "standard.jsonl"
    return generate_synthetic(standard_corpus_config(), STANDARD_SEED, path)


@pytest.fixture(scope="session")
def small_log(tmp_path_factory):
    """A 120-record single-task corpus for fast end-to-end checks."""
    path = tmp_path_factory.mktemp("corpus_small") / "small.jsonl"
    cfg = GeneratorConfig(
        tasks=(
            TaskTypeSpec(
                name="align",
                base_seconds=30.0,
                input_names=("chr20", "chr21", "chr22", "chrX"),
                input_scales=(1.0, 1.3, 1.6, 2.0),
            ),
        ),
        n_records=120,
    )
    return generate_synthetic(cfg, STANDARD_SEED, path)


def make_features(
    task_name="align",
    task_id="align",
    input_name="chr20",
    vm_vcpus=2,
    vm_memory=4096.0,
    vm_storage=40.0,
    submission_day=1,
    submission_hour=9,
):
    return PreRuntimeFeatures(
        task_name=task_name,
        task_id=task_id,
        input_name=input_name,
        vm_vcpus=vm_vcpus,
        vm_memory=vm_memory,
        vm_storage=vm_storage,
        submission_day=submission_day,
        submission_hour=submission_hour,
    )


def make_record(runtime=10.0, tau=1, n=None, level=3.0, **feature_kwargs):
    """A record whose 13 series are flat at `level` (procs/threads fixed counts)."""
    if n is None:
        n = int(runtime)
    series = {
        m: MetricSeries(metric=m, interval_seconds=tau, values=(level,) * n)
        for m in MetricKind
    }
    return TaskExecutionRecord(
        features=make_features(**feature_kwargs),
        series=series,
        runtime_seconds=runtime,
    )


def legacy_dict(rec):
    """A record in the layout written before the series block: one
    {"tau", "values"} object per metric name."""
    return {
        "features": dataclasses.asdict(rec.features),
        "runtime_seconds": rec.runtime_seconds,
        "series": {
            m.value: {"tau": s.interval_seconds, "values": list(s.values)}
            for m, s in rec.series.items()
        },
    }


def block_dict(rec):
    """A record in the layout written before the binary payload: the series
    as one block whose "f64" is the base64 text of its little-endian float64
    samples."""
    s = rec.series
    return {
        "features": dataclasses.asdict(rec.features),
        "runtime_seconds": rec.runtime_seconds,
        "series": {
            "tau": s.tau,
            "metrics": [m.value for m in s.metrics],
            "lengths": list(s.lengths),
            "f64": base64.b64encode(s.samples.astype("<f8").tobytes()).decode("ascii"),
        },
    }


def write_legacy(records, path):
    """Write records as a log in the legacy layout; returns the path."""
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(legacy_dict(rec)) + "\n")
    return path
