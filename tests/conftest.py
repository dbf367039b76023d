"""Shared fixtures: corpora reused across test modules."""

import dataclasses
import json

import numpy as np
import pytest

from wfpredict.domain import MetricKind, PreRuntimeFeatures, SeriesBlock, TaskExecutionRecord
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


def series_block(rows, tau=1):
    """The SeriesBlock of {metric: values}, its rows in the mapping's order."""
    return SeriesBlock(
        tau, list(rows), [len(v) for v in rows.values()], [x for v in rows.values() for x in v]
    )


def make_record(runtime=10.0, tau=1, n=None, level=3.0, **feature_kwargs):
    """A record whose 13 series are flat at `level` (procs/threads fixed counts)."""
    if n is None:
        n = int(runtime)
    return TaskExecutionRecord(
        features=make_features(**feature_kwargs),
        series=series_block({m: (level,) * n for m in MetricKind}, tau),
        runtime_seconds=runtime,
    )


def header_of(rec):
    """The header of rec's log line, without "nl"; its samples are
    rec.series.samples."""
    s = rec.series
    return {
        "features": dataclasses.asdict(rec.features),
        "runtime_seconds": rec.runtime_seconds,
        "series": {
            "tau": s.tau, "metrics": [m.value for m in s.metrics], "lengths": list(s.lengths),
        },
    }


def log_line(header, samples, nl=None):
    """A line of the record log, built by hand from a header and its samples
    (floats, or the payload's raw bytes): the JSON header, its series given
    "nl", a NUL and the payload with each 0x0A byte written as 0x00; no
    terminator. `nl` defaults to the payload's true newline offsets."""
    payload = samples if isinstance(samples, bytes) else np.asarray(samples, "<f8").tobytes()
    if nl is None:
        nl = [i for i, byte in enumerate(payload) if byte == 0x0A]
    header = {**header, "series": {**header["series"], "nl": nl}}
    return json.dumps(header).encode("ascii") + b"\0" + payload.replace(b"\n", b"\0")
