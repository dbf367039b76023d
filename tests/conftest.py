"""Shared fixtures: corpora reused across test modules."""

import base64
import dataclasses
import struct

import numpy as np
import pytest

from wfpredict.domain import B, MetricKind, PreRuntimeFeatures, SeriesBlock, TaskExecutionRecord
from wfpredict.evaluation import (
    STANDARD_SEED,
    GeneratorConfig,
    TaskTypeSpec,
    generate_synthetic,
    standard_corpus_config,
)
from wfpredict.pipeline import CoMoments

PAST_B = float(np.nextafter(B, np.inf))  # the least float past the domain bound B


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


def running_rho(xs, ys):
    """The correlation of xs to ys as CoMoments reports it, fed xs as every
    metric's statistic; every metric must read the same."""
    acc = CoMoments()
    for x, y in zip(xs, ys):
        acc.add([x] * len(MetricKind), y)
    rho = acc.rho().tolist()
    assert rho.count(rho[0]) == len(rho)
    return rho[0]


def header_of(rec):
    """The fields of rec's log line header, as log_line takes them, without
    "nl"; its samples are rec.series.samples."""
    s = rec.series
    return {
        "features": dataclasses.asdict(rec.features),
        "runtime_seconds": rec.runtime_seconds,
        "series": {
            "tau": s.tau, "metrics": [m.value for m in s.metrics], "lengths": list(s.lengths),
        },
    }


# The record log's header, written out here so that a test builds and reads
# lines on its own: the fields of the fixed part, in order, and their widths.
# A metric's id is its position in MetricKind.
HEADER_FIELDS = (
    "layout", "runtime_seconds", "vm_vcpus", "vm_memory", "vm_storage", "submission_day",
    "submission_hour", "tau", "n_metrics", "n_nl", "task_name_bytes", "task_id_bytes",
    "input_name_bytes",
)
HEADER_FIXED = struct.Struct("<BdQddBBQBIIII")
METRIC_IDS = {m.value: i for i, m in enumerate(MetricKind)}


def pack_line(fields, variable, payload):
    """A line from the fixed part's field values (a mapping over
    HEADER_FIELDS), the variable part's bytes and the payload as written: the
    header in base64, a NUL and the payload; no terminator."""
    header = HEADER_FIXED.pack(*(fields[k] for k in HEADER_FIELDS)) + variable
    return base64.b64encode(header) + b"\0" + payload


def parse_line(line):
    """The (fields, variable, payload) that pack_line took to build line."""
    cut = line.index(b"\0")
    header = base64.b64decode(line[:cut], validate=True)
    fields = dict(zip(HEADER_FIELDS, HEADER_FIXED.unpack_from(header)))
    return fields, header[HEADER_FIXED.size:], line[cut + 1:]


def nl_of(line):
    """The nl offsets in the header of line."""
    fields, variable, _ = parse_line(line)
    return list(struct.unpack_from(f"<{fields['n_nl']}I", variable, 5 * fields["n_metrics"]))


def log_line(header, samples, nl=None):
    """A line of the record log, built by hand from a header and its samples
    (floats, or the payload's raw bytes): header_of's fields, each packed at
    its width whatever the constructors think of it, with "nl", then a NUL
    and the payload with each 0x0A byte written as 0x00; no terminator. A
    name may be raw bytes and a metric an id. `nl` defaults to the payload's
    true newline offsets."""
    payload = samples if isinstance(samples, bytes) else np.asarray(samples, "<f8").tobytes()
    if nl is None:
        nl = [i for i, byte in enumerate(payload) if byte == 0x0A]
    f, s = header["features"], header["series"]
    names = [v if isinstance(v, bytes) else v.encode() for v in
             (f["task_name"], f["task_id"], f["input_name"])]
    ids = bytes(METRIC_IDS.get(m, m) for m in s["metrics"])
    fields = {
        **f, "layout": 1, "runtime_seconds": header["runtime_seconds"], "tau": s["tau"],
        "n_metrics": len(ids), "n_nl": len(nl), "task_name_bytes": len(names[0]),
        "task_id_bytes": len(names[1]), "input_name_bytes": len(names[2]),
    }
    lengths = struct.pack(f"<{len(s['lengths']) + len(nl)}I", *s["lengths"], *nl)
    return pack_line(fields, ids + lengths + b"".join(names), payload.replace(b"\n", b"\0"))
