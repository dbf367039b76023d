"""Record log persistence and series downsampling."""

import base64
import json
import random
import struct

import numpy as np
import pytest

from conftest import legacy_dict, make_record
import wfpredict.store as store_mod
from wfpredict.domain import DomainError, MetricKind, MetricSeries, TaskExecutionRecord
from wfpredict.store import CorruptLogError, RecordLog, StoreError, downsample, downsample_block


def test_ingest_returns_increasing_sequence_numbers(tmp_path):
    log = RecordLog(tmp_path / "log.jsonl")
    assert [log.ingest(make_record(runtime=5.0 + i)) for i in range(5)] == [0, 1, 2, 3, 4]
    assert log.count == 5


def test_ingest_rejects_non_records(tmp_path):
    log = RecordLog(tmp_path / "log.jsonl")
    with pytest.raises(StoreError):
        log.ingest({"not": "a record"})


def test_extend_appends_in_order_with_one_fsync(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(store_mod.os, "fsync", lambda fd: calls.append(fd))
    records = [make_record(runtime=5.0 + i) for i in range(6)]
    log = RecordLog(tmp_path / "log.jsonl")
    assert log.extend(records[:4]) == [0, 1, 2, 3]
    assert len(calls) == 1
    assert log.extend(iter(records[4:])) == [4, 5]
    assert len(calls) == 2
    assert log.extend([]) == []
    assert RecordLog(tmp_path / "log.jsonl").read_all() == records
    one_by_one = RecordLog(tmp_path / "single.jsonl")
    assert [one_by_one.ingest(rec) for rec in records] == list(range(6))
    assert len(calls) == 9
    assert one_by_one.path.read_bytes() == log.path.read_bytes()


def test_extend_keeps_the_records_before_a_rejected_one(tmp_path):
    log = RecordLog(tmp_path / "log.jsonl")
    with pytest.raises(StoreError):
        log.extend([make_record(runtime=5.0), {"not": "a record"}, make_record(runtime=6.0)])
    assert log.count == 1
    assert RecordLog(tmp_path / "log.jsonl").read_all() == [make_record(runtime=5.0)]


def test_round_trip_preserves_order_and_content(tmp_path):
    log = RecordLog(tmp_path / "log.jsonl")
    random.seed(11)
    originals = [make_record(runtime=float(random.randrange(3, 40))) for _ in range(20)]
    for rec in originals:
        log.ingest(rec)
    reopened = RecordLog(tmp_path / "log.jsonl")
    assert reopened.count == 20
    loaded = reopened.read_all()
    for orig, back in zip(originals, loaded):
        assert back.features == orig.features
        assert back.runtime_seconds == orig.runtime_seconds
        for m in MetricKind:
            assert back.series[m].values == orig.series[m].values


def test_corrupt_tail_reports_delivered_count(tmp_path):
    path = tmp_path / "log.jsonl"
    log = RecordLog(path)
    for i in range(3):
        log.ingest(make_record(runtime=5.0 + i))
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{this is not json\n")
    reopened = RecordLog(path)
    delivered = []
    with pytest.raises(CorruptLogError) as info:
        for rec in reopened.records():
            delivered.append(rec)
    assert len(delivered) == 3
    assert info.value.delivered == 3


def test_corrupt_tail_bad_schema(tmp_path):
    path = tmp_path / "log.jsonl"
    log = RecordLog(path)
    log.ingest(make_record())
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"features": {}, "series": {}, "runtime_seconds": 1.0}) + "\n")
    with pytest.raises(CorruptLogError):
        RecordLog(path).read_all()


def _f64(*values):
    """The block layout's text for these samples: base64 of little-endian float64s."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


def _corrupt_after_good_lines(tmp_path, layout, bad):
    """Write two good records in `layout` and then `bad`; return the
    CorruptLogError reading raised and the records delivered before it."""
    path = tmp_path / f"{layout}.jsonl"
    good = [make_record(runtime=5.0 + i) for i in range(2)]
    encode = legacy_dict if layout == "legacy" else lambda rec: rec.to_dict()
    path.write_text(
        "".join(json.dumps(d) + "\n" for d in [encode(rec) for rec in good] + [bad]),
        encoding="utf-8",
    )
    delivered = []
    with pytest.raises(CorruptLogError) as info:
        for rec in RecordLog(path).records():
            delivered.append(rec)
    assert delivered == good
    return info.value


def _legacy_with(**changes):
    d = legacy_dict(make_record(runtime=10.0))
    for key, value in changes.items():
        if key == "bogus":
            d["series"][key] = value
        else:
            d["series"]["utime"][key] = value
    return d


def _block_with(**changes):
    d = make_record(runtime=10.0).to_dict()
    d["series"].update(changes)
    return d


@pytest.mark.parametrize("layout,bad", [
    ("legacy", _legacy_with(bogus={"tau": 1, "values": [1.0]})),
    ("block", _block_with(metrics=["bogus"] + [m.value for m in MetricKind][1:])),
    ("legacy", _legacy_with(values=[1.0, "x"])),
    ("block", _block_with(lengths=["x"] + [10] * 12)),
    ("legacy", _legacy_with(tau="x")),
    ("block", _block_with(tau="x")),
    ("block", _block_with(tau=1.5)),
    ("legacy", _legacy_with(tau=float("inf"))),
    ("block", _block_with(tau=float("inf"))),
], ids=[
    "unknown-metric-legacy", "unknown-metric-block",
    "non-numeric-sample-legacy", "non-numeric-length-block",
    "non-integer-tau-legacy", "non-integer-tau-block", "fractional-tau-block",
    "infinite-tau-legacy", "infinite-tau-block",
])
def test_malformed_fields_raise_corrupt_log_error_with_delivered_count(tmp_path, layout, bad):
    assert _corrupt_after_good_lines(tmp_path, layout, bad).delivered == 2


_REJECTED_BLOCKS = {
    # a lenient decoder would skip the stray character and accept the line
    "bad-base64-character": dict(metrics=["utime"], lengths=[2], f64="AAAA*" + _f64(1.0, 2.0)[4:]),
    "bytes-not-whole-float64s": dict(
        metrics=["utime"], lengths=[1],
        f64=base64.b64encode(struct.pack("<d", 1.0) + b"\0" * 4).decode("ascii"),
    ),
    "lengths-short-of-byte-count": dict(metrics=["utime"], lengths=[2], f64=_f64(1.0, 2.0, 3.0)),
    "lengths-past-byte-count": dict(metrics=["utime"], lengths=[4], f64=_f64(1.0, 2.0, 3.0)),
    "row-of-length-0": dict(metrics=["utime", "stime"], lengths=[0, 2], f64=_f64(1.0, 2.0)),
    "duplicate-metric": dict(metrics=["utime", "utime"], lengths=[1, 1], f64=_f64(1.0, 2.0)),
    "nan-bytes": dict(metrics=["utime"], lengths=[2], f64=_f64(1.0, float("nan"))),
    "inf-bytes": dict(metrics=["utime"], lengths=[2], f64=_f64(float("inf"), 1.0)),
    "minus-inf-bytes": dict(metrics=["utime"], lengths=[1], f64=_f64(float("-inf"))),
    "series-outlives-task": dict(metrics=["utime"], lengths=[12], f64=_f64(*[1.0] * 12)),
    "tau-0": dict(tau=0, metrics=["utime"], lengths=[1], f64=_f64(1.0)),
}


@pytest.mark.parametrize("case", sorted(_REJECTED_BLOCKS))
def test_block_layout_rejections_report_delivered_count(tmp_path, case):
    err = _corrupt_after_good_lines(tmp_path, "block", _block_with(**_REJECTED_BLOCKS[case]))
    assert err.delivered == 2


def test_block_layout_controls_decode():
    """The rejected blocks are one defect away from lines that decode."""
    for changes in (
        dict(metrics=["utime"], lengths=[2], f64=_f64(1.0, 2.0)),
        dict(metrics=["utime"], lengths=[1], f64=_f64(1.0)),
        dict(metrics=["utime", "stime"], lengths=[1, 1], f64=_f64(1.0, 2.0)),
        dict(metrics=["utime"], lengths=[11], f64=_f64(*[1.0] * 11)),
        dict(tau=1, metrics=["utime"], lengths=[1], f64=_f64(-0.0)),
    ):
        rec = TaskExecutionRecord.from_dict(_block_with(**changes))
        assert list(rec.series.lengths) == changes["lengths"]


def test_missing_log_iterates_empty(tmp_path):
    log = RecordLog(tmp_path / "absent.jsonl")
    assert log.count == 0
    assert log.read_all() == []


def _series(values, tau=1):
    return MetricSeries(metric=MetricKind.utime, interval_seconds=tau, values=tuple(values))


def test_downsample_exact_windows():
    s = _series([1.0, 3.0, 5.0, 7.0])
    out = downsample(s, 2)
    assert out.values == (2.0, 6.0)
    assert out.interval_seconds == 2


def test_downsample_trailing_partial_window():
    s = _series([2.0, 4.0, 6.0, 10.0, 20.0])
    out = downsample(s, 2)
    assert out.values == (3.0, 8.0, 20.0)


def test_downsample_identity_when_tau_matches():
    s = _series([1.0, 2.0])
    assert downsample(s, 1) is s


def test_downsample_rejects_non_multiple_tau():
    s = _series([1.0, 2.0], tau=2)
    with pytest.raises(StoreError):
        downsample(s, 3)
    with pytest.raises(StoreError):
        downsample(s, 0)


def test_downsample_mean_preservation_random():
    random.seed(23)
    for _ in range(100):
        n = random.randrange(1, 60)
        width = random.choice([1, 2, 3, 5])
        values = [random.uniform(-50, 50) for _ in range(n)]
        out = downsample(_series(values), width)
        # weighted mean over window sizes reproduces the original mean
        total = 0.0
        for j, v in enumerate(out.values):
            members = len(values[j * width:(j + 1) * width])
            total += v * members
        assert abs(total / n - sum(values) / n) < 1e-12


def test_downsample_composition_random():
    random.seed(29)
    for _ in range(100):
        a = random.choice([2, 3, 5])
        b = random.choice([2, 3])
        blocks = random.randrange(1, 8)
        values = [random.uniform(0, 100) for _ in range(blocks * a * b)]
        direct = downsample(_series(values), a * b)
        staged = downsample(downsample(_series(values), a), a * b)
        assert len(direct.values) == len(staged.values)
        for x, y in zip(direct.values, staged.values):
            assert abs(x - y) < 1e-12


def _left_sum(window):
    """sum() as Python before 3.12 computes it over floats: left to right."""
    total = 0.0
    for v in window:
        total += v
    return total


def test_downsample_block_matches_window_means_bit_for_bit():
    rng = random.Random(31)
    for width in range(1, 13):
        rows = [
            None if rng.random() < 0.15
            else [rng.uniform(0, 1e6) for _ in range(rng.randrange(1, 60))]
            for _ in range(rng.randrange(1, 14))
        ] + [[-0.0] * rng.randrange(1, 30)]
        block, lengths = downsample_block(rows, 2, 2 * width)
        # width 1 leaves a series as it is
        want = [
            [] if r is None else r if width == 1
            else [_left_sum(r[i:i + width]) / len(r[i:i + width]) for i in range(0, len(r), width)]
            for r in rows
        ]
        assert lengths.tolist() == [len(w) for w in want]
        assert block.shape == (len(rows), max(lengths))
        for row, w, n in zip(block.tolist(), want, lengths.tolist()):
            # float.hex tells -0.0 from 0.0, which == does not
            assert [v.hex() for v in row[:n]] == [v.hex() for v in w]
            assert row[n:] == [0.0] * (len(row) - n)


def _downsample_block_before(values, interval, target_tau):
    """downsample_block as it was before its one-length fast path, kept
    verbatim as its bit-exact oracle."""
    if target_tau < 1:
        raise StoreError(f"target_tau must be >= 1, got {target_tau}")
    if target_tau % interval != 0:
        raise StoreError(f"target_tau {target_tau} is not a multiple of interval {interval}")
    width = target_tau // interval
    n = np.array([0 if v is None else len(v) for v in values], dtype=np.int64)
    lengths = -(-n // width)
    T = int(lengths.max(initial=0))
    block = np.zeros((len(values), T * width))
    for m, v in enumerate(values):
        if v is not None:
            block[m, :len(v)] = v
    if width > 1:
        with np.errstate(over="ignore"):
            sums = np.cumsum(block.reshape(len(values), T, width), axis=2)[:, :, -1] + 0.0
            block = sums / np.clip(n[:, None] - width * np.arange(T), 1, width)
    if not np.all(np.isfinite(block)):
        raise DomainError(f"non-finite window mean at target_tau {target_tau}")
    return block, lengths


def test_downsample_block_matches_its_loop_oracle_bit_for_bit():
    rng = np.random.default_rng(43)
    for trial in range(400):
        width, M = int(rng.integers(1, 8)), int(rng.integers(1, 14))
        n = int(rng.integers(0, 40))  # any n, so trailing partial windows too
        kind = trial % 4
        if kind == 0:  # every row present and of one length
            rows = [rng.uniform(-1e3, 1e3, n) for _ in range(M)]
        elif kind == 1:  # ragged
            rows = [rng.uniform(-1e3, 1e3, int(rng.integers(0, 40))) for _ in range(M)]
        elif kind == 2:  # one length, some rows absent
            rows = [None if rng.random() < 0.3 else rng.uniform(0, 1e6, n) for _ in range(M)]
        else:  # one length, windows of -0.0 and of mixed-sign zeros
            rows = [rng.choice([-0.0, 0.0] if m % 2 else [-0.0], n) for m in range(M)]
        if trial % 3 == 0:  # plain float sequences, as downsample passes them
            rows = [None if r is None else r.tolist() for r in rows]
        got = downsample_block(rows, 1, width)
        want = _downsample_block_before(rows, 1, width)
        assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes(), trial
        assert got[1].tobytes() == want[1].tobytes(), trial


def test_downsample_is_one_row_of_the_block():
    values = [random.Random(37).uniform(0, 50) for _ in range(41)]
    out = downsample(_series(values), 9)
    block, lengths = downsample_block([values], 1, 9)
    assert out.values == tuple(block[0].tolist())
    assert lengths.tolist() == [5]


def test_downsample_block_overflowing_window_mean_raises():
    with pytest.raises(DomainError):
        downsample_block([[1.0, 2.0], [1e308, 1e308]], 1, 2)
    with pytest.raises(DomainError):
        downsample(_series([1e308, 1e308]), 2)


def test_downsample_block_rejects_bad_tau_and_takes_no_rows():
    with pytest.raises(StoreError):
        downsample_block([[1.0]], 2, 3)
    with pytest.raises(StoreError):
        downsample_block([], 2, 3)
    block, lengths = downsample_block([], 1, 5)
    assert block.shape == (0, 0) and lengths.tolist() == []
