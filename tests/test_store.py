"""Record log persistence and series downsampling."""

import json
import random

import pytest

from conftest import make_record
from wfpredict.domain import DomainError, MetricKind, MetricSeries
from wfpredict.store import CorruptLogError, RecordLog, StoreError, downsample, downsample_block


def test_ingest_returns_increasing_sequence_numbers(tmp_path):
    log = RecordLog(tmp_path / "log.jsonl")
    assert [log.ingest(make_record(runtime=5.0 + i)) for i in range(5)] == [0, 1, 2, 3, 4]
    assert log.count == 5


def test_ingest_rejects_non_records(tmp_path):
    log = RecordLog(tmp_path / "log.jsonl")
    with pytest.raises(StoreError):
        log.ingest({"not": "a record"})


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
