"""Domain model: validation rules, encoding, vocabulary, serialization."""

import json
import random

import pytest

from conftest import legacy_dict, make_features, make_record
from wfpredict.domain import (
    PRE_RUNTIME_FEATURE_NAMES,
    CategoryVocab,
    DomainError,
    MetricKind,
    MetricSeries,
    Prediction,
    PreRuntimeFeatures,
    Scenario,
    SeriesBlock,
    TaskExecutionRecord,
    encode_pre_runtime,
)


def test_metric_kind_has_thirteen_members():
    assert len(MetricKind) == 13
    expected = {
        "procs", "stime", "threads", "utime", "vmRSS", "vmSize", "iowait",
        "rchar", "read_bytes", "syscr", "syscw", "wchar", "write_bytes",
    }
    assert {m.value for m in MetricKind} == expected


def test_scenario_values():
    assert {s.value for s in Scenario} == {"baseline", "two_stages", "time_series"}


def test_pre_runtime_features_validation():
    with pytest.raises(DomainError):
        make_features(submission_day=7)
    with pytest.raises(DomainError):
        make_features(submission_hour=24)
    with pytest.raises(DomainError):
        make_features(vm_vcpus=0)
    with pytest.raises(DomainError):
        make_features(vm_memory=0.0)


@pytest.mark.parametrize("field", ["vm_memory", "vm_storage"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), -1.0])
def test_pre_runtime_features_need_a_finite_positive_vm_shape(field, value):
    with pytest.raises(DomainError, match="positive and finite"):
        make_features(**{field: value})
    with pytest.raises(DomainError, match="positive and finite"):
        PreRuntimeFeatures.from_dict({**make_features().to_dict(), field: value})


def test_pre_runtime_features_round_trip():
    f = make_features(task_name="merge", input_name="batchB", submission_hour=23)
    assert PreRuntimeFeatures.from_dict(f.to_dict()) == f


def test_metric_series_validation():
    with pytest.raises(DomainError):
        MetricSeries(metric=MetricKind.utime, interval_seconds=0, values=(1.0,))
    with pytest.raises(DomainError):
        MetricSeries(metric=MetricKind.utime, interval_seconds=1, values=())
    with pytest.raises(DomainError):
        MetricSeries(metric=MetricKind.utime, interval_seconds=1, values=(1.0, float("nan")))


def test_metric_series_coerces_values_to_float():
    s = MetricSeries(metric=MetricKind.procs, interval_seconds=1, values=(1, 2, 3))
    assert s.values == (1.0, 2.0, 3.0)
    assert all(isinstance(v, float) for v in s.values)


def test_record_rejects_mixed_intervals():
    series = {
        MetricKind.utime: MetricSeries(MetricKind.utime, 1, (1.0, 2.0)),
        MetricKind.stime: MetricSeries(MetricKind.stime, 5, (1.0,)),
    }
    with pytest.raises(DomainError):
        TaskExecutionRecord(features=make_features(), series=series, runtime_seconds=10.0)


def test_record_rejects_series_longer_than_runtime():
    series = {MetricKind.utime: MetricSeries(MetricKind.utime, 5, (1.0,) * 10)}
    with pytest.raises(DomainError):
        TaskExecutionRecord(features=make_features(), series=series, runtime_seconds=20.0)


def test_record_rejects_nonpositive_runtime():
    with pytest.raises(DomainError):
        make_record(runtime=0.0)
    with pytest.raises(DomainError):
        make_record(runtime=-3.0)


def test_record_round_trip():
    rec = make_record(runtime=12.5, n=12, level=7.25)
    again = TaskExecutionRecord.from_dict(rec.to_dict())
    assert again.features == rec.features
    assert again.runtime_seconds == rec.runtime_seconds
    assert set(again.series) == set(rec.series)
    for m in rec.series:
        assert again.series[m].values == rec.series[m].values
        assert again.series[m].interval_seconds == rec.series[m].interval_seconds


# the float64 values a text layout is most likely to get wrong
EXTREMES = (-0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308)


def _hex(values):
    """float.hex tells -0.0 from 0.0 and every ulp apart, which == does not."""
    return [float(v).hex() for v in values]


def test_block_layout_round_trips_bit_for_bit():
    rng = random.Random(41)
    # a subset of the metrics, out of canonical order, with rows of length 1
    series = {
        MetricKind.write_bytes: MetricSeries(MetricKind.write_bytes, 2, EXTREMES),
        MetricKind.procs: MetricSeries(MetricKind.procs, 2, (0.0,)),
        MetricKind.vmRSS: MetricSeries(
            MetricKind.vmRSS, 2, tuple(rng.uniform(-1e300, 1e300) for _ in range(9))
        ),
        MetricKind.iowait: MetricSeries(MetricKind.iowait, 2, (-0.0,)),
    }
    rec = TaskExecutionRecord(features=make_features(), series=series, runtime_seconds=18.0)
    line = json.dumps(rec.to_dict())
    d = json.loads(line)
    assert list(d) == ["features", "runtime_seconds", "series"]
    assert list(d["series"]) == ["tau", "metrics", "lengths", "f64"]
    assert d["series"]["metrics"] == ["write_bytes", "procs", "vmRSS", "iowait"]
    assert d["series"]["lengths"] == [5, 1, 9, 1]
    back = TaskExecutionRecord.from_dict(d)
    assert list(back.series) == list(series)
    assert back.series.tau == 2
    for m, s in series.items():
        assert _hex(back.series[m].values) == _hex(s.values)
        assert _hex(back.series.row(m)) == _hex(s.values)
    assert json.dumps(back.to_dict()) == line


def test_legacy_and_block_lines_decode_to_equal_records():
    rng = random.Random(43)
    for _ in range(20):
        metrics = rng.sample(list(MetricKind), rng.randrange(0, 14))
        series = {
            m: MetricSeries(m, 1, [rng.choice(EXTREMES + (rng.uniform(-9, 9),))
                                   for _ in range(rng.randrange(1, 12))])
            for m in metrics
        }
        rec = TaskExecutionRecord(features=make_features(), series=series, runtime_seconds=11.0)
        legacy = TaskExecutionRecord.from_dict(json.loads(json.dumps(legacy_dict(rec))))
        block = TaskExecutionRecord.from_dict(json.loads(json.dumps(rec.to_dict())))
        assert legacy == block == rec
        assert list(legacy.series) == list(block.series) == metrics
        for m in metrics:
            assert _hex(legacy.series[m].values) == _hex(block.series[m].values)


def test_series_block_is_a_read_only_mapping_of_metric_series():
    rec = TaskExecutionRecord.from_dict(make_record(runtime=6.0, n=4, level=2.5).to_dict())
    block = rec.series
    assert isinstance(block, SeriesBlock)
    assert len(block) == 13 and list(block) == list(MetricKind)
    assert block[MetricKind.utime] == MetricSeries(MetricKind.utime, 1, (2.5,) * 4)
    row = block.row(MetricKind.utime)
    with pytest.raises(ValueError):
        row[0] = 1.0
    with pytest.raises(TypeError):
        block[MetricKind.utime] = block[MetricKind.stime]
    subset = TaskExecutionRecord(
        features=make_features(),
        series={MetricKind.stime: MetricSeries(MetricKind.stime, 1, (1.0,))},
        runtime_seconds=3.0,
    ).series
    assert MetricKind.utime not in subset and subset.row(MetricKind.utime) is None
    with pytest.raises(KeyError):
        subset[MetricKind.utime]


def test_series_block_validation():
    ok = dict(tau=1, metrics=["utime", "stime"], lengths=[2, 1], samples=[1.0, 2.0, 3.0])
    SeriesBlock(**ok)
    for change in (
        dict(tau=0),
        dict(metrics=["utime", "bogus"]),
        dict(metrics=["utime", "utime"]),
        dict(lengths=[3, 0]),
        dict(lengths=[1, 1]),
        dict(lengths=[2]),
        dict(samples=[1.0, float("inf"), 3.0]),
    ):
        with pytest.raises(ValueError):
            SeriesBlock(**{**ok, **change})
    with pytest.raises(DomainError, match="stime"):
        SeriesBlock(**{**ok, "samples": [1.0, 2.0, float("nan")]})


def test_prediction_requires_positive_runtime():
    with pytest.raises(DomainError):
        Prediction(runtime_seconds=0.0, scenario=Scenario.baseline, task_name="t")


def test_vocab_assigns_first_seen_codes():
    v = CategoryVocab()
    assert v.code("task_name", "a") == 0
    assert v.code("task_name", "b") == 1
    assert v.code("task_name", "a") == 0
    assert v.lookup("task_name", "c") == 2  # the next code, not stored
    assert v.lookup("task_name", "d") == 2
    assert v.code("input_name", "a") == 0  # fields are independent


def test_vocab_round_trip_preserves_codes():
    v = CategoryVocab()
    random.seed(7)
    names = [f"n{random.randrange(20)}" for _ in range(60)]
    for name in names:
        v.code("input_name", name)
    again = CategoryVocab.from_dict(v.to_dict())
    for name in names:
        assert again.lookup("input_name", name) == v.lookup("input_name", name)


def test_encode_pre_runtime_shape_and_determinism():
    v = CategoryVocab()
    f = make_features()
    row1 = encode_pre_runtime(f, v.code)
    row2 = encode_pre_runtime(f, v.code)
    assert len(row1) == len(PRE_RUNTIME_FEATURE_NAMES) == 8
    assert all(type(x) is float for x in row1)
    assert row1 == row2
    assert row1 == (0.0, 0.0, 0.0, 2.0, 4096.0, 40.0, 1.0, 9.0)


def test_encode_pre_runtime_codes_follow_vocab():
    v = CategoryVocab()
    a = encode_pre_runtime(make_features(input_name="x1"), v.code)
    b = encode_pre_runtime(make_features(input_name="x2"), v.code)
    c = encode_pre_runtime(make_features(input_name="x1"), v.code)
    idx = PRE_RUNTIME_FEATURE_NAMES.index("input_name")
    assert a[idx] == 0.0
    assert b[idx] == 1.0
    assert c[idx] == 0.0
