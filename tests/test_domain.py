"""Domain model: validation rules, encoding, vocabulary, serialization."""

import dataclasses
import random
from collections.abc import Mapping

import numpy as np
import pytest

from conftest import PAST_B, make_features, make_record, series_block
from wfpredict.domain import (
    PRE_RUNTIME_FEATURE_NAMES,
    B,
    CategoryVocab,
    DomainError,
    MetricKind,
    Prediction,
    PreRuntimeFeatures,
    Scenario,
    SeriesBlock,
    TaskExecutionRecord,
    encode_pre_runtime,
)
from wfpredict.store import RecordLog


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


@pytest.mark.parametrize("field, value", [
    ("task_name", None), ("task_id", 3), ("input_name", 7), ("vm_vcpus", 2.5),
    ("vm_vcpus", True), pytest.param("vm_vcpus", np.int64(2), id="vm_vcpus-int64"),
    ("vm_vcpus", 2**53 + 1), pytest.param("vm_vcpus", 10**400, id="vm_vcpus-10**400"),
    ("submission_day", True), ("submission_hour", 9.0),
    ("vm_memory", "4096"), ("vm_storage", True),
    pytest.param("vm_memory", 10**400, id="vm_memory-10**400"),
])
def test_pre_runtime_features_refuse_a_value_of_another_type(field, value):
    """The constructor checks every field's type, so no value is read as
    another, from keywords or from a mapping of them."""
    with pytest.raises(DomainError, match=f"{field}.* must be"):
        make_features(**{field: value})
    with pytest.raises(DomainError, match=f"{field}.* must be"):
        PreRuntimeFeatures(**{**dataclasses.asdict(make_features()), field: value})


@pytest.mark.parametrize("field", ["vm_memory", "vm_storage"])
@pytest.mark.parametrize("value", [
    float("nan"), float("inf"), -float("inf"), -1.0, PAST_B, 1e308,
    pytest.param(2**64 + 1, id="2**64+1"),
])
def test_pre_runtime_features_need_a_vm_shape_in_0_to_b(field, value):
    """NaN, inf and a size past B are refused where the features are made,
    naming the field and B."""
    with pytest.raises(DomainError, match=rf"^{field} must be in \(0, B\], B = 2\*\*64, got"):
        make_features(**{field: value})
    with pytest.raises(DomainError, match=rf"^{field} must be in \(0, B\]"):
        PreRuntimeFeatures(**{**dataclasses.asdict(make_features()), field: value})


def test_pre_runtime_features_round_trip():
    f = make_features(task_name="merge", input_name="batchB", submission_hour=23)
    assert PreRuntimeFeatures(**dataclasses.asdict(f)) == f


def test_series_block_holds_int_samples_as_float64():
    s = SeriesBlock(1, ["procs", "threads"], [2, 1], [1, 2, 3])
    assert s.samples.dtype == np.float64
    assert s.row(MetricKind.procs).tolist() == [1.0, 2.0]
    assert all(type(v) is float for v in s.samples.tolist())


def test_record_rejects_series_longer_than_runtime():
    series = series_block({MetricKind.utime: (1.0,) * 10}, tau=5)
    with pytest.raises(DomainError):
        TaskExecutionRecord(features=make_features(), series=series, runtime_seconds=20.0)


def test_record_rejects_nonpositive_runtime():
    with pytest.raises(DomainError):
        make_record(runtime=0.0)
    with pytest.raises(DomainError):
        make_record(runtime=-3.0)


@pytest.mark.parametrize("value", [
    "10.5", True, pytest.param(np.int64(10), id="int64"), float("nan"),
    pytest.param(10**400, id="10**400"), float("inf"), PAST_B, 1e308,
    pytest.param(2**64 + 1, id="2**64+1"),
])
def test_record_refuses_a_runtime_that_is_not_a_number_in_0_to_b(value):
    with pytest.raises(DomainError, match=r"^runtime_seconds must be in \(0, B\], B = 2\*\*64"):
        make_record(runtime=value, n=1)


def test_values_at_b_are_taken():
    """B itself is within the bound: a VM size or a runtime of B, as a float or
    as the int 2**64, which is held as its float, and samples of -B and B."""
    f = make_features(vm_memory=2**64, vm_storage=B)
    assert (f.vm_memory, f.vm_storage) == (B, B) and type(f.vm_memory) is float
    assert make_record(runtime=2**64, n=1).runtime_seconds == B
    block = SeriesBlock(1, ["utime", "stime"], [1, 2], [B, -B, 0.0])
    assert block.row(MetricKind.stime).tolist() == [-B, 0.0]


@pytest.mark.parametrize("value", [PAST_B, -PAST_B, 1e308, float("inf"), float("nan")])
def test_a_sample_past_b_is_refused_naming_its_series_and_b(value):
    """A sample outside [-B, B], NaN and inf included, is refused where the
    block is made; the error names the first such sample's series."""
    with pytest.raises(DomainError, match=r"^stime sample .* is outside \[-B, B\], B = 2\*\*64$"):
        SeriesBlock(1, ["utime", "stime"], [2, 2], [1.0, B, 3.0, value])


def test_an_int_runtime_is_held_as_the_float_it_encodes_to():
    rec = make_record(runtime=10, n=1)
    assert type(rec.runtime_seconds) is float and rec == make_record(runtime=10.0, n=1)


@pytest.mark.parametrize("tau, lengths", [(True, [1]), (1, [True]), (2, [1, False])])
def test_series_block_refuses_a_bool_tau_or_length(tau, lengths):
    """A bool is an int subclass; the block refuses it, not reading it as 0 or 1."""
    with pytest.raises(DomainError, match="tau and lengths must be integers, not booleans"):
        SeriesBlock(tau, ["utime", "stime"][:len(lengths)], lengths, [1.0] * sum(lengths))


@pytest.mark.parametrize("tau, lengths", [
    ("x", [1]), (1.5, [1]), (float("inf"), [1]), (1, ["x"]), (1, [1.0]),
    (np.int64(1), [1]), (1, [np.uint32(1)]),
])
def test_series_block_refuses_a_tau_or_length_that_is_not_an_integer(tau, lengths):
    with pytest.raises(DomainError, match="tau and lengths must be integers"):
        SeriesBlock(tau, ["utime"], lengths, [1.0])


def test_series_block_is_read_only(tmp_path):
    RecordLog(tmp_path / "log.jsonl").extend([make_record(runtime=6.0, n=4, level=2.5)])
    (rec,) = RecordLog(tmp_path / "log.jsonl").read_all()
    block = rec.series
    assert isinstance(block, SeriesBlock) and not isinstance(block, Mapping)
    assert block.metrics == tuple(MetricKind) and block.lengths == (4,) * 13
    row = block.row(MetricKind.utime)
    assert row.tolist() == [2.5] * 4
    with pytest.raises(ValueError):
        row[0] = 1.0
    with pytest.raises(ValueError):
        block.samples[0] = 1.0
    subset = series_block({MetricKind.stime: (1.0,)})
    assert subset.row(MetricKind.utime) is None


def test_series_blocks_are_equal_on_tau_metrics_lengths_and_samples(tmp_path):
    path = tmp_path / "log.jsonl"
    RecordLog(path).extend([make_record(runtime=6.0, n=4, level=2.5)])
    (a,) = RecordLog(path).read_all()
    (b,) = RecordLog(path).read_all()
    assert a == b and a.series == b.series and a.series is not b.series
    s = a.series
    bits = s.samples.view(np.uint64).copy()
    bits[0] ^= 1  # the lowest bit of the first sample
    assert SeriesBlock(s.tau, s.metrics, s.lengths, bits.view(np.float64)) != s
    # the same rows under another metric order: equal as a mapping, but not as a block
    assert SeriesBlock(s.tau, s.metrics[::-1], s.lengths, s.samples) != s
    assert SeriesBlock(2, s.metrics, s.lengths, s.samples) != s
    assert SeriesBlock(s.tau, s.metrics, s.lengths, s.samples.copy()) == s
    assert series_block({MetricKind.utime: (-0.0,)}) == series_block({MetricKind.utime: (0.0,)})
    assert s != {m: s.row(m) for m in s.metrics}


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


def test_series_block_refuses_a_metric_name_that_cannot_be_hashed():
    with pytest.raises(DomainError, match="^unknown metric: unhashable type: 'list'"):
        SeriesBlock(1, [["utime"]], [1], [1.0])


def test_prediction_requires_positive_runtime():
    with pytest.raises(DomainError):
        Prediction(runtime_seconds=0.0)


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


@pytest.mark.parametrize("codes", [
    [0, 0, 1],  # a repeated code
    [0, 2, 3],  # a gap
    [-1, 0, 1],
    [0, 1, True],  # int() would take each of these for 2
    [0, 1, 2.0],
    [0, 1, "2"],
])
def test_vocab_from_dict_refuses_codes_that_are_not_0_to_n_minus_1(codes):
    v = CategoryVocab()
    for name in ("a", "b", "c"):
        v.code("input_name", name)
    d = v.to_dict()
    assert CategoryVocab.from_dict(d).to_dict() == d
    d["input_name"] = dict(zip("abc", codes))
    with pytest.raises(DomainError, match="input_name codes are not 0..2, each once"):
        CategoryVocab.from_dict(d)


def test_encode_pre_runtime_shape_and_determinism():
    v = CategoryVocab()
    f = make_features()
    row1 = encode_pre_runtime(f, v.code)
    row2 = encode_pre_runtime(f, v.code)
    assert len(row1) == len(PRE_RUNTIME_FEATURE_NAMES) == 8
    assert all(type(x) is float for x in row1)
    assert row1 == row2
    assert row1 == (0.0, 0.0, 0.0, 2.0, 4096.0, 40.0, 1.0, 9.0)
    # every value distinct, the codes too: each lands in its named column
    v.code("task_id", "other")
    v.code("input_name", "other")
    v.code("input_name", "another")
    f = make_features(task_name="screen", task_id="screen-7", input_name="ligand3",
                      vm_vcpus=4, vm_memory=8192.0, vm_storage=60.0,
                      submission_day=5, submission_hour=17)
    row = encode_pre_runtime(f, v.code)
    for name in ("task_name", "task_id", "input_name"):
        assert row[PRE_RUNTIME_FEATURE_NAMES.index(name)] == v.lookup(name, getattr(f, name))
    assert sorted(row[:3]) == [1.0, 2.0, 3.0]
    for name in ("vm_vcpus", "vm_memory", "vm_storage", "submission_day", "submission_hour"):
        assert row[PRE_RUNTIME_FEATURE_NAMES.index(name)] == float(getattr(f, name))


def test_encode_pre_runtime_codes_follow_vocab():
    v = CategoryVocab()
    a = encode_pre_runtime(make_features(input_name="x1"), v.code)
    b = encode_pre_runtime(make_features(input_name="x2"), v.code)
    c = encode_pre_runtime(make_features(input_name="x1"), v.code)
    idx = PRE_RUNTIME_FEATURE_NAMES.index("input_name")
    assert a[idx] == 0.0
    assert b[idx] == 1.0
    assert c[idx] == 0.0
