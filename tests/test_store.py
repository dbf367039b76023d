"""Record log persistence and series downsampling."""

import base64
import json
import os
import random
import struct

import numpy as np
import pytest

from conftest import (
    HEADER_FIELDS, HEADER_FIXED, METRIC_IDS, PAST_B, header_of, log_line, make_features,
    make_record, nl_of, pack_line, parse_line, series_block,
)
import wfpredict.store as store_mod
from wfpredict.domain import (
    ALL_METRICS, B, DomainError, MetricKind, PreRuntimeFeatures, SeriesBlock, TaskExecutionRecord,
)
from wfpredict.evaluation import generate_synthetic, standard_corpus_config
from wfpredict.store import CorruptLogError, RecordLog, StoreError, downsample, downsample_block


def test_extend_onto_a_log_another_record_log_wrote_reads_nothing(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    records = [make_record(runtime=5.0 + i) for i in range(4)]
    RecordLog(path).extend(records[:3])

    def no_read(self):
        raise AssertionError("extend read the log")

    with monkeypatch.context() as m:
        m.setattr(RecordLog, "_spans", no_read)
        assert RecordLog(path).extend(records[3:]) == 1
    assert RecordLog(path).read_all() == records


def test_extend_appends_in_order_with_one_fsync(tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(store_mod.os, "fsync", lambda fd: calls.append(fd))
    records = [make_record(runtime=5.0 + i) for i in range(6)]
    log = RecordLog(tmp_path / "log.jsonl")
    assert log.extend(records[:4]) == 4
    assert len(calls) == 1
    assert log.extend(iter(records[4:])) == 2
    assert len(calls) == 2
    assert log.extend([]) == 0
    assert RecordLog(tmp_path / "log.jsonl").read_all() == records
    one_by_one = RecordLog(tmp_path / "single.jsonl")
    assert [one_by_one.extend([rec]) for rec in records] == [1] * 6
    assert len(calls) == 9
    assert one_by_one.path.read_bytes() == log.path.read_bytes()


def test_extend_keeps_the_records_before_a_rejected_one(tmp_path):
    log = RecordLog(tmp_path / "log.jsonl")
    with pytest.raises(StoreError):
        log.extend([make_record(runtime=5.0), {"not": "a record"}, make_record(runtime=6.0)])
    assert log.count == 1
    assert RecordLog(tmp_path / "log.jsonl").read_all() == [make_record(runtime=5.0)]


def test_extend_refuses_a_log_that_ends_in_a_partial_line(tmp_path, monkeypatch):
    """A last line cut short, as a crash mid-write leaves it: a record
    appended to it would join that line and never be read, so extend writes
    nothing, syncs nothing and acknowledges nothing."""
    path = tmp_path / "log.jsonl"
    RecordLog(path).extend([make_record(runtime=5.0 + i) for i in range(3)])
    with open(path, "rb") as fh:
        lines = fh.readlines()
    path.write_bytes(b"".join(lines[:2]) + lines[2][:50])
    torn = path.read_bytes()
    calls = []
    monkeypatch.setattr(store_mod.os, "fsync", lambda fd: calls.append(fd))
    log = RecordLog(path)
    with pytest.raises(StoreError, match="ends in a partial line"):
        log.extend([make_record(runtime=9.0)])
    assert path.read_bytes() == torn and calls == [] and log.count == 3
    with pytest.raises(CorruptLogError) as info:
        RecordLog(path).read_all()
    assert info.value.delivered == 2
    # an empty file, and a log whose last line is whole, take the record
    empty = tmp_path / "empty.jsonl"
    empty.touch()
    assert RecordLog(empty).extend([make_record(runtime=9.0)]) == 1
    path.write_bytes(b"".join(lines[:2]))
    assert RecordLog(path).extend([make_record(runtime=9.0)]) == 1
    assert len(RecordLog(path).read_all()) == 3


@pytest.mark.parametrize("record", [
    # a tau past u64: one sample outlives no runtime, so the record is valid
    TaskExecutionRecord(make_features(), series_block({MetricKind.utime: (1.0,)}, 2**64), 1.0),
    make_record(runtime=5.0, task_name="align\ud800"),
], ids=["tau-2**64", "name-with-a-lone-surrogate"])
def test_extend_refuses_a_record_that_does_not_fit_the_layout(tmp_path, record):
    log = RecordLog(tmp_path / "log.jsonl")
    with pytest.raises(StoreError, match="does not fit the log layout"):
        log.extend([make_record(runtime=5.0), record, make_record(runtime=6.0)])
    assert log.read_all() == [make_record(runtime=5.0)]


def test_round_trip_preserves_order_and_content(tmp_path):
    log = RecordLog(tmp_path / "log.jsonl")
    random.seed(11)
    originals = [make_record(runtime=float(random.randrange(3, 40))) for _ in range(20)]
    for rec in originals:
        log.extend([rec])
    reopened = RecordLog(tmp_path / "log.jsonl")
    assert reopened.count == 20
    loaded = reopened.read_all()
    for orig, back in zip(originals, loaded):
        assert back.features == orig.features
        assert back.runtime_seconds == orig.runtime_seconds
        for m in MetricKind:
            assert back.series.row(m).tolist() == orig.series.row(m).tolist()


def test_corrupt_tail_reports_delivered_count(tmp_path):
    path = tmp_path / "log.jsonl"
    RecordLog(path).extend([make_record(runtime=5.0 + i) for i in range(3)])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("{this is not json\n")
    reopened = RecordLog(path)
    delivered = []
    with pytest.raises(CorruptLogError) as info:
        for rec in reopened.records():
            delivered.append(rec)
    assert len(delivered) == 3
    assert info.value.delivered == 3


def test_a_corrupt_line_mid_log_stops_the_read_there(tmp_path):
    path = tmp_path / "log.jsonl"
    RecordLog(path).extend([make_record(runtime=5.0 + i) for i in range(3)])
    with open(path, "rb") as fh:
        lines = fh.readlines()
    path.write_bytes(lines[0] + b"{this is not json\n" + lines[2])
    delivered = []
    with pytest.raises(CorruptLogError) as info:
        for rec in RecordLog(path).records():
            delivered.append(rec)
    assert str(info.value).startswith(f"corrupt entry in {path} after 1 records: ")
    assert delivered == [make_record(runtime=5.0)] and info.value.delivered == 1


def test_corrupt_tail_bad_schema(tmp_path):
    path = tmp_path / "log.jsonl"
    RecordLog(path).extend([make_record()])
    # a length for a metric the header does not name
    header = header_of(make_record(runtime=1.0, n=1))
    header["series"] = {"tau": 1, "metrics": [], "lengths": [1]}
    with open(path, "ab") as fh:
        fh.write(log_line(header, (1.0,)) + b"\n")
    with pytest.raises(CorruptLogError) as info:
        RecordLog(path).read_all()
    assert info.value.delivered == 1


def test_record_round_trip(tmp_path):
    rec = make_record(runtime=12.5, n=12, level=7.25)
    RecordLog(tmp_path / "log.jsonl").extend([rec])
    (again,) = RecordLog(tmp_path / "log.jsonl").read_all()
    assert again.features == rec.features
    assert again.runtime_seconds == rec.runtime_seconds
    assert again.series.metrics == rec.series.metrics == tuple(MetricKind)
    assert again.series.tau == rec.series.tau
    for m in MetricKind:
        assert again.series.row(m).tolist() == rec.series.row(m).tolist()


# the float64 values a text layout is most likely to get wrong, among those a
# sample may take: its magnitude is at most B, the domain bound
EXTREMES = (-0.0, 5e-324, -5e-324, B, -B, float(np.nextafter(B, 0.0)))


def _hex(values):
    """float.hex tells -0.0 from 0.0 and every ulp apart, which == does not."""
    return [float(v).hex() for v in values]


def test_a_subset_of_metrics_round_trips_bit_for_bit(tmp_path):
    rng = random.Random(41)
    # a subset of the metrics, out of canonical order, with rows of length 1
    rows = {
        MetricKind.write_bytes: EXTREMES,
        MetricKind.procs: (0.0,),
        MetricKind.vmRSS: tuple(rng.uniform(-B, B) for _ in range(9)),
        MetricKind.iowait: (-0.0,),
    }
    rec = TaskExecutionRecord(features=make_features(), series=series_block(rows, 2),
                              runtime_seconds=18.0)
    path = tmp_path / "log.jsonl"
    RecordLog(path).extend([rec])
    line = path.read_bytes()
    fields, variable, _ = parse_line(line[:-1])
    assert (fields["layout"], fields["tau"], fields["n_metrics"]) == (1, 2, 4)
    ids = [METRIC_IDS[m] for m in ("write_bytes", "procs", "vmRSS", "iowait")]
    assert list(variable[:4]) == ids
    assert struct.unpack_from("<4I", variable, 4) == (6, 1, 9, 1)
    (back,) = RecordLog(path).read_all()
    assert back.series.metrics == tuple(rows)
    assert back.series.tau == 2
    for m, values in rows.items():
        assert _hex(back.series.row(m)) == _hex(values)
    RecordLog(tmp_path / "again.jsonl").extend([back])
    assert (tmp_path / "again.jsonl").read_bytes() == line


def test_random_records_read_back_equal_bit_for_bit(tmp_path):
    """Records with any subset of the metrics, in any order, and extreme
    samples read back as equal records, row for row and bit for bit."""
    rng = random.Random(43)
    records = []
    for _ in range(20):
        metrics = rng.sample(list(MetricKind), rng.randrange(0, 14))
        rows = {
            m: [rng.choice(EXTREMES + (rng.uniform(-9, 9),)) for _ in range(rng.randrange(1, 12))]
            for m in metrics
        }
        records.append(TaskExecutionRecord(
            features=make_features(), series=series_block(rows), runtime_seconds=11.0))
    RecordLog(tmp_path / "log.jsonl").extend(records)
    back = RecordLog(tmp_path / "log.jsonl").read_all()
    assert back == records
    for rec, got in zip(records, back):
        assert got.series.metrics == rec.series.metrics
        for m in rec.series.metrics:
            assert _hex(got.series.row(m)) == _hex(rec.series.row(m))


# 1.0 with its lowest byte set to 0x0A: a finite sample whose bytes hold a newline
_NL_SAMPLE = b"\n" + bytes(5) + b"\xf0\x3f"


_FEATURES = header_of(make_record(runtime=10.0))["features"]


def _binary_line(payload, lengths, nl=None, metrics=("utime",), tau=1, features=_FEATURES,
                 runtime=10.0):
    """A line of a record with these series fields, 10 seconds long by
    default; see log_line."""
    series = {"tau": tau, "metrics": list(metrics), "lengths": list(lengths)}
    header = {"features": features, "runtime_seconds": runtime, "series": series}
    return log_line(header, payload, nl)


def _json_line(series):
    """A line of a 10-second record as one JSON object, with no NUL."""
    return json.dumps(
        {"features": _FEATURES, "runtime_seconds": 10.0, "series": series}).encode("ascii")


_TWO_NL = _NL_SAMPLE * 2  # newlines at offsets 0 and 8
_WHOLE = _binary_line(_TWO_NL, [2])
_HEADER_END = _WHOLE.index(b"\0")
_UTIME_STIME = _binary_line(_TWO_NL, [1, 1], metrics=["utime", "stime"])


def _with_features(**changes):
    """_WHOLE with these feature values."""
    return _binary_line(_TWO_NL, [2], features={**_FEATURES, **changes})


def _with_fields(**changes):
    """_WHOLE with these values in its header's fixed part, and its variable
    part and payload as they are."""
    fields, variable, payload = parse_line(_WHOLE)
    return pack_line({**fields, **changes}, variable, payload)


def _padding_bit_set(line):
    """line with the lowest bit of its header's last base64 data character
    set, a bit that a one- or two-byte last group does not use."""
    cut = line.index(b"\0")
    last = cut - 1 - line[:cut].count(b"=")
    alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    assert last < cut - 1 and alphabet.index(line[last]) % 2 == 0
    return line[:last] + alphabet[alphabet.index(line[last]) + 1:][:1] + line[last + 1:]


# _WHOLE as the layout before the packed header wrote it: a JSON header
_JSON_HEADER_LINE = json.dumps({
    "features": _FEATURES, "runtime_seconds": 10.0,
    "series": {"tau": 1, "metrics": ["utime"], "lengths": [2], "nl": [0, 8]},
}).encode("ascii") + b"\0" + _TWO_NL.replace(b"\n", b"\0")


# name -> (a line that must not decode, the line one defect away that must)
_REJECTED_LINES = {
    "cut-inside-header": (_WHOLE[:_HEADER_END // 2], _WHOLE),
    "cut-at-the-nul": (_WHOLE[:_HEADER_END + 1], _WHOLE),
    "cut-mid-payload": (_WHOLE[:-5], _WHOLE),
    "cut-at-a-sample-boundary": (_WHOLE[:-8], _WHOLE),
    "nl-out-of-range": (_binary_line(_TWO_NL, [2], nl=[0, 8, 16]), _WHOLE),
    "nl-not-increasing": (_binary_line(_TWO_NL, [2], nl=[8, 0]), _WHOLE),
    "nl-repeated": (_binary_line(_TWO_NL, [2], nl=[0, 0, 8]), _WHOLE),
    # 1.0's top byte is 0x3f, so the newline it names was never written as 0x00
    "nl-at-a-non-zero-byte": (_binary_line(_TWO_NL, [2], nl=[0, 7, 8]), _WHOLE),
    "payload-not-whole-float64s": (
        _binary_line(_NL_SAMPLE + b"\x01" * 4, [1]), _binary_line(_NL_SAMPLE, [1])),
    "lengths-short-of-payload": (_binary_line(_TWO_NL, [1]), _WHOLE),
    "nan-bytes": (_binary_line(_NL_SAMPLE + struct.pack("<d", float("nan")), [2]), _WHOLE),
    "inf-bytes": (_binary_line(struct.pack("<d", float("inf")) + _NL_SAMPLE, [2]), _WHOLE),
    "minus-inf-bytes": (_binary_line(struct.pack("<d", float("-inf")), [1]),
                        _binary_line(struct.pack("<d", -1.0), [1])),
    # one ulp past the domain bound B, and B itself
    "sample-past-b": (_binary_line(struct.pack("<d", PAST_B), [1]),
                      _binary_line(struct.pack("<d", B), [1])),
    "sample-past-minus-b": (_binary_line(struct.pack("<d", -PAST_B), [1]),
                            _binary_line(struct.pack("<d", -B), [1])),
    "unknown-metric": (_binary_line(_TWO_NL, [2], metrics=[len(MetricKind)]), _WHOLE),
    "metric-id-255": (_binary_line(_TWO_NL, [2], metrics=[255]), _WHOLE),
    "duplicate-metric": (_binary_line(_TWO_NL, [1, 1], metrics=["utime", "utime"]), _UTIME_STIME),
    "row-of-length-0": (_binary_line(_TWO_NL, [0, 2], metrics=["utime", "stime"]), _UTIME_STIME),
    "lengths-past-payload": (_binary_line(_TWO_NL, [3]), _WHOLE),
    "tau-0": (_binary_line(_TWO_NL, [2], tau=0), _WHOLE),
    "series-outlives-task": (
        _binary_line(_NL_SAMPLE * 12, [12]), _binary_line(_NL_SAMPLE * 11, [11])),
    "runtime-nan": (_binary_line(_TWO_NL, [2], runtime=float("nan")), _WHOLE),
    "runtime-0": (_binary_line(_TWO_NL[8:], [1], runtime=0.0),
                  _binary_line(_TWO_NL[8:], [1], runtime=1.0)),
    "runtime-past-b": (_binary_line(_TWO_NL, [2], runtime=PAST_B),
                       _binary_line(_TWO_NL, [2], runtime=B)),
    # feature values out of range, each at a width the field can hold
    "vcpus-0": (_with_features(vm_vcpus=0), _WHOLE),
    "vcpus-past-2**53": (_with_features(vm_vcpus=2**53 + 1), _with_features(vm_vcpus=2**53)),
    "vcpus-2**64-1": (_with_features(vm_vcpus=2**64 - 1), _with_features(vm_vcpus=2**53)),
    "submission-day-7": (_with_features(submission_day=7), _with_features(submission_day=6)),
    "submission-hour-255": (_with_features(submission_hour=255), _WHOLE),
    "vm-memory-nan": (_with_features(vm_memory=float("nan")), _WHOLE),
    "vm-storage-minus-inf": (_with_features(vm_storage=float("-inf")), _WHOLE),
    "vm-memory-past-b": (_with_features(vm_memory=PAST_B), _with_features(vm_memory=B)),
    # the packed header's own defects
    # a lenient base64 decoder skips the "!" and reads _WHOLE
    "header-not-base64": (_WHOLE[:4] + b"!" + _WHOLE[4:], _WHOLE),
    "header-base64-cut-by-a-character": (_WHOLE[:_HEADER_END - 1] + _WHOLE[_HEADER_END:], _WHOLE),
    # the last data character's unused low bits set: base64 of the same bytes
    "header-base64-padding-bits-set": (_padding_bit_set(_WHOLE), _WHOLE),
    # 40 bytes, each the layout byte 1, of a fixed part of 60
    "header-shorter-than-its-fixed-part": (
        base64.b64encode(b"\x01" * 40) + _WHOLE[_HEADER_END:], _WHOLE),
    "layout-byte-0": (_with_fields(layout=0), _WHOLE),
    "layout-byte-2": (_with_fields(layout=2), _WHOLE),
    "header-shorter-than-its-counts": (_with_fields(n_nl=3), _WHOLE),
    "header-longer-than-its-counts": (_with_fields(n_nl=1), _WHOLE),
    "name-longer-than-the-header": (_with_fields(input_name_bytes=6), _WHOLE),
    "name-not-utf-8": (_with_features(task_name=b"align\xff"), _WHOLE),
    "name-a-utf-8-surrogate": (_with_features(input_name=b"chr\xed\xa0\x80"), _WHOLE),
    # the three layouts written before the packed header
    "json-per-metric-layout": (_json_line({"utime": {"tau": 1, "values": [1.0, 1.0]}}), _WHOLE),
    "json-base64-block-layout": (_json_line(
        {"tau": 1, "metrics": ["utime"], "lengths": [2],
         "f64": base64.b64encode(_TWO_NL).decode("ascii")}), _WHOLE),
    "json-header-layout": (_JSON_HEADER_LINE, _WHOLE),
}


def test_an_int_vm_size_is_held_as_the_float_it_encodes_to(tmp_path):
    """vm_memory 4096, from the constructor, is 4096.0 and is written as the
    bytes of the 4096.0 line; the header holds a size as a float64 alone, so
    a line can hold no int size."""
    assert _with_features(vm_memory=4096) == _WHOLE
    (rec,), error = _read_after_two_good_records(tmp_path, _WHOLE)
    assert error is None and type(rec.features.vm_memory) is float
    assert rec.features == make_features(vm_memory=4096) == make_features(vm_memory=4096.0)
    made = TaskExecutionRecord(make_features(vm_memory=4096), rec.series, rec.runtime_seconds)
    for i, again in enumerate((rec, made)):
        RecordLog(tmp_path / f"again{i}.jsonl").extend([again])
        assert (tmp_path / f"again{i}.jsonl").read_bytes() == _WHOLE + b"\n"


def test_an_int_runtime_is_held_as_the_float_it_encodes_to(tmp_path):
    """runtime_seconds 10, from the constructor, is 10.0 and is written as
    the bytes of the 10.0 line; the header holds it as a float64 alone."""
    assert _binary_line(_TWO_NL, [2], runtime=10) == _WHOLE
    (rec,), error = _read_after_two_good_records(tmp_path, _WHOLE)
    assert error is None and type(rec.runtime_seconds) is float
    made = TaskExecutionRecord(rec.features, rec.series, 10)
    for i, again in enumerate((rec, made)):
        RecordLog(tmp_path / f"again{i}.jsonl").extend([again])
        assert (tmp_path / f"again{i}.jsonl").read_bytes() == _WHOLE + b"\n"


def _read_after_two_good_records(tmp_path, line):
    """Append `line` to a log of two good records and read it; return the
    records after the good ones, and the CorruptLogError reading raised or
    None."""
    path = tmp_path / "log.jsonl"
    good = [make_record(runtime=5.0 + i) for i in range(2)]
    RecordLog(path).extend(good)
    with open(path, "ab") as fh:
        fh.write(line + b"\n")
    delivered, error = [], None
    try:
        for rec in RecordLog(path).records():
            delivered.append(rec)
    except CorruptLogError as exc:
        error = exc
    assert delivered[:2] == good
    return delivered[2:], error


@pytest.mark.parametrize("case", sorted(_REJECTED_LINES))
def test_binary_layout_rejections_report_delivered_count(tmp_path, case):
    assert _REJECTED_LINES[case][0] != _REJECTED_LINES[case][1]
    rest, error = _read_after_two_good_records(tmp_path, _REJECTED_LINES[case][0])
    assert rest == [] and error is not None and error.delivered == 2


@pytest.mark.parametrize("case", sorted(_REJECTED_LINES))
def test_binary_layout_controls_decode(tmp_path, case):
    """Each rejected line is one defect away from a line that decodes, and
    decodes to the samples its payload held, newlines put back."""
    line = _REJECTED_LINES[case][1]
    payload = bytearray(parse_line(line)[2])
    for i in nl_of(line):
        payload[i] = 0x0A
    (rec,), error = _read_after_two_good_records(tmp_path, line)
    assert error is None
    assert rec.series.samples.tobytes() == bytes(payload)


# the largest value of each width in the header's fixed part
_WIDTH_MAX = {"B": 2**8 - 1, "I": 2**32 - 1, "Q": 2**64 - 1, "d": 1.7976931348623157e308}
_COUNTS = ("n_metrics", "n_nl", "task_name_bytes", "task_id_bytes", "input_name_bytes")


def _header_mutants(line):
    """(what, mutant line) for one line of the log: each field of the fixed
    part set to 0 and to its width's largest value, NaN, infinities, the domain
    bound B and the float past it for a float, and each count one off; each
    metric id, row length and nl offset set likewise; a name holding a byte
    that is not UTF-8; and the header cut short and run on."""
    fields, variable, payload = parse_line(line)
    widths = dict(zip(HEADER_FIELDS, HEADER_FIXED.format.lstrip("<")))
    for name, width in widths.items():
        values = [0, _WIDTH_MAX[width]]
        if width == "d":
            values += [float("nan"), float("inf"), -float("inf"), B, PAST_B]
        if name in _COUNTS:
            values += [fields[name] - 1, fields[name] + 1]
        for v in values:
            if width == "d" or 0 <= v <= _WIDTH_MAX[width]:
                yield f"{name}={v}", pack_line({**fields, name: v}, variable, payload)
    m, n = fields["n_metrics"], fields["n_nl"]
    items = [("B", 0, f"metric id {i}") for i in range(m)] + [
        ("<I", m + 4 * i, f"u32 {i}") for i in range(m + n)]  # the lengths, then the nl offsets
    for fmt, at, what in items:
        old = struct.unpack_from(fmt, variable, at)[0]
        for v in {0, _WIDTH_MAX[fmt[-1]], max(old - 1, 0), old + 1} - {old}:
            if v <= _WIDTH_MAX[fmt[-1]]:
                mutated = bytearray(variable)
                struct.pack_into(fmt, mutated, at, v)
                yield f"{what}={v}", pack_line(fields, bytes(mutated), payload)
    names_at = 5 * m + 4 * n
    for k, count in enumerate(_COUNTS[2:]):
        at = names_at + sum(fields[c] for c in _COUNTS[2:2 + k])
        if fields[count]:
            bad = variable[:at] + b"\xff" + variable[at + 1:]
            yield f"{count} byte not UTF-8", pack_line(fields, bad, payload)
    header = HEADER_FIXED.pack(*(fields[k] for k in HEADER_FIELDS)) + variable
    for what, cut in (
        ("header cut by a byte", header[:-1]),
        ("header cut in half", header[:len(header) // 2]),
        ("header cut inside its fixed part", header[:10]),
        ("header run on by a byte", header + b"\0"),
        ("header run on by a name", header + b"chr1"),
    ):
        yield what, base64.b64encode(cut) + b"\0" + payload


def _typed(rec):
    """rec, after a check that every field holds its declared type."""
    f, s = rec.features, rec.series
    assert [type(getattr(f, k)) for k in PreRuntimeFeatures.__dataclass_fields__] == [
        str, str, str, int, float, float, int, int]
    assert type(rec.runtime_seconds) is float and type(s.tau) is int
    assert {type(x) for x in s.lengths} <= {int} and s.samples.dtype == np.float64
    return rec


def test_every_header_mutant_is_refused_or_reads_back_as_its_own_bytes(tmp_path):
    """Two seeded lines of a 40-record corpus, and its line with the fewest
    nl offsets but some, each field of their headers set to each value of a
    fixed list: a mutant is refused with CorruptLogError alone, or decodes to
    a record of declared types that encodes to the mutant's bytes. No
    struct.error, IndexError or other exception gets out of a read."""
    log = generate_synthetic(standard_corpus_config(n_records=40), 5, tmp_path / "g.jsonl")
    lines = log.path.read_bytes().split(b"\n")[:-1]
    rng = random.Random(15)
    with_nl = [line for line in lines if nl_of(line)]
    picked = rng.sample(lines, 2) + [min(with_nl, key=lambda line: len(nl_of(line)))]
    path = tmp_path / "mutant.jsonl"
    refused = accepted = 0
    for line in picked:
        for what, mutant in _header_mutants(line):
            path.write_bytes(mutant + b"\n")
            try:
                (rec,) = RecordLog(path).read_all()
            except CorruptLogError as exc:
                assert exc.delivered == 0, what
                refused += 1
                continue
            assert store_mod._encode(_typed(rec)) == mutant + b"\n", what
            accepted += 1
    assert refused > 500 and accepted > 10


def _block_record(samples, runtime=5000.0):
    """A record whose samples, split over up to 13 metrics, are `samples`."""
    samples = np.asarray(samples, dtype=np.float64)
    parts = np.array_split(samples, min(13, len(samples))) if len(samples) else []
    return TaskExecutionRecord(
        features=make_record().features,
        series=SeriesBlock(1, [m.value for m in MetricKind][:len(parts)],
                           [len(p) for p in parts], samples),
        runtime_seconds=runtime,
    )


def test_binary_layout_round_trips_every_byte_value_bit_for_bit(tmp_path):
    """Every byte value at every offset of a sample, with a filler that keeps
    each sample finite; signed zeros, subnormals, the domain bound B, a record
    without series, and payloads that end in a byte that is not a newline but
    which a text reader would strip or split at. A top byte of 0x44-0x7f or
    0xc4-0xff puts the sample past B, and SeriesBlock refuses it."""
    every_byte = bytearray()
    for value in range(256):
        for offset in range(8):
            sample = bytearray(b"\x11" * 8)
            sample[offset] = value
            every_byte += sample
    tiny = np.finfo(np.float64).smallest_subnormal
    samples = np.frombuffer(bytes(every_byte), dtype="<f8")
    past = ~(np.abs(samples) <= B)
    assert {v.tobytes()[7] for v in samples[past]} == {*range(0x44, 0x80), *range(0xC4, 0x100)}
    for v in samples[past]:
        with pytest.raises(DomainError, match=r"^procs sample .* is outside \[-B, B\]"):
            _block_record([v])
    records = [
        _block_record(samples[~past]),
        _block_record([-0.0, 0.0, tiny, -tiny, 2.2250738585072009e-308, B, -B]),
        _block_record([]),
    ] + [
        _block_record(np.frombuffer(b"\x11" * 7 + bytes([last]), dtype="<f8"))
        for last in (0x0D, 0x20, 0x0A, 0x85, 0x0B, 0x0C, 0x1C)
    ]
    path = tmp_path / "log.jsonl"
    RecordLog(path).extend(records)
    data = path.read_bytes()
    assert data.count(b"\n") == len(records) and data.endswith(b"\n")
    back = RecordLog(path).read_all()
    assert back == records
    for rec, got in zip(records, back):
        assert got.series.samples.tobytes() == rec.series.samples.tobytes()
        assert got.series.metrics == rec.series.metrics and got.series.lengths == rec.series.lengths


def test_opening_reads_nothing_and_a_read_opens_the_log_once(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    records = [make_record(runtime=5.0 + i) for i in range(3)]
    RecordLog(path).extend(records)
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(store_mod, "open", counting_open, raising=False)
    log = RecordLog(path)
    assert opened == []
    assert log.read_all() == records
    assert opened == [path]


def test_a_missing_log_is_refused_where_it_is_read(tmp_path):
    """A read once took a missing log for an empty one; extend creates it."""
    log = RecordLog(tmp_path / "absent.jsonl")
    for read in (lambda: log.count, lambda: next(log.records()), log.read_all):
        with pytest.raises(FileNotFoundError, match="absent.jsonl"):
            read()
    assert log.extend([]) == 0 and log.count == 0


def _lines_before(path):
    """The log's lines as the reader's oracle: a line at a time from the
    file object with its default buffer, the terminator stripped, empty lines
    skipped, and nothing that ends past the byte size taken when the read
    starts."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        return
    with fh:
        left = os.fstat(fh.fileno()).st_size
        for line in fh:
            left -= len(line)
            if left < 0:
                return
            if line.endswith(b"\n"):
                line = line[:-1]
            if line:
                yield line


def _read_through(records):
    """The records an iterator delivers, and the delivered count of the
    CorruptLogError that stopped it, or None."""
    got = []
    try:
        for rec in records:
            got.append(rec)
    except CorruptLogError as exc:
        return got, exc.delivered
    return got, None


def _oracle_records(path):
    """records() over the oracle's lines: each line decoded on its own."""
    for delivered, line in enumerate(_lines_before(path)):
        try:
            rec = store_mod._decode(line, len(line))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorruptLogError(path, delivered, str(exc))
        yield rec


# bytes a text reader would treat as line ends, with the newline and a filler;
# any 8 of them make a finite float64, as none is an exponent of all ones
_EDGE_BYTES = b"\x0d\x85\x0b\x0a\x11"


def _random_log(rng, path):
    """A log of whole records, empty lines, now and then an undecodable line
    and a torn last line, whose payloads are dense in _EDGE_BYTES."""
    pieces = []
    for _ in range(rng.randrange(0, 9)):
        kind = rng.random()
        if kind < 0.15:
            pieces.append(b"\n" * rng.randrange(1, 3))
        elif kind < 0.2:
            pieces.append(b"{not a record\n")
        else:
            raw = bytes(rng.choice(_EDGE_BYTES) for _ in range(8 * rng.randrange(0, 40)))
            rec = _block_record(np.frombuffer(raw, dtype="<f8"))
            pieces.append(store_mod._encode(rec))
    if pieces and rng.random() < 0.3:  # torn: the last line loses its newline and more
        pieces[-1] = pieces[-1][:rng.randrange(len(pieces[-1]))]
    path.write_bytes(b"".join(pieces))


# 2 is the smallest real buffer: binary files take buffering=1 as line
# buffering, which they do not support, and warn
@pytest.mark.parametrize("buffer", [2, 7, 64, 4096])
def test_the_reader_splits_a_log_as_its_line_oracle_at_any_buffer_size(
    tmp_path, monkeypatch, buffer
):
    """Lines that straddle reads and outgrow the buffer, empty lines,
    undecodable and torn lines, and payload bytes that end lines in text at
    read edges: count and records() agree with the default-buffer reader."""
    monkeypatch.setattr(store_mod, "_CHUNK", buffer)
    rng = random.Random(buffer)
    path = tmp_path / "log.jsonl"
    for trial in range(40):
        _random_log(rng, path)
        log = RecordLog(path)
        assert log.count == len(list(_lines_before(path))), trial
        got, stopped = _read_through(log.records())
        want, want_stopped = _read_through(_oracle_records(path))
        assert got == want and stopped == want_stopped, trial
        for a, b in zip(got, want):
            assert a.series.samples.tobytes() == b.series.samples.tobytes()


@pytest.mark.parametrize("chunk", [64, store_mod._CHUNK])
def test_a_read_delivers_no_record_appended_after_it_began(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(store_mod, "_CHUNK", chunk)
    path = tmp_path / "log.jsonl"
    records = [make_record(runtime=5.0 + i) for i in range(3)]
    RecordLog(path).extend(records)
    it = RecordLog(path).records()
    assert next(it) == records[0]
    RecordLog(path).extend([make_record(runtime=20.0)])
    assert list(it) == records[1:]
    assert RecordLog(path).count == 4


@pytest.mark.parametrize("chunk", [64, store_mod._CHUNK])
@pytest.mark.parametrize("follows", [b"", b"\n", b"rest of the line\n"])
def test_a_last_line_without_a_newline_is_read_only_if_the_file_ends_there(
    tmp_path, monkeypatch, chunk, follows
):
    """A torn last line is delivered, and so raises CorruptLogError, only
    when nothing follows it once the read began; an append that completes it
    makes it a line that ends past the read's snapshot."""
    monkeypatch.setattr(store_mod, "_CHUNK", chunk)
    path = tmp_path / "log.jsonl"
    records = [make_record(runtime=5.0 + i) for i in range(2)]
    RecordLog(path).extend(records)
    with open(path, "ab") as fh:
        fh.write(store_mod._encode(make_record(runtime=9.0))[:50])
    it = RecordLog(path).records()
    assert next(it) == records[0]
    with open(path, "ab") as fh:
        fh.write(follows)
    got, stopped = _read_through(it)
    assert got == records[1:]
    assert stopped == (None if follows else 2)


def _series(values, tau=1):
    return series_block({MetricKind.utime: values}, tau)


def test_downsample_exact_windows():
    s = _series([1.0, 3.0, 5.0, 7.0])
    out = downsample(s, 2)
    assert out.samples.tolist() == [2.0, 6.0]
    assert out.tau == 2


def test_downsample_trailing_partial_window():
    s = _series([2.0, 4.0, 6.0, 10.0, 20.0])
    out = downsample(s, 2)
    assert out.samples.tolist() == [3.0, 8.0, 20.0]


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
        for j, v in enumerate(out.samples.tolist()):
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
        assert direct.lengths == staged.lengths
        for x, y in zip(direct.samples.tolist(), staged.samples.tolist()):
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
        # a block holds each metric at most once: at most 12 drawn rows and
        # one of -0.0; a row drawn as None is a metric the block lacks
        drawn = [
            None if rng.random() < 0.15
            else [rng.uniform(0, 1e6) for _ in range(rng.randrange(1, 60))]
            for _ in range(rng.randrange(1, 13))
        ] + [[-0.0] * rng.randrange(1, 30)]
        metrics = rng.sample(ALL_METRICS, len(drawn))
        held = series_block({m: r for m, r in zip(metrics, drawn) if r is not None}, tau=2)
        block, lengths = downsample_block(held, tuple(metrics), 2 * width)
        # width 1 leaves a series as it is
        want = [
            [] if r is None else r if width == 1
            else [_left_sum(r[i:i + width]) / len(r[i:i + width]) for i in range(0, len(r), width)]
            for r in drawn
        ]
        assert lengths.tolist() == [len(w) for w in want]
        assert block.shape == (len(drawn), max(lengths))
        for row, w, n in zip(block.tolist(), want, lengths.tolist()):
            # float.hex tells -0.0 from 0.0, which == does not
            assert [v.hex() for v in row[:n]] == [v.hex() for v in w]
            assert row[n:] == [0.0] * (len(row) - n)


def _downsample_block_before(values, interval, target_tau):
    """downsample_block as it was before its accumulate rewrite, kept
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


def _or_domain_error(fn, *args):
    try:
        return fn(*args)
    except DomainError:
        return DomainError


def test_downsample_block_matches_its_loop_oracle_bit_for_bit():
    """Widths 1-12, so windows of 8 or more members, which numpy's reduce
    would add pairwise; n that fills whole windows exactly and n that leaves
    a partial one; window sums of -0.0, and window sums past the domain bound
    B of samples within it; no rows at all. Each block is read for its own
    metrics, which a uniform block averages as one view, and for a subset,
    the reverse order and metrics it lacks, which go per length."""
    rng = np.random.default_rng(43)
    for trial in range(1000):
        width, M = int(rng.integers(1, 13)), int(rng.integers(0, 14))
        if trial % 2:  # any n, so trailing partial windows too
            n = int(rng.integers(0, 40))
        else:  # whole windows only
            n = width * int(rng.integers(0, 6))
        kind = trial % 5
        if kind == 0:  # every row present and of one length
            rows = [rng.uniform(-1e3, 1e3, n) for _ in range(M)]
        elif kind == 1:  # ragged
            rows = [rng.uniform(-1e3, 1e3, int(rng.integers(0, 40))) for _ in range(M)]
        elif kind == 2:  # one length, some rows absent
            rows = [None if rng.random() < 0.3 else rng.uniform(0, 1e6, n) for _ in range(M)]
        elif kind == 3:  # one length, windows of -0.0 and of mixed-sign zeros
            rows = [rng.choice([-0.0, 0.0] if m % 2 else [-0.0], n) for m in range(M)]
        else:  # one length, one row of samples near B, whose window sums pass it
            rows = [rng.uniform(-1e3, 1e3, n) for _ in range(M)]
            if M:
                rows[int(rng.integers(0, M))] = rng.uniform(0.5 * B, B, n)
        # a block has no empty rows: a row of no samples is a metric it lacks
        by_metric = {
            ALL_METRICS[i]: r for i, r in zip(rng.permutation(13)[:M].tolist(), rows)
            if r is not None and len(r)
        }
        tau = int(rng.integers(1, 4))
        held = series_block(by_metric, tau)
        mixed = [m for m in ALL_METRICS if m not in by_metric][:2] + list(held.metrics)
        for metrics in (
            held.metrics,
            held.metrics[int(rng.integers(0, 2))::2],
            held.metrics[::-1],
            tuple(mixed[i] for i in rng.permutation(len(mixed))),
        ):
            want = _or_domain_error(
                _downsample_block_before, [by_metric.get(m) for m in metrics], tau, tau * width)
            got = _or_domain_error(downsample_block, held, metrics, tau * width)
            if want is DomainError:
                assert got is DomainError, trial
                continue
            assert got[0].shape == want[0].shape and got[0].tobytes() == want[0].tobytes(), trial
            assert got[1].tobytes() == want[1].tobytes(), trial


def test_downsample_is_one_row_of_the_block():
    values = [random.Random(37).uniform(0, 50) for _ in range(41)]
    out = downsample(_series(values), 9)
    block, lengths = downsample_block(_series(values), (MetricKind.utime,), 9)
    assert out.samples.tolist() == block[0].tolist()
    assert out.lengths == (5,) and lengths.tolist() == [5]


def test_downsample_of_a_ragged_block_is_downsample_block_row_by_row():
    rng = random.Random(41)
    rows = {m: [rng.uniform(-50, 50) for _ in range(n)]
            for m, n in ((MetricKind.vmRSS, 17), (MetricKind.utime, 3), (MetricKind.rchar, 12))}
    s = series_block(rows, tau=2)
    out = downsample(s, 10)
    block, lengths = downsample_block(s, s.metrics, 10)
    assert (out.tau, out.metrics, out.lengths) == (10, s.metrics, (4, 1, 3))
    assert lengths.tolist() == [4, 1, 3]
    for m, row, n in zip(rows, block, lengths.tolist()):
        assert out.row(m).tobytes() == row[:n].tobytes()


def test_window_means_at_b_are_finite_and_a_sample_past_b_is_refused_where_it_enters():
    """Samples of B sum past B but far below the float64 maximum: their mean is
    B, and no sum warns (warnings are errors in the pytest configuration). A
    sample past B never reaches a window sum: the series or block that would
    hold it is refused, naming its metric and B."""
    held = series_block({MetricKind.utime: [1.0, 2.0], MetricKind.stime: [B, B]})
    block, _ = downsample_block(held, held.metrics, 2)
    assert block.tolist() == [[1.5], [B]]
    assert downsample(_series([B, B, -B, -B]), 2).samples.tolist() == [B, -B]
    with pytest.raises(DomainError, match=r"^utime sample 1e\+308 is outside \[-B, B\], B = 2"):
        _series([1.0, 1e308])
    with pytest.raises(DomainError, match=r"^stime sample 1e\+308 is outside \[-B, B\]"):
        SeriesBlock(1, ["utime", "stime"], [1, 2], [1.0, 1e308, 1e308])


def test_downsample_block_rejects_bad_tau_and_takes_no_rows():
    one = _series([1.0], tau=2)
    for metrics in (one.metrics, ()):  # the block's tau, whatever the selection
        with pytest.raises(StoreError, match="^target_tau 3 is not a multiple of interval 2$"):
            downsample_block(one, metrics, 3)
    with pytest.raises(StoreError, match="^target_tau must be >= 1, got 0$"):
        downsample_block(SeriesBlock(1, [], [], []), (), 0)
    block, lengths = downsample_block(one, (), 4)
    assert block.shape == (0, 0) and lengths.tolist() == []
    # a block without series reads as sampled every target_tau
    block, lengths = downsample_block(SeriesBlock(2, [], [], []), (MetricKind.utime,), 3)
    assert block.shape == (1, 0) and lengths.tolist() == [0]
