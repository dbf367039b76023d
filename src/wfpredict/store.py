"""Append-only log of task execution records, plus series downsampling."""

from __future__ import annotations

import dataclasses
import json
import os
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .domain import DomainError, MetricSeries, PreRuntimeFeatures, SeriesBlock, TaskExecutionRecord


class StoreError(ValueError):
    """Malformed monitoring input or log usage error."""


class CorruptLogError(StoreError):
    """An entry of the log could not be decoded, and reading stopped there.

    Complete records before the corruption were already delivered;
    `delivered` carries their count.
    """

    def __init__(self, path, delivered: int, detail: str):
        super().__init__(f"corrupt entry in {path} after {delivered} records: {detail}")
        self.delivered = delivered


# bytes per read of the log, which is never held whole
_CHUNK = 256 * 1024


class RecordLog:
    """Append-only store of TaskExecutionRecords, one record per line.

    A line is a JSON header, a NUL byte and the samples as little-endian
    float64 bytes, then a newline. The header holds the record's features,
    runtime and series block with "nl" in place of samples: the payload
    offsets that held a 0x0A byte, which the payload carries as 0x00, so that
    the terminator is the line's one newline byte. A line without a NUL is
    a corrupt entry. Re-opening a log yields the same records in the same
    order.

    Opening reads nothing, and neither does `extend`; `count` scans the log
    each time it is read. Single writer; a read takes the file's byte size
    when it starts and stops before any line that ends past it, so it never
    observes an append made after it began, its own writer's included.
    """

    def __init__(self, path):
        self.path = Path(path)

    def _spans(self) -> Iterator[Tuple[bytes, int, int]]:
        """Each non-empty line as (buffer, start, end), its newline excluded.

        The log is read _CHUNK bytes at a time, and a line is a span of the
        read that holds it; only a line that spans two reads is joined into
        bytes of its own.
        """
        try:
            fh = open(self.path, "rb")
        except FileNotFoundError:
            return
        with fh:
            left = os.fstat(fh.fileno()).st_size
            head = []  # the pieces of a line that began in an earlier read
            while left > 0:
                chunk = fh.read(min(_CHUNK, left))
                if not chunk:
                    break
                left -= len(chunk)
                pos, end = 0, chunk.find(b"\n")
                while end >= 0:
                    if head:
                        head.append(chunk[pos:end])
                        line = b"".join(head)
                        head = []
                        yield line, 0, len(line)
                    elif end > pos:
                        yield chunk, pos, end
                    pos, end = end + 1, chunk.find(b"\n", end + 1)
                if pos < len(chunk):
                    head.append(chunk[pos:])
            # a last line without a newline is whole only if the file ends there
            if head and not fh.read(1):
                line = b"".join(head)
                yield line, 0, len(line)

    @property
    def count(self) -> int:
        """The log's lines, a torn or undecodable one included; a scan on each read."""
        return sum(1 for _ in self._spans())

    def extend(self, records: Iterable[TaskExecutionRecord]) -> int:
        """Append records in order, returning how many were appended.

        One open, one flush and one fsync per call; records are written as the
        iterable yields them. A non-record raises StoreError, and the records
        before it stay appended. A log that ends in a partial line, as a crash
        mid-write leaves it, raises StoreError before anything is written: a
        record appended to it would join that line and never be read.
        """
        appended = 0
        with open(self.path, "ab+") as fh:
            if fh.tell():
                fh.seek(-1, os.SEEK_END)
                if fh.read(1) != b"\n":
                    raise StoreError(f"{self.path} ends in a partial line; not appending")
            try:
                for record in records:
                    if not isinstance(record, TaskExecutionRecord):
                        raise StoreError(
                            f"expected TaskExecutionRecord, got {type(record).__name__}"
                        )
                    fh.write(_encode(record))
                    appended += 1
            finally:
                fh.flush()
                os.fsync(fh.fileno())
        return appended

    def records(self) -> Iterator[TaskExecutionRecord]:
        """Iterate records in arrival order; raises CorruptLogError at the
        first line that does not decode."""
        delivered = 0
        for buf, start, end in self._spans():
            try:
                rec = _decode(buf, start, end)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                # ValueError covers JSONDecodeError, DomainError, an unknown
                # metric name, a non-numeric field and a payload that is not
                # whole float64s; TypeError a missing or extra feature key;
                # OverflowError an nl offset too large for an int64
                raise CorruptLogError(self.path, delivered, str(exc))
            yield rec
            delivered += 1

    def read_all(self) -> List[TaskExecutionRecord]:
        return list(self.records())


def _encode(record: TaskExecutionRecord) -> bytes:
    """The log line of a record: header, NUL, payload, newline."""
    s = record.series
    raw = s.samples.astype("<f8", copy=False).tobytes()
    header = {
        "features": dataclasses.asdict(record.features),
        "runtime_seconds": record.runtime_seconds,
        "series": {
            "tau": s.tau,
            "metrics": [m.value for m in s.metrics],
            "lengths": list(s.lengths),
            "nl": np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == 0x0A).tolist(),
        },
    }
    return json.dumps(header).encode("ascii") + b"\0" + raw.replace(b"\n", b"\0") + b"\n"


def _decode(buf: bytes, start: int, end: int) -> TaskExecutionRecord:
    """The record of the log line buf[start:end]: a JSON header, a NUL and
    the payload."""
    cut = buf.find(b"\0", start, end)  # the JSON header holds no raw NUL
    if cut < 0:
        raise DomainError("no NUL after a header: not a line of the record log")
    d = json.loads(buf[start:cut])
    sd = d["series"]
    if type(sd) is not dict:
        raise DomainError(f"series must be an object, got {type(sd).__name__}")
    # the one copy of the payload: aligned, writable, and free of the buffer
    raw = np.frombuffer(buf, np.uint8, end - cut - 1, cut + 1).copy()
    nl = sd["nl"]
    if type(nl) is not list or nl and not set(map(type, nl)) <= {int}:
        raise DomainError("nl must be a list of integer offsets")
    if nl:
        at = np.array(nl, dtype=np.int64)
        if not (0 <= nl[0] and nl[-1] < raw.size) or np.count_nonzero(at[1:] <= at[:-1]):
            raise DomainError("nl offsets must increase strictly inside the payload")
        if np.count_nonzero(raw[at]):
            raise DomainError("an nl offset points at a byte that is not 0x00")
        raw[at] = 0x0A
    return TaskExecutionRecord(
        features=PreRuntimeFeatures.from_dict(d["features"]),
        series=SeriesBlock(sd["tau"], sd["metrics"], sd["lengths"], raw.view("<f8")),
        runtime_seconds=d["runtime_seconds"],
    )


def downsample_block(
    values: Sequence[Optional[Sequence[float]]], interval: int, target_tau: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate M series sampled every `interval` seconds to target_tau by
    windowed arithmetic means, all in one block.

    values[m] holds one series' samples, or None for an absent series; an
    (M, n) array of M present series of n samples each is averaged in one
    shot, a list per length. Returns the block (M, T), whose row m holds its
    window means and then zeros, and each row's window count (0 for None); T
    is the largest count. target_tau must be an integer multiple of the
    interval; a trailing partial window is averaged over its actual members.
    A window's samples are added left to right, so each mean is bit for bit
    that of a plain left-to-right sum.
    """
    if target_tau < 1:
        raise StoreError(f"target_tau must be >= 1, got {target_tau}")
    if target_tau % interval != 0:
        raise StoreError(f"target_tau {target_tau} is not a multiple of interval {interval}")
    width = target_tau // interval
    if isinstance(values, np.ndarray) and len(values):
        block, lengths = _window_means(values, width)
    else:
        # a list of rows: the rows of each length at once, zeros after
        n = np.array([0 if v is None else len(v) for v in values], dtype=np.int64)
        lengths = -(-n // width)
        block = np.zeros((len(values), int(lengths.max(initial=0))))
        for L in set(n.tolist()) - {0}:
            rows = np.flatnonzero(n == L)
            block[rows, :-(-L // width)] = _window_means(
                np.array([values[m] for m in rows], dtype=float), width)[0]
    if not np.isfinite(block).all():
        raise DomainError(f"non-finite window mean at target_tau {target_tau}")
    return block, lengths


def _window_means(values: np.ndarray, width: int) -> Tuple[np.ndarray, np.ndarray]:
    """downsample_block of M present series of n samples each, an (M, n)
    array: no zero padding, the full windows summed by one accumulate over
    the window axis, and a trailing partial window on its own."""
    M, n = values.shape
    full, rest = divmod(n, width)
    T = full + (rest > 0)
    if width == 1:
        return np.array(values, dtype=float), np.full(M, T, dtype=np.int64)
    block = np.empty((M, T))
    with np.errstate(over="ignore"):
        # accumulate adds the members strictly in order, as a left-to-right
        # sum does; reduce would add 8 or more of them pairwise
        windows = values[:, :n - rest].reshape(M, full, width).transpose(2, 0, 1)
        block[:, :full] = np.add.accumulate(windows)[-1]
        den = width
        if rest:
            block[:, full] = np.add.accumulate(values[:, full * width:], axis=1)[:, -1]
            den = np.full(T, float(width))
            den[full] = rest
        block += 0.0  # an all -0.0 window's sum is sum()'s 0.0
        block /= den
    return block, np.full(M, T, dtype=np.int64)


def downsample(s: MetricSeries, target_tau: int) -> MetricSeries:
    """Aggregate a series to a coarser interval by windowed arithmetic means.

    The one-row case of downsample_block; returns s itself when target_tau is
    its interval.
    """
    block, _ = downsample_block((s.values,), s.interval_seconds, target_tau)
    if target_tau == s.interval_seconds:
        return s
    return MetricSeries(metric=s.metric, interval_seconds=target_tau, values=block[0].tolist())
