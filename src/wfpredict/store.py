"""Append-only log of task execution records, plus series downsampling."""

from __future__ import annotations

import binascii
import os
import struct
from binascii import a2b_base64, b2a_base64
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .domain import (
    ALL_METRICS, DomainError, PreRuntimeFeatures, SeriesBlock, TaskExecutionRecord,
)


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


# the log's read buffer: at the default size, a line of the standard corpus
# took 1.2 times as long to read and 4 times as long to count
_CHUNK = 256 * 1024


class RecordLog:
    """Append-only store of TaskExecutionRecords, one record per line.

    A line is a packed header in base64, a NUL byte and the samples as
    little-endian float64 bytes, then a newline. The header holds the
    record's features, runtime and series block (see _FIXED), with the nl
    offsets in place of samples: the payload offsets that held a 0x0A byte,
    which the payload carries as 0x00, so that the terminator is the line's
    one newline byte. A line that does not open with a header of this layout
    is a corrupt entry. Re-opening a log yields the same records in the same
    order.

    Opening reads nothing, and neither does `extend`, which creates the log;
    `count` scans it each time it is read. A read of a log that does not exist
    raises FileNotFoundError. Single writer; a read takes the file's byte size
    when it starts and stops before any line that ends past it, so it never
    observes an append made after it began, its own writer's included.
    """

    def __init__(self, path):
        self.path = Path(path)

    def _spans(self) -> Iterator[Tuple[bytes, int]]:
        """Each non-empty line as (line, end), its newline excluded, split
        by the file object through a _CHUNK-byte buffer. The first line that
        ends past the byte size taken at the start, as one that an append made
        since completes does, ends the read: so a last line without a newline
        is read only if the file ends there."""
        with open(self.path, "rb", buffering=_CHUNK) as fh:
            left = os.fstat(fh.fileno()).st_size
            for line in fh:
                left -= len(line)
                if left < 0:
                    return
                end = len(line) - line.endswith(b"\n")
                if end:
                    yield line, end

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
        for delivered, (line, end) in enumerate(self._spans()):
            try:
                rec = _decode(line, end)
            except ValueError as exc:
                # DomainError, and a payload that is not whole float64s
                raise CorruptLogError(self.path, delivered, str(exc))
            yield rec

    def read_all(self) -> List[TaskExecutionRecord]:
        return list(self.records())


# A header is its fixed part, then a byte per metric id, a u32 per row
# length and per nl offset, and the UTF-8 bytes of task_name, task_id and
# input_name. The fixed part holds the layout byte, runtime_seconds, vm_vcpus,
# vm_memory, vm_storage, submission_day, submission_hour, tau, the counts of
# metrics and of nl offsets, and each name's byte length; all little-endian.
_FIXED = struct.Struct("<BdQddBBQBIIII")
_LAYOUT = 1
# a metric's id is its position in ALL_METRICS
_METRIC_ID = {m: i for i, m in enumerate(ALL_METRICS)}


@lru_cache(maxsize=64)
def _metrics_of_ids(ids: bytes) -> tuple:
    """The members a header's metric ids name; cached, as the records of a
    log name few distinct lists."""
    try:
        return tuple(map(ALL_METRICS.__getitem__, ids))
    except IndexError:
        raise DomainError(f"unknown metric id in {list(ids)}") from None


def _encode(record: TaskExecutionRecord) -> bytes:
    """The log line of a record: the base64 header, a NUL, the payload and a
    newline; StoreError if a value does not fit its field."""
    f, s = record.features, record.series
    raw = s.samples.astype("<f8", copy=False).tobytes()
    nl = np.flatnonzero(np.frombuffer(raw, dtype=np.uint8) == 0x0A).tolist()
    try:
        names = [f.task_name.encode(), f.task_id.encode(), f.input_name.encode()]
        header = b"".join((
            _FIXED.pack(
                _LAYOUT, record.runtime_seconds, f.vm_vcpus, f.vm_memory, f.vm_storage,
                f.submission_day, f.submission_hour, s.tau, len(s.metrics), len(nl),
                *map(len, names)),
            bytes(map(_METRIC_ID.__getitem__, s.metrics)),
            struct.pack(f"<{len(s.lengths) + len(nl)}I", *s.lengths, *nl),
            *names,
        ))
    except (struct.error, UnicodeEncodeError) as exc:  # past a width; a lone surrogate
        raise StoreError(f"record does not fit the log layout: {exc}") from None
    return b2a_base64(header, newline=False) + b"\0" + raw.replace(b"\n", b"\0") + b"\n"


def _decode(line: bytes, end: int) -> TaskExecutionRecord:
    """The record of the log line line[:end]: a base64 header, a NUL and
    the payload."""
    cut = line.find(b"\0", 0, end)  # base64 holds no NUL
    if cut < 0:
        raise DomainError("no NUL after a header: not a line of the record log")
    try:
        h = a2b_base64(line[:cut], strict_mode=True)
    except binascii.Error as exc:
        raise DomainError(f"header is not base64: {exc}") from None
    # strict mode leaves the unused bits of a padded last group unchecked
    tail = len(h) % 3
    if tail and b2a_base64(h[-tail:], newline=False) != line[cut - 4:cut]:
        raise DomainError("header is not base64: its padding bits are set")
    if len(h) < _FIXED.size or h[0] != _LAYOUT:
        raise DomainError(f"not a header of layout {_LAYOUT}: {len(h)} bytes from {h[:1]!r}")
    _, runtime, vcpus, memory, storage, day, hour, tau, m, n, a, b, c = _FIXED.unpack_from(h)
    ids = _FIXED.size
    nl_at = ids + 5 * m  # after the ids and the lengths
    names_at = nl_at + 4 * n
    if len(h) != names_at + a + b + c:
        raise DomainError(
            f"a header of {len(h)} bytes, where its counts make {names_at + a + b + c}")
    # the payload, copied once into bytes of its own so the samples hold no
    # header bytes alive; writable only where newlines are put back
    payload = bytearray(memoryview(line)[cut + 1:end]) if n else line[cut + 1:end]
    if n:
        raw = np.frombuffer(payload, np.uint8)
        nl = np.frombuffer(h, "<u4", n, nl_at)
        if nl[-1] >= raw.size or np.count_nonzero(nl[1:] <= nl[:-1]):
            raise DomainError("nl offsets must increase strictly inside the payload")
        if np.count_nonzero(raw[nl]):
            raise DomainError("an nl offset points at a byte that is not 0x00")
        raw[nl] = 0x0A
    a += names_at
    b += a
    try:
        task_name, task_id, input_name = h[names_at:a].decode(), h[a:b].decode(), h[b:].decode()
    except UnicodeDecodeError as exc:
        raise DomainError(f"a name is not UTF-8: {exc}") from None
    return TaskExecutionRecord(
        PreRuntimeFeatures(task_name, task_id, input_name, vcpus, memory, storage, day, hour),
        SeriesBlock(tau, _metrics_of_ids(h[ids:ids + m]), struct.unpack_from(f"<{m}I", h, ids + m),
                    np.frombuffer(payload, "<f8")),
        runtime,
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
    that of a plain left-to-right sum. Samples within [-B, B] (domain.B), as
    a SeriesBlock holds them, have finite sums and means.
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


def downsample(s: SeriesBlock, target_tau: int) -> SeriesBlock:
    """The block of s's series at target_tau, each row's window means as
    downsample_block gives them; s itself when target_tau is its tau."""
    if target_tau == s.tau:
        return s
    block, lengths = downsample_block([s.row(m) for m in s.metrics], s.tau, target_tau)
    held = np.arange(block.shape[1]) < lengths[:, None]
    return SeriesBlock(target_tau, s.metrics, lengths.tolist(), block[held])
