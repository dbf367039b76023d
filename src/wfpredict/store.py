"""Append-only JSONL log of task execution records, plus series downsampling."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .domain import DomainError, MetricSeries, TaskExecutionRecord


class StoreError(ValueError):
    """Malformed monitoring input or log usage error."""


class CorruptLogError(StoreError):
    """Trailing entry of the log could not be decoded.

    Complete records before the corruption were already delivered;
    `delivered` carries their count.
    """

    def __init__(self, path, delivered: int, detail: str):
        super().__init__(f"corrupt trailing entry in {path} after {delivered} records: {detail}")
        self.delivered = delivered


class RecordLog:
    """Append-only store of TaskExecutionRecords, one JSON object per line.

    Re-opening a log yields the same records in the same order. Single
    writer; replay snapshots the current length and never observes a
    partial append.
    """

    def __init__(self, path):
        self.path = Path(path)
        self._count = sum(1 for _ in self._raw_lines()) if self.path.exists() else 0

    def _raw_lines(self) -> Iterator[str]:
        with open(self.path, "r", encoding="utf-8") as fh:
            for line in fh:
                line = line.rstrip("\n")
                if line:
                    yield line

    @property
    def count(self) -> int:
        return self._count

    def ingest(self, record: TaskExecutionRecord) -> int:
        """Append a record, returning its strictly increasing sequence number."""
        return self.extend([record])[0]

    def extend(self, records: Iterable[TaskExecutionRecord]) -> List[int]:
        """Append records in order, returning their sequence numbers.

        One open, one flush and one fsync per call; records are written as the
        iterable yields them. A non-record raises StoreError, and the records
        before it stay appended.
        """
        start = self._count
        with open(self.path, "a", encoding="utf-8") as fh:
            try:
                for record in records:
                    if not isinstance(record, TaskExecutionRecord):
                        raise StoreError(
                            f"expected TaskExecutionRecord, got {type(record).__name__}"
                        )
                    fh.write(json.dumps(record.to_dict()) + "\n")
                    self._count += 1
            finally:
                fh.flush()
                os.fsync(fh.fileno())
        return list(range(start, self._count))

    def records(self) -> Iterator[TaskExecutionRecord]:
        """Iterate records in arrival order; raises CorruptLogError on a bad tail."""
        if not self.path.exists():
            return
        delivered = 0
        snapshot = self._count
        for line in self._raw_lines():
            if delivered >= snapshot:
                break
            try:
                obj = json.loads(line)
                rec = TaskExecutionRecord.from_dict(obj)
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                # ValueError covers JSONDecodeError, DomainError, a bad base64
                # character, an unknown metric name and a non-numeric field;
                # OverflowError an Infinity where an integer belongs
                raise CorruptLogError(self.path, delivered, str(exc))
            yield rec
            delivered += 1

    def read_all(self) -> List[TaskExecutionRecord]:
        return list(self.records())


def downsample_block(
    values: Sequence[Optional[Sequence[float]]], interval: int, target_tau: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate M series sampled every `interval` seconds to target_tau by
    windowed arithmetic means, all in one block.

    values[m] holds one series' samples, or None for an absent series. Returns
    the block (M, T), whose row m holds its window means and then zeros, and
    each row's window count (0 for None); T is the largest count. target_tau
    must be an integer multiple of the interval; a trailing partial window is
    averaged over its actual members. A window's samples are added left to
    right, so each mean is bit for bit that of a plain left-to-right sum.
    """
    if target_tau < 1:
        raise StoreError(f"target_tau must be >= 1, got {target_tau}")
    if target_tau % interval != 0:
        raise StoreError(f"target_tau {target_tau} is not a multiple of interval {interval}")
    width = target_tau // interval
    n = np.array([0 if v is None else len(v) for v in values], dtype=np.int64)
    lengths = -(-n // width)
    T = int(lengths.max(initial=0))
    block = np.zeros((len(values), T * width))
    if n.size and n[0] > 0 and (n == n[0]).all():
        # every row present and of one length, the usual case: one assignment
        block[:, :n[0]] = values
    else:
        for m, v in enumerate(values):
            if v is not None:
                block[m, :len(v)] = v
    if width > 1:
        # cumsum adds along the window left to right, as sum() does, where
        # sum(axis) adds pairwise; + 0.0 gives an all -0.0 window sum()'s 0.0
        members = n[:, None] - width * np.arange(T)
        np.minimum(members, width, out=members)
        np.maximum(members, 1, out=members)
        with np.errstate(over="ignore"):
            sums = np.cumsum(block.reshape(len(values), T, width), axis=2)[:, :, -1] + 0.0
            block = sums / members
    if not np.all(np.isfinite(block)):
        raise DomainError(f"non-finite window mean at target_tau {target_tau}")
    return block, lengths


def downsample(s: MetricSeries, target_tau: int) -> MetricSeries:
    """Aggregate a series to a coarser interval by windowed arithmetic means.

    The one-row case of downsample_block; returns s itself when target_tau is
    its interval.
    """
    block, _ = downsample_block((s.values,), s.interval_seconds, target_tau)
    if target_tau == s.interval_seconds:
        return s
    return MetricSeries(metric=s.metric, interval_seconds=target_tau, values=block[0].tolist())
