"""Replays frames through a pipeline, one `FrameRecord` per frame.

A record holds the memory counts after the frame and the events it fired.
With several objects, element and eviction counts are summed across the
object tracks, `wm_frames` is their maximum (the schedule is shared) and
`consolidated` is set when any track consolidated. The same record type is
what `oracle.oracle_bookkeeping` simulates, so a replay's event log diffs
directly against the schedule oracle.

The metrics CSV has one row per record (frame 0 included) with LF line
endings. Timing wraps the read path only: the query operand, the blocked
score/top-k/softmax (`affinity.affinity`) and the gather readout, not the
usage update. --no-timing zeroes the column so replays diff byte-identically.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .pipeline import FrameEvents, ObjectFeatures, Pipeline, PipelineConfig

CSV_FIELDS = [
    "frame_idx", "wm_frames", "wm_elements", "lt_elements",
    "total_elements", "read_duration_ns", "consolidation_flag", "evicted_count",
]


@dataclass(frozen=True)
class FrameRecord:
    """Counters after one frame: store sizes plus the events that fired."""

    frame_idx: int
    wm_frames: int
    wm_elements: int
    lt_elements: int
    inserted: bool
    consolidated: bool
    evicted_count: int
    read_duration_ns: int = 0

    @property
    def total_elements(self) -> int:
        return self.wm_elements + self.lt_elements

    def as_csv(self) -> dict:
        return {
            "frame_idx": self.frame_idx,
            "wm_frames": self.wm_frames,
            "wm_elements": self.wm_elements,
            "lt_elements": self.lt_elements,
            "total_elements": self.total_elements,
            "read_duration_ns": self.read_duration_ns,
            "consolidation_flag": int(self.consolidated),
            "evicted_count": self.evicted_count,
        }


def _record(pipeline: Pipeline, frame_idx: int, events: list[FrameEvents]) -> FrameRecord:
    tracks = pipeline.tracks
    return FrameRecord(
        frame_idx=frame_idx,
        wm_frames=max(t.working.frame_count for t in tracks),
        wm_elements=sum(t.working.element_count for t in tracks),
        lt_elements=sum(t.long_term.element_count for t in tracks),
        inserted=any(e.inserted for e in events),
        consolidated=any(e.consolidated for e in events),
        evicted_count=sum(e.evicted_count for e in events),
        read_duration_ns=pipeline.last_read_ns,
    )


def run_stream(
    frames: Iterable[list[ObjectFeatures]],
    config: PipelineConfig,
    seed: int = 0,
) -> tuple[Pipeline, list[FrameRecord]]:
    """Replay frames through a fresh pipeline, one record per frame.

    Frame 0 seeds every track's working memory, so its record counts as an
    insertion with no read.
    """
    frames = iter(frames)
    try:
        first = next(frames)
    except StopIteration:
        raise ValueError("stream has no frames") from None
    pipeline = Pipeline(config, first, seed=seed)
    records = [_record(pipeline, 0, [FrameEvents(True, False, 0)])]
    for frame_idx, features in enumerate(frames, start=1):
        outputs = pipeline.step(features, frame_idx)
        records.append(_record(pipeline, frame_idx, [o.events for o in outputs]))
    return pipeline, records


def write_metrics_csv(path: str | Path, records: Iterable[FrameRecord], no_timing: bool = False) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for record in records:
            row = record.as_csv()
            if no_timing:
                row["read_duration_ns"] = 0
            writer.writerow(row)
