"""Drives the pipeline over a frame source and writes per-frame metrics.

The metrics CSV has one row per frame (frame 0 included) with LF line
endings. Timing wraps the read path only: the query operand, the blocked
score/top-k/softmax (`affinity.affinity`) and the gather readout, not the
usage update. --no-timing zeroes the column so replays diff byte-identically.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .oracle import BookkeepingRow
from .pipeline import ObjectFeatures, Pipeline, PipelineConfig
from .stream import write_lt_snapshot

CSV_FIELDS = [
    "frame_idx", "wm_frames", "wm_elements", "lt_elements",
    "total_elements", "read_duration_ns", "consolidation_flag", "evicted_count",
]


@dataclass(frozen=True)
class MetricsRow:
    frame_idx: int
    wm_frames: int
    wm_elements: int
    lt_elements: int
    read_duration_ns: int
    consolidation_flag: bool
    evicted_count: int

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
            "consolidation_flag": int(self.consolidation_flag),
            "evicted_count": self.evicted_count,
        }


def run_stream(
    frames: Iterable[list[ObjectFeatures]],
    config: PipelineConfig,
    seed: int = 0,
    collect_events: bool = False,
) -> tuple[Pipeline, list[MetricsRow], list[BookkeepingRow]]:
    """Replay frames through a fresh pipeline, collecting one row per frame."""
    frames = iter(frames)
    try:
        first = next(frames)
    except StopIteration:
        raise ValueError("stream has no frames") from None
    pipeline = Pipeline(config, first, seed=seed)
    rows = [
        MetricsRow(
            frame_idx=0,
            wm_frames=pipeline.wm_frames,
            wm_elements=pipeline.wm_elements,
            lt_elements=pipeline.lt_elements,
            read_duration_ns=0,
            consolidation_flag=False,
            evicted_count=0,
        )
    ]
    events = [BookkeepingRow(0, pipeline.wm_frames, pipeline.wm_elements,
                             pipeline.lt_elements, True, False, 0)]
    for frame_idx, features in enumerate(frames, start=1):
        outputs = pipeline.step(features, frame_idx)
        consolidated = any(o.events.consolidated for o in outputs)
        evicted = sum(o.events.evicted_count for o in outputs)
        rows.append(
            MetricsRow(
                frame_idx=frame_idx,
                wm_frames=pipeline.wm_frames,
                wm_elements=pipeline.wm_elements,
                lt_elements=pipeline.lt_elements,
                read_duration_ns=pipeline.last_read_ns,
                consolidation_flag=consolidated,
                evicted_count=evicted,
            )
        )
        if collect_events:
            ev = outputs[0].events
            events.append(
                BookkeepingRow(
                    frame_idx,
                    pipeline.tracks[0].working.frame_count,
                    pipeline.tracks[0].working.element_count,
                    pipeline.tracks[0].long_term.element_count,
                    ev.inserted, ev.consolidated, ev.evicted_count,
                )
            )
    return pipeline, rows, events if collect_events else []


def write_metrics_csv(path: str | Path, rows: Iterable[MetricsRow], no_timing: bool = False) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        for row in rows:
            record = row.as_csv()
            if no_timing:
                record["read_duration_ns"] = 0
            writer.writerow(record)


def run(
    frames: Iterator[list[ObjectFeatures]],
    config: PipelineConfig,
    metrics_path: str | Path,
    seed: int = 0,
    no_timing: bool = False,
    snapshot_path: str | Path | None = None,
) -> int:
    """Full harness pass: replay, write metrics, optionally snapshot. Returns 0."""
    pipeline, rows, _ = run_stream(frames, config, seed=seed)
    write_metrics_csv(metrics_path, rows, no_timing=no_timing)
    if snapshot_path is not None:
        write_lt_snapshot(snapshot_path, pipeline.tracks)
    return 0
