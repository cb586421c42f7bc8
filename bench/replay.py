"""Closed-loop replay of one workload through the public engine API.

One caller, one process: the next frame is read from `stream.iter_frames`
only when `Pipeline.step` has returned. A frame's time is that one `next()`
plus that one `step`. Output checks run after the clock has stopped.

Phases, by frame index (all derived from the schedule oracle, never from
measured speed):

- warm-up, up to and including the workload's first consolidation (or first
  eviction), untimed;
- a timed window of whole consolidation cycles. With `trace=False` it closes
  at the first cycle end after `seconds` of frame time, or at the end of the
  stream. With `trace=True` it is `trace_cycles` cycles, so the run replays
  a fixed set of frames and its counts repeat exactly; odd frames are traced
  and even frames are not, so drift in machine speed, which on a shared host
  spans seconds, falls on both halves alike and their ratio is the tracing
  overhead.
"""

from __future__ import annotations

import contextlib
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from xmem import Pipeline, stream

from checks import FrameChecker
from spans import FRAME_READ, Tracer
from workloads import DRIFT

# the engine's weights (GRU cells, probe) are fixed like a trained model's; the
# workload seed reaches the engine only through the generated stream
PIPELINE_SEED = 0
# set-ups per run; setup_s is their median
SETUP_REPEATS = 15


# the engine's stores keep keys, values and shrinkage in float32 and usage in
# float64, one column (or entry) of each per element
def _bytes_per_element(c_k: int, c_v: int) -> int:
    return 4 * (c_k + c_v + 1) + 8


@dataclass
class Replay:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    window_ns: list[int] = field(default_factory=list)
    traced_ns: list[int] = field(default_factory=list)
    wm_peak: int = 0
    lt_peak: int = 0
    store_peak: int = 0
    consolidations: int = 0
    evicted: int = 0
    compression: list[float] = field(default_factory=list)
    bytes_per_element: int = 0
    reference_skipped_share: float = 0.0
    tracer: Tracer | None = None

    def frame_metrics(self, ns: list[int]) -> dict[str, float]:
        ms = np.asarray(ns, dtype=np.float64) / 1e6
        return {
            "frames_per_s": len(ms) / (ms.sum() / 1e3),
            "frame_ms_p50": float(np.percentile(ms, 50)),
            "frame_ms_p90": float(np.percentile(ms, 90)),
        }

    def end_to_end(self) -> dict[str, tuple[float, str]]:
        m = self.frame_metrics(self.window_ns)
        return {
            "frames_per_s": (m["frames_per_s"], "1/s"),
            "frame_ms_p50": (m["frame_ms_p50"], "ms"),
            "frame_ms_p90": (m["frame_ms_p90"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (statistics.median(self.setup_s), "s"),
        }

    def trace_rates(self) -> tuple[float, float]:
        """frames_per_s of the untraced and of the traced frames of a traced run."""
        return (self.frame_metrics(self.window_ns)["frames_per_s"],
                self.frame_metrics(self.traced_ns)["frames_per_s"])

    def per_layer(self) -> dict[str, tuple[float, str]]:
        out = self.tracer.layer_metrics()
        untraced, traced = self.trace_rates()
        out.update({
            "trace.overhead_pct": (100.0 * (untraced / traced - 1.0), "%"),
            "working_memory.elements_peak": (self.wm_peak, "count"),
            "long_term_memory.elements_peak": (self.lt_peak, "count"),
            "store.bytes_peak": (self.store_peak * self.bytes_per_element, "B"),
            "long_term_memory.consolidations": (self.consolidations, "count"),
            "long_term_memory.evicted_total": (self.evicted, "count"),
            "long_term_memory.compression_ratio": (
                statistics.fmean(self.compression) if self.compression else 0.0, "ratio"),
            "check.reference_skipped_share": (self.reference_skipped_share, "share"),
        })
        return out


def setup(path: Path, workload):
    """Open the stream, read its header, build the pipeline from frame 0."""
    t0 = time.perf_counter()
    frames = stream.iter_frames(path)
    header = stream.read_header(path)
    pipeline = Pipeline(workload.config(header), next(frames), seed=PIPELINE_SEED)
    return time.perf_counter() - t0, frames, pipeline, header


def replay(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> Replay:
    """Generate the workload's stream from `seed` into `workdir` and replay it."""
    first_consolidation, warm_end, frame_count = workload.schedule()
    path = workdir / f"{workload.name}-{seed}.xmfs"
    result = Replay(bytes_per_element=_bytes_per_element(workload.c_k, workload.c_v))
    tracer = result.tracer = Tracer() if trace else None
    frames = None
    try:
        stream.generate_synthetic(path, seed, workload.header(frame_count), DRIFT)
        span = tracer.span if tracer else _no_span
        if tracer:
            tracer.install()
        for _ in range(SETUP_REPEATS):
            if frames is not None:
                frames.close()
            with span("setup"):
                elapsed, frames, pipeline, header = setup(path, workload)
            result.setup_s.append(elapsed)
        if tracer:
            tracer.uninstall()

        checker = FrameChecker(workload, header, pipeline.config, path, first_consolidation)
        expected = checker.expected
        cycles = 0
        for idx in range(1, frame_count):
            timed = idx > warm_end
            traced = trace and timed and idx % 2 == 1
            span = tracer.span if traced else _no_span
            if traced:
                tracer.install()
            outputs = None
            with span("frame", idx):
                t0 = time.perf_counter_ns()
                with span(FRAME_READ):
                    features = next(frames)
                try:
                    outputs = pipeline.step(features, idx)
                except Exception:
                    result.failures.append(f"frame {idx}: {traceback.format_exc(limit=3)}")
                t1 = time.perf_counter_ns()
            if traced:
                tracer.uninstall()
            result.attempted += 1
            if outputs is None:
                result.failed += 1
            else:
                _count(result, pipeline, outputs)
                reasons = checker.check(pipeline, idx, outputs)
                if reasons:
                    result.failed += 1
                    result.failures.append(f"frame {idx}: " + "; ".join(reasons))
            if not timed:
                continue
            (result.traced_ns if traced else result.window_ns).append(t1 - t0)
            if expected[idx].consolidated:
                cycles += 1
                if trace:
                    if cycles == workload.trace_cycles:
                        break
                elif sum(result.window_ns) >= seconds * 1e9:
                    break
        result.reference_skipped_share = checker.skipped_share
    finally:
        if frames is not None:
            frames.close()
        if tracer:
            tracer.uninstall()
        path.unlink(missing_ok=True)
    if result.failures:
        print(f"{len(result.failures)} failure(s); first: {result.failures[0]}", file=sys.stderr)
    return result


def _no_span(*args):
    return contextlib.nullcontext()


def _count(result: Replay, pipeline, outputs) -> None:
    track = pipeline.tracks[0]
    result.wm_peak = max(result.wm_peak, track.working.element_count)
    result.lt_peak = max(result.lt_peak, track.long_term.element_count)
    result.store_peak = max(result.store_peak, track.total_elements)
    events = outputs[0].events
    if events.consolidated:
        result.consolidations += 1
        result.evicted += events.evicted_count
        if events.report is not None:
            result.compression.append(events.report.compression_ratio)
