"""The benchmark's workloads: engine configuration, stream geometry, schedule.

Each workload is a frozen description; the replay derives everything else
(warm-up length, cycle length, stream length) from it through the engine's
own schedule oracle, so nothing here is tuned to a measured speed except the
two cycle counts, which size the stream and the traced run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from xmem import PipelineConfig
from xmem.oracle import oracle_bookkeeping
from xmem.stream import StreamHeader

# how far the synthetic stream's features move from one frame to the next
DRIFT = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    h: int
    w: int
    c_k: int
    c_v: int
    c_h: int
    r: int
    t_min: int
    t_max: int
    p: int
    top_k: int
    l_max: int
    # steady state begins after the first frame that "consolidated" or
    # "evicted"; the timed window starts on the frame after it
    warm_until: str
    # consolidation cycles the stream holds past warm-up; the timed window
    # ends early when the stream runs out
    stream_cycles: int
    # cycles in the window of a --trace 1 run, whose odd frames are traced
    trace_cycles: int
    # frames before the first consolidation that get a float64 reference read
    reference_frames: int

    def header(self, frame_count: int) -> StreamHeader:
        return StreamHeader(
            c_k=self.c_k, c_v=self.c_v, c_in=self.c_h, h=self.h, w=self.w,
            frame_count=frame_count, object_count=1,
        )

    def config(self, header: StreamHeader) -> PipelineConfig:
        """The engine configuration a user would build from the stream header."""
        return PipelineConfig(
            dims=header.dims(c_h=self.c_h), r=self.r, t_min=self.t_min,
            t_max=self.t_max, p=self.p, top_k=self.top_k, l_max=self.l_max,
        )

    @property
    def cycle(self) -> int:
        """Frames between two consolidations."""
        return self.r * (self.t_max - self.t_min)

    def schedule(self) -> tuple[int, int, int]:
        """(first consolidation frame, last warm-up frame, stream frame count)."""
        config = self.config(self.header(1))
        n = 4 * self.t_max * self.r
        while True:
            rows = oracle_bookkeeping(config, n)
            first = next((row.frame_idx for row in rows if row.consolidated), None)
            if self.warm_until == "consolidated":
                warm = first
            else:
                warm = next((row.frame_idx for row in rows if row.evicted_count), None)
            if warm is not None:
                break
            n *= 2
        cycles = max(self.stream_cycles, self.trace_cycles)
        return first, warm, warm + 1 + cycles * self.cycle

    def small(self) -> "Workload":
        """The same schedule shape on a tiny geometry, for the smoke tests."""
        return replace(
            self, h=4, w=4, c_k=8, c_v=16, c_h=4, p=8, l_max=min(self.l_max, 48),
            stream_cycles=4, trace_cycles=4,
        )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="full-read",
            why="the paper's geometry: the read path (similarity, top-k, readout) "
            "over 8k-16k memory columns is nearly all of the frame time",
            h=30, w=54, c_k=64, c_v=512, c_h=64,
            r=5, t_min=5, t_max=10, p=128, top_k=30, l_max=10_000,
            warm_until="consolidated",
            stream_cycles=3, trace_cycles=2, reference_frames=3,
        ),
        Workload(
            name="lt-churn",
            why="write-heavy: a full long-term store, an insertion every frame and "
            "a consolidation with eviction every fifth, on a small 8x8 grid",
            h=8, w=8, c_k=64, c_v=512, c_h=64,
            r=1, t_min=5, t_max=10, p=128, top_k=30, l_max=10_000,
            warm_until="evicted",
            stream_cycles=160, trace_cycles=80, reference_frames=8,
        ),
    )
}
