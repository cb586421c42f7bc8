"""Layer spans recorded from outside the engine.

A `Tracer` replaces each layer's public function, under the name the calling
module looks it up by, with a wrapper that records a span: name, start, end,
parent span and frame id. Spans stay in memory until the run ends. A name the
engine no longer has (after a rename, say) is reported as absent; its metrics
then read zero calls instead of the run failing.

The read calls additionally run under `tracemalloc`, started at the first
read call of a frame and stopped when the frame span closes, so the recorded
peak is what the read path allocated on top of the stores.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

# (span name, module the caller looks the name up in, attribute path)
LAYERS = (
    ("stream.read_header", "xmem.stream", "read_header"),
    ("pipeline.step", "xmem.pipeline", "Pipeline.step"),
    ("working_memory.gather", "xmem.working_memory", "WorkingMemory.concatenated_keys"),
    ("working_memory.gather", "xmem.working_memory", "WorkingMemory.concatenated_values"),
    ("working_memory.gather", "xmem.working_memory", "WorkingMemory.concatenated_shrinkage"),
    ("affinity.similarity", "xmem.pipeline", "similarity"),
    ("affinity.topk_softmax", "xmem.pipeline", "affinity"),
    ("affinity.readout", "xmem.pipeline", "readout"),
    ("affinity.usage_mass", "xmem.pipeline", "usage_mass"),
    ("working_memory.usage", "xmem.working_memory", "WorkingMemory.accumulate_usage"),
    ("long_term_memory.usage", "xmem.long_term_memory", "LongTermMemory.accumulate_usage"),
    ("working_memory.split", "xmem.working_memory", "WorkingMemory.split_for_consolidation"),
    ("long_term_memory.select", "xmem.pipeline", "select_prototypes"),
    ("long_term_memory.potentiate", "xmem.pipeline", "potentiate"),
    ("long_term_memory.potentiate.similarity", "xmem.long_term_memory", "similarity"),
    ("long_term_memory.potentiate.affinity", "xmem.long_term_memory", "affinity"),
    ("long_term_memory.commit", "xmem.long_term_memory", "LongTermMemory.commit"),
    ("sensory.gru_step", "xmem.pipeline", "gru_step"),
    ("sensory.deep_update", "xmem.pipeline", "deep_update"),
)
READ_SPANS = frozenset(
    ("affinity.similarity", "affinity.topk_softmax", "affinity.readout", "affinity.usage_mass")
)
# spans the replay loop opens itself; every other span nests under one
ROOTS = ("setup", "frame")
FRAME_READ = "stream.frame_read"
# how each span appears in the metric names: pipeline.step is reported as
# its self time, the time not covered by any wrapped child
METRIC_STEM = {"pipeline.step": "pipeline.step_self"}


def _resolve(module: str, attr: str):
    """(owner object, attribute name) for a dotted attribute, or None."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, leaf) if hasattr(owner, leaf) else None


class Tracer:
    """Records nested spans; `install` swaps the wrappers in, `uninstall` out."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, frame]
        self.read_peaks: list[int] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._frame = -1
        self._read_peak = 0
        self._patches = []
        for name, module, attr in LAYERS:
            target = _resolve(module, attr)
            if target is None:
                self.absent.append(f"{name} ({module}.{attr})")
                continue
            owner, leaf = target
            original = getattr(owner, leaf)
            self._patches.append((owner, leaf, original, self._wrap(name, original)))

    # -- recording ---------------------------------------------------------

    def begin(self, name: str, frame: int | None = None) -> int:
        if frame is not None:
            self._frame = frame
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._frame])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self._stack.pop()
        if not self._stack and tracemalloc.is_tracing():
            tracemalloc.stop()
            self.read_peaks.append(self._read_peak)
            self._read_peak = 0

    @contextlib.contextmanager
    def span(self, name: str, frame: int | None = None):
        index = self.begin(name, frame)
        try:
            yield
        finally:
            self.end(index)

    def _wrap(self, name: str, fn):
        tracer = self
        if name in READ_SPANS:
            def wrapper(*args, **kwargs):
                if not tracemalloc.is_tracing():
                    tracemalloc.start()
                index = tracer.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(index)
                    tracer._read_peak = max(tracer._read_peak, tracemalloc.get_traced_memory()[1])
        else:
            def wrapper(*args, **kwargs):
                index = tracer.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(index)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner, leaf, _, wrapper in self._patches:
            setattr(owner, leaf, wrapper)

    def uninstall(self) -> None:
        for owner, leaf, original, _ in self._patches:
            setattr(owner, leaf, original)

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(self time ns, root index) per span; self = duration - direct children."""
        n = len(self.spans)
        duration = np.array([s[2] - s[1] for s in self.spans], dtype=np.int64)
        own = duration.copy()
        root = np.arange(n)
        for i, span in enumerate(self.spans):
            parent = span[3]
            if parent >= 0:
                own[parent] -= duration[i]
                root[i] = root[parent]
        return own, root

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """calls, p50, p90 (self ms per call) and share of root time per span."""
        own, root = self.self_times()
        names = [s[0] for s in self.spans]
        root_total = {kind: 0 for kind in ROOTS}
        for i, name in enumerate(names):
            if name in root_total:
                root_total[name] += self.spans[i][2] - self.spans[i][1]
        out: dict[str, tuple[float, str]] = {}
        for name in dict.fromkeys([FRAME_READ] + [name for name, _, _ in LAYERS]):
            idx = [i for i, n in enumerate(names) if n == name]
            stem = METRIC_STEM.get(name, name) + "_ms"
            ms = own[idx] / 1e6 if idx else np.zeros(1)
            base = root_total.get(names[root[idx[0]]], 0) if idx else 0
            out[stem] = (float(np.percentile(ms, 50)), "ms")
            out[stem + ".p90"] = (float(np.percentile(ms, 90)), "ms")
            out[stem + ".calls"] = (len(idx), "count")
            out[stem + ".share_pct"] = (100.0 * float(own[idx].sum()) / base if base else 0.0, "%")
        peak = max(self.read_peaks, default=0)
        out["affinity.read_alloc_peak_mb"] = (peak / 2**20, "MB")
        out["trace.absent_spans"] = (len(self.absent), "count")
        return out

    def write(self, path: Path) -> None:
        own, _ = self.self_times()
        with open(path, "w") as f:
            for span, self_ns in zip(self.spans, own.tolist()):
                name, start, end, parent, frame = span
                f.write(json.dumps({
                    "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "frame": frame, "self_ns": self_ns,
                }) + "\n")
