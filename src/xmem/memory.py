"""One element store per object track: long-term prototypes, then working frames.

A track reads a single memory, so it keeps a single buffer: element-major
float32 keys (cap, c_k) and values (cap, c_v), one row per memory element,
float64 usage (cap,), and the similarity's channel-major float32 memory
operand, one column [s*k; s*k*k; s] per element (see
`affinity.memory_operand`), whose last row is the only copy of the
shrinkage. Elements [0, lt) are the long-term prototypes, in no particular
order, and [lt, n) the working-memory frames in insertion order, the
immortal reference frame first. The capacity is the hard bound
t_max*h*w + l_max, so the buffer is allocated once; only the unbounded
comparison mode, which never consolidates, grows it by doubling. The
operand alone starts small and doubles as elements arrive, up to the
capacity. Only `append_frame` and `_move` grow a buffer (`_reserve`);
`commit` writes below the old n. Reads take views of elements [0, n) and
consolidation, once `due`, rewrites them in place. `window_problems`, which
`PipelineConfig` shares, states the window rule.

This module alone knows the layout. Blocks go in channel-major (one column
per element, as everywhere else) and contents come out as read-only
channel-major array views: `blocks` for any range of elements. Operand
columns leave only through `read`, with the raw element-major value rows,
for the read path, and through `candidates`, for potentiation. Every row is
written by `_put`, one way for a slice and for row indices, which derives
its operand column from the key and shrinkage it writes, or moved by
`_move`, which moves its operand column with it, so the operand never goes
stale. Contents are validated once, by the blocks passed to `append_frame`,
and never again: this module builds no block; reads, snapshots and
consolidation take raw views of the buffer; and `commit` stores prototypes
that `potentiate` derived from stored elements.

Single-writer: exactly one pipeline owns and mutates an instance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import memory_operand
from .core_types import (
    CapacityError,
    ConfigError,
    ContractError,
    FeatureDims,
    KeyBlock,
    ShapeError,
    ShrinkageVector,
    ValueBlock,
)
from .long_term_memory import ConsolidationReport, lowest


def window_problems(t_min: int, t_max: int) -> list[str]:
    """The broken rules of a working-memory window: consolidation keeps the
    reference and t_min - 1 >= 1 newest frames of t_max > t_min."""
    problems = []
    if t_min < 2:
        problems.append(f"t_min must be >= 2, got {t_min}")
    if t_max <= t_min:
        problems.append(f"t_max ({t_max}) must exceed t_min ({t_min})")
    return problems


@dataclass(frozen=True)
class Segment:
    """One element range of a store: its long-term or its working memory."""

    columns: slice
    frame_count: int  # long-term memory holds prototypes, not frames: 0

    @property
    def element_count(self) -> int:
        return self.columns.stop - self.columns.start


class TrackMemory:
    """Working and long-term memory of one object track in one buffer.

    Working memory is bounded by t_max frames: at t_max consolidation is `due`
    and shrinks it to t_min. Long-term memory never exceeds l_max elements,
    evicting the least-used first. unbounded=True lifts the frame cap (it is
    never due) and lets the buffer grow.
    """

    def __init__(
        self, dims: FeatureDims, t_min: int, t_max: int, l_max: int, unbounded: bool = False
    ):
        problems = window_problems(t_min, t_max)
        if l_max < 0:
            problems.append(f"l_max must be >= 0, got {l_max}")
        if problems:
            raise ConfigError(*problems)
        self.dims = dims
        self.hw = dims.hw()
        self.t_min = t_min
        self.t_max = t_max
        self.l_max = l_max
        self.unbounded = unbounded
        cap = t_max * self.hw + l_max
        # uninitialized: _put writes every row before it is read. Zero-filling
        # (calloc) would touch all of a buffer that malloc serves from reused
        # heap memory, so peak RSS would depend on the allocator's history
        try:
            self.keys = np.empty((cap, dims.c_k), dtype=np.float32)
            self.values = np.empty((cap, dims.c_v), dtype=np.float32)
            self.usage = np.empty(cap, dtype=np.float64)
        except ValueError:  # a size numpy's index type cannot hold; nothing allocated
            raise MemoryError(f"cannot allocate a store of {cap} elements") from None
        self.operand = np.empty((2 * dims.c_k + 1, 0), dtype=np.float32)
        self.inserted_at: list[int] = []
        self.lt = 0
        self.n = 0

    @property
    def capacity(self) -> int:
        return self.usage.shape[0]

    @property
    def shrinkage(self) -> np.ndarray:
        """The shrinkage of each element: the operand's last row, a view."""
        return self.operand[2 * self.dims.c_k]

    @property
    def frame_count(self) -> int:
        return len(self.inserted_at)

    @property
    def due(self) -> bool:
        """Consolidation is due: the store is bounded and holds t_max frames."""
        return not self.unbounded and self.frame_count == self.t_max

    @property
    def long_term(self) -> Segment:
        return Segment(slice(0, self.lt), 0)

    @property
    def working(self) -> Segment:
        return Segment(slice(self.lt, self.n), self.frame_count)

    def read(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only views of the whole memory: the similarity's memory
        operand (2c_k+1, n) and the element-major values (n, c_v).

        Nothing is copied or re-validated. The views are valid only until the
        next append_frame or commit, which rewrite the buffer in place.
        """
        return _read_only(self.operand[:, : self.n], self.values[: self.n])

    def blocks(self, columns: slice) -> tuple[np.ndarray, ...]:
        """Read-only channel-major views of the given elements: keys
        (c_k, m), shrinkage (m,) and values (c_v, m).

        Like `read`'s, they are neither copied nor re-validated, and valid
        only until the next append_frame or commit.
        """
        return _read_only(
            self.keys[columns].T, self.shrinkage[columns], self.values[columns].T
        )

    def append_frame(
        self,
        keys: KeyBlock,
        shrinkage: ShrinkageVector,
        values: ValueBlock,
        frame_idx: int,
    ) -> None:
        """Append one frame's columns with zero usage. The first append is the
        immortal reference frame."""
        if self.due:
            raise CapacityError(
                f"append at frame cap t_max={self.t_max}; consolidation is overdue"
            )
        hw = self.hw
        if keys.data.shape != (self.dims.c_k, hw):
            raise ShapeError(
                f"frame keys {keys.data.shape} != ({self.dims.c_k}, {hw})"
            )
        if values.data.shape != (self.dims.c_v, hw):
            raise ShapeError(
                f"frame values {values.data.shape} != ({self.dims.c_v}, {hw})"
            )
        if shrinkage.n != hw:
            raise ShapeError(f"frame shrinkage has {shrinkage.n} entries, want {hw}")
        if self.inserted_at and frame_idx <= self.inserted_at[-1]:
            raise ContractError(
                f"insertion frame {frame_idx} not after {self.inserted_at[-1]}"
            )
        self._reserve(self.n + hw)
        self._put(slice(self.n, self.n + hw), keys.data.T, shrinkage.data, values.data.T)
        self.n += hw
        self.inserted_at.append(frame_idx)

    def add_usage(self, mass: np.ndarray) -> None:
        """Add one read's affinity mass, one entry per element in [0, n)."""
        mass = np.asarray(mass)
        if mass.shape != (self.n,):
            raise ShapeError(f"usage mass has shape {mass.shape}, want ({self.n},)")
        self.usage[: self.n] += mass

    def normalized_usage(self, current_frame_idx: int) -> np.ndarray:
        """Usage of each working element divided by its frames of residency
        (clamped to 1).

        A read opportunity is one processed frame, so residency is counted in
        frames since insertion rather than in memory insertions.
        """
        if self.inserted_at and current_frame_idx < self.inserted_at[-1]:
            raise ContractError(
                f"current frame {current_frame_idx} precedes insertion "
                f"{self.inserted_at[-1]}"
            )
        duration = np.maximum(1, current_frame_idx - np.asarray(self.inserted_at))
        return self.usage[self.lt : self.n] / np.repeat(duration, self.hw)

    def candidates(self, current_frame_idx: int) -> tuple[np.ndarray, ...]:
        """Read-only views of the consolidation candidates, the t_max - t_min
        frames after the reference frame: channel-major keys, shrinkage and
        values, their memory operand columns and their residency-normalized
        usage. Like `read`'s, they are neither copied nor re-validated."""
        columns = self._candidate_span()
        usage = self.normalized_usage(current_frame_idx)[self.hw : columns.stop - self.lt]
        return (*self.blocks(columns), *_read_only(self.operand[:, columns]), usage)

    def commit(
        self, proto_keys: np.ndarray, proto_shrinkage: np.ndarray, proto_values: np.ndarray
    ) -> ConsolidationReport:
        """Replace the candidate frames by prototypes, in place.

        The elements become [long-term | reference and t_min - 1 newest
        frames]. When l_max would be exceeded, the least-used long-term
        elements are evicted (ties toward the lower row) and the first
        prototypes take their rows, in ascending row order; the rest extend
        the long-term segment. Survivors never move, so a lower row does not
        mean an older element. New prototypes start at zero usage. They come
        as `potentiate` returns them and are not re-validated.
        """
        span = self._candidate_span()
        new = proto_keys.shape[1]
        if proto_shrinkage.shape != (new,) or proto_values.shape[1] != new:
            raise ShapeError("prototype key/shrinkage/value counts differ")
        if new > self.l_max:
            raise ConfigError(f"committing {new} prototypes exceeds l_max={self.l_max}")
        candidates = span.stop - span.start
        evicted = max(0, self.lt + new - self.l_max)
        victims = lowest(self.usage[: self.lt], evicted)
        evicted_usage = float(self.usage[victims].sum())
        lt = self.lt + new - evicted
        # the kept frames move before the prototypes land, which may be on
        # their old rows; the newest first, as the reference frame's new
        # rows may overlap their old ones
        self._move(slice(span.stop, self.n), lt + self.hw)
        self._move(slice(self.lt, span.start), lt)
        rows = np.concatenate([victims, np.arange(self.lt, lt)])
        self._put(rows, proto_keys.T, proto_shrinkage, proto_values.T)
        self.n = lt + self.n - self.lt - candidates
        self.lt = lt
        self.inserted_at = self.inserted_at[:1] + self.inserted_at[1 + candidates // self.hw :]
        return ConsolidationReport(
            prototype_count=new, evicted_count=evicted,
            candidate_elements=candidates, evicted_usage=evicted_usage,
        )

    def _candidate_span(self) -> slice:
        """The elements of the t_max - t_min frames after the reference frame,
        which consolidation replaces; only while it is due."""
        if not self.due:
            raise ContractError(f"consolidation is not due at {self.frame_count} frames")
        first = self.lt + self.hw
        return slice(first, first + (self.t_max - self.t_min) * self.hw)

    def _put(self, rows, keys, shrinkage, values) -> None:
        """Write reserved element rows, a slice or row indices, at zero usage, and
        derive their operand columns, whose last row is the only copy of the shrinkage."""
        self.keys[rows] = keys
        self.values[rows] = values
        self.usage[rows] = 0.0
        self.operand[:, rows] = memory_operand(keys.T, shrinkage)

    def _move(self, rows: slice, start: int) -> None:
        """Move a slice of element rows, operand columns with them, to the
        rows from `start` on; the two ranges may overlap."""
        to = slice(start, start + rows.stop - rows.start)
        if to == rows:
            return
        self._reserve(to.stop)
        for buffer in (self.keys, self.values, self.usage):
            buffer[to] = buffer[rows]
        self.operand[:, to] = self.operand[:, rows]

    def _reserve(self, stop: int) -> None:
        """Grow the buffers to hold at least `stop` elements."""
        if stop > self.capacity:
            # only an unbounded store fills up; it doubles its capacity
            # (an append adds hw <= capacity elements) and copies the rows in use
            for name in ("keys", "values", "usage"):
                old = getattr(self, name)
                grown = np.empty((2 * len(old), *old.shape[1:]), old.dtype)
                grown[: self.n] = old[: self.n]
                setattr(self, name, grown)
        if stop > self.operand.shape[1]:
            # the operand grows by doubling, up to the capacity: a frame's
            # columns reach into all 2c_k+1 rows, so writing the first frame
            # into a full-size operand would page in most of it at once
            grown = np.empty((self.operand.shape[0], min(2 * stop, self.capacity)), np.float32)
            grown[:, : self.operand.shape[1]] = self.operand
            self.operand = grown


def _read_only(*views: np.ndarray) -> tuple[np.ndarray, ...]:
    for view in views:
        view.flags.writeable = False
    return views
