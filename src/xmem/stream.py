"""Feature stream files, long-term snapshots and synthetic stream generation.

Stream layout (all integers u32 little-endian, all payloads float32
little-endian):

    magic "XMFS" | version | c_k | c_v | c_in | h | w | frame_count | object_count
    then per frame, per object, in `ObjectFeatures.shapes` order:
        raw_query     c_k * h * w
        raw_shrinkage       h * w
        raw_selection c_k * h * w
        values        c_v * h * w
        sensory_input c_in * h * w

Declared sizes must match the byte length exactly; any mismatch, including a
file that shrinks while it is read, is reported with the byte offset where
parsing failed. Files are read one block at a time, never whole. Long-term
snapshots ("XMLT" magic, version 2) reuse the same block conventions, except
that usage is float64 so the counters round-trip exactly. Both headers follow
one rule, `_Format`, and every output is written whole or not at all,
through `whole_or_absent`.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .core_types import ConfigError, FeatureDims, ShapeError, StreamFormatError
from .pipeline import ObjectFeatures


class _Format(NamedTuple):
    """A file header: magic at offset 0, version at 4 and u32 field i at
    8 + 4i, each field in [1, 2^32 - 1]: a writer checks that before it opens
    the file, a reader at the field's own offset."""

    name: str
    magic: bytes
    version: int
    fields: tuple[str, ...]

    def pack(self, *values: int) -> bytes:
        """The header bytes; one ConfigError names each field the format cannot hold."""
        problems = [
            f"header field {name} must lie in [1, 2^32 - 1], got {value}"
            for name, value in zip(self.fields, values, strict=True)
            if not 1 <= value < 2**32
        ]
        if problems:
            raise ConfigError(*problems)
        return self.magic + struct.pack(f"<{len(self.fields) + 1}I", self.version, *values)

    def parse(self, f) -> tuple[int, ...]:
        """The fields of the header at the start of f, which is left just past it."""
        size = 8 + 4 * len(self.fields)
        raw = f.read(size)
        if len(raw) < size:
            raise StreamFormatError(f"truncated {self.name} header: need {size} bytes", len(raw))
        if raw[:4] != self.magic:
            raise StreamFormatError(f"bad magic {raw[:4]!r}, want {self.magic!r}", 0)
        version, *values = struct.unpack_from(f"<{len(self.fields) + 1}I", raw, 4)
        if version != self.version:
            raise StreamFormatError(f"unsupported {self.name} version {version}", 4)
        for i, (name, value) in enumerate(zip(self.fields, values)):
            if value < 1:
                raise StreamFormatError(f"header field {name} must be >= 1", 8 + 4 * i)
        return tuple(values)


@contextlib.contextmanager
def whole_or_absent(path: str | Path, mode: str = "wb", newline: str | None = None):
    """Open `path` for writing; anything that raises in the `with` block, or
    in closing the file, removes it. A path `open` refuses is left alone."""
    f = open(path, mode, newline=newline)
    try:
        with f:
            yield f
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class StreamHeader:
    c_k: int
    c_v: int
    c_in: int
    h: int
    w: int
    frame_count: int
    object_count: int

    @property
    def hw(self) -> int:
        return self.h * self.w

    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Each object's blocks in stream order, by field name."""
        return ObjectFeatures.shapes(self.c_k, self.c_v, self.c_in, self.hw)

    @property
    def bytes_per_object(self) -> int:
        return 4 * sum(math.prod(shape) for shape in self.shapes().values())

    def dims(self, c_h: int) -> FeatureDims:
        return FeatureDims(h=self.h, w=self.w, c_k=self.c_k, c_v=self.c_v, c_h=c_h, c_in=self.c_in)

    def pack(self) -> bytes:
        return _STREAM.pack(*astuple(self))


# the header's fields in file order are StreamHeader's, in declaration order
_STREAM = _Format("stream", b"XMFS", 1, tuple(field.name for field in fields(StreamHeader)))


def read_header(path: str | Path) -> StreamHeader:
    with open(path, "rb") as f:
        return _parse_stream_header(f)


def _parse_stream_header(f) -> StreamHeader:
    """The header at the start of f, checked against the size of f's file."""
    header = StreamHeader(*_STREAM.parse(f))
    expected = f.tell() + header.frame_count * header.object_count * header.bytes_per_object
    actual = os.fstat(f.fileno()).st_size
    if actual != expected:
        raise StreamFormatError(
            f"file is {actual} bytes but header declares {expected}",
            min(actual, expected),
        )
    return header


def iter_frames(path: str | Path) -> Iterator[list[ObjectFeatures]]:
    """Yield per-frame object feature lists, each block read lazily into its own array."""
    with open(path, "rb") as f:
        header = _parse_stream_header(f)
        shapes = header.shapes()
        for frame in range(header.frame_count):
            what, offset = f"truncated frame {frame}", f.tell()
            yield [
                ObjectFeatures(
                    **{name: _read_array(f, shape, "<f4", what, offset)
                       for name, shape in shapes.items()}
                )
                for _ in range(header.object_count)
            ]


def write_stream(
    path: str | Path, header: StreamHeader, frames: Iterable[list[ObjectFeatures]]
) -> None:
    """Write a stream file: a stream `read_header` accepts, or no file.

    A header it cannot hold raises ConfigError before the open. A block whose
    shape differs from `header.shapes()` raises ShapeError and an object or
    frame count that differs from the header's ValueError, leaving no file.
    """
    head = header.pack()
    shapes = header.shapes()
    written = 0
    with whole_or_absent(path) as f:
        f.write(head)
        for objects in frames:
            if len(objects) != header.object_count:
                raise ValueError(
                    f"frame has {len(objects)} objects, header says {header.object_count}"
                )
            for feats in objects:
                for name, shape in shapes.items():
                    block = np.asarray(getattr(feats, name), dtype="<f4")
                    if block.shape != shape:
                        raise ShapeError(
                            f"frame {written}: {name} has shape {block.shape}, want {shape}"
                        )
                    f.write(block.tobytes())
            written += 1
        if written != header.frame_count:
            raise ValueError(f"wrote {written} frames, header says {header.frame_count}")


def synthetic_frames(
    seed: int,
    header: StreamHeader,
    drift: float,
) -> Iterator[list[ObjectFeatures]]:
    """Seeded random-walk feature trajectories.

    Frame 0 draws a standard-normal base per object; each later frame adds
    drift * standard-normal steps, so drift=0 repeats frame 0 forever and
    large drift decorrelates consecutive frames.
    """
    # NaN compares false both ways, so a bare `drift < 0` would replay it as 0
    if not (math.isfinite(drift) and drift >= 0):
        raise ValueError(f"drift must be finite and >= 0, got {drift}")
    rng = np.random.default_rng(seed)
    step = np.float32(drift)
    try:
        states = [
            [rng.standard_normal(shape, dtype=np.float32) for shape in header.shapes().values()]
            for _ in range(header.object_count)
        ]
    except ValueError:  # a size numpy's index type cannot hold; nothing allocated
        raise MemoryError(
            f"cannot allocate a synthetic frame of {header.h} x {header.w} positions"
        ) from None
    for frame in range(header.frame_count):
        if frame > 0 and step > 0:
            for state in states:
                for arr in state:
                    arr += step * rng.standard_normal(arr.shape, dtype=np.float32)
        yield [ObjectFeatures(*(arr.copy() for arr in state)) for state in states]


def generate_synthetic(
    path: str | Path,
    seed: int,
    header: StreamHeader,
    drift: float,
) -> None:
    """Write a synthetic stream to disk. Same seed, same bytes."""
    write_stream(path, header, synthetic_frames(seed, header, drift))


# -- long-term snapshot ------------------------------------------------------

_SNAPSHOT = _Format("snapshot", b"XMLT", 2, ("object_count", "c_k", "c_v"))


@dataclass(frozen=True)
class SnapshotObject:
    keys: np.ndarray
    shrinkage: np.ndarray
    values: np.ndarray
    usage: np.ndarray


def write_lt_snapshot(path: str | Path, memories) -> None:
    """Serialize each `TrackMemory`'s long-term store for offline inspection:
    a snapshot `read_lt_snapshot` accepts, or no file."""
    if not memories:
        raise ConfigError("header field object_count must be >= 1, got 0")
    dims = memories[0].dims
    head = _SNAPSHOT.pack(len(memories), dims.c_k, dims.c_v)
    with whole_or_absent(path) as f:
        f.write(head)
        for memory in memories:
            lt = memory.long_term.columns
            f.write(struct.pack("<I", memory.lt))
            for block in memory.blocks(lt):
                f.write(np.asarray(block, dtype="<f4").tobytes())
            f.write(np.asarray(memory.usage[lt], dtype="<f8").tobytes())


def read_lt_snapshot(path: str | Path) -> list[SnapshotObject]:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        objects, c_k, c_v = _SNAPSHOT.parse(f)
        out = []
        for _ in range(objects):
            count = int(_read_array(f, (), "<u4", "truncated snapshot object header", f.tell()))
            blocks = []
            for shape, dtype in (((c_k, count), "<f4"), ((count,), "<f4"),
                                 ((c_v, count), "<f4"), ((count,), "<f8")):
                # exact integers: an int64 product of two corrupt u32 fields
                # can wrap to a small or negative size
                nbytes = np.dtype(dtype).itemsize * math.prod(shape)
                # checked before reading, so a corrupt count allocates nothing
                if f.tell() + nbytes > size:
                    raise StreamFormatError("truncated snapshot block", size)
                blocks.append(_read_array(f, shape, dtype, "truncated snapshot block", f.tell()))
            out.append(SnapshotObject(*blocks))
        if f.tell() != size:
            raise StreamFormatError("trailing bytes after snapshot payload", f.tell())
    return out


def _read_array(f, shape, dtype: str, what: str, offset: int) -> np.ndarray:
    """An array of `shape` read from f straight into its own buffer; a short
    read (the file shrinks or ends early) raises StreamFormatError at
    `offset`, the start of the frame or block being read."""
    arr = np.empty(shape, dtype=dtype)
    got = f.readinto(arr)
    if got < arr.nbytes:
        raise StreamFormatError(f"{what}: {got} of {arr.nbytes} bytes", offset)
    return arr
