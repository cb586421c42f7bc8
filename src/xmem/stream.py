"""Feature stream files and synthetic stream generation.

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
that usage is float64 so the counters round-trip exactly.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .core_types import ConfigError, FeatureDims, ShapeError, StreamFormatError
from .pipeline import ObjectFeatures

MAGIC = b"XMFS"
SNAPSHOT_MAGIC = b"XMLT"
VERSION = 1
SNAPSHOT_VERSION = 2
_HEADER = struct.Struct("<4s8I")

_FIELD_OFFSETS = {
    "c_k": 8, "c_v": 12, "c_in": 16,
    "h": 20, "w": 24, "frame_count": 28, "object_count": 32,
}


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

    def dims(self, c_h: int = 64) -> FeatureDims:
        return FeatureDims(h=self.h, w=self.w, c_k=self.c_k, c_v=self.c_v, c_h=c_h)

    def pack(self) -> bytes:
        return _HEADER.pack(
            MAGIC, VERSION, self.c_k, self.c_v, self.c_in,
            self.h, self.w, self.frame_count, self.object_count,
        )


def read_header(path: str | Path) -> StreamHeader:
    path = Path(path)
    with open(path, "rb") as f:
        raw = f.read(_HEADER.size)
    if len(raw) < _HEADER.size:
        raise StreamFormatError(
            f"truncated header: {len(raw)} bytes, need {_HEADER.size}", len(raw)
        )
    magic, version, c_k, c_v, c_in, h, w, frames, objects = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise StreamFormatError(f"bad magic {magic!r}, want {MAGIC!r}", 0)
    if version != VERSION:
        raise StreamFormatError(f"unsupported version {version}", 4)
    header = StreamHeader(c_k, c_v, c_in, h, w, frames, objects)
    name = _bad_field(header)
    if name:
        raise StreamFormatError(f"header field {name} must be >= 1", _FIELD_OFFSETS[name])
    expected = _HEADER.size + header.frame_count * header.object_count * header.bytes_per_object
    actual = path.stat().st_size
    if actual != expected:
        raise StreamFormatError(
            f"file is {actual} bytes but header declares {expected}",
            min(actual, expected),
        )
    return header


def _bad_field(header: StreamHeader) -> str | None:
    """The first size field outside the u32 fields' valid range [1, 2^32 - 1], if any."""
    bad = [name for name in _FIELD_OFFSETS if not 1 <= getattr(header, name) < 2**32]
    return bad[0] if bad else None


def iter_frames(path: str | Path) -> Iterator[list[ObjectFeatures]]:
    """Yield per-frame object feature lists, each block read lazily into its own array."""
    header = read_header(path)
    shapes = header.shapes()
    frame_bytes = header.object_count * header.bytes_per_object
    with open(path, "rb") as f:
        f.seek(_HEADER.size)
        for frame in range(header.frame_count):
            what, offset = f"truncated frame {frame}", _HEADER.size + frame * frame_bytes
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

    A header it cannot hold raises ConfigError before the open, and a path
    that cannot be opened is left as it is. Once the file is open, a block
    whose shape differs from `header.shapes()` raises ShapeError, an object
    or frame count that differs from the header's raises ValueError, and the
    file is removed before anything that raises leaves this function.
    """
    name = _bad_field(header)
    if name:
        raise ConfigError(f"header field {name} must lie in [1, 2^32 - 1]")
    shapes = header.shapes()
    written = 0
    f = open(path, "wb")
    try:
        with f:
            f.write(header.pack())
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
    except BaseException:
        Path(path).unlink(missing_ok=True)
        raise


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
    states = [
        [rng.standard_normal(shape, dtype=np.float32) for shape in header.shapes().values()]
        for _ in range(header.object_count)
    ]
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

_SNAP_HEADER = struct.Struct("<4s4I")


@dataclass(frozen=True)
class SnapshotObject:
    keys: np.ndarray
    shrinkage: np.ndarray
    values: np.ndarray
    usage: np.ndarray


def write_lt_snapshot(path: str | Path, tracks) -> None:
    """Serialize each track's long-term store for offline inspection."""
    dims = tracks[0].memory.dims
    with open(path, "wb") as f:
        f.write(_SNAP_HEADER.pack(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, len(tracks), dims.c_k, dims.c_v))
        for track in tracks:
            memory, lt = track.memory, track.long_term.columns
            f.write(struct.pack("<I", memory.lt))
            for block in memory.blocks(lt):
                f.write(np.asarray(block, dtype="<f4").tobytes())
            f.write(np.asarray(memory.usage[lt], dtype="<f8").tobytes())


def read_lt_snapshot(path: str | Path) -> list[SnapshotObject]:
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        raw = f.read(_SNAP_HEADER.size)
        if len(raw) < _SNAP_HEADER.size:
            raise StreamFormatError("truncated snapshot header", len(raw))
        magic, version, objects, c_k, c_v = _SNAP_HEADER.unpack(raw)
        if magic != SNAPSHOT_MAGIC:
            raise StreamFormatError(f"bad magic {magic!r}, want {SNAPSHOT_MAGIC!r}", 0)
        if version != SNAPSHOT_VERSION:
            raise StreamFormatError(f"unsupported snapshot version {version}", 4)
        out = []
        offset = _SNAP_HEADER.size
        for _ in range(objects):
            count = int(_read_array(f, (), "<u4", "truncated snapshot object header", offset))
            offset += 4
            blocks = []
            for shape, dtype in (((c_k, count), "<f4"), ((count,), "<f4"),
                                 ((c_v, count), "<f4"), ((count,), "<f8")):
                # exact integers: an int64 product of two corrupt u32 fields
                # can wrap to a small or negative size
                nbytes = np.dtype(dtype).itemsize * math.prod(shape)
                # checked before reading, so a corrupt count allocates nothing
                if offset + nbytes > size:
                    raise StreamFormatError("truncated snapshot block", size)
                blocks.append(_read_array(f, shape, dtype, "truncated snapshot block", offset))
                offset += nbytes
            out.append(SnapshotObject(*blocks))
        if f.read(1):
            raise StreamFormatError("trailing bytes after snapshot payload", offset)
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
