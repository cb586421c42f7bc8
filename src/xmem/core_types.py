"""Shared value types and range mappings used by every memory store.

Blocks carry feature data channel-major, one column per memory element, and
validate it once, when they are constructed: finite entries, rank and each
block's range. Blocks are built only where data enters the engine: by the
pipeline as it ingests a frame, and by callers of the public constructors
and range mappings. Nothing derived from a block is checked again. The track
store (:mod:`xmem.memory`) takes blocks in, keeps element-major rows
internally and hands its contents out as read-only array views, not blocks.
Engine arithmetic is single precision throughout; the double-precision path
lives in :mod:`xmem.oracle`.

A block's array is read-only through the block, but a block built from the
caller's own array does not freeze that array: the caller can still change
it. Empty blocks (zero elements) are legal everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np


class XmemError(Exception):
    """Base class for all engine errors."""


class ValidationError(XmemError):
    """Non-finite or out-of-range values where the contract forbids them."""


class ShapeError(XmemError):
    """Dimension mismatch at a store boundary. Always a programming error."""


class CapacityError(XmemError):
    """A bounded store was asked to grow past its cap."""


class ContractError(XmemError):
    """An operation was invoked outside its pipeline-level precondition."""


class ConfigError(XmemError):
    """Invalid configuration values or flag combinations."""


class StreamFormatError(XmemError):
    """Malformed stream file. Carries the byte offset where parsing failed."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _frozen_f32(data, name: str) -> np.ndarray:
    """Coerce to a read-only float32 array without copying float32 input.

    When the input is already float32 the result is a read-only view, so the
    caller's own handle keeps its flags; wrapping is O(1) on the hot path.
    """
    arr = np.asarray(data, dtype=np.float32)
    if arr is data:
        arr = arr.view()
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError(f"{name} contains non-finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class FeatureDims:
    """Channel and spatial dimensions shared by all stores.

    h and w are the feature-grid rows/cols; each frame contributes h*w
    memory elements. Channel defaults follow the full-scale configuration;
    the harness typically runs much smaller.
    """

    h: int
    w: int
    c_k: int = 64
    c_v: int = 512
    c_h: int = 64

    def __post_init__(self):
        for field in ("h", "w", "c_k", "c_v", "c_h"):
            if getattr(self, field) < 1:
                raise ConfigError(f"FeatureDims.{field} must be >= 1")

    def hw(self) -> int:
        return self.h * self.w


@dataclass(frozen=True)
class _Block:
    """A float32 array of rank `ndim`, finite and, when `bounds` is set,
    within the closed range [lo, hi]; one column per element."""

    data: np.ndarray
    ndim: ClassVar[int] = 2
    bounds: ClassVar[tuple[float, float] | None] = None

    def __post_init__(self):
        name = type(self).__name__
        data = _frozen_f32(self.data, name)
        object.__setattr__(self, "data", data)
        if data.ndim != self.ndim:
            raise ShapeError(f"{name} must be {self.ndim}-D, got shape {data.shape}")
        if self.bounds and data.size:
            lo, hi = self.bounds
            if data.min() < lo or data.max() > hi:
                raise ValidationError(f"{name} entries must lie in [{lo:g}, {hi:g}]")

    @property
    def n(self) -> int:
        return self.data.shape[-1]


class KeyBlock(_Block):
    """c_k x n matrix; column j is the key of memory element j. A frame's
    query is stored as its memory key, so it is a KeyBlock too."""


class ValueBlock(_Block):
    """c_v x n matrix of value columns; aligned 1:1 with the owner's keys."""


class ShrinkageVector(_Block):
    """Per-element confidence scalars, every entry in [1, inf)."""

    ndim = 1
    bounds = (1.0, np.inf)


class SelectionBlock(_Block):
    """Per-query channel weights, c_k x m, every entry in [0, 1]."""

    bounds = (0.0, 1.0)


def map_shrinkage(raw) -> ShrinkageVector:
    """Map raw scalars onto the [1, inf) shrinkage range via x**2 + 1.

    Non-finite input, and input whose square overflows float32, is rejected
    by the ShrinkageVector it builds."""
    arr = np.asarray(raw, dtype=np.float32)
    with np.errstate(over="ignore"):
        return ShrinkageVector(arr * arr + np.float32(1.0))


def map_selection(raw) -> SelectionBlock:
    """Map raw scalars onto the [0, 1] selection range via a logistic sigmoid."""
    arr = np.asarray(raw, dtype=np.float32)
    # checked before the sigmoid, which maps +-inf to a finite 0 or 1
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError("raw selection contains non-finite entries")
    return SelectionBlock(sigmoid(arr))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic 1 / (1 + exp(-x)), in the dtype of x."""
    # exp overflow for very negative x saturates to 0, which is the correct limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))
