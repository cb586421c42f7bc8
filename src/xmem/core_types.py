"""Shared value types and range mappings used by every memory store.

Blocks carry feature data channel-major, one column per memory element, and
validate it once, when they are constructed: finite entries and each block's
range. The track store (:mod:`xmem.memory`) keeps element-major rows
internally and hands blocks out as views of its buffer. Engine arithmetic is
single precision throughout; the double-precision path lives in
:mod:`xmem.oracle`.

A block's array is read-only through the block, but that does not make the
data immutable: a block over a view of a track store changes when the store
next writes in place (`append_frame`, `commit`), and is valid only until then.
A block built from the caller's own array does not freeze that array either.
Empty blocks (zero elements) are legal everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

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
class KeyBlock:
    """c_k x n matrix; column j is the key of memory element j."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_f32(self.data, "KeyBlock"))
        if self.data.ndim != 2:
            raise ShapeError(f"KeyBlock must be 2-D, got shape {self.data.shape}")

    @property
    def c_k(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ValueBlock:
    """c_v x n matrix of value columns; aligned 1:1 with the owner's keys."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_f32(self.data, "ValueBlock"))
        if self.data.ndim != 2:
            raise ShapeError(f"ValueBlock must be 2-D, got shape {self.data.shape}")

    @property
    def c_v(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class ShrinkageVector:
    """Per-element confidence scalars, every entry in [1, inf)."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_f32(self.data, "ShrinkageVector"))
        if self.data.ndim != 1:
            raise ShapeError(f"ShrinkageVector must be 1-D, got shape {self.data.shape}")
        if self.data.size and self.data.min() < 1.0:
            raise ValidationError("ShrinkageVector entries must be >= 1")

    @property
    def n(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class SelectionBlock:
    """Per-query channel weights, c_k x m, every entry in [0, 1]."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_f32(self.data, "SelectionBlock"))
        if self.data.ndim != 2:
            raise ShapeError(f"SelectionBlock must be 2-D, got shape {self.data.shape}")
        if self.data.size and (self.data.min() < 0.0 or self.data.max() > 1.0):
            raise ValidationError("SelectionBlock entries must lie in [0, 1]")

    @property
    def c_k(self) -> int:
        return self.data.shape[0]

    @property
    def m(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class QueryBlock:
    """c_k x hw matrix of query columns for the current frame."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _frozen_f32(self.data, "QueryBlock"))
        if self.data.ndim != 2:
            raise ShapeError(f"QueryBlock must be 2-D, got shape {self.data.shape}")

    @property
    def c_k(self) -> int:
        return self.data.shape[0]

    @property
    def hw(self) -> int:
        return self.data.shape[1]


def map_shrinkage(raw) -> ShrinkageVector:
    """Map raw scalars onto the [1, inf) shrinkage range via x**2 + 1."""
    arr = np.asarray(raw, dtype=np.float32)
    if arr.ndim != 1:
        raise ShapeError(f"raw shrinkage must be 1-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError("raw shrinkage contains non-finite entries")
    return ShrinkageVector(arr * arr + np.float32(1.0))


def map_selection(raw) -> SelectionBlock:
    """Map raw scalars onto the [0, 1] selection range via a logistic sigmoid."""
    arr = np.asarray(raw, dtype=np.float32)
    if arr.ndim != 2:
        raise ShapeError(f"raw selection must be 2-D, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValidationError("raw selection contains non-finite entries")
    return SelectionBlock(sigmoid(arr))


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic 1 / (1 + exp(-x)), in the dtype of x."""
    # exp overflow for very negative x saturates to 0, which is the correct limit
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))
