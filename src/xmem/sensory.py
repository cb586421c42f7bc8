"""Recurrent per-frame hidden state.

A convolutional gated recurrent cell over the feature grid, updated from
decoder-side features every frame. A second, independently weighted cell
refreshes the same state from value-side features on insertion frames (the
deep update). Weights are never trained here. `Pipeline` always seeds its
own from the pipeline seed; `load_gru_weights` and `save_gru_weights` are
standalone helpers for a flat weight file, which the pipeline does not
read.

Gates use k x k neighborhoods with zero padding (default k=1, i.e. a
per-position linear map). Flattened patch rows are ordered channel-major,
then (dy, dx) row-major; weight files must follow the same layout.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core_types import ConfigError, ShapeError


@dataclass(frozen=True)
class SensoryState:
    """Hidden map of shape c_h x h x w. Starts at zero; stays in [-1, 1]."""

    h: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.h, dtype=np.float32)
        if arr is self.h:
            arr = arr.copy()
        if arr.ndim != 3:
            raise ShapeError(f"sensory state must be 3-D, got {arr.shape}")
        arr.setflags(write=False)
        object.__setattr__(self, "h", arr)

    @classmethod
    def zeros(cls, c_h: int, height: int, width: int) -> "SensoryState":
        return cls(np.zeros((c_h, height, width), dtype=np.float32))


@dataclass(frozen=True)
class GruWeights:
    """Per-gate linear maps over the concatenated [input, hidden] patch.

    Each weight has shape (c_h, (input_channels + c_h) * kernel_size**2);
    biases have shape (c_h,).
    """

    w_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    b_h: np.ndarray
    input_channels: int
    hidden_channels: int
    kernel_size: int = 1

    def __post_init__(self):
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ConfigError(f"kernel_size must be odd and >= 1, got {self.kernel_size}")
        cols = (self.input_channels + self.hidden_channels) * self.kernel_size**2
        for name in ("w_z", "w_r", "w_h"):
            w = np.ascontiguousarray(getattr(self, name), dtype=np.float32)
            if w.shape != (self.hidden_channels, cols):
                raise ShapeError(
                    f"{name} has shape {w.shape}, want ({self.hidden_channels}, {cols})"
                )
            object.__setattr__(self, name, w)
        for name in ("b_z", "b_r", "b_h"):
            b = np.ascontiguousarray(getattr(self, name), dtype=np.float32)
            if b.shape != (self.hidden_channels,):
                raise ShapeError(f"{name} has shape {b.shape}, want ({self.hidden_channels},)")
            object.__setattr__(self, name, b)

    @classmethod
    def seeded(
        cls,
        input_channels: int,
        hidden_channels: int,
        kernel_size: int = 1,
        seed: int | np.random.SeedSequence = 0,
        scale: float | None = None,
    ) -> "GruWeights":
        """Uniform(-s, s) weights with s = 1/sqrt(fan_in) unless overridden."""
        rng = np.random.default_rng(seed)
        cols = (input_channels + hidden_channels) * kernel_size**2
        s = scale if scale is not None else 1.0 / np.sqrt(cols)

        def w():
            return rng.uniform(-s, s, size=(hidden_channels, cols)).astype(np.float32)

        def b():
            return rng.uniform(-s, s, size=hidden_channels).astype(np.float32)

        return cls(w(), b(), w(), b(), w(), b(), input_channels, hidden_channels, kernel_size)


def _patches(grid: np.ndarray, kernel_size: int) -> np.ndarray:
    """Flatten k x k zero-padded neighborhoods to (C * k * k, H * W)."""
    c, height, width = grid.shape
    if kernel_size == 1:
        return grid.reshape(c, height * width)
    pad = kernel_size // 2
    padded = np.pad(grid, ((0, 0), (pad, pad), (pad, pad)))
    rows = [
        padded[ch, dy : dy + height, dx : dx + width].reshape(height * width)
        for ch in range(c)
        for dy in range(kernel_size)
        for dx in range(kernel_size)
    ]
    return np.stack(rows)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def gru_step(state: SensoryState, x: np.ndarray, weights: GruWeights) -> SensoryState:
    """One gated update of the hidden map from input features x (c_x, h, w).

    Per position: z and r gate from [x, h]; the candidate reads the reset-
    scaled hidden map; the new state is the z-gated convex mix of old state
    and candidate, so values never leave [-1, 1] once inside it.
    """
    h = state.h
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 3 or x.shape[1:] != h.shape[1:]:
        raise ShapeError(f"input grid {x.shape} does not match state {h.shape}")
    if x.shape[0] != weights.input_channels:
        raise ShapeError(
            f"input has {x.shape[0]} channels, weights expect {weights.input_channels}"
        )
    if h.shape[0] != weights.hidden_channels:
        raise ShapeError(
            f"state has {h.shape[0]} channels, weights expect {weights.hidden_channels}"
        )
    c_h, height, width = h.shape
    k = weights.kernel_size

    p_xh = np.concatenate([_patches(x, k), _patches(h, k)])
    z = _sigmoid(weights.w_z @ p_xh + weights.b_z[:, None])
    r = _sigmoid(weights.w_r @ p_xh + weights.b_r[:, None])
    h_reset = r.reshape(c_h, height, width) * h
    p_cand = np.concatenate([_patches(x, k), _patches(h_reset, k)])
    cand = np.tanh(weights.w_h @ p_cand + weights.b_h[:, None])
    h_flat = h.reshape(c_h, height * width)
    new = (1.0 - z) * h_flat + z * cand
    return SensoryState(new.reshape(c_h, height, width))


def deep_update(
    state: SensoryState, value_features: np.ndarray, deep_weights: GruWeights
) -> SensoryState:
    """Refresh the state from value-side features with independent weights.

    Same gate equations as gru_step; fired only on frames that also insert
    into the working memory (or per the configured schedule).
    """
    return gru_step(state, value_features, deep_weights)


def save_gru_weights(weights: GruWeights, path: str | Path) -> None:
    """Write flat float32 little-endian arrays plus a JSON shape sidecar."""
    path = Path(path)
    arrays = [
        ("w_z", weights.w_z), ("b_z", weights.b_z),
        ("w_r", weights.w_r), ("b_r", weights.b_r),
        ("w_h", weights.w_h), ("b_h", weights.b_h),
    ]
    meta = {
        "input_channels": weights.input_channels,
        "hidden_channels": weights.hidden_channels,
        "kernel_size": weights.kernel_size,
        "arrays": [],
    }
    offset = 0
    with open(path, "wb") as f:
        for name, arr in arrays:
            raw = arr.astype("<f4").tobytes()
            f.write(raw)
            meta["arrays"].append(
                {"name": name, "shape": list(arr.shape), "offset_bytes": offset}
            )
            offset += len(raw)
    with open(path.with_suffix(path.suffix + ".json"), "w") as f:
        json.dump(meta, f, indent=2)


def load_gru_weights(path: str | Path) -> GruWeights:
    path = Path(path)
    with open(path.with_suffix(path.suffix + ".json")) as f:
        meta = json.load(f)
    blob = path.read_bytes()
    fields = {}
    for entry in meta["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        start = entry["offset_bytes"]
        arr = np.frombuffer(blob, dtype="<f4", count=count, offset=start)
        fields[entry["name"]] = arr.reshape(shape).copy()
    return GruWeights(
        fields["w_z"], fields["b_z"], fields["w_r"], fields["b_r"],
        fields["w_h"], fields["b_h"],
        input_channels=meta["input_channels"],
        hidden_channels=meta["hidden_channels"],
        kernel_size=meta["kernel_size"],
    )
