"""Recurrent per-frame hidden state.

Each object's state is one read-only float32 (c_h, h*w) array, one column
per grid position, starting at zero. A gated recurrent cell updates every
column on its own: the gates are linear maps over the stacked
[input; hidden] channels of that column, fed from decoder-side features
every frame. A second, independently weighted cell refreshes the same state
from value-side features on insertion frames (the deep update). Weights are
never trained here; `Pipeline` seeds its own from the pipeline seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .core_types import ShapeError, sigmoid


@dataclass(frozen=True)
class GruWeights:
    """Per-gate linear maps over the stacked [input; hidden] channels.

    Each weight has shape (c_h, c_in + c_h), input channels first; biases
    have shape (c_h,). Both channel counts are read from w_z and b_z.
    """

    w_z: np.ndarray
    b_z: np.ndarray
    w_r: np.ndarray
    b_r: np.ndarray
    w_h: np.ndarray
    b_h: np.ndarray

    def __post_init__(self):
        names = [f.name for f in fields(self)]
        for name in names:
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float32)
            object.__setattr__(self, name, arr)
        if self.b_z.ndim != 1 or self.w_z.ndim != 2:
            raise ShapeError(f"w_z {self.w_z.shape} must be 2-D and b_z {self.b_z.shape} 1-D")
        c_h, cols = self.hidden_channels, self.w_z.shape[1]
        for name in names:
            want = (c_h, cols) if name[0] == "w" else (c_h,)
            got = getattr(self, name).shape
            if got != want:
                raise ShapeError(f"{name} has shape {got}, want {want}")

    @property
    def input_channels(self) -> int:
        return self.w_z.shape[1] - self.hidden_channels

    @property
    def hidden_channels(self) -> int:
        return self.b_z.shape[0]

    @classmethod
    def seeded(
        cls,
        input_channels: int,
        hidden_channels: int,
        seed: int | np.random.SeedSequence = 0,
        scale: float | None = None,
    ) -> "GruWeights":
        """Uniform(-s, s) weights with s = 1/sqrt(fan_in) unless overridden."""
        rng = np.random.default_rng(seed)
        cols = input_channels + hidden_channels
        s = scale if scale is not None else 1.0 / np.sqrt(cols)

        def w():
            return rng.uniform(-s, s, size=(hidden_channels, cols)).astype(np.float32)

        def b():
            return rng.uniform(-s, s, size=hidden_channels).astype(np.float32)

        return cls(w(), b(), w(), b(), w(), b())


def gru_step(h: np.ndarray, x: np.ndarray, weights: GruWeights) -> np.ndarray:
    """One gated update of the (c_h, n) hidden state from input features x (c_x, n).

    Per column: z and r gate from [x, h]; the candidate reads the reset-
    scaled hidden state; the new state is the z-gated convex mix of old state
    and candidate, so values never leave [-1, 1] once inside it. Returns a
    new read-only float32 array.
    """
    h = np.asarray(h, dtype=np.float32)
    x = np.asarray(x, dtype=np.float32)
    if x.ndim != 2 or h.ndim != 2 or x.shape[1] != h.shape[1]:
        raise ShapeError(f"input {x.shape} and state {h.shape} need 2-D, equal columns")
    if x.shape[0] != weights.input_channels:
        raise ShapeError(
            f"input has {x.shape[0]} channels, weights expect {weights.input_channels}"
        )
    if h.shape[0] != weights.hidden_channels:
        raise ShapeError(
            f"state has {h.shape[0]} channels, weights expect {weights.hidden_channels}"
        )
    xh = np.concatenate([x, h])
    z = sigmoid(weights.w_z @ xh + weights.b_z[:, None])
    r = sigmoid(weights.w_r @ xh + weights.b_r[:, None])
    x_reset = np.concatenate([x, r * h])
    cand = np.tanh(weights.w_h @ x_reset + weights.b_h[:, None])
    new = (1.0 - z) * h + z * cand
    new.setflags(write=False)
    return new


def deep_update(
    h: np.ndarray, value_features: np.ndarray, deep_weights: GruWeights
) -> np.ndarray:
    """Refresh the state from (c_v, n) value-side features with independent weights.

    Same gate equations as gru_step; fired only on frames that also insert
    into the working memory (or per the configured schedule).
    """
    return gru_step(h, value_features, deep_weights)
