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

from dataclasses import dataclass

import numpy as np

from .core_types import ShapeError, sigmoid


@dataclass(frozen=True)
class GruWeights:
    """The three gates' linear maps over the stacked [input; hidden] channels.

    `w` has shape (3, c_h, c_in + c_h), input channels first, and `b` shape
    (3, c_h); gate 0 is the update gate z, 1 the reset gate r, 2 the
    candidate. Both channel counts are read from `w`.
    """

    w: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "w", np.ascontiguousarray(self.w, dtype=np.float32))
        object.__setattr__(self, "b", np.ascontiguousarray(self.b, dtype=np.float32))
        if self.w.ndim != 3 or self.w.shape[0] != 3 or self.b.shape != self.w.shape[:2]:
            raise ShapeError(
                f"w {self.w.shape} must be (3, c_h, c_in + c_h) and b {self.b.shape} (3, c_h)"
            )

    @property
    def input_channels(self) -> int:
        return self.w.shape[2] - self.hidden_channels

    @property
    def hidden_channels(self) -> int:
        return self.w.shape[1]

    @classmethod
    def seeded(
        cls,
        input_channels: int,
        hidden_channels: int,
        seed: int | np.random.SeedSequence = 0,
    ) -> "GruWeights":
        """Uniform(-s, s) weights, s = 1/sqrt(fan_in), drawn gate by gate, weight first."""
        rng = np.random.default_rng(seed)
        cols = input_channels + hidden_channels
        s = 1.0 / np.sqrt(cols)
        try:
            w = np.empty((3, hidden_channels, cols), dtype=np.float32)
            b = np.empty((3, hidden_channels), dtype=np.float32)
        except ValueError:  # a size numpy's index type cannot hold; nothing allocated
            raise MemoryError(
                f"cannot allocate a sensory cell of 3 x {hidden_channels} x {cols} weights"
            ) from None
        for gate in range(3):
            w[gate] = rng.uniform(-s, s, size=w.shape[1:])
            b[gate] = rng.uniform(-s, s, size=hidden_channels)
        return cls(w, b)


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
    z = sigmoid(weights.w[0] @ xh + weights.b[0][:, None])
    r = sigmoid(weights.w[1] @ xh + weights.b[1][:, None])
    x_reset = np.concatenate([x, r * h])
    cand = np.tanh(weights.w[2] @ x_reset + weights.b[2][:, None])
    new = (1.0 - z) * h + z * cand
    new.setflags(write=False)
    return new


# the deep update is the same cell, run with its own weights on value features
deep_update = gru_step
