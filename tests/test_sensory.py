import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from xmem import GruWeights, deep_update, gru_step
from xmem.core_types import ShapeError
from xmem.oracle import oracle_gru_step

C_X, C_H = 3, 4
GRID = (C_H, 5, 6)
N = 5 * 6


def _weights(seed=0, scale=None):
    return GruWeights.seeded(C_X, C_H, seed=seed, scale=scale)


def _state(rng):
    return rng.uniform(-1, 1, GRID).astype(np.float32).reshape(C_H, N)


def _input(rng, channels=C_X):
    return rng.normal(size=(channels, 5, 6)).astype(np.float32).reshape(channels, N)


def test_closed_update_gate_is_identity():
    rng = np.random.default_rng(50)
    w = _weights()
    # a hugely negative update-gate bias pins z to 0
    closed = GruWeights(
        w.w_z, np.full(C_H, -1e9, dtype=np.float32), w.w_r, w.b_r, w.w_h, w.b_h
    )
    state = _state(rng)
    x = _input(rng)
    out = gru_step(state, x, closed)
    npt.assert_allclose(out, state, atol=1e-6)


def test_zero_weights_halve_the_state():
    zeros_w = np.zeros((C_H, C_X + C_H), dtype=np.float32)
    zeros_b = np.zeros(C_H, dtype=np.float32)
    w = GruWeights(zeros_w, zeros_b, zeros_w, zeros_b, zeros_w, zeros_b)
    rng = np.random.default_rng(51)
    state = _state(rng)
    out = gru_step(state, np.zeros((C_X, N), dtype=np.float32), w)
    npt.assert_allclose(out, 0.5 * state, atol=1e-6)


def test_matches_scalar_oracle():
    rng = np.random.default_rng(52)
    w = _weights(seed=3)
    state = _state(rng)
    x = _input(rng)
    out = gru_step(state, x, w)
    ref = oracle_gru_step(state, x, w.w_z, w.b_z, w.w_r, w.b_r, w.w_h, w.b_h)
    npt.assert_allclose(out, ref, atol=1e-5)


def test_deep_update_matches_scalar_oracle():
    rng = np.random.default_rng(53)
    w = GruWeights.seeded(7, C_H, seed=9)
    state = _state(rng)
    x = _input(rng, 7)
    out = deep_update(state, x, w)
    ref = oracle_gru_step(state, x, w.w_z, w.b_z, w.w_r, w.b_r, w.w_h, w.b_h)
    npt.assert_allclose(out, ref, atol=1e-5)


def test_trajectory_stays_bounded():
    rng = np.random.default_rng(54)
    w = _weights(seed=4)
    state = np.zeros((C_H, N), dtype=np.float32)
    for _ in range(1000):
        x = _input(rng)
        state = gru_step(state, x, w)
        assert np.abs(state).max() <= 1.0


def test_same_seed_gives_bitwise_identical_trajectories():
    def trajectory():
        rng = np.random.default_rng(55)
        w = _weights(seed=5)
        state = np.zeros((C_H, N), dtype=np.float32)
        for _ in range(50):
            state = gru_step(state, _input(rng), w)
        return state.tobytes()

    assert trajectory() == trajectory()


def test_zero_input_zero_bias_state_decays():
    w = GruWeights.seeded(C_X, C_H, seed=6, scale=0.2)
    w = GruWeights(
        w.w_z, np.zeros(C_H, dtype=np.float32),
        w.w_r, np.zeros(C_H, dtype=np.float32),
        w.w_h, np.zeros(C_H, dtype=np.float32),
    )
    rng = np.random.default_rng(56)
    state = _state(rng)
    x = np.zeros((C_X, N), dtype=np.float32)
    norms = [np.abs(state).max()]
    for _ in range(60):
        state = gru_step(state, x, w)
        norms.append(np.abs(state).max())
    assert all(b <= a for a, b in zip(norms, norms[1:]))
    assert norms[-1] < 0.01 * norms[0]


def test_shape_mismatches_raise():
    rng = np.random.default_rng(57)
    w = _weights()
    state = _state(rng)
    with pytest.raises(ShapeError):
        gru_step(state, _input(rng, C_X + 1), w)
    # an input with fewer columns than the state has
    short = rng.normal(size=(C_X, 4, 6)).astype(np.float32).reshape(C_X, 4 * 6)
    with pytest.raises(ShapeError):
        gru_step(state, short, w)


def test_channel_counts_come_from_the_arrays():
    w = GruWeights.seeded(7, C_H, seed=10)
    assert (w.input_channels, w.hidden_channels) == (7, C_H)
    assert w.w_h.shape == (C_H, 7 + C_H)


@pytest.mark.parametrize("name", ["w_z", "b_z", "w_r", "b_r", "w_h", "b_h"])
def test_weight_shape_mismatch_raises(name):
    w = _weights()
    arrays = dataclasses.asdict(w)
    arrays[name] = arrays[name][..., :-1]
    with pytest.raises(ShapeError):
        GruWeights(**arrays)
