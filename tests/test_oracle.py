import numpy as np
import numpy.testing as npt

from xmem import FeatureDims, PipelineConfig
from xmem.oracle import (
    format_event_log,
    oracle_affinity,
    oracle_bookkeeping,
    oracle_gru_step,
    oracle_readout,
    oracle_similarity,
    oracle_top_p,
)


def test_similarity_hand_value():
    out = oracle_similarity([[2.0]], [1.0], [[0.0]], [[1.0]])
    npt.assert_array_equal(out, [[-4.0]])


def test_similarity_unit_terms_equals_negated_squared_distance():
    rng = np.random.default_rng(3)
    k = rng.uniform(-1, 1, (6, 9))
    q = rng.uniform(-1, 1, (6, 4))
    out = oracle_similarity(k, np.ones(9), q, np.ones((6, 4)))
    dist = np.empty((9, 4))
    for i in range(9):
        for j in range(4):
            dist[i, j] = -np.sum((k[:, i] - q[:, j]) ** 2)
    npt.assert_allclose(out, dist, atol=1e-12)


def test_affinity_is_column_stochastic_and_sparse():
    rng = np.random.default_rng(5)
    sim = rng.normal(size=(12, 6))
    out = oracle_affinity(sim, 4)
    npt.assert_allclose(out.sum(axis=0), 1.0, atol=1e-12)
    assert ((out > 0).sum(axis=0) <= 4).all()


def test_affinity_unfiltered_matches_plain_softmax():
    rng = np.random.default_rng(6)
    sim = rng.normal(size=(5, 3))
    out = oracle_affinity(sim, None)
    ex = np.exp(sim - sim.max(axis=0))
    npt.assert_allclose(out, ex / ex.sum(axis=0), atol=1e-12)


def test_readout_is_plain_matmul():
    rng = np.random.default_rng(8)
    v = rng.normal(size=(3, 5))
    w = rng.uniform(size=(5, 4))
    npt.assert_allclose(oracle_readout(v, w), v @ w, atol=1e-12)


def test_top_p_full_sort_with_ties():
    assert oracle_top_p([0.5, 0.1, 0.9], 2) == [0, 2]
    assert oracle_top_p([1.0, 1.0, 1.0, 1.0, 1.0], 3) == [0, 1, 2]


def test_gru_zero_weights_halves_state():
    c_h, c_x = 2, 3
    h = np.full((c_h, 2, 2), 0.6).reshape(c_h, 4)
    x = np.zeros((c_x, 2, 2)).reshape(c_x, 4)
    zeros_w = np.zeros((3, c_h, c_x + c_h))
    zeros_b = np.zeros((3, c_h))
    out = oracle_gru_step(h, x, zeros_w, zeros_b)
    npt.assert_allclose(out, 0.5 * h, atol=1e-12)


def _default_config(hw_h=2, hw_w=2, **kw):
    dims = FeatureDims(h=hw_h, w=hw_w, c_k=2, c_v=2, c_h=2)
    return PipelineConfig(dims=dims, **kw)


def test_bookkeeping_consolidation_frames():
    cfg = _default_config(r=5, t_min=5, t_max=10, p=8, l_max=100)
    rows = oracle_bookkeeping(cfg, 100)
    consolidations = [r.frame_idx for r in rows if r.consolidated]
    # nine insertions fill the store (frame 45), then every five more
    assert consolidations == [45, 70, 95]
    assert all(r.wm_frames < 10 for r in rows)


def test_bookkeeping_evictions_start_at_second_consolidation():
    cfg = _default_config(r=1, t_min=2, t_max=4, p=8, l_max=12)
    # each consolidation adds min(p, 2*hw) = 8 elements; cap 12 overflows on
    # the second one
    rows = oracle_bookkeeping(cfg, 30)
    evictions = [(r.frame_idx, r.evicted_count) for r in rows if r.evicted_count]
    consolidations = [r.frame_idx for r in rows if r.consolidated]
    assert len(consolidations) >= 2
    assert evictions[0][0] == consolidations[1]
    assert all(r.lt_elements <= 12 for r in rows)


def test_bookkeeping_no_insertions_before_period():
    cfg = _default_config(r=50, t_min=2, t_max=4, p=4, l_max=8)
    rows = oracle_bookkeeping(cfg, 40)
    assert [r.frame_idx for r in rows if r.inserted] == [0]
    assert all(r.wm_frames == 1 for r in rows)


def test_format_event_log_round_trips_fields():
    cfg = _default_config(r=2, t_min=2, t_max=3, p=2, l_max=4)
    text = format_event_log(oracle_bookkeeping(cfg, 5))
    lines = text.strip().split("\n")
    assert len(lines) == 5
    assert lines[0] == (
        "frame=0 wm_frames=1 wm_elements=4 lt_elements=0 inserted=1 "
        "consolidated=0 evicted=0"
    )
