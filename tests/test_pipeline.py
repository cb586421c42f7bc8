import dataclasses
import importlib
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmem import (
    ConfigError,
    ContractError,
    FeatureDims,
    Pipeline,
    PipelineConfig,
    ShapeError,
    ValidationError,
    deep_update,
    gru_step,
    soft_aggregate,
)
from xmem.harness import run_stream
from xmem.oracle import (
    format_event_log,
    oracle_affinity,
    oracle_bookkeeping,
    oracle_readout,
    oracle_similarity,
)
from xmem.stream import StreamHeader, synthetic_frames

# the module, not the function of the same name that xmem exports
affinity_module = importlib.import_module("xmem.affinity")

DIMS = FeatureDims(h=2, w=3, c_k=4, c_v=5, c_h=4)


def _config(**kw):
    kw.setdefault("dims", DIMS)
    kw.setdefault("sensory_input_channels", 3)
    return PipelineConfig(**kw)


def _header(frames, objects=1, dims=DIMS, c_in=3):
    return StreamHeader(
        c_k=dims.c_k, c_v=dims.c_v, c_in=c_in, h=dims.h, w=dims.w,
        frame_count=frames, object_count=objects,
    )


def _frames(n, objects=1, seed=0, drift=0.1, dims=DIMS, c_in=3):
    return synthetic_frames(seed, _header(n, objects, dims, c_in), drift)


# -- init ----------------------------------------------------------------------

def test_init_single_object():
    first = next(_frames(1))
    p = Pipeline(_config(), first)
    assert len(p.tracks) == 1
    assert p.tracks[0].working.element_count == DIMS.hw()
    assert p.tracks[0].long_term.element_count == 0


def test_init_three_independent_tracks():
    first = next(_frames(1, objects=3))
    p = Pipeline(_config(), first)
    assert len(p.tracks) == 3
    for track in p.tracks:
        assert track.total_elements == DIMS.hw()


def test_init_sensory_state_is_zero():
    p = Pipeline(_config(), next(_frames(1)))
    npt.assert_array_equal(p.tracks[0].sensory, 0.0)


def test_init_requires_objects():
    with pytest.raises(ConfigError):
        Pipeline(_config(), [])


# -- schedule --------------------------------------------------------------------

def test_insertions_follow_period():
    cfg = _config(r=5, t_min=2, t_max=8, p=4, l_max=50)
    frames = _frames(16)
    p = Pipeline(cfg, next(frames))
    inserted = []
    for idx, feats in enumerate(frames, start=1):
        outputs = p.step(feats, idx)
        if outputs[0].events.inserted:
            inserted.append(idx)
    assert inserted == [5, 10, 15]


def test_insert_offset_shifts_phase():
    cfg = _config(r=5, t_min=2, t_max=8, p=4, l_max=50, insert_offset=2)
    frames = _frames(16)
    p = Pipeline(cfg, next(frames))
    inserted = [
        idx for idx, feats in enumerate(frames, start=1)
        if p.step(feats, idx)[0].events.inserted
    ]
    assert inserted == [2, 7, 12]


def test_consolidation_counts_at_full_geometry():
    hw1620 = FeatureDims(h=30, w=54, c_k=3, c_v=3, c_h=2)
    cfg = PipelineConfig(
        dims=hw1620, r=1, t_min=5, t_max=10, p=128, top_k=30, l_max=10_000,
        sensory_input_channels=2,
    )
    frames = _frames(11, dims=hw1620, c_in=2)
    p = Pipeline(cfg, next(frames))
    report = None
    for idx, feats in enumerate(frames, start=1):
        out = p.step(feats, idx)[0]
        if out.events.consolidated:
            report = out.events.report
            break
    assert report is not None
    assert report.candidate_elements == 5 * 1620
    assert report.prototype_count == 128
    assert abs(report.compression_ratio - 63.28125) < 1e-9
    assert p.tracks[0].working.frame_count == 5
    assert p.tracks[0].long_term.element_count == 128


def test_frame_idx_must_increase():
    frames = _frames(3)
    p = Pipeline(_config(), next(frames))
    p.step(next(frames), 1)
    with pytest.raises(ContractError):
        p.step(next(frames), 1)


@pytest.mark.parametrize("count", [1, 3])
def test_step_needs_one_feature_set_per_object(count):
    frames = _frames(2, objects=2)
    p = Pipeline(_config(), next(frames))
    feats = next(frames)
    with pytest.raises(ContractError, match=f"^{count} feature sets for 2 objects"):
        p.step((feats * 2)[:count], 1)
    assert p.last_frame_idx == 0


def _state(p):
    """Everything a rejected frame must leave untouched, as bytes."""
    tracks = []
    for t in p.tracks:
        m, n = t.memory, t.memory.n
        tracks.append((n, m.usage[:n].tobytes(), m.operand[:, :n].tobytes(),
                       m.values[:n].tobytes(), t.sensory.tobytes()))
    return p.last_frame_idx, tracks


def _nan(arr):
    bad = np.array(arr, copy=True)
    bad.flat[-1] = np.nan
    return bad


# (objects, deep-update mode, frame, object, field, corruption, error); with
# r 2, frame 1 reads only and frame 2 inserts
BAD_FRAMES = {
    "nan values, second object, insertion": (
        2, "every_rth", 2, 1, "values", _nan, ValidationError),
    "nan values, one object, insertion": (
        1, "every_rth", 2, 0, "values", _nan, ValidationError),
    "nan query, second object": (
        2, "every_rth", 1, 1, "raw_query", _nan, ValidationError),
    "nan sensory input": (
        1, "every_rth", 1, 0, "sensory_input", _nan, ValidationError),
    "short shrinkage, no insertion": (
        2, "every_rth", 1, 1, "raw_shrinkage", lambda a: a[:-1], ShapeError),
    "nan values, every-frame deep update": (
        1, "every_frame", 1, 0, "values", _nan, ValidationError),
    "short sensory input": (
        2, "every_rth", 1, 1, "sensory_input", lambda a: a[:, :-1], ShapeError),
}


@pytest.mark.parametrize("case", list(BAD_FRAMES))
def test_rejected_frame_changes_no_state(case):
    objects, mode, bad_idx, obj, field, corrupt, error = BAD_FRAMES[case]
    cfg = _config(r=2, t_min=2, t_max=4, p=6, l_max=30, deep_update_mode=mode)
    frames = list(_frames(5, objects=objects, seed=9))
    p = Pipeline(cfg, frames[0])
    ref = Pipeline(cfg, frames[0])
    for idx in range(1, bad_idx):
        p.step(frames[idx], idx)
        ref.step(frames[idx], idx)
    bad = list(frames[bad_idx])
    bad[obj] = dataclasses.replace(bad[obj], **{field: corrupt(getattr(bad[obj], field))})
    before = _state(p)
    with pytest.raises(error, match=f"^object {obj}: {field}"):
        p.step(bad, bad_idx)
    assert _state(p) == before
    # the same frame index then steps as if the bad frame never came
    for idx in range(bad_idx, 5):
        got, want = p.step(frames[idx], idx), ref.step(frames[idx], idx)
        for g, w in zip(got, want):
            assert g.readout.tobytes() == w.readout.tobytes()
            assert g.events == w.events
    assert _state(p) == _state(ref)


def test_unused_values_are_not_checked():
    # frame 1 neither inserts nor deep-updates, so its values are never read
    cfg = _config(r=2, t_min=2, t_max=4, p=6, l_max=30)
    frames = _frames(2, seed=9)
    p = Pipeline(cfg, next(frames))
    (feats,) = next(frames)
    p.step([dataclasses.replace(feats, values=_nan(feats.values))], 1)
    assert p.last_frame_idx == 1


def test_a_step_checks_each_input_once(monkeypatch):
    # per object, every frame checks its query, shrinkage, selection and
    # sensory input, and an insertion frame its values too; storing the query
    # as a key, consolidating and potentiating check nothing again
    core_types = importlib.import_module("xmem.core_types")
    real = core_types._frozen_f32
    checked = []

    def counting(data, name):
        checked.append(name)
        return real(data, name)

    monkeypatch.setattr(core_types, "_frozen_f32", counting)
    cfg = _config(r=2, t_min=2, t_max=4, p=6, l_max=30)
    frames = _frames(7, objects=2, seed=9)
    p = Pipeline(cfg, next(frames))
    assert len(checked) == 10
    counts, consolidated = [], []
    for idx, feats in enumerate(frames, start=1):
        checked.clear()
        outputs = p.step(feats, idx)
        counts.append(len(checked))
        consolidated.append(all(out.events.consolidated for out in outputs))
    # frame 6 is an insertion that consolidates both objects
    assert consolidated == [False] * 5 + [True]
    assert counts == [8, 10, 8, 10, 8, 10]


# frame 0 seeds the memory, and its inputs are checked like any later frame's
BAD_FIRST_FRAMES = {
    "tiny selection": ("raw_selection", lambda a: np.zeros((1, 1), np.float32), ShapeError),
    "nan selection": ("raw_selection", _nan, ValidationError),
    "nan sensory input, wrong shape": (
        "sensory_input", lambda a: np.full((7, 1), np.nan, np.float32), ShapeError),
    "nan sensory input": ("sensory_input", _nan, ValidationError),
}


@pytest.mark.parametrize("case", list(BAD_FIRST_FRAMES))
def test_first_frame_is_checked(case):
    field, corrupt, error = BAD_FIRST_FRAMES[case]
    first = list(next(_frames(1, objects=2)))
    first[1] = dataclasses.replace(first[1], **{field: corrupt(getattr(first[1], field))})
    with pytest.raises(error, match=f"^object 1: {field}"):
        Pipeline(_config(), first)


def test_a_stream_of_no_frames_is_refused():
    with pytest.raises(ValueError, match="stream has no frames"):
        run_stream(iter([]), _config())


def test_event_log_matches_bookkeeping_oracle():
    rng = np.random.default_rng(60)
    for trial in range(8):
        r = int(rng.integers(1, 9))
        t_min = int(rng.integers(2, 6))
        cfg = _config(
            r=r,
            t_min=t_min,
            t_max=t_min + int(rng.integers(1, 7)),
            p=int(rng.integers(1, 30)),
            l_max=int(rng.integers(30, 120)),
            insert_offset=int(rng.integers(0, r)),
            top_k=int(rng.integers(1, 20)),
        )
        _, events = run_stream(_frames(150, seed=trial), cfg, seed=trial)
        expected = oracle_bookkeeping(cfg, 150)
        assert format_event_log(events) == format_event_log(expected)


def test_memory_bound_holds_throughout():
    cfg = _config(r=2, t_min=2, t_max=4, p=6, l_max=30)
    _, rows = run_stream(_frames(300), cfg)
    cap = cfg.t_max * DIMS.hw() + cfg.l_max
    for row in rows:
        assert row.total_elements == row.wm_elements + row.lt_elements
        assert row.total_elements <= cap
        assert row.lt_elements <= cfg.l_max


def test_usage_mass_is_conserved_per_read():
    cfg = _config(r=3, t_min=2, t_max=4, p=6, l_max=30)
    frames = _frames(40)
    p = Pipeline(cfg, next(frames))
    memory = p.tracks[0].memory
    for idx, feats in enumerate(frames, start=1):
        before = memory.usage[: memory.n].sum()
        events = p.step(feats, idx)[0].events
        after = memory.usage[: memory.n].sum()
        if not events.inserted:
            # insertion adds zero-usage elements and consolidation drops
            # candidates, so only plain frames see exactly one read's mass
            assert abs((after - before) - DIMS.hw()) < 1e-3


def test_reads_are_views_of_the_store(monkeypatch):
    # every block of a read, serial or threaded, is scored by `_read_rows`
    read_operands = []
    real = affinity_module._read_rows

    def spy(operand, *args):
        read_operands.append(operand)
        return real(operand, *args)

    monkeypatch.setattr(affinity_module, "_read_rows", spy)
    cfg = _config(r=2, t_min=2, t_max=4, p=6, l_max=30)
    frames = _frames(4)
    p = Pipeline(cfg, next(frames))
    for idx in (1, 2):
        p.step(next(frames), idx)
    buffer = p.tracks[0].memory.operand
    assert len(read_operands) == 2
    assert all(np.shares_memory(operand, buffer) for operand in read_operands)


def test_unwritten_store_rows_are_never_read():
    # the store's buffers start uninitialized: a replay whose unused rows
    # hold NaN must match one whose unused rows hold zeros, bit for bit,
    # through consolidations and evictions
    cfg = _config(r=1, t_min=2, t_max=4, p=6, l_max=30)
    runs = []
    for fill in (0.0, np.nan):
        frames = _frames(24)
        p = Pipeline(cfg, next(frames))
        memory = p.tracks[0].memory
        for buffer in (memory.keys, memory.values, memory.shrinkage, memory.usage):
            buffer[memory.n :] = fill
        memory.operand[:, memory.n :] = fill
        outputs = [p.step(feats, idx)[0] for idx, feats in enumerate(frames, start=1)]
        runs.append(outputs)
    assert sum(out.events.evicted_count for out in runs[0]) > 0
    for zero, nan in zip(*runs):
        npt.assert_array_equal(nan.readout, zero.readout)


def test_step_readout_matches_oracle_after_consolidations():
    # 8x8 grid; every frame inserts, so every frame after the third
    # consolidates 64 candidates into 8 prototypes, and l_max=12 forces an
    # eviction from the second consolidation on
    dims = FeatureDims(h=8, w=8, c_k=4, c_v=6, c_h=2)
    cfg = PipelineConfig(
        dims=dims, r=1, t_min=2, t_max=3, p=8, top_k=30, l_max=12,
        sensory_input_channels=2,
    )
    frames = _frames(7, dims=dims, c_in=2, seed=5)
    p = Pipeline(cfg, next(frames))
    memory = p.tracks[0].memory
    consolidations = evictions = checked = 0
    for idx, feats in enumerate(frames, start=1):
        # the step reads the memory as it stands before this frame's insertion
        keys, shrinkage, values = (b.copy() for b in memory.blocks(slice(memory.n)))
        out = p.step(feats, idx)[0]
        if consolidations >= 2 and evictions >= 1:
            selection = 1.0 / (1.0 + np.exp(-feats[0].raw_selection.astype(np.float64)))
            sim = oracle_similarity(keys, shrinkage, feats[0].raw_query, selection)
            ref = oracle_readout(values, oracle_affinity(sim, cfg.top_k))
            npt.assert_allclose(out.readout, ref, atol=1e-4)
            checked += 1
        consolidations += out.events.consolidated
        evictions += out.events.evicted_count > 0
    assert checked == 3
    assert memory.lt == cfg.l_max


def test_unbounded_mode_grows_linearly():
    cfg = _config(r=5, t_min=2, t_max=4, p=4, l_max=30, unbounded=True)
    _, rows = run_stream(_frames(60), cfg)
    hw = DIMS.hw()
    for row in rows:
        assert row.lt_elements == 0
        assert row.total_elements == hw * (1 + row.frame_idx // 5)


def test_deterministic_replay_is_bitwise():
    cfg = _config(r=2, t_min=2, t_max=4, p=6, l_max=30)

    def final_state():
        frames = _frames(50, seed=3)
        p = Pipeline(cfg, next(frames), seed=11)
        last = None
        for idx, feats in enumerate(frames, start=1):
            last = p.step(feats, idx)
        return (
            last[0].readout.tobytes(),
            p.tracks[0].memory.blocks(p.tracks[0].long_term.columns)[0].tobytes(),
            p.tracks[0].sensory.tobytes(),
        )

    assert final_state() == final_state()


@pytest.mark.parametrize("strategy", ["usage", "random", "kmeans"])
def test_strategies_share_bookkeeping(strategy):
    cfg = _config(r=1, t_min=2, t_max=4, p=3, l_max=12, prototype_strategy=strategy)
    _, events = run_stream(_frames(30), cfg)
    expected = oracle_bookkeeping(cfg, 30)
    assert format_event_log(events) == format_event_log(expected)


@pytest.mark.parametrize("mode,expected_frames", [
    ("every_rth", "insertions"),
    ("every_frame", "all"),
    ("never", "none"),
])
def test_deep_update_schedule(mode, expected_frames, monkeypatch):
    calls = []
    import xmem.pipeline as pl

    real = pl.deep_update

    def spy(state, feats, weights):
        calls.append(True)
        return real(state, feats, weights)

    monkeypatch.setattr(pl, "deep_update", spy)
    cfg = _config(r=4, t_min=2, t_max=4, p=4, l_max=30, deep_update_mode=mode)
    frames = _frames(9)
    p = Pipeline(cfg, next(frames))
    for idx, feats in enumerate(frames, start=1):
        p.step(feats, idx)
    expected = {"insertions": 2, "all": 8, "none": 0}[expected_frames]
    assert len(calls) == expected


def test_sensory_state_is_the_chain_of_cell_updates():
    # sensory input with as many channels as the query, so that a cell fed
    # the query runs and only its bytes tell it apart
    cfg = _config(r=2, t_min=2, t_max=4, p=6, l_max=30, sensory_input_channels=DIMS.c_k)
    frames = list(_frames(9, objects=2, seed=4, c_in=DIMS.c_k))
    p = Pipeline(cfg, frames[0])
    want = [np.zeros((DIMS.c_h, DIMS.hw()), dtype=np.float32) for _ in range(2)]
    for idx in range(1, len(frames)):
        p.step(frames[idx], idx)
        for obj, feats in enumerate(frames[idx]):
            want[obj] = gru_step(want[obj], feats.sensory_input, p.gru_weights)
            if idx % 2 == 0:
                want[obj] = deep_update(want[obj], feats.values, p.deep_weights)
        for track, state in zip(p.tracks, want):
            assert track.sensory.shape == (DIMS.c_h, DIMS.hw())
            assert track.sensory.dtype == np.float32
            assert not track.sensory.flags.writeable
            assert track.sensory.tobytes() == state.tobytes()


# -- soft aggregation ------------------------------------------------------------

def test_soft_aggregate_single_object_identity():
    out = soft_aggregate(np.array([[0.7]], dtype=np.float32))
    npt.assert_allclose(out[:, 0], [0.3, 0.7], atol=1e-6)


def test_soft_aggregate_equal_odds():
    out = soft_aggregate(np.array([[0.5], [0.5]], dtype=np.float32))
    npt.assert_allclose(out[:, 0], [1 / 3, 1 / 3, 1 / 3], atol=1e-6)


def test_soft_aggregate_clamps_saturated_probabilities():
    out = soft_aggregate(np.array([[0.0], [1.0]], dtype=np.float32))
    assert np.isfinite(out).all()
    npt.assert_allclose(out.sum(axis=0), 1.0, atol=1e-5)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 20))
def test_soft_aggregate_columns_sum_to_one(seed, objects, hw):
    rng = np.random.default_rng(seed)
    probs = rng.uniform(1e-6, 1 - 1e-6, (objects, hw)).astype(np.float32)
    out = soft_aggregate(probs)
    npt.assert_allclose(out.sum(axis=0), 1.0, atol=1e-5)
    assert out.min() >= 0.0


def test_soft_aggregate_rejects_a_1d_array():
    with pytest.raises(ValueError, match="expected \\(objects, hw\\)"):
        soft_aggregate(np.array([0.5, 0.7], dtype=np.float32))


def test_soft_aggregate_preserves_object_argmax():
    rng = np.random.default_rng(61)
    probs = rng.uniform(0.01, 0.99, (5, 200)).astype(np.float32)
    out = soft_aggregate(probs)
    npt.assert_array_equal(out[1:].argmax(axis=0), probs.argmax(axis=0))


def test_fused_probabilities_shape_and_stochasticity():
    cfg = _config(r=3, t_min=2, t_max=4, p=6, l_max=30)
    frames = _frames(5, objects=3)
    p = Pipeline(cfg, next(frames))
    outputs = p.step(next(frames), 1)
    fused = outputs[0].fused_probabilities
    assert fused.shape == (4, DIMS.hw())
    npt.assert_allclose(fused.sum(axis=0), 1.0, atol=1e-5)


# -- config validation ------------------------------------------------------------

@pytest.mark.parametrize("channels", [0, -3])
def test_config_rejects_sensory_input_channels_below_one(channels):
    with pytest.raises(ConfigError, match="sensory_input_channels"):
        _config(sensory_input_channels=channels)


def test_config_defaults_sensory_input_channels_to_c_h():
    assert _config(sensory_input_channels=None).sensory_channels == DIMS.c_h
    assert _config(sensory_input_channels=1).sensory_channels == 1


def test_config_rejects_bad_bounds():
    with pytest.raises(ConfigError):
        _config(t_min=10, t_max=5)
    with pytest.raises(ConfigError):
        _config(t_min=1)
    with pytest.raises(ConfigError):
        _config(r=0)
    with pytest.raises(ConfigError):
        _config(p=200, l_max=100)
    with pytest.raises(ConfigError):
        _config(insert_offset=7, r=5)
    with pytest.raises(ConfigError):
        _config(deep_update_mode="sometimes")
    with pytest.raises(ConfigError, match="prototype_strategy"):
        _config(prototype_strategy="median")


# -- threaded read -------------------------------------------------------------

# 300 query rows: three blocks of 128, the last one uneven
THREADED_DIMS = FeatureDims(h=10, w=30, c_k=4, c_v=6, c_h=2)


def _threaded_run(seed):
    """Per frame: each object's readout and fused probabilities, then each
    track's sensory state and usage, as bytes."""
    cfg = _config(dims=THREADED_DIMS, r=2, t_min=2, t_max=4, p=20, l_max=30)
    frames = _frames(14, objects=2, seed=seed, dims=THREADED_DIMS)
    pipeline = Pipeline(cfg, next(frames))
    out = []
    evicted = 0
    for idx, feats in enumerate(frames, start=1):
        outputs = pipeline.step(feats, idx)
        evicted += sum(o.events.evicted_count for o in outputs)
        out.append(
            [(o.readout.tobytes(), o.fused_probabilities.tobytes()) for o in outputs]
            + [(t.sensory.tobytes(), t.memory.usage[: t.memory.n].tobytes())
               for t in pipeline.tracks]
        )
    assert evicted > 0
    return out


def test_threaded_pipeline_matches_the_serial_pipeline(monkeypatch):
    monkeypatch.setattr(affinity_module, "_cores", lambda: 1)
    serial = _threaded_run(1)
    monkeypatch.setattr(affinity_module, "_cores", lambda: 3)
    assert _threaded_run(1) == serial


def test_pipelines_stepped_from_two_threads_match_sequential_runs(monkeypatch):
    # more read workers than cores, and frequent thread switches
    monkeypatch.setattr(affinity_module, "_cores", lambda: 3)
    sequential = [_threaded_run(seed) for seed in (1, 2)]
    results = [None, None]
    start = threading.Barrier(2, timeout=60)

    def run(i):
        start.wait()
        results[i] = _threaded_run(i + 1)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == sequential


def test_single_block_reads_start_no_thread(monkeypatch):
    # hw 6 reads one block, consolidation reads included
    monkeypatch.setattr(affinity_module, "_pool", None)
    before = threading.active_count()
    frames = _frames(12)
    p = Pipeline(_config(r=2, t_min=2, t_max=4, p=6, l_max=10), next(frames))
    outputs = [p.step(feats, idx)[0] for idx, feats in enumerate(frames, start=1)]
    assert any(out.events.consolidated for out in outputs)
    assert affinity_module._pool is None
    assert threading.active_count() == before


def test_config_reports_every_broken_rule_in_one_error():
    with pytest.raises(ConfigError) as err:
        _config(r=0, t_min=1, t_max=1, p=0, top_k=0, l_max=50)
    assert err.value.args == (
        "t_min must be >= 2, got 1",
        "t_max (1) must exceed t_min (1)",
        "r must be >= 1, got 0",
        "p must be >= 1, got 0",
        "top_k must be >= 1, got 0",
        "insert_offset (0) must lie in [0, r)",
    )
