"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criteria are property-based plus exact structural quantities; absolute
timings appear only through scaling *shapes* (slopes, monotone direction),
never absolute thresholds.
"""

import gc
import time
from contextlib import contextmanager

import numpy as np
import numpy.testing as npt

from xmem import (
    FeatureDims,
    GruWeights,
    KeyBlock,
    Pipeline,
    PipelineConfig,
    QueryBlock,
    SelectionBlock,
    SensoryState,
    ShrinkageVector,
    ValueBlock,
    affinity,
    gru_step,
    memory_operand,
    potentiate,
    query_operand,
    similarity,
    soft_aggregate,
)
from xmem.harness import run_stream
from xmem.oracle import format_event_log, oracle_bookkeeping, oracle_similarity
from xmem.stream import StreamHeader, synthetic_frames


def _report(num: int, ok: bool, label: str, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} - {label}: {detail}", flush=True)


def _frames(n_frames, seed, *, h=8, w=8, c_k=8, c_v=16, c_in=4, objects=1, drift=0.05):
    header = StreamHeader(
        c_k=c_k, c_v=c_v, c_in=c_in, h=h, w=w,
        frame_count=n_frames, object_count=objects,
    )
    return synthetic_frames(seed, header, drift)


def _small_dims(h=8, w=8, c_k=8, c_v=16, c_h=4):
    return FeatureDims(h=h, w=w, c_k=c_k, c_v=c_v, c_h=c_h)


def test_criterion_01_vectorized_similarity_matches_triple_loop():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        c_k = int(rng.integers(1, 17))
        n = int(rng.integers(1, 65))
        hw = int(rng.integers(1, 65))
        k = rng.uniform(-1, 1, (c_k, n)).astype(np.float32)
        q = rng.uniform(-1, 1, (c_k, hw)).astype(np.float32)
        e = rng.uniform(0, 1, (c_k, hw)).astype(np.float32)
        s = rng.uniform(1, 10, n).astype(np.float32)
        eng = similarity(memory_operand(k, s), query_operand(QueryBlock(q), SelectionBlock(e)))
        ref = oracle_similarity(k, s, q, e)
        worst = max(worst, float(np.abs(eng.T - ref).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed < 10.0
    _report(1, ok, "vectorized similarity vs triple-loop oracle",
            f"max abs err {worst:.2e} over 1000 instances in {elapsed:.1f}s")
    assert worst <= 1e-4
    assert elapsed < 10.0


def test_criterion_02_unit_terms_reduce_to_squared_distance():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        c_k = int(rng.integers(1, 17))
        n = int(rng.integers(1, 65))
        hw = int(rng.integers(1, 65))
        k = rng.uniform(-1, 1, (c_k, n)).astype(np.float32)
        q = rng.uniform(-1, 1, (c_k, hw)).astype(np.float32)
        eng = similarity(
            memory_operand(k, np.ones(n, dtype=np.float32)),
            query_operand(QueryBlock(q), SelectionBlock(np.ones((c_k, hw), dtype=np.float32))),
        )
        k64, q64 = k.astype(np.float64), q.astype(np.float64)
        dist = -(((k64[:, :, None] - q64[:, None, :]) ** 2).sum(axis=0))
        worst = max(worst, float(np.abs(eng.T - dist).max()))
    ok = worst <= 1e-5
    _report(2, ok, "unit shrinkage/selection degeneracy",
            f"max abs deviation from -L2^2 is {worst:.2e} over 100 instances")
    assert worst <= 1e-5


def test_criterion_03_compression_ratio_at_full_geometry():
    dims = FeatureDims(h=30, w=54, c_k=4, c_v=4, c_h=2)
    cfg = PipelineConfig(
        dims=dims, r=1, t_min=5, t_max=10, p=128, top_k=30, l_max=10_000,
        sensory_input_channels=2,
    )
    frames = _frames(11, seed=103, h=30, w=54, c_k=4, c_v=4, c_in=2)
    pipeline = Pipeline(cfg, next(frames))
    report = None
    for idx, feats in enumerate(frames, start=1):
        out = pipeline.step(feats, idx)[0]
        if out.events.consolidated:
            report = out.events.report
            break
    ok = (
        report is not None
        and report.candidate_elements == 8100
        and report.prototype_count == 128
        and abs(report.compression_ratio - 63.28) < 0.01
    )
    detail = (
        f"{report.candidate_elements} candidates -> {report.prototype_count} "
        f"prototypes, ratio {report.compression_ratio:.4f}"
        if report else "no consolidation observed"
    )
    _report(3, ok, "consolidation compression ratio", detail)
    assert ok


def test_criterion_04_memory_bound_over_long_run():
    cfg = PipelineConfig(
        dims=_small_dims(), r=10, t_min=5, t_max=10, p=128, top_k=30,
        l_max=10_000, sensory_input_channels=4,
    )
    start = time.perf_counter()
    _, rows = run_stream(_frames(5000, seed=104), cfg, seed=104)
    elapsed = time.perf_counter() - start
    violations = sum(
        1
        for r in rows
        if r.total_elements != r.wm_elements + r.lt_elements
        or r.lt_elements > 10_000
        or r.wm_frames >= 10
    )
    saturated = max(r.lt_elements for r in rows)
    ok = violations == 0 and len(rows) == 5000 and elapsed < 60.0
    _report(4, ok, "memory bound over 5000 frames",
            f"{violations} violations, lt peak {saturated}, {elapsed:.1f}s")
    assert violations == 0
    assert len(rows) == 5000
    assert elapsed < 60.0


def _window_slope(rows, start_frame):
    window = [r for r in rows if r.frame_idx >= start_frame]
    xs = np.array([r.frame_idx for r in window], dtype=np.float64)
    ys = np.array([r.read_duration_ns for r in window], dtype=np.float64)
    return float(np.polyfit(xs, ys, 1)[0])


@contextmanager
def _gc_quiesced():
    # collector pauses grow with the per-frame row objects these runs
    # accumulate and would corrupt latency slopes; freeze + disable while
    # timing
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.unfreeze()


def test_criterion_05_bounded_read_latency_plateaus():
    n_frames = 3000
    hw = 64
    # channel dims sized so per-element work dominates fixed per-read cost;
    # near-static features keep the numeric regime constant across the window
    dims = _small_dims(c_k=16, c_v=32)
    shared = dict(
        r=5, t_min=5, t_max=10, p=128, top_k=30, l_max=1000,
        sensory_input_channels=4,
    )
    stream_args = dict(c_k=16, c_v=32, drift=0.002)
    with _gc_quiesced():
        _, bounded_rows = run_stream(
            _frames(n_frames, seed=105, **stream_args),
            PipelineConfig(dims=dims, **shared),
            seed=105,
        )
        _, unbounded_rows = run_stream(
            _frames(n_frames, seed=105, **stream_args),
            PipelineConfig(dims=dims, unbounded=True, **shared),
            seed=105,
        )

    growth_exact = all(
        r.total_elements == hw * (1 + r.frame_idx // 5) for r in unbounded_rows
    )
    bounded_slope = _window_slope(bounded_rows, n_frames - 1000)
    unbounded_slope = _window_slope(unbounded_rows, n_frames - 1000)
    ok = growth_exact and unbounded_slope > 0 and abs(bounded_slope) <= 0.05 * unbounded_slope
    _report(5, ok, "read-latency plateau vs unbounded growth",
            f"bounded slope {bounded_slope:.1f} ns/frame, unbounded "
            f"{unbounded_slope:.1f} ns/frame, linear growth exact: {growth_exact}")
    assert growth_exact
    assert unbounded_slope > 0
    assert abs(bounded_slope) <= 0.05 * unbounded_slope


def test_criterion_06_latency_grows_with_long_term_cap():
    caps = [500, 1000, 2500, 5000]
    n_frames = 800

    def sweep(cap, frames):
        # channel dims sized so the scan over n dominates fixed per-read cost
        cfg = PipelineConfig(
            dims=_small_dims(c_k=16, c_v=64), r=1, t_min=5, t_max=10, p=128,
            top_k=30, l_max=cap, sensory_input_channels=4,
        )
        _, rows = run_stream(
            _frames(frames, seed=106, c_k=16, c_v=64), cfg, seed=106
        )
        steady = [r.read_duration_ns for r in rows if r.frame_idx >= frames - 300]
        return float(np.mean(steady))

    # unmeasured warmup at the largest cap settles allocator/cache state;
    # residual warm-up drift then biases against the monotone claim
    with _gc_quiesced():
        sweep(caps[-1], 300)
        means = [sweep(cap, n_frames) for cap in caps]
    monotone = all(a <= b for a, b in zip(means, means[1:]))
    strict = means[0] < means[-1]
    ok = monotone and strict
    _report(6, ok, "steady-state latency vs long-term cap",
            "mean read ns by cap " + ", ".join(
                f"{c}:{m:.0f}" for c, m in zip(caps, means)))
    assert monotone
    assert strict


def test_criterion_07_event_logs_match_bookkeeping_oracle():
    rng = np.random.default_rng(107)
    mismatches = 0
    for trial in range(50):
        r = int(rng.integers(1, 13))
        t_min = int(rng.integers(2, 7))
        t_max = t_min + int(rng.integers(1, 9))
        p = int(rng.integers(1, 65))
        cfg = PipelineConfig(
            dims=FeatureDims(
                h=int(rng.integers(1, 4)), w=int(rng.integers(1, 5)),
                c_k=2, c_v=3, c_h=2,
            ),
            r=r,
            t_min=t_min,
            t_max=t_max,
            p=p,
            top_k=int(rng.integers(1, 41)),
            l_max=p + int(rng.integers(0, 301)),
            insert_offset=int(rng.integers(0, r)),
            prototype_strategy=["usage", "random", "kmeans"][int(rng.integers(3))],
            sensory_input_channels=2,
        )
        frames = _frames(
            500, seed=1000 + trial,
            h=cfg.dims.h, w=cfg.dims.w, c_k=2, c_v=3, c_in=2, drift=0.1,
        )
        _, events = run_stream(frames, cfg, seed=trial)
        expected = oracle_bookkeeping(cfg, 500)
        if format_event_log(events).encode() != format_event_log(expected).encode():
            mismatches += 1
    ok = mismatches == 0
    _report(7, ok, "event logs byte-identical to counter oracle",
            f"{mismatches} mismatches over 50 configs x 500 frames")
    assert mismatches == 0


def test_criterion_08_affinity_column_invariants():
    rng = np.random.default_rng(108)
    columns = 0
    failures = 0
    while columns < 10_000:
        n = int(rng.integers(1, 200))
        hw = int(rng.integers(1, 64))
        top_k = int(rng.integers(1, 40))
        sim = -rng.uniform(0, 1000, (n, hw)).astype(np.float32)
        # an identity memory operand makes the read's GEMM reproduce sim
        kept, weights = affinity(np.eye(n, dtype=np.float32), sim.T, top_k)
        # the sparse read densified to n x hw
        w = np.zeros((n, hw), dtype=np.float32)
        np.put_along_axis(w.T, kept, weights, axis=1)
        sums = w.sum(axis=0)
        failures += int((np.abs(sums - 1.0) > 1e-5).sum())
        failures += int((w < 0).any())
        failures += int(((w > 0).sum(axis=0) > top_k).sum())
        columns += hw
    ok = failures == 0
    _report(8, ok, "affinity stochasticity/nonnegativity/sparsity",
            f"{failures} failures over {columns} random columns")
    assert failures == 0


def test_criterion_09_potentiation_hull_and_singleton():
    rng = np.random.default_rng(109)
    hull_violations = 0
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        c_v = int(rng.integers(1, 9))
        keys = KeyBlock(rng.uniform(-1, 1, (3, n)).astype(np.float32))
        shrink = ShrinkageVector(rng.uniform(1, 8, n).astype(np.float32))
        values = ValueBlock(rng.uniform(-3, 3, (c_v, n)).astype(np.float32))
        p = int(rng.integers(1, n + 1))
        idx = sorted(rng.choice(n, size=p, replace=False).tolist())
        operand = memory_operand(keys.data, shrink.data)
        _, _, proto_values = potentiate(keys, shrink, values, operand, idx, top_k=16)
        lo = values.data.min(axis=1, keepdims=True) - 1e-5
        hi = values.data.max(axis=1, keepdims=True) + 1e-5
        if not ((proto_values.data >= lo).all() and (proto_values.data <= hi).all()):
            hull_violations += 1

    keys = KeyBlock(rng.uniform(-1, 1, (3, 1)).astype(np.float32))
    shrink = ShrinkageVector(rng.uniform(1, 8, 1).astype(np.float32))
    values = ValueBlock(rng.uniform(-3, 3, (4, 1)).astype(np.float32))
    operand = memory_operand(keys.data, shrink.data)
    pk, ps, pv = potentiate(keys, shrink, values, operand, [0], top_k=16)
    singleton_exact = (
        pk.data.tobytes() == keys.data.tobytes()
        and pv.data.tobytes() == values.data.tobytes()
        and ps.data.tobytes() == shrink.data.tobytes()
    )
    ok = hull_violations == 0 and singleton_exact
    _report(9, ok, "potentiation convex hull + singleton identity",
            f"{hull_violations} hull violations / 1000; singleton exact: {singleton_exact}")
    assert hull_violations == 0
    assert singleton_exact


def test_criterion_10_gru_boundedness_and_determinism():
    def trajectory():
        rng = np.random.default_rng(110)
        weights = GruWeights.seeded(6, 8, kernel_size=1, seed=110)
        state = SensoryState.zeros(8, 6, 5)
        peak = 0.0
        for _ in range(1000):
            x = rng.normal(size=(6, 6, 5)).astype(np.float32)
            state = gru_step(state, x, weights)
            peak = max(peak, float(np.abs(state.h).max()))
        return state.h.tobytes(), peak

    bytes_a, peak_a = trajectory()
    bytes_b, peak_b = trajectory()
    ok = peak_a <= 1.0 and bytes_a == bytes_b
    _report(10, ok, "sensory-state boundedness and determinism",
            f"peak |h| = {peak_a:.6f}, bitwise identical reruns: {bytes_a == bytes_b}")
    assert peak_a <= 1.0
    assert bytes_a == bytes_b
    assert peak_b <= 1.0


def test_criterion_11_soft_aggregation_properties():
    single = soft_aggregate(np.array([[0.7]], dtype=np.float32))
    identity_ok = np.allclose(single[:, 0], [0.3, 0.7], atol=1e-6)

    rng = np.random.default_rng(111)
    columns = 0
    sum_failures = 0
    argmax_failures = 0
    while columns < 10_000:
        objects = int(rng.integers(1, 7))
        hw = int(rng.integers(1, 64))
        probs = rng.uniform(1e-4, 1 - 1e-4, (objects, hw)).astype(np.float32)
        fused = soft_aggregate(probs)
        sum_failures += int((np.abs(fused.sum(axis=0) - 1.0) > 1e-5).sum())
        argmax_failures += int(
            (fused[1:].argmax(axis=0) != probs.argmax(axis=0)).sum()
        )
        columns += hw
    ok = identity_ok and sum_failures == 0 and argmax_failures == 0
    _report(11, ok, "soft-aggregation identity/stochasticity/argmax",
            f"single-object identity {identity_ok}, {sum_failures} sum failures, "
            f"{argmax_failures} argmax flips over {columns} columns")
    assert identity_ok
    assert sum_failures == 0
    assert argmax_failures == 0
