import importlib
import threading
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from xmem import (
    ContractError,
    FeatureDims,
    Pipeline,
    PipelineConfig,
    ShapeError,
    affinity,
    memory_operand,
    potentiate,
    query_operand,
    readout,
    similarity,
    usage_mass,
)
from xmem.oracle import oracle_affinity, oracle_readout, oracle_similarity
from xmem.stream import StreamHeader, synthetic_frames

# the module, not the function of the same name that xmem exports
affinity_module = importlib.import_module("xmem.affinity")


def _random_instance(rng, c_k, n, hw):
    k = rng.uniform(-1, 1, (c_k, n)).astype(np.float32)
    q = rng.uniform(-1, 1, (c_k, hw)).astype(np.float32)
    e = rng.uniform(0, 1, (c_k, hw)).astype(np.float32)
    s = rng.uniform(1, 10, n).astype(np.float32)
    return k, s, q, e


def _operands(k, s, q, e):
    """The read's memory and query operands for channel-major inputs."""
    return memory_operand(k, s), query_operand(q, e)


def _scores(rng, low, high, n, hw):
    """Random (hw, n) similarities, drawn as an n x hw matrix."""
    return -rng.uniform(low, high, (n, hw)).astype(np.float32).T


def _read(sim, top_k):
    """The read over given (hw, n) similarities: against an identity memory
    operand, the scoring GEMM reproduces each score exactly (up to the sign
    of zeros)."""
    sim = np.asarray(sim, dtype=np.float32)
    return affinity(np.eye(sim.shape[1], dtype=np.float32), sim, top_k)


def _dense(read, n):
    """A sparse read as the dense n x hw affinity the oracle returns."""
    kept, weights = read
    out = np.zeros((n, kept.shape[0]), dtype=weights.dtype)
    np.put_along_axis(out.T, kept, weights, axis=1)
    return out


def test_similarity_hand_values():
    out = similarity(*_operands([[2.0]], [1.0], [[0.0]], [[1.0]]))
    npt.assert_array_equal(out, [[-4.0]])
    scaled = similarity(*_operands([[2.0]], [3.0], [[0.0]], [[1.0]]))
    npt.assert_array_equal(scaled, [[-12.0]])


def test_similarity_matches_triple_loop_oracle():
    rng = np.random.default_rng(42)
    k, s, q, e = _random_instance(rng, c_k=8, n=5, hw=7)
    eng = similarity(*_operands(k, s, q, e))
    ref = oracle_similarity(k, s, q, e)
    npt.assert_allclose(eng.T, ref, atol=1e-4)


def test_similarity_unit_terms_is_negated_squared_distance():
    rng = np.random.default_rng(9)
    k = rng.uniform(-1, 1, (6, 10)).astype(np.float32)
    q = rng.uniform(-1, 1, (6, 8)).astype(np.float32)
    eng = similarity(*_operands(k, np.ones(10), q, np.ones((6, 8), dtype=np.float32)))
    d = k.astype(np.float64)
    dist = -(((d[:, :, None] - q.astype(np.float64)[:, None, :]) ** 2).sum(axis=0))
    npt.assert_allclose(eng.T, dist, atol=1e-5)


def test_similarity_entries_never_positive():
    rng = np.random.default_rng(10)
    k, s, q, e = _random_instance(rng, c_k=4, n=20, hw=15)
    # coincident key and query provoke the cancellation worst case
    q[:, 0] = k[:, 3]
    out = similarity(*_operands(k, s, q, e))
    assert out.max() <= 0.0


def test_similarity_empty_memory_gives_empty_matrix():
    out = similarity(*_operands(np.zeros((3, 0)), np.zeros(0), np.zeros((3, 4)), np.zeros((3, 4))))
    assert out.shape == (4, 0)


def test_similarity_shape_mismatch_raises():
    # shrinkage for 5 elements, keys for 2
    with pytest.raises(ShapeError):
        memory_operand(np.zeros((3, 2)), np.ones(5))
    # query and selection differ
    with pytest.raises(ShapeError):
        query_operand(np.zeros((3, 4)), np.zeros((3, 5)))
    # 3-channel memory, 2-channel query
    with pytest.raises(ShapeError):
        similarity(*_operands(np.zeros((3, 2)), np.ones(2), np.zeros((2, 4)), np.zeros((2, 4))))


def test_memory_operand_rows():
    k = np.array([[1.0, -2.0], [0.5, 3.0]], dtype=np.float32)
    s = np.array([2.0, 4.0], dtype=np.float32)
    npt.assert_array_equal(
        memory_operand(k, s),
        [[2.0, -8.0], [1.0, 12.0], [2.0, 16.0], [0.5, 36.0], [2.0, 4.0]],
    )


def test_affinity_singleton_column():
    kept, weights = _read(np.array([[-100.0]]), top_k=5)
    npt.assert_array_equal(kept, [[0]])
    npt.assert_array_equal(weights, [[1.0]])


def test_affinity_top2_of_three():
    out = _read(np.array([[-3.0, -2.0, -1.0]]), top_k=2)
    # softmax over the retained pair {-2, -1}: [1/(1+e), e/(1+e)]
    npt.assert_array_equal(out[0], [[1, 2]])
    dense = _dense(out, 3)
    npt.assert_allclose(
        dense[:, 0], [0.0, 0.2689414213699951, 0.7310585786300049], atol=1e-6
    )
    assert dense[0, 0] == 0.0


def test_affinity_large_top_k_is_plain_softmax():
    rng = np.random.default_rng(12)
    sim = _scores(rng, 0, 50, 6, 4)
    kept, weights = _read(sim, top_k=6)
    # top_k >= n keeps every element: the same path with k = n
    npt.assert_array_equal(kept, np.broadcast_to(np.arange(6), (4, 6)))
    larger_kept, larger_weights = _read(sim, top_k=50)
    npt.assert_array_equal(larger_kept, kept)
    npt.assert_array_equal(larger_weights, weights)
    npt.assert_allclose(_dense((kept, weights), 6), oracle_affinity(sim.T, None), atol=1e-6)


def test_affinity_matches_full_sort_oracle():
    rng = np.random.default_rng(13)
    for _ in range(25):
        n, hw, k = rng.integers(1, 40), rng.integers(1, 20), int(rng.integers(1, 12))
        sim = _scores(rng, 0, 100, n, hw)
        eng = _dense(_read(sim, k), n)
        ref = oracle_affinity(sim.T, k)
        npt.assert_allclose(eng, ref, atol=1e-5)
        # filtered-out entries are exactly zero in both
        npt.assert_array_equal(eng == 0.0, ref == 0.0)


def test_affinity_tie_break_keeps_lower_indices():
    kept, weights = _read(np.full((1, 4), -5.0, dtype=np.float32), top_k=2)
    npt.assert_array_equal(kept, [[0, 1]])
    npt.assert_allclose(weights, [[0.5, 0.5]], atol=1e-7)


def test_affinity_with_heavy_ties_matches_oracle():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n, hw, k = int(rng.integers(2, 40)), int(rng.integers(1, 15)), int(rng.integers(1, 10))
        # few distinct values force ties at the retention boundary
        sim = -rng.integers(0, 4, (n, hw)).astype(np.float32).T
        eng = _dense(_read(sim, k), n)
        ref = oracle_affinity(sim.T, k)
        npt.assert_allclose(eng, ref, atol=1e-6)
        npt.assert_array_equal(eng == 0.0, ref == 0.0)


def _stable_sort_read(sim, top_k):
    """Reference read: full stable sort by value descending, float64 softmax."""
    k = min(top_k, sim.shape[1])
    kept = np.sort(np.argsort(-sim, axis=1, kind="stable")[:, :k], axis=1)
    vals = np.take_along_axis(sim.astype(np.float64), kept, axis=1)
    ex = np.exp(vals - vals.max(axis=1, keepdims=True))
    return kept, ex / ex.sum(axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 40),
    hw=st.integers(1, 12),
    top_k=st.integers(1, 45),
    groups=st.sampled_from([1, 4, 8, 16]),
    rows=st.sampled_from([1, 2, 5, 128]),
    levels=st.sampled_from([0, 2, 5, None, -1]),
)
# n below, equal to, and not a multiple of the group count
@example(seed=1, n=7, hw=5, top_k=3, groups=8, rows=128, levels=None)
@example(seed=2, n=8, hw=5, top_k=3, groups=8, rows=128, levels=2)
@example(seed=3, n=35, hw=5, top_k=3, groups=8, rows=128, levels=None)
# hw not a multiple of the rows per block, top_k >= n, a single row
@example(seed=4, n=20, hw=7, top_k=4, groups=4, rows=2, levels=None)
@example(seed=5, n=20, hw=3, top_k=20, groups=4, rows=2, levels=5)
@example(seed=6, n=20, hw=1, top_k=30, groups=4, rows=1, levels=None)
# heavy ties: mixed -0.0 / 0.0 and a few levels
@example(seed=7, n=33, hw=6, top_k=5, groups=4, rows=5, levels=0)
@example(seed=8, n=33, hw=6, top_k=5, groups=4, rows=5, levels=2)
# positive scores, which the clamp at 0 turns into ties
@example(seed=9, n=33, hw=6, top_k=5, groups=4, rows=5, levels=-1)
def test_affinity_matches_stable_sort_reference(seed, n, hw, top_k, groups, rows, levels):
    rng = np.random.default_rng(seed)
    if levels is None:
        sim = -rng.uniform(0, 100, (hw, n)).astype(np.float32)
    elif levels == 0:
        sim = rng.choice(np.array([0.0, -0.0, -1.0], dtype=np.float32), (hw, n))
    elif levels == -1:
        sim = rng.uniform(-2, 1, (hw, n)).astype(np.float32)
    else:
        sim = -rng.integers(0, levels, (hw, n)).astype(np.float32)
    with mock.patch.object(affinity_module, "_GROUPS", groups), \
            mock.patch.object(affinity_module, "_READ_ROWS", rows):
        kept, weights = _read(sim, top_k)
    # the read sees the scores clamped at 0, as `similarity` returns them
    ref_kept, ref_weights = _stable_sort_read(np.minimum(sim, 0.0), top_k)
    npt.assert_array_equal(kept, ref_kept)
    npt.assert_allclose(weights, ref_weights, atol=1e-6)


@pytest.mark.parametrize(
    "groups,rows", [(affinity_module._GROUPS, affinity_module._READ_ROWS), (4, 1)]
)
def test_affinity_read_is_pinned(groups, rows):
    # with 4 groups both rows have surplus candidates; row 1 ties at -1.0
    sim = -np.array(
        [[0.5, 3.25, 0.0, 1.75, 0.5, 2.0, 0.125],
         [4.0, 1.0, 2.5, 1.0, 0.75, 1.0, 3.0]],
        dtype=np.float32,
    )
    with mock.patch.object(affinity_module, "_GROUPS", groups), \
            mock.patch.object(affinity_module, "_READ_ROWS", rows):
        kept, weights = _read(sim, 3)
    npt.assert_array_equal(kept, [[0, 2, 6], [1, 3, 4]])
    expected = np.array(
        [[0.24368178844451904, 0.40176334977149963, 0.3545548915863037],
         [0.3045043349266052, 0.3045043349266052, 0.39099133014678955]],
        dtype=np.float32,
    )
    assert weights.dtype == np.float32
    assert weights.tobytes() == expected.tobytes()


def test_affinity_temporaries_stay_below_the_scores():
    rng = np.random.default_rng(19)
    hw, n = 1024, 8192
    operand, rhs = _operands(*_random_instance(rng, c_k=8, n=n, hw=hw))
    # one worker: on more, each holds a score block of its own
    with mock.patch.object(affinity_module, "_cores", lambda: 1):
        tracemalloc.start()
        kept, weights = affinity(operand, rhs, 30)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    # the (hw, n) similarity alone would be hw * n * 4 bytes; one block of
    # scores is _READ_ROWS * n * 4, an eighth of it here
    assert kept.shape == weights.shape == (hw, 30)
    assert peak <= hw * n * 4 / 4


def test_reads_on_one_thread_reuse_its_read_buffer():
    rng = np.random.default_rng(22)
    n, p, c_v = 8192, 128, 4
    keys, shrinkage, queries, selection = _random_instance(rng, c_k=8, n=n, hw=p)
    operand, rhs = _operands(keys, shrinkage, queries, selection)
    values = rng.uniform(-1, 1, (n, c_v)).astype(np.float32)

    def peak(read):
        tracemalloc.start()
        try:
            read()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # p query rows are one block, read on this thread
    readout(values, affinity(operand, rhs, 30))
    assert peak(lambda: readout(values, affinity(operand, rhs, 30))) < p * n * 4
    # a potentiation read of half the elements fits in the buffer of the larger read
    m = n // 2
    protos = list(range(0, m, m // p))
    assert peak(
        lambda: potentiate(keys[:, :m], values[:m].T, operand[:, :m], protos, 30)
    ) < p * m * 4


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), hw=st.integers(1, 40), n=st.integers(1, 60))
def test_block_boundaries_leave_the_read_unchanged(seed, hw, n):
    rng = np.random.default_rng(seed)
    k, s, q, e = _random_instance(rng, c_k=3, n=n, hw=hw)
    # coincident keys and queries score around 0, where the clamp acts
    q[:, : min(n, hw)] = k[:, : min(n, hw)]
    operand, rhs = _operands(k, s, q, e)
    values = rng.uniform(-1, 1, (n, 4)).astype(np.float32)
    single = affinity(operand, rhs, 6)
    with mock.patch.object(affinity_module, "_READ_ROWS", 7), \
            mock.patch.object(affinity_module, "_READOUT_ROWS", 3):
        blocked = affinity(operand, rhs, 6)
        blocked_out = readout(values, blocked)
    npt.assert_array_equal(blocked[0], single[0])
    npt.assert_allclose(blocked[1], single[1], atol=1e-6)
    npt.assert_allclose(blocked_out, readout(values, single), atol=1e-6)
    # and both equal the stable-sort read of the clamped similarity
    ref_kept, ref_weights = _stable_sort_read(similarity(operand, rhs), 6)
    npt.assert_array_equal(single[0], ref_kept)
    npt.assert_allclose(single[1], ref_weights, atol=1e-6)


def test_affinity_empty_memory_rejected():
    with pytest.raises(ContractError):
        affinity(np.zeros((3, 0), dtype=np.float32), np.zeros((2, 3), dtype=np.float32), 2)


def test_affinity_underflow_guarded():
    # large-magnitude negatives would underflow a naive softmax
    _, weights = _read(np.array([[-1e30, -1e30]], dtype=np.float32), top_k=2)
    npt.assert_allclose(weights[0], [0.5, 0.5], atol=1e-7)


def test_readout_weighted_average():
    read = (np.array([[0, 1]]), np.array([[0.25, 0.75]], dtype=np.float32))
    out = readout([[1.0], [3.0]], read)
    npt.assert_allclose(out, [[2.5]], atol=1e-7)


def test_readout_skips_subnormal_weights():
    # 1e-40 is subnormal in float32; its product, 1e-10, is left out
    read = (np.array([[0, 1]]), np.array([[1.0, 1e-40]], dtype=np.float32))
    out = readout(np.array([[0.0], [1e30]], dtype=np.float32), read)
    assert out.tolist() == [[0.0]]


def test_readout_one_hot_selects_columns():
    v = np.arange(12, dtype=np.float32).reshape(3, 4)
    picks = np.array([[2], [0], [3], [1]])
    out = readout(v.T, (picks, np.ones((4, 1), dtype=np.float32)))
    npt.assert_array_equal(out, v[:, [2, 0, 3, 1]])


def test_readout_matches_scalar_oracle():
    rng = np.random.default_rng(14)
    v = rng.uniform(-1, 1, (5, 9)).astype(np.float32)
    read = _read(_scores(rng, 0, 10, 9, 6), 4)
    npt.assert_allclose(
        readout(v.T, read), oracle_readout(v, _dense(read, 9)), atol=1e-4
    )


def test_readout_shape_mismatch_raises():
    # three value rows, but the read retains element 3
    with pytest.raises(ShapeError):
        readout(np.zeros((3, 2)), (np.array([[3]]), np.ones((1, 1), dtype=np.float32)))
    with pytest.raises(ShapeError):
        readout(np.zeros((3, 2)), (np.array([[0, 1]]), np.ones((1, 1), dtype=np.float32)))


def test_readout_temporaries_stay_at_hw_by_cv():
    rng = np.random.default_rng(18)
    n, hw, c_v, k = 2000, 256, 64, 30
    values = rng.uniform(-1, 1, (n, c_v)).astype(np.float32)
    read = _read(_scores(rng, 0, 10, n, hw), k)
    tracemalloc.start()
    readout(values, read)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # output plus one gathered slot; a batched gather would need k times that
    assert peak <= 3 * hw * c_v * 4


def test_usage_mass_single_column():
    read = (np.array([[0, 1]]), np.array([[0.3, 0.7]], dtype=np.float32))
    mass = usage_mass(read, 2)
    npt.assert_allclose(mass, [0.3, 0.7], atol=1e-7)


def test_usage_mass_totals_and_exclusion():
    rng = np.random.default_rng(15)
    read = _read(_scores(rng, 0, 10, 30, 12), 5)
    mass = usage_mass(read, 30)
    assert abs(mass.sum() - 12.0) < 1e-4
    excluded = _dense(read, 30).sum(axis=1) == 0.0
    assert (mass[excluded] == 0.0).all()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 48), st.integers(1, 16), st.integers(1, 40))
def test_affinity_invariants_hold(seed, n, hw, top_k):
    rng = np.random.default_rng(seed)
    out = _dense(_read(_scores(rng, 0, 100, n, hw), top_k), n)
    assert out.min() >= 0.0
    npt.assert_allclose(out.sum(axis=0), 1.0, atol=1e-5)
    assert ((out > 0).sum(axis=0) <= top_k).all()


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_readout_stays_in_per_channel_hull(seed):
    rng = np.random.default_rng(seed)
    n, hw = int(rng.integers(1, 30)), int(rng.integers(1, 12))
    v = rng.uniform(-5, 5, (4, n)).astype(np.float32)
    out = readout(v.T, _read(_scores(rng, 0, 20, n, hw), 6))
    lo = v.min(axis=1, keepdims=True) - 1e-5
    hi = v.max(axis=1, keepdims=True) + 1e-5
    assert (out >= lo).all() and (out <= hi).all()


def test_increasing_shrinkage_never_gains_mass():
    rng = np.random.default_rng(16)
    for _ in range(20):
        k, s, q, e = _random_instance(rng, c_k=5, n=12, hw=8)
        i = int(rng.integers(12))
        mass = usage_mass(affinity(*_operands(k, s, q, e), 4), 12)
        s2 = s.copy()
        s2[i] *= 3.0
        mass2 = usage_mass(affinity(*_operands(k, s2, q, e), 4), 12)
        assert mass2[i] <= mass[i] + 1e-5


# -- threaded read -------------------------------------------------------------


def _threaded(workers):
    """Reads split over up to `workers` threads, 4 query rows a block; with
    1 worker, the serial read."""
    return mock.patch.multiple(affinity_module, _cores=lambda: workers, _READ_ROWS=4)


def _thread_spy(name, threads):
    """Wraps a block-level helper to record the threads that call it."""
    real = getattr(affinity_module, name)

    def spy(*args):
        threads.add(threading.get_ident())
        return real(*args)

    return mock.patch.object(affinity_module, name, spy)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 40),
    hw=st.integers(5, 30),
    top_k=st.sampled_from([1, 3, 30]),
    levels=st.sampled_from([None, 2]),
    workers=st.integers(2, 4),
)
# an uneven last block, tied scores, n < top_k and n = 1
@example(seed=1, n=20, hw=9, top_k=3, levels=None, workers=2)
@example(seed=2, n=20, hw=13, top_k=3, levels=2, workers=3)
@example(seed=3, n=7, hw=12, top_k=30, levels=None, workers=4)
@example(seed=4, n=1, hw=9, top_k=3, levels=None, workers=2)
def test_threaded_read_is_byte_identical_to_the_serial_read(seed, n, hw, top_k, levels, workers):
    rng = np.random.default_rng(seed)
    if levels is None:
        sim = -rng.uniform(0, 10, (hw, n)).astype(np.float32)
    else:
        sim = -rng.integers(0, levels, (hw, n)).astype(np.float32)
    # against an identity operand the scores are sim itself, ties included
    operand = np.eye(n, dtype=np.float32)
    values = rng.uniform(-1, 1, (n, 5)).astype(np.float32)
    threads = set()
    with _threaded(1):
        serial = affinity(operand, sim, top_k)
        serial_out = readout(values, serial)
    with _threaded(workers):
        with _thread_spy("_read_rows", threads), _thread_spy("_readout_rows", threads):
            for _ in range(2):  # the second read reuses the threads' buffers
                threaded = affinity(operand, sim, top_k)
                threaded_out = readout(values, threaded)
                assert threaded[0].tobytes() == serial[0].tobytes()
                assert threaded[1].tobytes() == serial[1].tobytes()
                assert threaded_out.tobytes() == serial_out.tobytes()
                assert usage_mass(threaded, n).tobytes() == usage_mass(serial, n).tobytes()
    assert len(threads) > 1


@pytest.mark.parametrize("helper", ["_read_rows", "_readout_rows"])
@pytest.mark.parametrize("failing", ["caller", "worker"])
def test_read_failure_reaches_the_caller_unchanged(helper, failing):
    rng = np.random.default_rng(20)
    operand, rhs = _operands(*_random_instance(rng, c_k=3, n=20, hw=14))
    values = rng.uniform(-1, 1, (20, 4)).astype(np.float32)
    error = RuntimeError(f"{helper} failed on the {failing} thread")
    caller = threading.get_ident()
    real = getattr(affinity_module, helper)

    def fail(*args):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise error
        return real(*args)

    with _threaded(1):
        serial = affinity(operand, rhs, 5)
    with _threaded(3):
        with mock.patch.object(affinity_module, helper, fail), pytest.raises(RuntimeError) as info:
            readout(values, affinity(operand, rhs, 5))
        assert info.value is error
        # the pool keeps serving reads after a failed one
        threaded = affinity(operand, rhs, 5)
    assert threaded[1].tobytes() == serial[1].tobytes()


def test_a_held_up_worker_delays_the_read_by_one_block_only():
    # 5 blocks on 2 workers: the pool worker is held in its first block until
    # the caller has read every other block, which a fixed share of the
    # blocks per worker would never let it do
    rng = np.random.default_rng(21)
    operand, rhs = _operands(*_random_instance(rng, c_k=3, n=20, hw=20))
    caller = threading.get_ident()
    blocks = {"caller": 0, "pool": 0}
    rest_read = threading.Event()
    real = affinity_module._read_rows

    def held(*args):
        if threading.get_ident() == caller:
            real(*args)
            blocks["caller"] += 1
            if blocks["caller"] == 4:
                rest_read.set()
        else:
            rest_read.wait(timeout=10)
            real(*args)
            blocks["pool"] += 1

    with _threaded(1):
        serial = affinity(operand, rhs, 5)
    with _threaded(2), mock.patch.object(affinity_module, "_read_rows", held):
        threaded = affinity(operand, rhs, 5)
    assert blocks == {"caller": 4, "pool": 1}
    assert threaded[0].tobytes() == serial[0].tobytes()
    assert threaded[1].tobytes() == serial[1].tobytes()


def test_a_failed_block_starts_no_further_block():
    # 20 blocks on 2 workers: the caller's first block fails once the pool
    # worker has started block 1, which is held until the caller waits for
    # it; the pool worker must then find the remaining blocks withdrawn
    rng = np.random.default_rng(23)
    operand, rhs = _operands(*_random_instance(rng, c_k=3, n=20, hw=80))
    caller = threading.get_ident()
    error = RuntimeError("the caller's block failed")
    pool_started, caller_waits = threading.Event(), threading.Event()
    pool_blocks = []
    real_read, real_wait = affinity_module._read_rows, affinity_module.wait

    def held(*args):
        if threading.get_ident() == caller:
            pool_started.wait(timeout=10)
            raise error
        pool_started.set()
        caller_waits.wait(timeout=10)
        real_read(*args)
        pool_blocks.append(1)

    def wait(*args, **kwargs):
        caller_waits.set()
        return real_wait(*args, **kwargs)

    with _threaded(2), mock.patch.object(affinity_module, "_read_rows", held), \
            mock.patch.object(affinity_module, "wait", wait), \
            pytest.raises(RuntimeError) as info:
        affinity(operand, rhs, 5)
    assert info.value is error
    assert caller_waits.is_set()
    assert len(pool_blocks) == 1



# the store regimes of the candidate bound, 150 frames of an 8x8 grid with
# one insertion a frame: a near-static unbounded store of 6400-9600 frame
# elements when counting starts, and a full 2000-element long-term store
# that takes 128 prototypes and evicts as many every fifth frame, as on the
# lt-churn benchmark
CANDIDATE_REGIMES = {
    "frame-major": (dict(unbounded=True), 0.002),
    "prototype-heavy": (dict(t_min=5, t_max=10, p=128, l_max=2000), 0.05),
}


@pytest.mark.parametrize("regime", list(CANDIDATE_REGIMES))
def test_the_bound_keeps_about_top_k_candidates_per_row(regime):
    # the selection stays exact however loose the bound, so only the count
    # of candidates shows a bound gone slack. A frame's copy of a query
    # position lies h*w columns from the last one; with 1024 column groups,
    # which share the factor 64 with an 8x8 grid, those copies share 1/64
    # of the groups, and the frame-major store kept a median of 143
    # candidates a row (4.8 x top_k) where 1021 groups keep 30
    options, drift = CANDIDATE_REGIMES[regime]
    dims = FeatureDims(h=8, w=8, c_k=16, c_v=8, c_h=4)
    config = PipelineConfig(dims=dims, r=1, top_k=30, sensory_input_channels=4, **options)
    header = StreamHeader(c_k=16, c_v=8, c_in=4, h=8, w=8, frame_count=150, object_count=1)
    real, per_row, counting = affinity_module._candidates, [], [False]

    def counted(block, top_k):
        cand = real(block, top_k)
        if counting[0]:
            per_row.append(np.bincount(cand // block.shape[1], minlength=block.shape[0]))
        return cand

    # a read of 64 query rows is one block, so every read is serial
    frames = synthetic_frames(4, header, drift)
    with mock.patch.object(affinity_module, "_candidates", counted):
        pipeline = Pipeline(config, next(frames), seed=4)
        for idx, features in enumerate(frames, start=1):
            counting[0] = idx >= 100
            pipeline.step(features, idx)
    memory = pipeline.tracks[0].memory
    assert memory.n == (9600 if config.unbounded else 2000 + 5 * 64)
    median = np.median(np.concatenate(per_row))
    assert median <= 2 * config.top_k
