import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmem import (
    ConfigError,
    FeatureDims,
    KeyBlock,
    ShapeError,
    ShrinkageVector,
    TrackMemory,
    ValueBlock,
    memory_operand,
    potentiate,
    select_kmeans,
    select_prototypes,
    select_random,
)
from xmem.long_term_memory import ConsolidationReport, lowest
from xmem.oracle import oracle_top_p


def _candidates(rng, n, c_k=3, c_v=4):
    """Channel-major candidate keys, shrinkage and values."""
    return (
        rng.uniform(-1, 1, (c_k, n)).astype(np.float32),
        rng.uniform(1, 6, n).astype(np.float32),
        rng.uniform(-2, 2, (c_v, n)).astype(np.float32),
    )


def _frame(rng):
    """One frame of candidates as the blocks `append_frame` takes."""
    keys, shrink, values = _candidates(rng, LT_DIMS.hw(), c_k=2, c_v=2)
    return KeyBlock(keys), ShrinkageVector(shrink), ValueBlock(values)


def _potentiate(keys, shrink, values, indices, top_k):
    """potentiate over candidates, with their memory operand."""
    operand = memory_operand(keys, shrink)
    return potentiate(keys, values, operand, indices, top_k)


# -- selection ---------------------------------------------------------------

def test_select_top2_by_usage():
    assert select_prototypes(np.array([0.5, 0.1, 0.9]), p=2) == [0, 2]


def test_select_ties_go_to_lower_index():
    assert select_prototypes(np.ones(5), p=3) == [0, 1, 2]


def test_select_matches_full_sort_oracle():
    rng = np.random.default_rng(31)
    hw = 12
    usage = rng.uniform(0, 1, 5 * hw)
    assert select_prototypes(usage, p=13) == oracle_top_p(usage, 13)


# many repeats, both zeros, and the extremes of the count
@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(st.sampled_from([0.0, -0.0, 1.0, -2.5, 3.0]), st.floats(-1e3, 1e3)),
        max_size=40,
    ),
    st.sampled_from(["zero", "one", "n-1", "n", "n+3"]),
)
def test_lowest_is_the_head_of_a_stable_sort(values, which):
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    count = max(0, {"zero": 0, "one": 1, "n-1": n - 1, "n": n, "n+3": n + 3}[which])
    got = lowest(values, count)
    want = np.sort(np.argsort(values, kind="stable")[:count])
    assert got.dtype == np.intp
    npt.assert_array_equal(got, want)
    assert got.tolist() == oracle_top_p(-values, count)


def test_select_empty_candidates():
    assert select_prototypes(np.zeros(0), p=4) == []


def test_every_strategy_selects_nothing_from_no_candidates():
    rng = np.random.default_rng(39)
    assert select_random(0, 4, rng) == []
    assert select_kmeans(np.zeros((2, 0), dtype=np.float32), 4, rng) == []


def test_select_rejects_usage_that_is_not_one_entry_per_candidate():
    with pytest.raises(ShapeError):
        select_prototypes(np.ones((2, 3)), p=2)


def test_select_random_is_seeded_and_unique():
    rng = np.random.default_rng(32)
    keys, _, _ = _candidates(rng, 20)
    a = select_random(keys.shape[1], 8, np.random.default_rng(5))
    b = select_random(keys.shape[1], 8, np.random.default_rng(5))
    assert a == b
    assert len(set(a)) == 8
    assert all(0 <= i < 20 for i in a)


def test_select_kmeans_unique_and_snapped():
    rng = np.random.default_rng(33)
    keys, _, _ = _candidates(rng, 30)
    picked = select_kmeans(keys, 6, np.random.default_rng(7))
    assert len(picked) == 6
    assert len(set(picked)) == 6
    assert all(0 <= i < 30 for i in picked)
    repeat = select_kmeans(keys, 6, np.random.default_rng(7))
    assert picked == repeat


def _select_kmeans_sorting(candidate_keys, p, rng):
    """select_kmeans with its former snapping step: a stable sort of all
    candidates per centroid, walked to the first one not yet taken."""
    n = candidate_keys.shape[1]
    count = min(p, n)
    pts = candidate_keys.T.astype(np.float64)
    sq = (pts * pts).sum(axis=1)
    centroids = pts[rng.choice(n, size=count, replace=False)].copy()
    for _ in range(10):
        d2 = sq[:, None] - 2.0 * (pts @ centroids.T) + (centroids * centroids).sum(axis=1)
        assign = d2.argmin(axis=1)
        for c in range(count):
            members = pts[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    taken, picked = set(), []
    for c in range(count):
        order = np.argsort(((pts - centroids[c]) ** 2).sum(axis=1), kind="stable")
        nearest = next(int(i) for i in order if int(i) not in taken)
        taken.add(nearest)
        picked.append(nearest)
    return sorted(picked)


@pytest.mark.parametrize("seed", range(6))
def test_select_kmeans_snaps_like_the_sorting_model(seed):
    # duplicate columns: centroids of duplicates sit at equal distances from
    # several candidates, and snapping must resolve each tie the same way
    rng = np.random.default_rng(seed)
    distinct = int(rng.integers(2, 12))
    base = rng.uniform(-1, 1, (3, distinct)).astype(np.float32)
    keys = base[:, rng.integers(0, distinct, 40)]
    for p in (1, 5, distinct, 40, 45):
        got = select_kmeans(keys, p, np.random.default_rng(seed))
        assert got == _select_kmeans_sorting(keys, p, np.random.default_rng(seed))


def test_select_kmeans_memory_stays_small():
    # distances come from the GEMM expansion; an n x p x c_k float64
    # temporary would be 32 MB here
    keys = np.random.default_rng(39).standard_normal((32, 2000)).astype(np.float32)
    tracemalloc.start()
    try:
        picked = select_kmeans(keys, 64, np.random.default_rng(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(set(picked)) == 64
    assert peak < 8 * 2**20


# -- potentiation --------------------------------------------------------------

def test_potentiate_singleton_is_identity():
    rng = np.random.default_rng(34)
    keys, shrink, values = _candidates(rng, 1)
    pk, ps, pv = _potentiate(keys, shrink, values, [0], top_k=30)
    npt.assert_array_equal(pk, keys)
    npt.assert_allclose(pv, values, atol=1e-6)
    npt.assert_allclose(ps, shrink, atol=1e-6)


def test_potentiate_identical_keys_average_values():
    keys = np.array([[0.5], [0.5]], dtype=np.float32)[:, [0, 0]]
    shrink = np.array([2.0, 2.0], dtype=np.float32)
    values = np.array([[1.0, 3.0], [10.0, 20.0]], dtype=np.float32)
    # top_k >= n: every candidate is retained
    pk, ps, pv = _potentiate(keys, shrink, values, [0], top_k=2)
    npt.assert_allclose(pv[:, 0], [2.0, 15.0], atol=1e-6)
    npt.assert_allclose(ps, [2.0], atol=1e-6)


def test_potentiate_keys_are_bitwise_copies():
    rng = np.random.default_rng(35)
    keys, shrink, values = _candidates(rng, 40)
    idx = [3, 7, 21]
    pk, _, _ = _potentiate(keys, shrink, values, idx, top_k=10)
    assert pk.tobytes() == keys[:, idx].tobytes()


def test_potentiate_values_stay_in_candidate_hull():
    rng = np.random.default_rng(36)
    for _ in range(30):
        n = int(rng.integers(2, 50))
        keys, shrink, values = _candidates(rng, n)
        p = int(rng.integers(1, n + 1))
        idx = sorted(rng.choice(n, size=p, replace=False).tolist())
        _, ps, pv = _potentiate(keys, shrink, values, idx, top_k=8)
        lo = values.min(axis=1, keepdims=True) - 1e-5
        hi = values.max(axis=1, keepdims=True) + 1e-5
        assert (pv >= lo).all() and (pv <= hi).all()
        assert ps.min() >= 1.0


def test_potentiate_empty_selection():
    rng = np.random.default_rng(37)
    keys, shrink, values = _candidates(rng, 5)
    pk, ps, pv = _potentiate(keys, shrink, values, [], top_k=4)
    assert pk.shape == (3, 0) and ps.shape == (0,) and pv.shape == (4, 0)


def test_potentiate_rejects_duplicate_indices():
    rng = np.random.default_rng(38)
    keys, shrink, values = _candidates(rng, 5)
    with pytest.raises(ValueError):
        _potentiate(keys, shrink, values, [1, 1], top_k=4)


@pytest.mark.parametrize("indices", [[5], [0, -1]])
def test_potentiate_rejects_an_index_out_of_range(indices):
    rng = np.random.default_rng(38)
    keys, shrink, values = _candidates(rng, 5)
    with pytest.raises(ValueError, match="prototype index out of range"):
        _potentiate(keys, shrink, values, indices, top_k=4)


# -- commit / eviction ---------------------------------------------------------
#
# The long-term segment of a TrackMemory is filled by consolidating one
# candidate frame at a time (t_min=2, t_max=3), selecting its first `count`
# columns as prototypes.

LT_DIMS = FeatureDims(h=2, w=8, c_k=2, c_v=2, c_h=2)


def _commit(memory, count, seed=0):
    """Consolidate a fresh candidate frame into `count` prototypes; returns
    the report."""
    rng = np.random.default_rng(seed)
    frame = memory.inserted_at[-1] + 1
    memory.append_frame(*_frame(rng), frame_idx=frame)
    keys, shrinkage, values, _, _ = memory.candidates(frame)
    protos = np.arange(count)
    return memory.commit(keys[:, protos], shrinkage[protos], values[:, protos])


def _set_lt_usage(memory, usage):
    memory.add_usage(np.concatenate([
        np.asarray(usage, dtype=np.float64) - memory.usage[: memory.lt],
        np.zeros(memory.working.element_count),
    ]))


def _store(l_max=3, usages=()):
    memory = TrackMemory(LT_DIMS, t_min=2, t_max=3, l_max=l_max)
    rng = np.random.default_rng(40)
    for i in range(2):
        memory.append_frame(*_frame(rng), frame_idx=i)
    if usages:
        _commit(memory, len(usages))
        _set_lt_usage(memory, usages)
    return memory


def _lt_keys(memory):
    return memory.blocks(memory.long_term.columns)[0]


def _next_prototypes(memory, count):
    """Keys of the prototypes the next `_commit(memory, count)` takes: the
    first columns of the candidate frame, the one after the reference."""
    start = memory.lt + LT_DIMS.hw()
    return memory.blocks(slice(start, start + count))[0].copy()


def test_commit_evicts_least_used():
    memory = _store(l_max=3, usages=[5.0, 1.0, 3.0])
    survivor_key = _lt_keys(memory)[:, 0].copy()
    assert _commit(memory, 2, seed=41).evicted_count == 2
    assert memory.long_term.element_count == 3
    npt.assert_array_equal(_lt_keys(memory)[:, 0], survivor_key)
    npt.assert_array_equal(memory.usage[: memory.lt], [5.0, 0.0, 0.0])


def test_commit_without_overflow_evicts_nothing():
    memory = _store(l_max=10, usages=[1.0, 2.0])
    assert _commit(memory, 3, seed=42).evicted_count == 0
    assert memory.long_term.element_count == 5


def test_commit_eviction_tie_breaks_toward_lower_index():
    memory = _store(l_max=3, usages=[2.0, 2.0, 5.0])
    before = _lt_keys(memory).copy()
    protos = _next_prototypes(memory, 1)
    _commit(memory, 1, seed=43)
    # rows 0 and 1 tie as least used: row 0 is evicted and takes the prototype
    npt.assert_array_equal(_lt_keys(memory)[:, 0], protos[:, 0])
    npt.assert_array_equal(_lt_keys(memory)[:, 1:], before[:, 1:])
    npt.assert_array_equal(memory.usage[: memory.lt], [0.0, 2.0, 5.0])


def test_commit_oversized_batch_rejected():
    memory = _store(l_max=3)
    with pytest.raises(ConfigError):
        _commit(memory, 4, seed=44)


def test_commit_survivors_match_sort_truncate():
    memory = _store(l_max=20)
    _commit(memory, 15, seed=45)
    usage = np.random.default_rng(46).uniform(0, 10, 15)
    _set_lt_usage(memory, usage)
    tagged = _lt_keys(memory).copy()
    protos = _next_prototypes(memory, 9)
    _commit(memory, 9, seed=47)
    # the evicted are the head of the stable usage sort (15 + 9 - 20 = 4);
    # their rows take the first prototypes in ascending row order, the rest
    # extend the segment, and every survivor keeps its row and usage
    evicted = np.sort(np.argsort(usage, kind="stable")[:4])
    survivors = np.setdiff1d(np.arange(15), evicted)
    assert memory.lt == 20
    npt.assert_array_equal(_lt_keys(memory)[:, survivors], tagged[:, survivors])
    npt.assert_array_equal(memory.usage[survivors], usage[survivors])
    npt.assert_array_equal(_lt_keys(memory)[:, evicted], protos[:, :4])
    npt.assert_array_equal(_lt_keys(memory)[:, 15:], protos[:, 4:])
    npt.assert_array_equal(memory.usage[evicted], 0.0)
    npt.assert_array_equal(memory.usage[15:20], 0.0)


def test_commit_leaves_survivors_in_place():
    memory = _store(l_max=12)
    _commit(memory, 12, seed=50)
    usage = np.random.default_rng(51).uniform(0, 10, 12)
    _set_lt_usage(memory, usage)

    def rows():
        """Every long-term row's keys, values, shrinkage, usage and operand
        column, indexed by row."""
        lt = slice(0, 12)
        return (memory.keys[lt], memory.values[lt], memory.shrinkage[lt],
                memory.usage[lt], memory.operand[:, lt].T)

    before = [a.copy() for a in rows()]
    assert _commit(memory, 5, seed=52).evicted_count == 5
    survivors = np.sort(np.argsort(usage, kind="stable")[5:])
    for old, new in zip(before, rows()):
        assert new[survivors].tobytes() == old[survivors].tobytes()


def test_accumulate_usage_totals():
    memory = _store(l_max=6, usages=[0.0, 0.0])
    working = np.zeros(memory.working.element_count)
    memory.add_usage(np.concatenate([[0.25, 4.0], working]))
    npt.assert_allclose(memory.usage[: memory.lt], [0.25, 4.0])
    memory.add_usage(np.zeros(memory.n))
    npt.assert_allclose(memory.usage[: memory.lt], [0.25, 4.0])


def _usage_mass(rng, mode, n):
    """One read's usage mass: distinct, all zero, or heavily tied."""
    if mode == "zero":
        return np.zeros(n)
    if mode == "tied":
        return rng.integers(0, 3, n) / 2.0
    return rng.uniform(0, 1, n)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 6), min_size=1, max_size=25),
    st.integers(6, 30),
    st.sampled_from(["distinct", "zero", "tied"]),
)
def test_commit_sequence_never_exceeds_cap(batch_sizes, l_max, mode):
    rng = np.random.default_rng(48)
    memory = _store(l_max=l_max)
    cap = memory.capacity
    assert cap == memory.t_max * LT_DIMS.hw() + l_max
    for size in batch_sizes:
        usage = memory.usage[: memory.lt].copy()
        victims = np.sort(np.argsort(usage, kind="stable")[: max(0, memory.lt + size - l_max)])
        before = memory.keys[: memory.lt].copy()
        report = _commit(memory, size, seed=size)
        # the stable-sort model: the evicted rows are the head of the sort,
        # and their usage, summed in row order, is what the report carries
        assert report.evicted_count == victims.size
        assert report.evicted_usage == float(usage[victims].sum())
        survivors = np.setdiff1d(np.arange(usage.size), victims)
        npt.assert_array_equal(memory.keys[survivors], before[survivors])
        npt.assert_array_equal(memory.usage[survivors], usage[survivors])
        memory.add_usage(_usage_mass(rng, mode, memory.n))
        assert memory.long_term.element_count <= l_max
        assert memory.n <= cap == memory.capacity


def test_consolidation_report_ratio():
    report = ConsolidationReport(prototype_count=128, evicted_count=0, candidate_elements=8100)
    assert abs(report.compression_ratio - 63.28125) < 1e-12
    assert report.evicted_usage == 0.0
