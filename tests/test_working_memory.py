import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmem import (
    CapacityError,
    ConfigError,
    ContractError,
    FeatureDims,
    KeyBlock,
    ShapeError,
    ShrinkageVector,
    TrackMemory,
    ValueBlock,
)

DIMS = FeatureDims(h=3, w=4, c_k=2, c_v=3, c_h=2)


def _frame(seed):
    rng = np.random.default_rng(seed)
    hw = DIMS.hw()
    return (
        KeyBlock(rng.normal(size=(DIMS.c_k, hw)).astype(np.float32)),
        ShrinkageVector(rng.uniform(1, 5, hw).astype(np.float32)),
        ValueBlock(rng.normal(size=(DIMS.c_v, hw)).astype(np.float32)),
    )


def _filled(t_min, t_max, n_frames, r=10, l_max=50, unbounded=False):
    memory = TrackMemory(DIMS, t_min=t_min, t_max=t_max, l_max=l_max, unbounded=unbounded)
    for i in range(n_frames):
        memory.append_frame(*_frame(i), frame_idx=i * r)
    return memory


def _keys(memory, columns):
    """The stored keys of the given elements, c_k x m."""
    return memory.blocks(columns)[0]


def _consolidate(memory, frame_idx, picks=()):
    """Commit the picked candidates unchanged; returns the candidate keys."""
    keys, shrinkage, values, _, _ = memory.candidates(frame_idx)
    offered = keys.copy()
    picks = list(picks)
    memory.commit(keys[:, picks], shrinkage[picks], values[:, picks])
    return offered


def test_first_append_is_reference():
    memory = _filled(2, 4, 1)
    assert memory.frame_count == 1
    assert memory.inserted_at == [0]
    assert memory.working.columns == slice(0, DIMS.hw())
    npt.assert_array_equal(_keys(memory, slice(DIMS.hw())), _frame(0)[0].data)
    npt.assert_array_equal(memory.usage[: memory.n], 0.0)


def test_element_count_bookkeeping():
    memory = _filled(2, 5, 3)
    assert memory.working.element_count == 3 * DIMS.hw()
    assert memory.long_term.element_count == 0


def test_append_at_cap_rejected():
    memory = _filled(5, 10, 10)
    with pytest.raises(CapacityError):
        memory.append_frame(*_frame(99), frame_idx=1000)


# a frame replaced in one block, or at a frame index not after the last
# insertion (10)
BAD_APPENDS = {
    "keys": (0, KeyBlock(np.zeros((DIMS.c_k + 1, DIMS.hw()), np.float32)), 20,
             ShapeError, "frame keys"),
    "values": (2, ValueBlock(np.zeros((DIMS.c_v, DIMS.hw() - 1), np.float32)), 20,
               ShapeError, "frame values"),
    "shrinkage": (1, ShrinkageVector(np.ones(DIMS.hw() + 1, np.float32)), 20,
                  ShapeError, "frame shrinkage"),
    "frame order": (0, _frame(9)[0], 10, ContractError, "insertion frame 10 not after 10"),
}


@pytest.mark.parametrize("case", list(BAD_APPENDS))
def test_append_rejects_a_bad_frame_and_changes_nothing(case):
    block, bad, frame_idx, error, message = BAD_APPENDS[case]
    memory = _filled(2, 4, 2)
    frame = list(_frame(9))
    frame[block] = bad
    with pytest.raises(error, match=message):
        memory.append_frame(*frame, frame_idx=frame_idx)
    assert (memory.n, memory.inserted_at) == (2 * DIMS.hw(), [0, 10])


def test_uncapped_store_grows_freely():
    # an unbounded store outgrows its initial t_max*hw + l_max columns by
    # doubling and keeps every column and usage value
    memory = TrackMemory(DIMS, t_min=2, t_max=3, l_max=5, unbounded=True)
    initial = memory.capacity
    rng = np.random.default_rng(3)
    mass = []
    for i in range(25):
        memory.append_frame(*_frame(i), frame_idx=i)
        mass.append(rng.uniform(0, 1, memory.n))
        memory.add_usage(mass[-1])
    assert memory.frame_count == 25
    assert memory.capacity > initial
    hw = DIMS.hw()
    for i in range(25):
        cols = slice(i * hw, (i + 1) * hw)
        for stored, appended in zip(memory.blocks(cols), _frame(i)):
            npt.assert_array_equal(stored, appended.data)
    total = sum(np.pad(m, (0, memory.n - m.size)) for m in mass)
    npt.assert_allclose(memory.usage[: memory.n], total, atol=1e-9)


def _assert_operand_in_step(memory):
    """The stored memory operand is bitwise [s*k; (s*k)*k; s], recomputed
    here from the stored keys and shrinkage."""
    n = memory.n
    keys, shrinkage = memory.keys[:n].T, memory.shrinkage[:n]
    sk = keys * shrinkage
    expected = np.concatenate([sk, sk * keys, shrinkage[None]])
    assert memory.n <= memory.operand.shape[1] <= memory.capacity
    assert np.ascontiguousarray(memory.operand[:, :n]).tobytes() == expected.tobytes()


def test_operand_follows_appends_and_growth():
    memory = TrackMemory(DIMS, t_min=2, t_max=3, l_max=5, unbounded=True)
    initial = memory.capacity
    for i in range(25):
        memory.append_frame(*_frame(i), frame_idx=i)
        _assert_operand_in_step(memory)
    assert memory.capacity > initial


def test_operand_follows_consolidations_with_eviction():
    memory = TrackMemory(DIMS, t_min=2, t_max=4, l_max=7)
    rng = np.random.default_rng(5)
    evicted = 0
    for i in range(30):
        memory.append_frame(*_frame(i), frame_idx=i)
        _assert_operand_in_step(memory)
        memory.add_usage(rng.uniform(0, 1, memory.n))
        if memory.frame_count == memory.t_max:
            keys, shrinkage, values, operand, _ = memory.candidates(i)
            assert np.shares_memory(operand, memory.operand)
            picks = sorted(rng.choice(keys.shape[1], size=4, replace=False).tolist())
            evicted += memory.commit(
                keys[:, picks], shrinkage[picks] * np.float32(1.5), values[:, picks]
            ).evicted_count
            _assert_operand_in_step(memory)
    assert evicted > 0


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(0, 8), min_size=1, max_size=12),
    st.integers(8, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["distinct", "zero", "tied"]),
)
def test_commit_sequence_matches_list_model(batch_sizes, l_max, seed, mode):
    # the long-term rows follow a plain list model: the least-used rows are
    # evicted (a stable sort, so ties go to the lower row), the prototypes
    # take their rows in ascending order, then extend the list, at zero
    # usage. Fresh prototypes tie at zero, and "zero" and "tied" usage make
    # ties the rule rather than the exception
    memory = TrackMemory(DIMS, t_min=2, t_max=4, l_max=l_max)
    rng = np.random.default_rng(seed)
    model = []  # per long-term row: [key bytes, usage]
    batches = iter(batch_sizes)
    frame = 0
    while True:
        memory.append_frame(*_frame(seed + frame), frame_idx=frame)
        if mode == "zero":
            mass = np.zeros(memory.n)
        elif mode == "tied":
            mass = rng.integers(0, 3, memory.n) / 2.0
        else:
            mass = rng.uniform(0, 1, memory.n)
        memory.add_usage(mass)
        for row, entry in enumerate(model):
            entry[1] += mass[row]
        if memory.frame_count == memory.t_max:
            size = next(batches, None)
            if size is None:
                break
            keys, shrinkage, values, _, _ = memory.candidates(frame)
            picks = sorted(rng.choice(keys.shape[1], size=size, replace=False).tolist())
            protos = keys[:, picks]
            report = memory.commit(
                protos, shrinkage[picks] * np.float32(1.5), values[:, picks]
            )
            evicted = max(0, len(model) + size - l_max)
            victims = sorted(sorted(range(len(model)), key=lambda row: model[row][1])[:evicted])
            evicted_usage = np.array([model[row][1] for row in victims], dtype=np.float64).sum()
            rows = victims + list(range(len(model), len(model) + size - evicted))
            for row, key in zip(rows, protos.T):
                if row == len(model):
                    model.append(None)
                model[row] = [key.tobytes(), 0.0]
            assert report.evicted_count == evicted
            assert report.evicted_usage == evicted_usage
            stored = [[memory.keys[row].tobytes(), memory.usage[row]] for row in range(memory.lt)]
            assert stored == model
            _assert_operand_in_step(memory)
        frame += 1


def test_accumulate_usage_is_additive():
    memory = _filled(2, 4, 1)
    hw = DIMS.hw()
    a = np.zeros(hw)
    a[0], a[1] = 0.1, 0.2
    b = np.zeros(hw)
    b[0] = 0.3
    memory.add_usage(a)
    memory.add_usage(b)
    npt.assert_allclose(memory.usage[:2], [0.4, 0.2])


def test_accumulate_zero_mass_is_noop():
    memory = _filled(2, 4, 2)
    memory.add_usage(np.arange(memory.n, dtype=np.float64))
    before = memory.usage[: memory.n].copy()
    memory.add_usage(np.zeros(memory.n))
    npt.assert_array_equal(memory.usage[: memory.n], before)


def test_accumulate_usage_shape_checked():
    memory = _filled(2, 4, 2)
    with pytest.raises(ShapeError):
        memory.add_usage(np.zeros(memory.n + 1))


def test_usage_totals_match_column_sums():
    rng = np.random.default_rng(21)
    memory = _filled(2, 6, 4)
    total = np.zeros(memory.n)
    for _ in range(5):
        mass = rng.uniform(0, 1, memory.n)
        memory.add_usage(mass)
        total += mass
    npt.assert_allclose(memory.usage[: memory.n], total, atol=1e-9)


def test_normalized_usage_divides_by_residency():
    memory = _filled(2, 4, 1, r=1)
    memory.add_usage(np.full(DIMS.hw(), 0.8))
    out = memory.normalized_usage(current_frame_idx=40)
    npt.assert_allclose(out, 0.02)


def test_normalized_usage_clamps_fresh_frames():
    memory = _filled(2, 4, 1)
    out = memory.normalized_usage(current_frame_idx=0)
    npt.assert_array_equal(out, 0.0)


def test_normalized_usage_refuses_a_frame_before_the_last_insertion():
    memory = _filled(2, 4, 2)
    with pytest.raises(ContractError, match="current frame 9 precedes insertion 10"):
        memory.normalized_usage(current_frame_idx=9)


def test_normalized_usage_inverse_proportional_to_duration():
    memory = _filled(2, 4, 2)
    memory.add_usage(np.ones(memory.n))
    out = memory.normalized_usage(current_frame_idx=20)
    hw = DIMS.hw()
    npt.assert_allclose(out[:hw] / out[hw:], 0.5)  # duration 20 vs 10


def test_split_keeps_reference_and_newest():
    memory = _filled(5, 10, 10)
    inserted = list(memory.inserted_at)
    hw = DIMS.hw()
    kept_keys = np.concatenate(
        [_keys(memory, slice(hw)), _keys(memory, slice(6 * hw, 10 * hw))], axis=1
    )
    assert memory.candidates(95)[0].shape[1] == 5 * hw
    _consolidate(memory, 95, picks=[0, 3])
    assert memory.inserted_at == [inserted[0]] + inserted[6:]
    assert memory.frame_count == 5
    # the reference frame leads the working columns, right after the prototypes
    assert memory.working.columns == slice(2, 2 + 5 * hw)
    npt.assert_array_equal(_keys(memory, memory.working.columns), kept_keys)


def test_split_minimal_configuration():
    memory = _filled(2, 3, 3)
    offered = _consolidate(memory, 25)
    assert memory.inserted_at == [0, 20]
    assert offered.shape[1] == DIMS.hw()


def test_split_bundle_matches_candidate_columns():
    memory = _filled(2, 4, 4, r=1)
    hw = DIMS.hw()
    memory.add_usage(np.arange(memory.n, dtype=np.float64))
    keys, shrinkage, values, _, usage = memory.candidates(3)
    npt.assert_array_equal(keys[:, :hw], _frame(1)[0].data)
    npt.assert_array_equal(keys[:, hw:], _frame(2)[0].data)
    npt.assert_array_equal(values[:, hw:], _frame(2)[2].data)
    npt.assert_array_equal(shrinkage[:hw], _frame(1)[1].data)
    npt.assert_array_equal(usage, memory.normalized_usage(3)[hw : 3 * hw])


@pytest.mark.parametrize("counts", [(2, 3, 2), (2, 2, 3)])
def test_commit_refuses_prototype_counts_that_differ(counts):
    memory = _filled(2, 4, 4)
    keys, shrinkage, values, _, _ = memory.candidates(40)
    k, s, v = counts
    with pytest.raises(ShapeError, match="prototype key/shrinkage/value counts differ"):
        memory.commit(keys[:, :k], shrinkage[:s], values[:, :v])
    assert (memory.n, memory.lt, memory.frame_count) == (4 * DIMS.hw(), 0, 4)


def test_split_below_cap_rejected():
    memory = _filled(2, 4, 3)
    with pytest.raises(ContractError):
        memory.candidates(30)
    with pytest.raises(ContractError):
        memory.commit(*memory.blocks(slice(0, 0)))


def test_candidate_residency_meets_schedule_floor():
    # with insertions every r frames, the youngest candidate has been
    # resident for at least r * (t_min - 1) frames at consolidation time
    r, t_min, t_max = 7, 5, 10
    memory = _filled(t_min, t_max, t_max, r=r)
    consolidation_frame = memory.inserted_at[-1]
    youngest_candidate = memory.inserted_at[t_max - t_min]
    assert consolidation_frame - youngest_candidate >= r * (t_min - 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 5), st.integers(1, 6))
def test_reference_never_a_candidate(t_min, extra):
    t_max = t_min + extra
    memory = _filled(t_min, t_max, t_max, r=1)
    offered = _consolidate(memory, t_max)
    hw = DIMS.hw()
    assert offered.shape[1] == (t_max - t_min) * hw
    assert not any(
        np.array_equal(offered[:, i * hw : (i + 1) * hw], _frame(0)[0].data)
        for i in range(t_max - t_min)
    )
    assert memory.inserted_at[0] == 0
    npt.assert_array_equal(
        _keys(memory, memory.working.columns)[:, :hw], _frame(0)[0].data
    )


def test_store_reports_every_broken_rule_in_one_error():
    with pytest.raises(ConfigError) as err:
        TrackMemory(DIMS, t_min=1, t_max=1, l_max=-1)
    assert err.value.args == (
        "t_min must be >= 2, got 1",
        "t_max (1) must exceed t_min (1)",
        "l_max must be >= 0, got -1",
    )


def test_consolidation_is_due_at_t_max_frames_until_commit():
    memory = _filled(2, 4, 3)
    assert not memory.due
    memory.append_frame(*_frame(3), frame_idx=30)
    assert memory.due
    _consolidate(memory, 30, picks=[0])
    assert not memory.due and memory.frame_count == 2


def test_unbounded_store_is_never_due():
    memory = _filled(2, 4, 1, unbounded=True)
    for i in range(1, 9):
        assert not memory.due
        memory.append_frame(*_frame(i), frame_idx=i)
        assert not memory.due
