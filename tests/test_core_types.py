import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from xmem import (
    FeatureDims,
    KeyBlock,
    SelectionBlock,
    ShapeError,
    ShrinkageVector,
    ValidationError,
    ValueBlock,
    map_selection,
    map_shrinkage,
)
from xmem.core_types import ConfigError


def test_map_shrinkage_zero_hits_lower_bound():
    npt.assert_array_equal(map_shrinkage([0.0]).data, [1.0])


def test_map_shrinkage_sign_symmetric():
    npt.assert_array_equal(map_shrinkage([2.0, -2.0]).data, [5.0, 5.0])


def test_map_shrinkage_uniform_samples_land_in_range():
    rng = np.random.default_rng(7)
    raw = rng.uniform(-3, 3, 100)
    out = map_shrinkage(raw).data
    # expected values from direct scalar evaluation of x**2 + 1
    expected = np.array([x * x + 1.0 for x in raw.tolist()])
    assert out.min() >= 1.0 and out.max() <= 10.0
    npt.assert_allclose(out, expected, atol=1e-5)


def test_map_shrinkage_rejects_non_finite():
    with pytest.raises(ValidationError):
        map_shrinkage([np.nan])
    with pytest.raises(ValidationError):
        map_shrinkage([np.inf])
    # finite, but its square overflows float32
    with pytest.raises(ValidationError):
        map_shrinkage([1e20])


def test_map_selection_midpoint():
    npt.assert_array_equal(map_selection([[0.0]]).data, [[0.5]])


def test_map_selection_saturates():
    assert abs(map_selection([[20.0]]).data[0, 0] - 1.0) < 1e-6


def test_map_selection_matches_scalar_sigmoid():
    rng = np.random.default_rng(11)
    raw = rng.normal(size=(4, 6))
    out = map_selection(raw).data
    expected = np.array(
        [[1.0 / (1.0 + math.exp(-x)) for x in row] for row in raw.tolist()]
    )
    npt.assert_allclose(out, expected, atol=1e-7)


def test_map_selection_rejects_non_finite():
    with pytest.raises(ValidationError):
        map_selection([[np.nan, 0.0]])
    # the sigmoid would map these to a finite 1 and 0
    with pytest.raises(ValidationError):
        map_selection([[np.inf]])
    with pytest.raises(ValidationError):
        map_selection([[-np.inf]])


@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=50))
def test_map_shrinkage_never_violates_lower_bound(raw):
    assert map_shrinkage(np.array(raw)).data.min() >= 1.0


@given(
    st.floats(-6, 6),
    st.floats(0.01, 6),
)
def test_map_selection_strictly_monotone(a, gap):
    lo = map_selection(np.array([[a]])).data[0, 0]
    hi = map_selection(np.array([[a + gap]])).data[0, 0]
    assert lo < hi


def test_blocks_are_immutable():
    block = KeyBlock(np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ValueError):
        block.data[0, 0] = 1.0


def test_block_construction_does_not_freeze_caller_array():
    arr = np.zeros((2, 3), dtype=np.float32)
    KeyBlock(arr)
    arr[0, 0] = 5.0  # caller's array stays writable


def test_empty_blocks_are_legal():
    assert KeyBlock(np.zeros((4, 0))).n == 0
    assert ValueBlock(np.zeros((4, 0))).n == 0
    assert ShrinkageVector(np.zeros(0)).n == 0


def test_shrinkage_range_enforced():
    with pytest.raises(ValidationError):
        ShrinkageVector([0.5])


def test_selection_range_enforced():
    with pytest.raises(ValidationError):
        SelectionBlock([[1.5]])
    with pytest.raises(ValidationError):
        SelectionBlock([[-0.1]])


def test_non_finite_blocks_rejected():
    with pytest.raises(ValidationError):
        KeyBlock([[np.inf]])


def test_shape_rank_enforced():
    with pytest.raises(ShapeError):
        KeyBlock(np.zeros(3))
    with pytest.raises(ShapeError):
        ShrinkageVector(np.ones((2, 2)))


def test_feature_dims_validation():
    dims = FeatureDims(h=3, w=4, c_k=2, c_v=2, c_h=2)
    assert dims.hw() == 12
    with pytest.raises(ConfigError):
        FeatureDims(h=0, w=4)
