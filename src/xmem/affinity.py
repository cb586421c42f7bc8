"""Memory reading: anisotropic squared-distance similarity, sparse top-k
softmax affinity, value readout, and per-element usage mass.

A read keeps what the top-k filter keeps: per query column, the
k = min(top_k, n) retained element indices in ascending order and their
softmax weights, a pair of (hw, k) arrays. Memory keys and values arrive as
element-major rows, (n, c_k) and (n, c_v), so the readout gathers contiguous
value rows.

The top-k is selected exactly, one cache-sized block of query rows at a
time. Per row, the k-th largest of the maxima of g strided column groups
bounds the k-th largest value from below (k distinct groups each hold a value
at least that large), so every element at or above the bound is a candidate
and the top k are among them. Usually a row has only a few more than k
candidates; only rows with a surplus are resolved exactly, by sorting their
own candidates. Temporaries stay at one block, never (hw, n).

All operations are pure functions of their inputs and single precision.
Reduction order is fixed (retained elements are always processed in
ascending index order), so results are reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from .core_types import ContractError, QueryBlock, SelectionBlock, ShapeError

# similarities per block of query rows in the top-k selection (1 MB of float32)
_TOPK_BLOCK = 1 << 18
# column groups whose maxima bound each row's k-th largest value; with
# n <= _GROUPS every group is one column and the bound is exact. Prime, so
# that a query position's copies in successive stored frames (hw columns
# apart, often its closest matches) fall into distinct groups; a group count
# sharing a factor f with hw would squeeze them into 1/f as many groups
_GROUPS = 1021


def similarity(
    keys: np.ndarray, shrinkage: np.ndarray, q: QueryBlock, e: SelectionBlock
) -> np.ndarray:
    """Anisotropic squared-distance similarity between memory and query.

    keys are (n, c_k) element rows and shrinkage (n,); the result is (hw, n),
    entry (j, i) scoring memory element i against query j. Entries are <= 0.
    Computed via the expansion
        S = s_col * (-(k*k)^T e + 2 k^T (e*q) - ones (e*q*q)),
    which is elementwise products and matrix multiplies only. With unit
    shrinkage and selection this is exactly the negated squared L2 distance
    (up to rounding).
    """
    keys = np.asarray(keys, dtype=np.float32)
    shrinkage = np.asarray(shrinkage, dtype=np.float32)
    n = keys.shape[0]
    if shrinkage.shape != (n,):
        raise ShapeError(f"keys have {n} elements but shrinkage has shape {shrinkage.shape}")
    if q.data.shape != e.data.shape:
        raise ShapeError(f"query {q.data.shape} and selection {e.data.shape} differ")
    if keys.shape[1] != q.c_k:
        raise ShapeError(f"keys have {keys.shape[1]} channels but query has {q.c_k}")
    if n == 0:
        return np.zeros((q.hw, 0), dtype=np.float32)

    qd, ed = q.data, e.data
    eq = ed * qd
    # single fused GEMM: stacking [k, k*k, 1] against [2 e*q; -e; -sum(e*q*q)]
    # yields all three expansion terms in one pass with no large temporaries
    lhs = np.concatenate([keys, keys * keys, np.ones((n, 1), dtype=np.float32)], axis=1)
    rhs = np.concatenate([2.0 * eq, -ed, -np.sum(eq * qd, axis=0, keepdims=True)])
    # (hw, n), so the top-k filter reads contiguous rows
    sim = rhs.T @ lhs.T
    sim *= shrinkage[None, :]
    # rounding in the expansion can leave +epsilon where the true value is 0
    # (coincident key and query); clamp to keep the sign guarantee exact
    np.minimum(sim, 0.0, out=sim)
    return sim


def _retained_indices(rows: np.ndarray, top_k: int) -> np.ndarray:
    """Per-row indices of the top_k largest values, value ties toward the
    lower index, each row sorted ascending.

    Rows are processed in blocks of about _TOPK_BLOCK values. In a block,
    each row's maxima over g = min(n, max(_GROUPS, top_k)) strided column
    groups (column j is in group j % g) give a bound: their top_k-th largest
    is at most the row's top_k-th largest value. The candidates are the
    values at or above the bound, in ascending column order. A row with
    exactly top_k candidates keeps them all; a row with more keeps its first
    top_k candidates by (value descending, index ascending).
    """
    hw, n = rows.shape
    g = min(n, max(_GROUPS, top_k))
    full = n - n % g
    step = max(1, _TOPK_BLOCK // n)
    kept = np.empty((hw, top_k), dtype=np.intp)
    for start in range(0, hw, step):
        block = np.ascontiguousarray(rows[start : start + step])
        b = block.shape[0]
        group_max = block[:, :full].reshape(b, -1, g).max(axis=1)
        tail = group_max[:, : n - full]
        np.maximum(tail, block[:, full:], out=tail)
        bound = np.partition(group_max, g - top_k, axis=1)[:, g - top_k]
        # flat positions of the candidates, row-major, columns ascending
        cand = np.flatnonzero(block >= bound[:, None])
        row = cand // n
        surplus = np.bincount(row, minlength=b) > top_k
        if surplus.any():
            keep = ~surplus[row]
            sel = np.flatnonzero(~keep)
            # stable sort by (row, value descending) keeps tied values in
            # column order; sel is already grouped by row, so the sort keeps
            # that grouping and rank is a slot's position within its row
            r = row[sel]
            order = np.lexsort((-block.ravel()[cand[sel]], r))
            rank = np.arange(sel.size) - np.searchsorted(r, r)
            keep[sel[order[rank < top_k]]] = True
            cand = cand[keep]
        kept[start : start + b] = cand.reshape(b, top_k) - np.arange(0, b * n, n)[:, None]
    return kept


def affinity(sim: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Softmax over the top_k most similar memory elements of each query.

    sim is (hw, n). Per query row, the k = min(top_k, n) largest similarities
    are retained (ties toward the lower element index) and the softmax is
    taken over them; every other element has weight 0. Returns the read: the
    retained indices, ascending, and their weights, both (hw, k). The per-row
    max is subtracted before exponentiation since similarities are
    large-magnitude negatives.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    sim = np.asarray(sim, dtype=np.float32)
    if sim.shape[1] == 0:
        raise ContractError("cannot read from an empty combined memory")
    kept = _retained_indices(sim, min(top_k, sim.shape[1]))
    vals = np.take_along_axis(sim, kept, axis=1)
    vals -= vals.max(axis=1, keepdims=True)
    ex = np.exp(vals)
    return kept, ex / ex.sum(axis=1, keepdims=True)


def readout(values: np.ndarray, read: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Aggregate value rows through a sparse read; returns (c_v, hw).

    values are (n, c_v) element rows and read is (indices, weights) as
    returned by `affinity`. Output column j is
    sum_s weights[j, s] * values[indices[j, s]], summed in ascending index
    order one retained slot at a time, so temporaries stay at hw x c_v. Each
    output column is a convex combination of value rows.
    """
    values = np.asarray(values, dtype=np.float32)
    indices, weights = read
    if indices.shape != weights.shape:
        raise ShapeError(f"indices {indices.shape} and weights {weights.shape} differ")
    if indices.size and not 0 <= indices.min() <= indices.max() < values.shape[0]:
        raise ShapeError(f"affinity retains elements outside the {values.shape[0]} value rows")
    hw, k = indices.shape
    out = np.zeros((hw, values.shape[1]), dtype=np.float32)
    rows = np.empty_like(out)
    for s in range(k):
        # indices are checked above; "clip" lets take write into rows unbuffered
        np.take(values, indices[:, s], axis=0, out=rows, mode="clip")
        rows *= weights[:, s, None]
        out += rows
    return out.T


def usage_mass(read: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """Per-element affinity mass of a read over n elements, summed across
    query columns, float64 (n,)."""
    indices, weights = read
    return np.bincount(indices.ravel(), weights=weights.ravel(), minlength=n)
