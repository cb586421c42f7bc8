"""Memory reading: anisotropic squared-distance similarity, sparse top-k
softmax affinity, value readout, and per-element usage mass.

The similarity of memory element i to query position j is
    S[j, i] = s_i * (-(k_i*k_i) . e_j + 2 k_i . (e_j*q_j) - sum(e_j*q_j*q_j)),
one GEMM of two operands: the memory's (2c_k+1, n) rows [s*k; s*k*k; s],
which the store keeps up to date as it writes (`memory_operand`), and the
query's (hw, 2c_k+1) rows [2 e*q, -e, -sum(e*q*q)] (`query_operand`).

A read keeps what the top-k filter keeps: per query row, the
k = min(top_k, n) retained element indices in ascending order and their
softmax weights, a pair of (hw, k) arrays. `affinity` scores, selects and
weights one block of _READ_ROWS query rows at a time, so the (hw, n)
similarity is never built; `readout` gathers the retained value rows for
_READOUT_ROWS query rows at a time.

Query rows are independent, so every read splits its row blocks over
max(1, min(available CPUs, blocks)) workers: the calling thread and a lazily
started module-level thread pool each take one block, then the next free
block as they finish one; numpy releases the GIL in the GEMM, the selection
and the gather. Every block runs the same block-level steps over the same
block boundaries as a serial read and writes only its own rows of the
outputs, so the result is byte-identical whichever worker reads it. A
serial read is the same loop on one worker, the calling thread. Each block
scores or gathers in its own thread's read buffer, which the thread keeps
and grows only when a larger block is needed: a pool thread keeps its
buffer for the life of the process, bounded by the largest block it has read.

The top-k is selected exactly. Per row, the k-th largest of the maxima of g
strided column groups bounds the k-th largest value from below (k distinct
groups each hold a value at least that large), so every element at or above
the bound is a candidate and the top k are among them. Usually a row has only
a few more than k candidates; only rows with a surplus are resolved exactly,
by sorting their own candidates.

All operations are pure functions of their inputs and single precision.
Reduction order is fixed (retained elements are always processed in
ascending index order), so results are reproducible run to run.
"""

from __future__ import annotations

import collections
import os
import threading

import numpy as np

from .core_types import ContractError, ShapeError

# query rows scored, selected and weighted together; a block of scores is
# _READ_ROWS x n float32 (7.5 MB at n = 14580). Far fewer rows starve the
# GEMM: 16 rows read twice as slowly at the paper's geometry
_READ_ROWS = 128
# query rows whose retained value rows are gathered together; the gather
# buffer is _READOUT_ROWS * top_k * c_v float32 (480 KB at top_k 30, c_v 512)
_READOUT_ROWS = 8
# column groups whose maxima bound each row's k-th largest value; with
# n <= _GROUPS every group is one column and the bound is exact. Prime, so
# that a query position's copies in successive stored frames (hw columns
# apart, often its closest matches) fall into distinct groups; a group count
# sharing a factor f with hw would squeeze them into 1/f as many groups
_GROUPS = 1021
# smallest normal float32; the readout skips the products of smaller weights
_TINY = np.finfo(np.float32).tiny


def memory_operand(
    keys: np.ndarray, shrinkage: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The similarity's memory operand: for channel-major keys (c_k, n) and
    shrinkage (n,), the float32 (2c_k+1, n) rows [s*k; (s*k)*k; s].

    Written into `out` when given (a store's columns), else a new array.
    """
    keys = np.asarray(keys, dtype=np.float32)
    shrinkage = np.asarray(shrinkage, dtype=np.float32)
    c_k, n = keys.shape
    if shrinkage.shape != (n,):
        raise ShapeError(f"keys have {n} elements but shrinkage has shape {shrinkage.shape}")
    if out is None:
        out = np.empty((2 * c_k + 1, n), dtype=np.float32)
    np.multiply(keys, shrinkage, out=out[:c_k])
    np.multiply(out[:c_k], keys, out=out[c_k : 2 * c_k])
    out[2 * c_k] = shrinkage
    return out


def query_operand(q: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The similarity's query operand: for channel-major queries q (c_k, hw)
    and selection e (c_k, hw), the float32 (hw, 2c_k+1) rows
    [2 e*q, -e, -sum(e*q*q)], one per query position."""
    q = np.asarray(q, dtype=np.float32)
    e = np.asarray(e, dtype=np.float32)
    if q.shape != e.shape:
        raise ShapeError(f"query {q.shape} and selection {e.shape} differ")
    eq = e * q
    return np.concatenate([2.0 * eq, -e, -np.sum(eq * q, axis=0, keepdims=True)]).T


def _scores(operand: np.ndarray, rhs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unclamped similarities (b, n) of query rows rhs (b, 2c_k+1) to the
    memory elements of operand (2c_k+1, n), one GEMM."""
    if rhs.shape[1] != operand.shape[0]:
        raise ShapeError(
            f"query operand has {rhs.shape[1]} rows but memory operand has {operand.shape[0]}"
        )
    return np.matmul(rhs, operand, out=out)


def similarity(operand: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Similarities (b, n) of query rows rhs (b, 2c_k+1) to the memory
    elements of operand (2c_k+1, n), all at once: the scores `affinity`
    reads one block at a time. Entry (j, i) scores element i against query
    j. Entries are <= 0. With unit shrinkage and selection this is exactly
    the negated squared L2 distance (up to rounding).
    """
    out = _scores(operand, rhs)
    # rounding in the expansion can leave +epsilon where the true value is 0
    # (coincident key and query); clamp to keep the sign guarantee exact
    np.minimum(out, 0.0, out=out)
    return out


def _retained_indices(block: np.ndarray, top_k: int) -> np.ndarray:
    """Per-row indices of the top_k largest of min(block, 0), value ties
    toward the lower index, each row sorted ascending.

    Each row's maxima over g = min(n, max(_GROUPS, top_k)) strided column
    groups (column j is in group j % g) give a bound: their top_k-th largest
    is at most the row's top_k-th largest value. The candidates are the
    values at or above the bound, in ascending column order. A row with
    exactly top_k candidates keeps them all; a row with more keeps its first
    top_k candidates by (value descending, index ascending).

    The clamp at 0 is applied to the group maxima and to the candidates'
    values, never to the block: the largest of clamped values is the clamped
    largest, and x >= bound exactly when min(x, 0) >= bound for a bound <= 0.
    """
    b, n = block.shape
    g = min(n, max(_GROUPS, top_k))
    full = n - n % g
    group_max = block[:, :full].reshape(b, -1, g).max(axis=1)
    tail = group_max[:, : n - full]
    np.maximum(tail, block[:, full:], out=tail)
    np.minimum(group_max, 0.0, out=group_max)
    group_max.partition(g - top_k, axis=1)
    # flat positions of the candidates, row-major, columns ascending
    cand = np.flatnonzero(block >= group_max[:, g - top_k, None])
    row = cand // n
    surplus = np.bincount(row, minlength=b) > top_k
    if surplus.any():
        keep = ~surplus[row]
        sel = np.flatnonzero(~keep)
        # stable sort by (row, value descending) keeps tied values in
        # column order; sel is already grouped by row, so the sort keeps
        # that grouping and rank is a slot's position within its row
        r = row[sel]
        order = np.lexsort((-np.minimum(block.ravel()[cand[sel]], 0.0), r))
        rank = np.arange(sel.size) - np.searchsorted(r, r)
        keep[sel[order[rank < top_k]]] = True
        cand = cand[keep]
    return cand.reshape(b, top_k) - np.arange(0, b * n, n)[:, None]


def _cores() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not available on every platform
        return os.cpu_count() or 1


_local = threading.local()


def _buffer(size: int) -> np.ndarray:
    """This thread's flat float32 read buffer, at least `size` entries; its
    contents are undefined.

    It holds a block of scores during `affinity`, then the gather buffer
    during `readout`. A fresh block per read costs page faults whenever the
    allocator hands its pages back to the system between reads: about 200
    per read at hw 64, n 1500, over a third of the read's time. So each
    thread keeps its buffer for its lifetime (a pool thread's, for the life
    of the process), growing it only when a larger block is needed.
    """
    buffer = getattr(_local, "buffer", None)
    if buffer is None or buffer.size < size:
        buffer = _local.buffer = np.empty(size, dtype=np.float32)
    return buffer


# the concurrent.futures.ThreadPoolExecutor of the first threaded read
_pool = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run(read_block, hw: int) -> None:
    """Call read_block(rows) for each block of _READ_ROWS of hw query rows
    on max(1, min(available CPUs, blocks)) workers: worker 0 is this
    thread, the rest run on the pool. Worker w reads block w, if hw has
    one, then the next free block as it finishes one; a serial read is this
    loop on one worker. So a worker whose CPU is taken away for a while (by
    another process, or by the hypervisor) delays the read by at most the
    block it holds, not by a fixed share of the blocks. Returns once every
    worker has finished, raising the first failure, so no worker is left
    writing into the outputs behind the caller's back."""
    workers = max(1, min(_cores(), -(-hw // _READ_ROWS)))
    # popleft and clear are atomic, so the workers share the queue unlocked
    queue = collections.deque(range(workers * _READ_ROWS, hw, _READ_ROWS))

    def share(w: int) -> None:
        start = w * _READ_ROWS
        try:
            while start < hw:
                read_block(slice(start, min(start + _READ_ROWS, hw)))
                try:
                    start = queue.popleft()
                except IndexError:
                    return
        except BaseException:
            queue.clear()  # the read has failed: no worker starts another block
            raise

    if workers == 1:
        return share(0)
    # imported with the pool, not with the module: the import alone raised the
    # peak RSS of the single-block lt-churn benchmark by about 5 MB
    from concurrent.futures import ThreadPoolExecutor, wait

    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _cores() - 1), thread_name_prefix="xmem-read")
        pool = _pool
    futures = [pool.submit(share, w) for w in range(1, workers)]
    try:
        share(0)
    finally:
        wait(futures)
    for future in futures:
        future.result()


def _read_rows(
    operand: np.ndarray, rhs: np.ndarray, k: int, kept: np.ndarray, weights: np.ndarray
) -> None:
    """The read of one block of query rows rhs (b, 2c_k+1): scores it into
    b x n entries of this thread's read buffer, then writes its retained
    indices into `kept` (b, k) and their weights into `weights` (b, k)."""
    b, n = rhs.shape[0], operand.shape[1]
    scores = _buffer(b * n)[: b * n].reshape(b, n)
    _scores(operand, rhs, out=scores)
    kept[:] = idx = _retained_indices(scores, k)
    vals = np.take_along_axis(scores, idx, axis=1)
    np.minimum(vals, 0.0, out=vals)
    # similarities are large-magnitude negatives: subtract the row max
    # before exponentiating
    vals -= vals.max(axis=1, keepdims=True)
    np.exp(vals, out=vals)
    np.divide(vals, vals.sum(axis=1, keepdims=True), out=weights)


def affinity(operand: np.ndarray, rhs: np.ndarray, top_k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse softmax read of query rows rhs (hw, 2c_k+1) over memory operand
    (2c_k+1, n): per query row, the k = min(top_k, n) largest similarities
    are retained (ties toward the lower element index) and the softmax is
    taken over them; every other element has weight 0.

    Returns the read: the retained indices, ascending, and their float32
    weights, both (hw, k). The read runs its blocks of _READ_ROWS query rows
    on max(1, min(available CPUs, blocks)) workers, each scoring its block
    in its own thread's read buffer, so temporaries stay at one block of
    _READ_ROWS x n scores per worker. The scores are those of `similarity`,
    whose clamp at 0 is applied only where the selection and the softmax
    look.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    hw, n = rhs.shape[0], operand.shape[1]
    if n == 0:
        raise ContractError("cannot read from an empty memory")
    k = min(top_k, n)
    kept = np.empty((hw, k), dtype=np.intp)
    weights = np.empty((hw, k), dtype=np.float32)
    _run(lambda rows: _read_rows(operand, rhs[rows], k, kept[rows], weights[rows]), hw)
    return kept, weights


def _readout_rows(
    values: np.ndarray, indices: np.ndarray, weights: np.ndarray, out: np.ndarray
) -> None:
    """Readout rows `out` (b, c_v) of one block of queries, gathering the
    retained value rows of _READOUT_ROWS queries at a time into the first
    min(b, _READOUT_ROWS) x k x c_v entries of this thread's read buffer."""
    b, k = indices.shape
    c_v = values.shape[1]
    gathered = _buffer(min(b, _READOUT_ROWS) * k * c_v)
    for start in range(0, b, _READOUT_ROWS):
        stop = min(start + _READOUT_ROWS, b)
        rows = gathered[: (stop - start) * k * c_v].reshape(-1, c_v)
        # indices are checked by `readout`; "clip" lets take write into rows
        # unbuffered
        np.take(values, indices[start:stop].ravel(), axis=0, out=rows, mode="clip")
        np.matmul(
            weights[start:stop, None, :],
            rows.reshape(stop - start, k, c_v),
            out=out[start:stop, None, :],
        )


def readout(values: np.ndarray, read: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Aggregate value rows through a sparse read; returns (c_v, hw).

    values are (n, c_v) element rows and read is (indices, weights) as
    returned by `affinity`. Output column j is
    sum_s weights[j, s] * values[indices[j, s]], over the retained slots in
    ascending index order, skipping subnormal weights. The query rows are
    split over workers as in `affinity`, and each worker gathers the rows of
    _READOUT_ROWS query positions at a time into its thread's read buffer,
    so temporaries stay at hw x c_v plus one gather buffer per worker. Each
    output column is a convex combination of value rows.
    """
    # np.take of rows is ~12x slower on a transposed channel-major block than
    # on C-ordered rows; the store's rows are C-ordered and pass uncopied
    values = np.ascontiguousarray(values, dtype=np.float32)
    indices, weights = read
    if indices.shape != weights.shape:
        raise ShapeError(f"indices {indices.shape} and weights {weights.shape} differ")
    if indices.size and not 0 <= indices.min() <= indices.max() < values.shape[0]:
        raise ShapeError(f"affinity retains elements outside the {values.shape[0]} value rows")
    # a product with a subnormal weight changes the sum by less than 1.2e-38
    # times the value, but each costs a microcode assist on x86: a
    # potentiation read's readout (128 queries, c_v 512), where far
    # candidates get subnormal weights, took 2.3 ms instead of 0.6
    weights = np.where(np.abs(weights) < _TINY, np.float32(0.0), weights)
    hw = indices.shape[0]
    out = np.empty((hw, values.shape[1]), dtype=np.float32)
    _run(lambda rows: _readout_rows(values, indices[rows], weights[rows], out[rows]), hw)
    return out.T


def usage_mass(read: tuple[np.ndarray, np.ndarray], n: int) -> np.ndarray:
    """Per-element affinity mass of a read over n elements, summed across
    query columns, float64 (n,)."""
    indices, weights = read
    return np.bincount(indices.ravel(), weights=weights.ravel(), minlength=n)
