"""Prototype selection and potentiation for long-term consolidation.

Consolidation selects the most-used candidate columns as prototype keys and
enriches their values (and shrinkage) as affinity-weighted averages over all
candidates, so each stored prototype summarizes its neighborhood in key space
instead of aliasing a single column. The store that holds the prototypes, and
evicts its least-used entries to stay within l_max, is
:class:`xmem.memory.TrackMemory`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import affinity, query_operand, readout
from .core_types import ShapeError


@dataclass(frozen=True)
class ConsolidationReport:
    """Size accounting for one consolidation."""

    prototype_count: int
    evicted_count: int
    candidate_elements: int
    # summed usage of the evicted long-term elements, before eviction
    evicted_usage: float = 0.0

    @property
    def compression_ratio(self) -> float:
        return self.candidate_elements / self.prototype_count


def lowest(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the min(count, n) smallest values, ascending.

    Ties resolve toward the lower index, so this is exactly the head of a
    stable sort by value, put back in index order. It is a selection, one
    partition and a few linear passes, not a sort. values must not hold NaN.
    """
    values = np.asarray(values)
    n = values.shape[0]
    count = min(count, n)
    if count <= 0:
        return np.zeros(0, dtype=np.intp)
    bound = np.partition(values, count - 1)[count - 1]
    picked = values < bound
    ties = np.flatnonzero(values == bound)
    picked[ties[: count - np.count_nonzero(picked)]] = True
    return np.flatnonzero(picked)


def select_prototypes(normalized_usage: np.ndarray, p: int) -> list[int]:
    """Indices of the min(p, n) candidates with the largest normalized usage
    (n,), sorted ascending; ties resolve toward the lower index."""
    usage = np.asarray(normalized_usage, dtype=np.float64)
    if usage.ndim != 1:
        raise ShapeError(f"usage has shape {usage.shape}, want (n,)")
    return lowest(-usage, p).tolist()


def select_random(n: int, p: int, rng: np.random.Generator) -> list[int]:
    """Uniform random choice of min(p, n) of n candidates (ablation baseline)."""
    picked = rng.choice(n, size=min(p, n), replace=False)
    return sorted(int(i) for i in picked)


def select_kmeans(candidate_keys: np.ndarray, p: int, rng: np.random.Generator) -> list[int]:
    """Lloyd k-means over channel-major candidate keys (c_k, n), centroids
    snapped to candidates.

    10 iterations from a random subset init. Each centroid snaps to its
    nearest not-yet-taken candidate so the result stays a unique index set of
    size min(p, n).
    """
    n = candidate_keys.shape[1]
    if n == 0:
        return []
    count = min(p, n)
    pts = candidate_keys.T.astype(np.float64)  # n x c_k
    sq = (pts * pts).sum(axis=1)
    centroids = pts[rng.choice(n, size=count, replace=False)].copy()
    for _ in range(10):
        # |x|^2 - 2 x.c + |c|^2: n x count, no n x count x c_k temporary
        d2 = sq[:, None] - 2.0 * (pts @ centroids.T) + (centroids * centroids).sum(axis=1)
        assign = d2.argmin(axis=1)
        for c in range(count):
            members = pts[assign == c]
            if len(members):
                centroids[c] = members.mean(axis=0)
    taken = np.zeros(n, dtype=bool)
    for c in range(count):
        # exact differences here: a two-member centroid is equidistant from
        # both members, and argmin resolves that tie to the lower index
        dist = ((pts - centroids[c]) ** 2).sum(axis=1)
        dist[taken] = np.inf
        taken[dist.argmin()] = True
    return np.flatnonzero(taken).tolist()


def potentiate(
    candidate_keys: np.ndarray,
    candidate_values: np.ndarray,
    candidate_operand: np.ndarray,
    prototype_indices: list[int],
    top_k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Build prototype columns from the selected candidates.

    The candidates come channel-major, keys (c_k, n) and values (c_v, n),
    with their (2c_k+1, n) memory operand, whose last row is their only
    shrinkage, as `TrackMemory.candidates` gives them (or
    `affinity.memory_operand` builds the operand); the prototypes are
    returned the same way, keys (c_k, p), shrinkage (p,) and values (c_v, p).
    The candidates were checked when they entered the store, so neither they
    nor the prototypes built from them are checked again, and no block is built.

    Prototype keys are exact copies of the selected candidate columns. Values
    and shrinkage are affinity-weighted averages over all candidates, with
    the prototypes acting as queries against the candidate set (unit
    selection, the usual sparse top-k read).
    """
    if len(set(prototype_indices)) != len(prototype_indices):
        raise ValueError("prototype indices must be unique")
    idx = np.asarray(prototype_indices, dtype=np.intp)
    if idx.size and (idx.min() < 0 or idx.max() >= candidate_keys.shape[1]):
        raise ValueError("prototype index out of range")

    proto_keys = candidate_keys[:, idx]
    rhs = query_operand(proto_keys, np.ones_like(proto_keys))
    read = affinity(candidate_operand, rhs, top_k)
    proto_values = readout(candidate_values.T, read)
    proto_shrinkage = readout(candidate_operand[-1][:, None], read)[0]
    # convex combination of values >= 1 can round a hair below the bound
    np.maximum(proto_shrinkage, 1.0, out=proto_shrinkage)
    return proto_keys, proto_shrinkage, proto_values
