"""Slow, obviously-correct double-precision reference implementations.

Everything here exists to be diffed against the engine in tests: a literal
triple-loop similarity, a full-sort filtered softmax, scalar-loop matrix
multiplies, a full-sort top-P selection, a per-position scalar GRU cell, and
a counters-only simulator of the per-frame scheduling (insertions,
consolidations, evictions) that never touches feature arithmetic.

Deliberately unoptimized and allocation-heavy; no engine module imports it.
The scheduling simulator returns the engine's own `harness.FrameRecord`.
Any divergence between an oracle and the engine is an engine bug by
definition.
"""

from __future__ import annotations

import math

import numpy as np

from .harness import FrameRecord


def oracle_similarity(keys, shrinkage, query, selection) -> np.ndarray:
    """Entry-by-entry anisotropic squared-distance similarity, float64.

    Returns an n x hw matrix where entry (i, j) is
    -shrinkage[i] * sum_c selection[c, j] * (keys[c, i] - query[c, j])**2.
    """
    k = np.asarray(keys, dtype=np.float64)
    s = np.asarray(shrinkage, dtype=np.float64)
    q = np.asarray(query, dtype=np.float64)
    e = np.asarray(selection, dtype=np.float64)
    if k.shape[0] != q.shape[0] or q.shape != e.shape or k.shape[1] != s.shape[0]:
        raise ValueError(
            f"inconsistent shapes: keys {k.shape}, shrinkage {s.shape}, "
            f"query {q.shape}, selection {e.shape}"
        )
    c_k, n = k.shape
    hw = q.shape[1]
    # plain Python floats keep the loop honest (and much faster than ndarray
    # scalar indexing)
    kl = k.tolist()
    sl = s.tolist()
    ql = q.tolist()
    el = e.tolist()
    out = np.empty((n, hw), dtype=np.float64)
    for i in range(n):
        for j in range(hw):
            acc = 0.0
            for c in range(c_k):
                d = kl[c][i] - ql[c][j]
                acc += el[c][j] * d * d
            out[i, j] = -sl[i] * acc
    return out


def oracle_affinity(sim, top_k: int | None) -> np.ndarray:
    """Column softmax over the top_k largest entries, full-sort, float64.

    Ties at the k-th rank keep the lower element index. top_k=None (or
    top_k >= n) is a plain column softmax. Filtered-out entries are exact 0.
    """
    s = np.asarray(sim, dtype=np.float64)
    n, hw = s.shape
    if n == 0:
        raise ValueError("cannot take affinity over an empty memory")
    out = np.zeros((n, hw), dtype=np.float64)
    for j in range(hw):
        col = s[:, j].tolist()
        order = sorted(range(n), key=lambda i: (-col[i], i))
        kept = order if top_k is None else order[: min(top_k, n)]
        m = max(col[i] for i in kept)
        exps = [(i, math.exp(col[i] - m)) for i in sorted(kept)]
        total = 0.0
        for _, v in exps:
            total += v
        for i, v in exps:
            out[i, j] = v / total
    return out


def oracle_readout(values, weights) -> np.ndarray:
    """Scalar-loop matrix multiply values @ weights, float64."""
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    c_v, n = v.shape
    n2, hw = w.shape
    if n != n2:
        raise ValueError(f"values n={n} does not match weights n={n2}")
    vl = v.tolist()
    wl = w.tolist()
    out = np.empty((c_v, hw), dtype=np.float64)
    for c in range(c_v):
        for j in range(hw):
            acc = 0.0
            for i in range(n):
                acc += vl[c][i] * wl[i][j]
            out[c, j] = acc
    return out


def oracle_top_p(usage, p: int) -> list[int]:
    """Indices of the p largest usages via full sort; ties keep lower index.

    Output is sorted ascending by index.
    """
    u = np.asarray(usage, dtype=np.float64).tolist()
    order = sorted(range(len(u)), key=lambda i: (-u[i], i))
    return sorted(order[: min(p, len(u))])


def oracle_gru_step(h, x, w_z, b_z, w_r, b_r, w_h, b_h) -> np.ndarray:
    """Per-position scalar GRU update of a (c_h, n) state from (c_x, n) input, float64.

    Each column updates from its own input and hidden vectors alone.
    Gate weight rows index the input channels, then the hidden channels,
    matching the engine layout.
    """
    h = np.asarray(h, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    c_h = h.shape[0]

    def gate(w, b, vec):
        out = []
        for o in range(c_h):
            acc = float(b[o])
            row = w[o]
            for idx, v in enumerate(vec):
                acc += float(row[idx]) * v
            out.append(acc)
        return out

    out = np.empty_like(h)
    for j in range(h.shape[1]):
        xv = [float(v) for v in x[:, j]]
        hv = [float(v) for v in h[:, j]]
        z = [1.0 / (1.0 + math.exp(-a)) for a in gate(w_z, b_z, xv + hv)]
        reset = [1.0 / (1.0 + math.exp(-a)) for a in gate(w_r, b_r, xv + hv)]
        h_reset = [g * v for g, v in zip(reset, hv)]
        cand = [math.tanh(a) for a in gate(w_h, b_h, xv + h_reset)]
        for o in range(c_h):
            out[o, j] = (1.0 - z[o]) * hv[o] + z[o] * cand[o]
    return out


# older name of the engine's record, kept for bench/checks.py
BookkeepingRow = FrameRecord


def format_event_log(rows) -> str:
    """Canonical one-line-per-frame rendering used for byte-exact diffs."""
    lines = [
        f"frame={r.frame_idx} wm_frames={r.wm_frames} wm_elements={r.wm_elements} "
        f"lt_elements={r.lt_elements} inserted={int(r.inserted)} "
        f"consolidated={int(r.consolidated)} evicted={r.evicted_count}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def oracle_bookkeeping(config, n_frames: int) -> list[FrameRecord]:
    """Counters-only replay of the per-frame schedule.

    Simulates frame counts, element counts and insertion/consolidation/
    eviction events for n_frames frames without any feature arithmetic.
    Frame 0 seeds the working memory and counts as an insertion.
    """
    hw = config.dims.hw()
    rows = [FrameRecord(0, 1, hw, 0, True, False, 0)]
    wm = 1
    lt = 0
    for t in range(1, n_frames):
        inserted = t % config.r == config.insert_offset % config.r
        consolidated = False
        evicted = 0
        if inserted:
            wm += 1
            if not config.unbounded and wm == config.t_max:
                candidates = (config.t_max - config.t_min) * hw
                protos = min(config.p, candidates)
                evicted = max(0, lt + protos - config.l_max)
                lt = lt - evicted + protos
                wm = config.t_min
                consolidated = True
        rows.append(FrameRecord(t, wm, wm * hw, lt, inserted, consolidated, evicted))
    return rows
