"""Output checks the replay runs on every frame, outside the timed window.

`FrameChecker.check` returns the reasons a frame failed, empty when it
passed: the event log line must equal the schedule oracle's, the readout
must be finite, fused-probability columns must sum to 1, and the element
count must stay under the paper's bound. On chosen frames before the first
consolidation it also compares the readout with a float64 read computed here
from the stream file alone, without the engine's reader or read path.
"""

from __future__ import annotations

import numpy as np

from xmem.oracle import BookkeepingRow, format_event_log, oracle_bookkeeping

SUM_TOL = 1e-5
EPS32 = float(np.finfo(np.float32).eps)
# max abs difference between the engine's float32 readout and the float64
# reference on columns with an unambiguous top-k set
READOUT_ATOL = 2e-4
CHUNK = 64  # query columns per float64 block, to keep the check's memory small


class FrameChecker:
    def __init__(self, workload, header, config, path, first_consolidation: int):
        self.header = header
        self.config = config
        self.path = path
        self.bound = config.t_max * header.hw + config.l_max
        self.expected = oracle_bookkeeping(config, header.frame_count)
        last = min(first_consolidation, header.frame_count - 1)
        self.reference_frames = set(
            np.unique(np.linspace(1, last, workload.reference_frames).round().astype(int)).tolist()
        )
        self.reference_columns = 0
        self.reference_skipped = 0

    def check(self, pipeline, frame_idx: int, outputs) -> list[str]:
        reasons = []
        track = pipeline.tracks[0]
        ev = outputs[0].events
        got = BookkeepingRow(
            frame_idx, track.working.frame_count, track.working.element_count,
            track.long_term.element_count, ev.inserted, ev.consolidated, ev.evicted_count,
        )
        if format_event_log([got]) != format_event_log([self.expected[frame_idx]]):
            reasons.append("event log differs from oracle_bookkeeping")
        for out in outputs:
            if not np.isfinite(out.readout).all():
                reasons.append(f"object {out.object_id}: non-finite readout")
        fused = outputs[0].fused_probabilities
        if not (np.abs(fused.sum(axis=0, dtype=np.float64) - 1.0) <= SUM_TOL).all():
            reasons.append("fused probability columns do not sum to 1")
        for t in pipeline.tracks:
            if t.total_elements > self.bound:
                reasons.append(f"object {t.object_id}: {t.total_elements} elements > {self.bound}")
        if frame_idx in self.reference_frames:
            err = self._reference_error(frame_idx, outputs[0].readout)
            if not err <= READOUT_ATOL:
                reasons.append(f"readout differs from float64 reference by {err:.3g}")
        return reasons

    @property
    def skipped_share(self) -> float:
        return self.reference_skipped / self.reference_columns if self.reference_columns else 0.0

    # -- float64 reference -------------------------------------------------

    def _block(self, frame: int, field: str) -> np.ndarray:
        """One field of object 0 at `frame`, read straight from the file."""
        h = self.header
        rows = {"raw_query": h.c_k, "raw_shrinkage": 1, "raw_selection": h.c_k,
                "values": h.c_v, "sensory_input": h.c_in}
        offset = len(h.pack()) + frame * h.object_count * h.bytes_per_object
        for name, count in rows.items():
            if name == field:
                break
            offset += 4 * count * h.hw
        data = np.fromfile(self.path, dtype="<f4", count=rows[field] * h.hw, offset=offset)
        return data.reshape(rows[field], h.hw)

    @staticmethod
    def _magnitude(keys, shrink, index, e, eq, q) -> np.ndarray:
        """Sum of the absolute expansion terms of score (index[j], j), per column j."""
        k = keys[:, index]
        return shrink[index] * ((k * k * e).sum(0) + 2 * (np.abs(k) * np.abs(eq)).sum(0)
                                + (eq * q).sum(0))

    def _reference_error(self, frame_idx: int, engine_readout: np.ndarray) -> float:
        """Max abs error of the engine's readout against a float64 read.

        Before the first consolidation the memory is exactly the inserted
        frames (frame 0 plus every r-th frame before this one), so it is
        rebuilt from the stream. Columns whose k-th and (k+1)-th scores are
        closer than float32 rounding can separate are skipped and counted.
        """
        cfg = self.config
        inserted = [f for f in range(frame_idx) if f == 0 or f % cfg.r == cfg.insert_offset % cfg.r]
        f64 = np.float64
        keys = np.concatenate([self._block(f, "raw_query") for f in inserted], axis=1).astype(f64)
        values = np.concatenate([self._block(f, "values") for f in inserted], axis=1)
        raw_shrink = np.concatenate([self._block(f, "raw_shrinkage")[0] for f in inserted])
        shrink = raw_shrink.astype(f64) ** 2 + 1.0
        query = self._block(frame_idx, "raw_query").astype(f64)
        select = 1.0 / (1.0 + np.exp(-self._block(frame_idx, "raw_selection").astype(f64)))
        n, hw = keys.shape[1], query.shape[1]
        k = min(cfg.top_k, n)
        worst = 0.0
        for lo in range(0, hw, CHUNK):
            q, e = query[:, lo:lo + CHUNK], select[:, lo:lo + CHUNK]
            eq = e * q
            # -s_i * sum_c e_cj (k_ci - q_cj)^2, expanded, in float64
            sim = -shrink[:, None] * ((keys * keys).T @ e - 2.0 * keys.T @ eq + (eq * q).sum(axis=0))
            cols = np.arange(sim.shape[1])
            if k < n:
                top = np.argpartition(-sim, k, axis=0)[: k + 1]
                top_vals = sim[top, cols]
                order = np.argsort(-top_vals, axis=0, kind="stable")
                top = np.take_along_axis(top, order, axis=0)
                top_vals = np.take_along_axis(top_vals, order, axis=0)
                # the engine sums 2*c_k+1 float32 products per score; a gap
                # below that sum's worst-case rounding may order either way
                terms = np.maximum(self._magnitude(keys, shrink, top[k - 1], e, eq, q),
                                   self._magnitude(keys, shrink, top[k], e, eq, q))
                tie = 2 * (2 * keys.shape[0] + 1) * EPS32 * terms
                clear = top_vals[k - 1] - top_vals[k] > tie
                kept, kept_vals = top[:k], top_vals[:k]
            else:
                clear = np.ones(sim.shape[1], dtype=bool)
                kept = np.broadcast_to(np.arange(n)[:, None], sim.shape)
                kept_vals = sim
            weights = np.exp(kept_vals - kept_vals.max(axis=0))
            weights /= weights.sum(axis=0)
            ref = np.einsum("ckj,kj->cj", values[:, kept].astype(f64), weights)
            diff = np.abs(ref - engine_readout[:, lo:lo + CHUNK])[:, clear]
            self.reference_columns += sim.shape[1]
            self.reference_skipped += int((~clear).sum())
            if diff.size:
                worst = max(worst, float(diff.max()))
        return worst
