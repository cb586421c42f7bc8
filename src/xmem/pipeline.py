"""Per-frame orchestration across the three memory stores.

Every frame: read from the track's memory (long-term prototypes and working
frames in one buffer), route the affinity mass into per-element usage, and
advance the track's sensory state, one (c_h, h*w) array. Every r-th frame:
copy the query in as a new working-memory key (with its value and
shrinkage) and optionally deep-update the sensory state. When the working
memory reaches its frame cap, consolidate the oldest non-reference frames
into long-term prototypes, evicting least-used prototypes if the cap
demands.

One pipeline per stream; object tracks share nothing. The frame loop is
sequential and runs on the calling thread, objects one after another; only
the reads inside it (`affinity` and `readout`) split their query row blocks
over the available CPUs, each worker in its own thread's read buffer. Usage,
the sensory cell and the rest of consolidation stay on the calling thread.
Separate pipelines may be stepped from separate threads; one pipeline is
stepped from one thread at a time. A frame's inputs are checked for every
object before the first read, so a rejected frame changes no state and can
be stepped again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Literal, get_args

import numpy as np

from . import core_types
from .affinity import affinity, query_operand, readout, usage_mass
from .core_types import (
    ConfigError,
    ContractError,
    FeatureDims,
    KeyBlock,
    ShapeError,
    ValidationError,
    ValueBlock,
    map_selection,
    map_shrinkage,
    sigmoid,
)
from .long_term_memory import (
    ConsolidationReport,
    potentiate,
    select_kmeans,
    select_prototypes,
    select_random,
)
from .memory import Segment, TrackMemory, window_problems
from .sensory import GruWeights, deep_update, gru_step

DeepUpdateMode = Literal["every_rth", "every_frame", "never"]
PrototypeStrategy = Literal["usage", "random", "kmeans"]

PROB_EPS = 1e-7


@dataclass(frozen=True)
class PipelineConfig:
    dims: FeatureDims
    r: int = 10
    t_min: int = 5
    t_max: int = 10
    p: int = 128
    top_k: int = 30
    l_max: int = 10_000
    deep_update_mode: DeepUpdateMode = "every_rth"
    prototype_strategy: PrototypeStrategy = "usage"
    insert_offset: int = 0
    unbounded: bool = False
    sensory_input_channels: int | None = None

    def __post_init__(self):
        """Check every rule; one ConfigError carries each rule broken."""
        problems = window_problems(self.t_min, self.t_max)
        if self.r < 1:
            problems.append(f"r must be >= 1, got {self.r}")
        if self.p < 1:
            problems.append(f"p must be >= 1, got {self.p}")
        if self.top_k < 1:
            problems.append(f"top_k must be >= 1, got {self.top_k}")
        if self.l_max < self.p:
            problems.append(f"l_max ({self.l_max}) must be >= p ({self.p})")
        if not 0 <= self.insert_offset < self.r:
            problems.append(f"insert_offset ({self.insert_offset}) must lie in [0, r)")
        if self.deep_update_mode not in get_args(DeepUpdateMode):
            problems.append(f"unknown deep_update_mode {self.deep_update_mode!r}")
        if self.prototype_strategy not in get_args(PrototypeStrategy):
            problems.append(f"unknown prototype_strategy {self.prototype_strategy!r}")
        channels = self.sensory_input_channels
        if channels is not None and channels < 1:
            problems.append(f"sensory_input_channels must be >= 1, got {channels}")
        if problems:
            raise ConfigError(*problems)

    @property
    def sensory_channels(self) -> int:
        channels = self.sensory_input_channels
        return self.dims.c_h if channels is None else channels


@dataclass(frozen=True)
class ObjectFeatures:
    """One frame's raw encoder-side features for a single object.

    Query and shrinkage/selection arrive unmapped; the pipeline applies the
    range mappings on ingestion. Shapes are given by `shapes`.
    """

    raw_query: np.ndarray
    raw_shrinkage: np.ndarray
    raw_selection: np.ndarray
    values: np.ndarray
    sensory_input: np.ndarray

    @staticmethod
    def shapes(c_k: int, c_v: int, c_in: int, hw: int) -> dict[str, tuple[int, ...]]:
        """Each field's shape, in field order, which is also the stream's block order."""
        return {
            "raw_query": (c_k, hw),
            "raw_shrinkage": (hw,),
            "raw_selection": (c_k, hw),
            "values": (c_v, hw),
            "sensory_input": (c_in, hw),
        }


@dataclass
class ObjectTrack:
    object_id: int
    memory: TrackMemory
    # the read-only (c_h, h*w) sensory state; each step replaces it
    sensory: np.ndarray

    @property
    def working(self) -> Segment:
        return self.memory.working

    @property
    def long_term(self) -> Segment:
        return self.memory.long_term

    @property
    def total_elements(self) -> int:
        return self.memory.n


@dataclass(frozen=True)
class FrameEvents:
    inserted: bool
    consolidated: bool
    evicted_count: int
    report: ConsolidationReport | None = None


@dataclass(frozen=True)
class FrameOutput:
    object_id: int
    readout: np.ndarray
    fused_probabilities: np.ndarray
    events: FrameEvents


def soft_aggregate(per_object_probs: np.ndarray) -> np.ndarray:
    """Fuse per-object foreground probabilities into one distribution.

    Each probability becomes odds p/(1-p) against implicit background odds
    of 1; columns of the (objects+1, hw) result sum to 1, row 0 being the
    background. Inputs at exactly 0 or 1 are clamped to [eps, 1-eps].
    """
    probs = np.asarray(per_object_probs, dtype=np.float32)
    if probs.ndim != 2:
        raise ValueError(f"expected (objects, hw) probabilities, got {probs.shape}")
    probs = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    odds = probs / (1.0 - probs)
    stacked = np.concatenate([np.ones((1, probs.shape[1]), dtype=np.float32), odds])
    return stacked / stacked.sum(axis=0, keepdims=True)


class Pipeline:
    """Owns the object tracks and replays the per-frame update schedule."""

    def __init__(
        self,
        config: PipelineConfig,
        first_frame: list[ObjectFeatures],
        seed: int = 0,
    ):
        if not first_frame:
            raise ConfigError("at least one object is required")
        self.config = config
        self.seed = seed
        dims = config.dims

        ss = np.random.SeedSequence(seed)
        gru_seq, deep_seq, probe_seq = ss.spawn(3)
        self.gru_weights = GruWeights.seeded(config.sensory_channels, dims.c_h, seed=gru_seq)
        self.deep_weights = GruWeights.seeded(dims.c_v, dims.c_h, seed=deep_seq)
        # stand-in for mask decoding: a fixed linear probe from the readout
        # to one foreground logit per position
        probe_rng = np.random.default_rng(probe_seq)
        self.probe = (
            probe_rng.standard_normal(dims.c_v).astype(np.float32)
            / np.float32(np.sqrt(dims.c_v))
        )

        self.tracks: list[ObjectTrack] = []
        ingested = self._ingest(first_frame, use_values=True)
        for obj_id, (query, shrinkage, _, values, _) in enumerate(ingested):
            memory = TrackMemory(
                dims, config.t_min, config.t_max, config.l_max, config.unbounded
            )
            memory.append_frame(query, shrinkage, values, frame_idx=0)
            sensory = np.zeros((dims.c_h, dims.hw()), dtype=np.float32)
            sensory.setflags(write=False)
            self.tracks.append(ObjectTrack(obj_id, memory, sensory))
        self.last_frame_idx = 0
        self.last_read_ns = 0

    # -- schedule ----------------------------------------------------------

    def is_insertion_frame(self, frame_idx: int) -> bool:
        return frame_idx % self.config.r == self.config.insert_offset

    def _select(self, keys: np.ndarray, usage: np.ndarray, frame_idx: int) -> list[int]:
        cfg = self.config
        if cfg.prototype_strategy == "usage":
            return select_prototypes(usage, cfg.p)
        rng = np.random.default_rng((self.seed, frame_idx))
        if cfg.prototype_strategy == "random":
            return select_random(keys.shape[1], cfg.p, rng)
        return select_kmeans(keys, cfg.p, rng)

    # -- per-frame loop ----------------------------------------------------

    def _ingest(self, features: list[ObjectFeatures], use_values: bool) -> list[tuple]:
        """Check and map every object's inputs before the frame changes any state.

        All five fields must have their documented shapes; the fields the
        frame uses must be finite (values only when `use_values`). Returns per
        object, in field order, the query, shrinkage, selection, values (None
        when unused) and sensory input.
        """
        cfg = self.config
        dims = cfg.dims
        shapes = ObjectFeatures.shapes(dims.c_k, dims.c_v, cfg.sensory_channels, dims.hw())
        # by field name; a mapper raises ValidationError on bad entries
        mappers = {
            "raw_query": KeyBlock,
            "raw_shrinkage": map_shrinkage,
            "raw_selection": map_selection,
            "values": ValueBlock if use_values else lambda _: None,
            "sensory_input": lambda raw: core_types._frozen_f32(raw, "sensory input"),
        }
        ingested = []
        for obj, feats in enumerate(features):
            for name, shape in shapes.items():
                got = np.shape(getattr(feats, name))
                if got != shape:
                    raise ShapeError(f"object {obj}: {name} has shape {got}, want {shape}")
            mapped = []
            for name in shapes:
                try:
                    mapped.append(mappers[name](getattr(feats, name)))
                except ValidationError as err:
                    raise ValidationError(f"object {obj}: {name}: {err}") from None
            ingested.append(tuple(mapped))
        return ingested

    def step(self, features: list[ObjectFeatures], frame_idx: int) -> list[FrameOutput]:
        if frame_idx <= self.last_frame_idx:
            raise ContractError(
                f"frame index {frame_idx} not after {self.last_frame_idx}"
            )
        if len(features) != len(self.tracks):
            raise ContractError(
                f"{len(features)} feature sets for {len(self.tracks)} objects"
            )
        cfg = self.config
        dims = cfg.dims
        insert = self.is_insertion_frame(frame_idx)
        mode = cfg.deep_update_mode
        deep = mode == "every_frame" or (insert and mode == "every_rth")
        ingested = self._ingest(features, use_values=insert or deep)

        readouts: list[np.ndarray] = []
        events: list[FrameEvents] = []
        probs = np.empty((len(self.tracks), dims.hw()), dtype=np.float32)
        read_ns = 0

        for track, (query, shrinkage, selection, values, sensory_input) in zip(
            self.tracks, ingested
        ):
            memory = track.memory
            operand, mem_values = memory.read()

            t0 = time.perf_counter_ns()
            read = affinity(operand, query_operand(query.data, selection.data), cfg.top_k)
            feat = readout(mem_values, read)
            read_ns += time.perf_counter_ns() - t0
            readouts.append(feat)
            memory.add_usage(usage_mass(read, memory.n))

            track.sensory = gru_step(track.sensory, sensory_input, self.gru_weights)
            if deep:
                track.sensory = deep_update(track.sensory, values.data, self.deep_weights)

            report = None
            if insert:
                memory.append_frame(query, shrinkage, values, frame_idx)
                if memory.due:
                    keys, _, cand_values, cand_operand, usage = memory.candidates(frame_idx)
                    indices = self._select(keys, usage, frame_idx)
                    report = memory.commit(
                        *potentiate(keys, cand_values, cand_operand, indices, cfg.top_k)
                    )
            evicted = report.evicted_count if report else 0
            events.append(FrameEvents(insert, report is not None, evicted, report))
            probs[track.object_id] = sigmoid(self.probe @ feat)

        fused = soft_aggregate(probs)
        self.last_frame_idx = frame_idx
        self.last_read_ns = read_ns
        return [
            FrameOutput(track.object_id, feat, fused, ev)
            for track, feat, ev in zip(self.tracks, readouts, events)
        ]
