"""Memory-bounded streaming attention-memory engine.

Three cooperating feature stores (sensory, plus working and long-term memory
sharing one buffer per object track, which also holds the similarity's
memory operand), an anisotropic squared-distance readout over a sparse top-k
softmax affinity scored one block of query rows at a time, the blocks of a
frame spread over the available CPUs, usage-driven consolidation of working
memory into long-term prototypes, and LFU eviction under a hard element cap.
"""

from .affinity import (
    affinity,
    memory_operand,
    query_operand,
    readout,
    similarity,
    usage_mass,
)
from .core_types import (
    CapacityError,
    ConfigError,
    ContractError,
    FeatureDims,
    KeyBlock,
    SelectionBlock,
    ShapeError,
    ShrinkageVector,
    StreamFormatError,
    ValidationError,
    ValueBlock,
    XmemError,
    map_selection,
    map_shrinkage,
)
from .long_term_memory import (
    ConsolidationReport,
    potentiate,
    select_kmeans,
    select_prototypes,
    select_random,
)
from .memory import Segment, TrackMemory
from .pipeline import (
    FrameEvents,
    FrameOutput,
    ObjectFeatures,
    ObjectTrack,
    Pipeline,
    PipelineConfig,
    soft_aggregate,
)
from .sensory import GruWeights, SensoryState, deep_update, gru_step

__version__ = "0.1.0"
