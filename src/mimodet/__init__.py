"""Soft-input soft-output MIMO detection with exhaustive-oracle verification.

Layers (bottom up): Gray-mapped constellations, channel decompositions,
the one-sided detector core, LLR extraction/combining, brute-force
oracles, a MU-MIMO classifier-detector, a hardware cost model, and a
Monte-Carlo simulation harness exposed through the ``detect-sim`` CLI.
"""

from .constellation import (
    Constellation,
    ModScheme,
    PamAxis,
    make_constellation,
    split_prior,
)
from .decomp import (
    PuncturedDecomposition,
    QLDecomp,
    ql_decompose,
    punctured_decompose,
    transform_observation,
)
from .detcore import (
    CandidateList,
    DistanceConstants,
    SlicerTable,
    build_slicer_table,
    detect_one_sided,
    hard_slice,
    rescore_candidates,
    soft_slice,
)
from .errors import (
    ConfigError,
    DegenerateChannelError,
    EnumerationBudgetError,
    MimoDetError,
    MinimaMismatchError,
    ShadowOracleMismatch,
    SingularChannelError,
)
from .hwmodel import (
    DistinctTermCounts,
    FixedPointFormat,
    ShiftAddPlan,
    build_shiftadd_plan,
    count_coprime_pairs,
    count_distinct_terms,
    quantize,
)
from .llrpost import DetectionResult, combine_lists, llr_two_sided
from .mumimo import (
    MuClassification,
    MuScenario,
    classify_interferer,
    count_distance_evals,
    mu_llr,
)
from .oracle import exhaustive_axis_argmin, exhaustive_map

__version__ = "0.1.0"
