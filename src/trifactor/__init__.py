"""Triangle factors of balanced tripartite graphs.

Find, verify and study perfect triangle factors under minimum cross-degree
conditions: exact small-instance oracle, constructive covering with
exchange augmentation, extremal-family generators, approximate-structure
classifiers, and a CLI / experiment harness.
"""

from .config import Config, load_config
from .cover import (
    ExtremeWitness,
    Extreme,
    Improved,
    SolveOutcome,
    Stuck,
    augment_once,
    easy_cover,
    greedy_partial_cover,
    reduce_mod3,
    solve,
)
from .exact import ExactResult, SearchStats, exact_factor, has_factor
from .families import (
    ApproxBlowUp,
    approx_blow_up,
    blow_up,
    complete_tripartite,
    gamma3,
    gen_gamma,
    gen_random_min_degree,
    gen_theta,
    mutate_add_edge,
    non_edges,
    theta32,
    theta33,
)
from .graph import (
    CoverVerdict,
    Triangle,
    TriangleCover,
    TripartiteGraph,
    VertexRef,
    build_graph,
    verify_cover,
)
from .matching import max_matching
from .extremal import (
    GAMMA_EXACT,
    ExtremeCoverResult,
    ExtremePartition,
    StructureWitness,
    balanced_random_split,
    classify_extreme_partition,
    classify_theta32,
    discriminate_gamma_vs_theta,
    extreme_cover,
    find_parity_triangles,
)
from .harness import SweepSpec, check_conjecture, run_sweep

__version__ = "0.1.0"
