"""flowsparse: vertex flow sparsifiers for edge-capacitated terminal networks."""

from .network import (
    DemandVector,
    NetworkError,
    TerminalNetwork,
    merge_vertices,
    phi_merge,
)
from .flow import (
    ConcurrentFlowResult,
    DualSolution,
    FlowError,
    FlowSolution,
    concurrent_flow,
    max_flow,
    mincut_partition,
    sparsest_terminal_cut,
)
from .results import SparsifierResult
from .sketch import DemandSketch, build_sketch
from .merging import profile_bucket_sparsifier, ratio_type_sparsifier
from .splice import FlowDecomposition, FlowPath, compose, splice, unsplice_route
from .sampling import (
    plan_oversampling,
    sample_sparsifier,
    sampling_plan,
    two_hop_maxflows,
)
from .structured import (
    SpTree,
    TreeDecomposition,
    balanced_terminal_separator,
    mimick_small,
    sp_recognize,
    sp_sparsifier,
    treewidth_sparsifier,
)
from .verify import certify, certify_cuts, demand_grid

__version__ = "0.1.0"
