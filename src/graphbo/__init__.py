"""Bayesian optimization over attributed connected graphs.

Public surface: the graph data model and domain tools, shortest-path graph
kernels, GP regression, the mixed-integer acquisition encoding with file
export, the exact solver, and the optimization loop.
"""

from .graphs import (
    AttributedGraph,
    DomainSpec,
    LinearRow,
    ShortestPathSummary,
    build_graph,
    domain_feasible,
    enumerate_domain,
    floyd_warshall,
    is_connected,
    read_dataset,
    read_graphs,
    sample_feasible,
    summarize,
    write_dataset,
    write_graphs,
)
from .kernels import (
    KernelHyperparams,
    KernelVariant,
    gram,
    k_combined,
    k_feature,
    k_graph,
)
from .gp import GpModel, fit, lcb, load_model, log_marginal_likelihood, posterior, dump_model
from .encode import (
    MipModel,
    canonical_assignment,
    canonical_structural_assignment,
    encode_acquisition,
    encode_shortest_paths,
)
from .modelio import export_model, read_lp, read_mps
from .solve import (
    PartialAssignment,
    SolveResult,
    SolveStrategy,
    check_feasible,
    count_feasible,
    dual_bound,
    solve,
)
from .bo import (
    BoConfig,
    BoHistory,
    ObjectiveOracle,
    path_profile_target,
    random_baseline,
    run,
    synthetic_oracle,
    warm_start,
)

__version__ = "0.1.0"
