"""Toolkit for leader identification in semi-autonomous consensus networks.

Builds leader/follower graphs, analyzes grounded-Laplacian spectra to
certify that leaders are identifiable, simulates the closed-loop consensus
dynamics under constant external inputs, and recovers the leader set from
steady-state velocity data alone via relative tempos.
"""

__version__ = "0.1.0"

from .dynamics import (
    ExternalInput,
    SimConfig,
    Trajectory,
    choose_measurement_time,
    measure_velocities,
    simulate,
    steady_state,
)
from .graphs import (
    Graph,
    GroundedLaplacian,
    Partition,
    build_graph,
    grounded_laplacian,
    is_connected,
    leaders_nonadjacent,
    make_partition,
    min_follower_degree,
)
from .identifiability import (
    IdentifiabilityReport,
    check_identifiability,
    limiting_fiedler_vector,
    limiting_leader_entry,
    scale_optimal_distance,
    separation_quantities,
)
from .sequences import (
    GraphSequence,
    SequenceConfig,
    dense_follower_instance,
    generate_sequence,
    random_connected_graph,
    random_ensemble,
    validate_sequence,
)
from .spectral import (
    PerronReport,
    SemiNormalizedAdjacency,
    SpectralResult,
    fiedler_pair,
    semi_normalized_adjacency,
    verify_perron,
)
from .tempo import (
    LeaderEstimate,
    PipelineDiagnostics,
    estimate_fiedler,
    identify_leaders,
    relative_tempo,
    run_pipeline,
    vector_angle,
)

__all__ = [
    "__version__",
    "ExternalInput",
    "Graph",
    "GraphSequence",
    "GroundedLaplacian",
    "IdentifiabilityReport",
    "LeaderEstimate",
    "Partition",
    "PerronReport",
    "PipelineDiagnostics",
    "SemiNormalizedAdjacency",
    "SequenceConfig",
    "SimConfig",
    "SpectralResult",
    "Trajectory",
    "build_graph",
    "check_identifiability",
    "choose_measurement_time",
    "dense_follower_instance",
    "estimate_fiedler",
    "fiedler_pair",
    "generate_sequence",
    "grounded_laplacian",
    "identify_leaders",
    "is_connected",
    "leaders_nonadjacent",
    "limiting_fiedler_vector",
    "limiting_leader_entry",
    "make_partition",
    "measure_velocities",
    "min_follower_degree",
    "random_connected_graph",
    "random_ensemble",
    "relative_tempo",
    "run_pipeline",
    "scale_optimal_distance",
    "semi_normalized_adjacency",
    "separation_quantities",
    "simulate",
    "steady_state",
    "validate_sequence",
    "vector_angle",
    "verify_perron",
]
