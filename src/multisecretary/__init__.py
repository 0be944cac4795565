"""Online selection policies for the finite-support multi-secretary problem."""

__version__ = "0.1.0"

from .distribution import (
    AbilityDistribution,
    ThresholdSet,
    dist_from_dict,
    dist_from_json,
    half_min_mass,
    load_distribution,
    new_distribution,
    thresholds,
)
from .dp import DPTable, optimal_value, solve
from .errors import (
    BadDelta,
    BadEpsilon,
    BadPmf,
    CountMismatch,
    DimensionMismatch,
    IndexOutOfRange,
    InfeasiblePair,
    ModelError,
    NonDecreasingSupport,
    NonMarkovPolicy,
    NonPositiveValue,
    ProbabilityDrift,
    TableMismatch,
)
from .evaluate import (
    RegretRecord,
    clear_caches,
    exact_regret,
    sweep,
    write_records,
)
from .offline import (
    OfflineResult,
    OfflineValue,
    dr_solution,
    offline_expectation,
    offline_expected_value,
    offline_sort,
)
from .policies import (
    AdaptiveIndexPolicy,
    BreakpointPolicy,
    NonAdaptiveMatrix,
    NonAdaptivePolicy,
    index_matrix,
    make_policy,
    take_top_matrix,
)
from .simulate import (
    EpisodeRecord,
    OrbitDiagnostics,
    OrbitSample,
    cutoff_time,
    episode_stream,
    orbit_diagnostics,
    orbit_stats,
    ratio_mean_curve,
    run_episode,
    simulate_paths,
)
