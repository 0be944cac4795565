"""Online selection policies for the finite-support multi-secretary problem."""

__version__ = "0.1.0"

from .distribution import (
    AbilityDistribution,
    dist_from_json,
    half_min_mass,
    load_distribution,
    new_distribution,
    thresholds,
)
from .dp import DPTable, solve
from .errors import (
    BadDelta,
    BadEpsilon,
    BadPmf,
    DimensionMismatch,
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
    exact_regret,
    ratio_mean_curve,
    sweep,
    write_records,
)
from .offline import (
    OfflineValue,
    offline_expectation,
)
from .policies import (
    AdaptiveIndexPolicy,
    BreakpointPolicy,
    NonAdaptivePolicy,
    index_matrix,
    make_policy,
    take_top_matrix,
)
from .simulate import (
    EpisodeRecord,
    OrbitSample,
    cutoff_time,
    orbit_stats,
    run_episode,
)
