"""Fusion-penalty clustering of data with missing entries.

The library pairs an iterative majorize-minimize solver for saturating
fusion penalties with the exact (enumerative) reference solver, recovery
guarantee formulas, synthetic/real data preparation, and an experiment CLI.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .analysis import (
    ClusterRun,
    SuccessCell,
    SuccessCurveSpec,
    adjusted_rand_index,
    cluster_once,
    pca_project,
    success_curve,
)
from .datagen import (
    MaskSpec,
    apply_mask,
    block_centers,
    gen_uniform_kappa,
    generate,
    wine_prepare,
)
from .model import (
    ClusterGeometry,
    ObservedDataset,
    Partition,
    SyntheticSpec,
    coherence,
    estimate_geometry,
)
from .oracle import (
    BoundCheckReport,
    OracleResult,
    group_feasible,
    l0_solve,
    monte_carlo_bound_check,
)
from .penalty import PenaltySpec, default_h1_sigma, phi, weight
from .solver import (
    CentroidSet,
    ConvergenceError,
    MajorizationError,
    SolverConfig,
    SolveTrace,
    default_merge_tol,
    extract_clusters,
    mm_cluster,
    objective,
    objective_gradient,
    update_centroids,
    update_weights,
)
from .theory import (
    GuaranteeReport,
    eta0,
    eta0_approx,
    eta0_enumerate,
    eta0_two_clusters,
    evaluate_guarantees,
    guarantee_curve,
    log_beta0,
    log_delta0,
    log_gamma0,
)

# Every public name but the submodules, which the imports above bind here.
__all__ = [n for n in dir() if not (n.startswith("_") or isinstance(globals()[n], _ModuleType))]
