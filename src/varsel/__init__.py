"""Greedy unsupervised variable selection.

Seven selection algorithms over a shared greedy engine, the metrics to
judge them (variance explained, frame potential, Gaussian mutual
information), exhaustive-search oracles with curvature-based performance
bounds, seeded synthetic benchmark data, and a benchmark harness with a
CLI front end (``varsel``).
"""

from .bench import (
    AlgoConfig,
    BenchCell,
    BenchConfig,
    BenchmarkReport,
    DatasetSource,
    emit_report,
    measure_speedup,
    run_benchmark,
)
from .dataset import (
    Dataset,
    IndexSets,
    center_columns,
    dataset_from_gram,
    load_csv,
    normalize_unit,
    save_csv,
)
from .engine import (
    Cardinality,
    GainFunction,
    GreedyRun,
    Threshold,
    greedy_select,
    lazy_greedy_select,
)
from .errors import (
    EmptyFile,
    LengthMismatch,
    NotMonotone,
    ParseError,
    RaggedRows,
    RankDeficient,
    SelectionError,
    SingularCovariance,
    ThresholdNeverReached,
    TooLarge,
    ZeroColumn,
)
from .metrics import (
    CovarianceModel,
    VECurve,
    auc,
    default_sigma,
    delta_mi,
    frame_potential,
    k_at_threshold,
    mutual_information,
    relative_performance,
    variance_explained,
)
from .oracle import (
    BoundReport,
    OptimalComparison,
    OptimalSubset,
    TabulatedSetFunction,
    bound_report,
    bound_values,
    compare_to_optimal,
    curvature,
    exhaustive_optimal,
    submodularity_ratio,
    tabulated_optimal,
)
from .selectors import (
    ALGORITHMS,
    NipalsResult,
    OrthonormalBasis,
    SelectionResult,
    fosmod_select,
    fsca_select,
    fsfp_fsca_select,
    itfs_select,
    lfsca_select,
    nipals_first_pc,
    pfs_select,
    ufs_select,
)
from .simgen import SimSpec, dataset_from_spec, gen_sim1, gen_sim2

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # dataset
    "Dataset",
    "IndexSets",
    "center_columns",
    "normalize_unit",
    "dataset_from_gram",
    "load_csv",
    "save_csv",
    # metrics
    "VECurve",
    "CovarianceModel",
    "variance_explained",
    "frame_potential",
    "mutual_information",
    "delta_mi",
    "default_sigma",
    "auc",
    "k_at_threshold",
    "relative_performance",
    # engine
    "GainFunction",
    "GreedyRun",
    "Cardinality",
    "Threshold",
    "greedy_select",
    "lazy_greedy_select",
    # selectors
    "ALGORITHMS",
    "SelectionResult",
    "OrthonormalBasis",
    "NipalsResult",
    "nipals_first_pc",
    "fsca_select",
    "lfsca_select",
    "fosmod_select",
    "pfs_select",
    "itfs_select",
    "fsfp_fsca_select",
    "ufs_select",
    # oracle
    "OptimalSubset",
    "OptimalComparison",
    "BoundReport",
    "TabulatedSetFunction",
    "exhaustive_optimal",
    "tabulated_optimal",
    "curvature",
    "submodularity_ratio",
    "bound_values",
    "bound_report",
    "compare_to_optimal",
    # simgen
    "SimSpec",
    "gen_sim1",
    "gen_sim2",
    "dataset_from_spec",
    # bench
    "DatasetSource",
    "AlgoConfig",
    "BenchConfig",
    "BenchCell",
    "BenchmarkReport",
    "run_benchmark",
    "measure_speedup",
    "emit_report",
    # errors
    "SelectionError",
    "ZeroColumn",
    "RankDeficient",
    "ParseError",
    "RaggedRows",
    "EmptyFile",
    "LengthMismatch",
    "ThresholdNeverReached",
    "SingularCovariance",
    "TooLarge",
    "NotMonotone",
]
