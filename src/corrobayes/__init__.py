"""Bayes linear inference for corroding multi-component pipework systems.

The package simulates a dynamic linear corrosion model over an exchangeable
system of components, learns the local wall-variance and corrosion-variance
hyperparameters from sparse irregular minimum-thickness inspections, adjusts
beliefs about current and future state, and forecasts remnant life, with
discrepancy diagnostics at every stage.
"""

from .adjust import (
    AdjustedBelief,
    LearningComparison,
    RemnantLifeEstimate,
    TargetBelief,
    adjust_from_moments,
    compare_with_without_variance_learning,
    remnant_life,
)
from .calibrate import (
    CalibrationResult,
    CandidateRow,
    EstimatorStudy,
    calibrate,
    estimator_study,
)
from .diagnostics import (
    DiagnosticReport,
    DiagnosticRow,
    adjustment_diagnostics,
    data_discrepancy,
    global_discrepancy,
)
from .errors import (
    ConfigError,
    DegenerateVarianceError,
    InsufficientDataError,
    InvalidCorrelationError,
    ShapeError,
)
from .linalg import (
    MomentPair,
    adjusted_expectation,
    adjusted_variance,
    mahalanobis_discrepancy,
    pseudo_inverse,
)
from .simulate import (
    DbarMoments,
    MomentEstimates,
    draw_dataset,
    estimate_moments,
    estimate_moments_by_law,
    exact_moments,
    forecast_extend,
    moments_by_law,
)
from .system import (
    CorrelationParams,
    InspectionDataset,
    InspectionRecord,
    PriorSpecification,
    SystemTopology,
    VarianceHyperprior,
    build_correlation,
    draw_variance_scales,
    validate_dataset,
)
from .varlearn import (
    DbarStatistic,
    DifferenceScheme,
    adjust_wx,
    build_dbar_statistic,
    build_scheme,
    compute_dbar,
    expected_dbar,
)

__version__ = "0.1.0"
