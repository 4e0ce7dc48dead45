"""explainkit: model-agnostic explanations of single tabular predictions.

Decompose a scorer's prediction into per-feature contributions (greedy
breakdown or closed-form for linear models), cross-check with exact or
sampled Shapley values over the same conditioning, fit local surrogate
models around the explained observation, and emit deterministic SVG plots.
"""

__version__ = "0.1.0"

from .breakdown import Attribution, AttributionEntry, ag_break, attribution_text, lm_break
from .errors import (
    ConvergenceError,
    DataError,
    ExplainError,
    ModelError,
    SchemaError,
    ScorerError,
    UsageError,
)
from .live import (
    LassoResult,
    LocalDataset,
    SurrogateFit,
    add_predictions,
    fit_explanation,
    lasso_coordinate_descent,
    sample_locally,
)
from .predict import (
    ConstantPredictor,
    Encoder,
    ExternalPredictor,
    KernelRidgePredictor,
    LinearModel,
    Predictor,
    external_scorer,
    fit_kernel_ridge,
    fit_ols,
)
from .relax import (
    RelaxationTrace,
    TraceStep,
    relaxation_trace,
    relaxed_prediction,
)
from .render import PlotDocument, render_forest, render_trace, render_waterfall
from .shapley import ShapleyEstimate, shapley_exact, shapley_sampled
from .tabular import (
    Column,
    Dataset,
    FeatureSchema,
    dataset_from_rows,
    empirical_draw,
    load_csv,
)

__all__ = [
    "__version__",
    "Attribution",
    "AttributionEntry",
    "ag_break",
    "attribution_text",
    "lm_break",
    "ExplainError",
    "DataError",
    "SchemaError",
    "ModelError",
    "ConvergenceError",
    "ScorerError",
    "UsageError",
    "LocalDataset",
    "SurrogateFit",
    "LassoResult",
    "sample_locally",
    "add_predictions",
    "fit_explanation",
    "lasso_coordinate_descent",
    "Predictor",
    "LinearModel",
    "KernelRidgePredictor",
    "ConstantPredictor",
    "ExternalPredictor",
    "Encoder",
    "fit_ols",
    "fit_kernel_ridge",
    "external_scorer",
    "RelaxationTrace",
    "TraceStep",
    "relaxed_prediction",
    "relaxation_trace",
    "PlotDocument",
    "render_waterfall",
    "render_forest",
    "render_trace",
    "ShapleyEstimate",
    "shapley_exact",
    "shapley_sampled",
    "Dataset",
    "Column",
    "FeatureSchema",
    "load_csv",
    "empirical_draw",
    "dataset_from_rows",
]
