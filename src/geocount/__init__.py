"""geocount: location-choice count models and hot-spot analysis.

Fits binary-presence (logit), Poisson, and zero-inflated Poisson models to
geo-tagged county count data by maximum likelihood, and detects spatial
hot/cold spots with a local z-score statistic over configurable spatial
weights.
"""

from .data import (
    CountyObservation,
    Dataset,
    DesignMatrix,
    binarize_counts,
    build_design,
)
from .exceptions import GeocountError
from .fitting import (
    CoefficientRow,
    FitResult,
    MaximizeResult,
    OptimOptions,
    fd_hessian,
    fit,
    maximize,
    wald_inference,
)
from .ingest import IngestConfig, dataset_to_csv_text, read_dataset, write_dataset
from .likelihoods import (
    Family,
    ModelSpec,
    Params,
    ZipPrediction,
    grad_loglik,
    loglik,
    logit_loglik,
    poisson_loglik,
    predict,
    zip_loglik,
    zip_moments,
    zip_pmf,
)
from .simulate import (
    Bernoulli,
    Clustered,
    DgpSpec,
    Normal,
    RecoveryReport,
    Uniform,
    UniformSquare,
    dgp_spec_from_json,
    dgp_spec_to_json,
    generate,
    paper_scale_spec,
    recovery_trial,
)
from .spatial import (
    DistanceBand,
    HotspotClass,
    HotspotResult,
    KNearest,
    SpatialWeightsMatrix,
    WeightsSummary,
    build_weights,
    classify,
    getis_ord_gstar,
    haversine_km,
)

__version__ = "0.1.0"

__all__ = [
    "Bernoulli",
    "Clustered",
    "CoefficientRow",
    "CountyObservation",
    "Dataset",
    "DesignMatrix",
    "DgpSpec",
    "DistanceBand",
    "Family",
    "FitResult",
    "GeocountError",
    "HotspotClass",
    "HotspotResult",
    "IngestConfig",
    "KNearest",
    "MaximizeResult",
    "ModelSpec",
    "Normal",
    "OptimOptions",
    "Params",
    "RecoveryReport",
    "SpatialWeightsMatrix",
    "Uniform",
    "UniformSquare",
    "WeightsSummary",
    "ZipPrediction",
    "binarize_counts",
    "build_design",
    "build_weights",
    "classify",
    "dataset_to_csv_text",
    "dgp_spec_from_json",
    "dgp_spec_to_json",
    "fd_hessian",
    "fit",
    "generate",
    "getis_ord_gstar",
    "grad_loglik",
    "haversine_km",
    "loglik",
    "logit_loglik",
    "maximize",
    "paper_scale_spec",
    "poisson_loglik",
    "predict",
    "read_dataset",
    "recovery_trial",
    "wald_inference",
    "write_dataset",
    "zip_loglik",
    "zip_moments",
    "zip_pmf",
]
