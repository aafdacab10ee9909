"""Neighborhood regression on networks with community-structured coefficients."""

import os

# OpenBLAS reads this once, when the library loads, so it is set before any
# submodule imports numpy or scipy: an idle worker spins 2^16 cycles (tens of
# microseconds) after a threaded call instead of OpenBLAS's default 2^28
# (0.1-0.2 s), so it stops taking a core from the Python work between calls.
# A value set by the user is kept. See README, "One OpenBLAS pool".
_OPENBLAS_THREAD_TIMEOUT = os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "16")

__version__ = "0.1.0"

from .community import (
    Membership,
    ScreeResult,
    SpectralEmbedding,
    align_permutation,
    detect_communities,
    estimate_k,
    kmeans,
    perturb_membership,
    spectral_embed,
)
from .graph import (
    SbmParams,
    load_edge_list,
    sample_sbm,
    save_adjacency_csv,
    save_edge_list,
    validate_adjacency,
)
from .regression import (
    CenteredData,
    FitResult,
    MultiFitResult,
    build_design,
    center_data,
    fit_full,
    fit_full_multi,
    fit_ols,
    fit_row,
    fit_singleton,
    loss,
    loss_community,
    predict,
)
from .inference import (
    CovarianceEstimate,
    TestTable,
    community_covariance,
    hc_covariance,
    homoskedastic_covariance,
    wald_table,
)
from .baseline import (
    NetcohFit,
    ablation_network,
    cv_select_lambda,
    fit_netcoh,
    laplacian,
    netcoh_objective,
    predict_netcoh,
)
from .metrics import estimation_error, network_adjusted_r2, prediction_error
from .simharness import (
    ExperimentConfig,
    Instance,
    gen_instance,
    run_experiment,
    run_theory_checks,
)

__all__ = [
    "Membership",
    "ScreeResult",
    "SpectralEmbedding",
    "align_permutation",
    "detect_communities",
    "estimate_k",
    "kmeans",
    "perturb_membership",
    "spectral_embed",
    "SbmParams",
    "load_edge_list",
    "sample_sbm",
    "save_adjacency_csv",
    "save_edge_list",
    "validate_adjacency",
    "CenteredData",
    "FitResult",
    "MultiFitResult",
    "build_design",
    "center_data",
    "fit_full",
    "fit_full_multi",
    "fit_ols",
    "fit_row",
    "fit_singleton",
    "loss",
    "loss_community",
    "predict",
    "CovarianceEstimate",
    "TestTable",
    "community_covariance",
    "hc_covariance",
    "homoskedastic_covariance",
    "wald_table",
    "NetcohFit",
    "ablation_network",
    "cv_select_lambda",
    "fit_netcoh",
    "laplacian",
    "netcoh_objective",
    "predict_netcoh",
    "estimation_error",
    "network_adjusted_r2",
    "prediction_error",
    "ExperimentConfig",
    "Instance",
    "gen_instance",
    "run_experiment",
    "run_theory_checks",
]
