"""Capture-recapture statistics core.

This package implements the paper's primary contribution: log-linear
capture-recapture models over arbitrarily many sources (Section 3.3)
with Poisson and right-truncated-Poisson likelihoods, AIC/BIC model
selection with the count-division heuristic, profile-likelihood
intervals, and stratified estimation.  Two classic estimators —
Lincoln-Petersen (Section 3.2) and Chao's heterogeneity lower bound —
are included as baselines.
"""

from repro.core.chao import chao_estimate
from repro.core.closed_models import (
    ClosedModelEstimate,
    fit_all_closed_models,
    fit_m0,
    fit_mb,
    fit_mh_jackknife,
    fit_mt,
)
from repro.core.bootstrap import BootstrapResult, bootstrap_population
from repro.core.diagnostics import FitDiagnostics, diagnose_fit
from repro.core.private import (
    blind_source,
    generate_session_key,
    private_contingency_table,
    tabulate_blinded,
)
from repro.core.design import LoglinearTerms, design_matrix, hierarchical_closure
from repro.core.fitkernel import FitCounters
from repro.core.estimator import CaptureRecapture, EstimatorOptions
from repro.core.histories import ContingencyTable, tabulate_histories
from repro.core.lincoln_petersen import (
    chapman_estimate,
    lincoln_petersen_estimate,
    lincoln_petersen_from_sets,
)
from repro.core.loglinear import LoglinearModel, PopulationEstimate
from repro.core.profile_ci import profile_likelihood_interval
from repro.core.selection import (
    ModelSelection,
    adaptive_divisor,
    information_criterion,
    select_model,
)
from repro.core.stratified import StratifiedEstimate, stratified_estimate

__all__ = [
    "BootstrapResult",
    "CaptureRecapture",
    "ClosedModelEstimate",
    "ContingencyTable",
    "FitCounters",
    "FitDiagnostics",
    "bootstrap_population",
    "diagnose_fit",
    "blind_source",
    "fit_all_closed_models",
    "fit_m0",
    "fit_mb",
    "fit_mh_jackknife",
    "fit_mt",
    "generate_session_key",
    "private_contingency_table",
    "tabulate_blinded",
    "EstimatorOptions",
    "LoglinearModel",
    "LoglinearTerms",
    "ModelSelection",
    "PopulationEstimate",
    "StratifiedEstimate",
    "adaptive_divisor",
    "chao_estimate",
    "chapman_estimate",
    "design_matrix",
    "hierarchical_closure",
    "information_criterion",
    "lincoln_petersen_estimate",
    "lincoln_petersen_from_sets",
    "profile_likelihood_interval",
    "select_model",
    "stratified_estimate",
    "tabulate_histories",
]
