"""Goodness-of-fit diagnostics for fitted log-linear models.

Model selection (Section 3.3.2) aims for "the least complex model with
adequate fit"; this module makes "adequate" inspectable: per-cell
Pearson and deviance residuals, the aggregate chi-square statistics
with their degrees of freedom, and a ranked list of the worst-fitting
capture histories (which, in practice, points at the source pair whose
dependence the model is missing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from repro.core.loglinear import FittedLoglinear


@dataclass(frozen=True)
class CellResidual:
    """One capture history's observed/fitted discrepancy."""

    history: int
    observed: float
    fitted: float
    pearson: float

    def history_string(self, num_sources: int) -> str:
        """The history as the paper's bit string (source 1 first)."""
        return "".join(
            "1" if (self.history >> bit) & 1 else "0"
            for bit in range(num_sources)
        )


@dataclass(frozen=True)
class FitDiagnostics:
    """Aggregate goodness-of-fit summary for one fitted model."""

    pearson_chi2: float
    deviance: float
    dof: int
    residuals: tuple[CellResidual, ...]

    @property
    def pearson_pvalue(self) -> float:
        """Chi-square tail probability of the Pearson statistic.

        With the paper's caveat: the Poisson sampling assumption
        overstates the information in the data, so treat small
        p-values as a ranking device, not a test.
        """
        if self.dof <= 0:
            return float("nan")
        return float(chdtrc(self.dof, self.pearson_chi2))

    def worst_cells(self, count: int = 5) -> list[CellResidual]:
        """Cells with the largest absolute Pearson residuals."""
        ranked = sorted(self.residuals, key=lambda r: -abs(r.pearson))
        return ranked[:count]


def diagnose_fit(fit: FittedLoglinear) -> FitDiagnostics:
    """Residual diagnostics for a fitted log-linear model."""
    observed = fit.table.counts[1:].astype(np.float64)
    fitted = np.maximum(np.asarray(fit.fitted, dtype=np.float64), 1e-10)
    pearson = (observed - fitted) / np.sqrt(fitted)
    with np.errstate(divide="ignore", invalid="ignore"):
        dev_terms = np.where(
            observed > 0,
            observed * np.log(observed / fitted),
            0.0,
        )
    deviance = float(2.0 * np.sum(dev_terms - (observed - fitted)))
    residuals = tuple(
        CellResidual(
            history=history,
            observed=float(obs),
            fitted=float(expected),
            pearson=float(res),
        )
        for history, (obs, expected, res) in enumerate(
            zip(observed, fitted, pearson), start=1
        )
    )
    dof = len(observed) - fit.num_params
    return FitDiagnostics(
        pearson_chi2=float(np.sum(pearson**2)),
        deviance=deviance,
        dof=dof,
        residuals=residuals,
    )
