"""Prior-consistency and post-fit discrepancy diagnostics.

Every discrepancy is the rank-normalized Mahalanobis form with expectation
one under a correct model; values above the warning threshold
``DEFAULT_THRESHOLD`` (4, the three-sigma heuristic around the unit
expectation) are flagged.  ``global_discrepancy`` is computed by the same
function the calibration loop uses for H, so the two are identical on
identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ConfigError, DegenerateVarianceError, ShapeError
from .simulate import MomentEstimates

#: Warning threshold: |1 - Dis| = 3.
DEFAULT_THRESHOLD = 4.0


@dataclass(frozen=True)
class DiagnosticRow:
    label: str
    component: object
    time: object
    value: float
    flagged: bool
    indeterminate: bool = False


@dataclass
class DiagnosticReport:
    rows: list

    def flagged(self) -> list:
        return [r for r in self.rows if r.flagged]


def _per_observation_rows(observed_y, moments: MomentEstimates) -> list:
    """Each observation against its own prior mean and variance v, in one
    array pass: (y - m)^2 / v with the rank-1 finite-sample factor,
    indeterminate where v = 0, and the 1 x 1 ``MomentPair``'s error where
    v < 0."""
    v = np.diag(moments.var_y).copy()
    negative = v[v < 0.0]
    if negative.size:
        raise ShapeError(
            f"covariance is not positive semi-definite (min eigenvalue {negative[0]:g})"
        )
    live = v > 0.0
    v[~live] = 1.0
    w = (observed_y - moments.e_y) * (1.0 / np.sqrt(v))
    factor = linalg.finite_sample_factor(1, moments.n_realizations) if live.any() else 1.0
    values = np.where(live, w * w * factor, np.nan)
    return [
        DiagnosticRow(str((comp, time)), comp, time, value, value > DEFAULT_THRESHOLD, not ok)
        for (comp, time), value, ok in zip(moments.design_points, values.tolist(), live.tolist())
    ]


def data_discrepancy(
    observed_y: np.ndarray,
    moments: MomentEstimates,
    grouping: str = "per-observation",
) -> DiagnosticReport:
    """Rank-normalized discrepancy of the observed data against its prior
    moments, per observation or per component."""
    observed_y = np.asarray(observed_y, dtype=float)
    if grouping == "per-observation":
        return DiagnosticReport(_per_observation_rows(observed_y, moments))
    if grouping != "per-component":
        raise ConfigError(f"unknown grouping {grouping!r}")
    groups = {}
    for i, (c, _) in enumerate(moments.design_points):
        groups.setdefault(c, []).append(i)
    rows = []
    for comp, idx in sorted(groups.items()):
        try:
            value = linalg.mahalanobis_discrepancy(
                observed_y[idx],
                linalg.MomentPair(moments.e_y[idx], moments.var_y[np.ix_(idx, idx)]),
                sample_size=moments.n_realizations,
            )
        except DegenerateVarianceError:
            rows.append(DiagnosticRow(str(comp), comp, None, float("nan"), False, True))
            continue
        rows.append(DiagnosticRow(str(comp), comp, None, value, value > DEFAULT_THRESHOLD))
    return DiagnosticReport(rows)


def global_discrepancy(observed_y: np.ndarray, moments: MomentEstimates) -> float:
    """The discrepancy ratio H of the full observation vector."""
    return linalg.mahalanobis_discrepancy(
        np.asarray(observed_y, dtype=float),
        moments.y_moment_pair(),
        sample_size=moments.n_realizations,
    )


def adjustment_diagnostics(beliefs) -> DiagnosticReport:
    """Discrepancy of each quantity block's mean shift against its resolved
    variance (zero when no adjustment occurred), computed in whitened data
    space from what the belief keeps of the kind's rows of G and its z."""
    if beliefs.kind_rows is None:
        raise ValueError("these beliefs were adjusted without diagnostics")
    rows = []
    for kind, kind_g in beliefs.kind_rows.items():
        if not kind_g.nonzero:
            rows.append(DiagnosticRow(kind, None, None, 0.0, False))
            continue
        try:
            value = kind_g.discrepancy(beliefs.z)
        except DegenerateVarianceError:
            rows.append(DiagnosticRow(kind, None, None, float("nan"), False, True))
            continue
        rows.append(DiagnosticRow(kind, None, None, value, value > DEFAULT_THRESHOLD))
    return DiagnosticReport(rows)
