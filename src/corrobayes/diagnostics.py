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
from .errors import ConfigError, DegenerateVarianceError
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


def _group_indices(points, grouping: str):
    if grouping == "per-observation":
        return [((c, t), [i]) for i, (c, t) in enumerate(points)]
    if grouping == "per-component":
        groups = {}
        for i, (c, _) in enumerate(points):
            groups.setdefault(c, []).append(i)
        return sorted(groups.items())
    raise ConfigError(f"unknown grouping {grouping!r}")


def data_discrepancy(
    observed_y: np.ndarray,
    moments: MomentEstimates,
    grouping: str = "per-observation",
) -> DiagnosticReport:
    """Rank-normalized discrepancy of the observed data against its simulated
    prior moments, per observation or per component."""
    observed_y = np.asarray(observed_y, dtype=float)
    points = moments.design_points
    rows = []
    for label, idx in _group_indices(points, grouping):
        sub_mean = moments.e_y[idx]
        sub_cov = moments.var_y[np.ix_(idx, idx)]
        comp, time = label if grouping == "per-observation" else (label, None)
        try:
            value = linalg.mahalanobis_discrepancy(
                observed_y[idx],
                linalg.MomentPair(sub_mean, sub_cov),
                sample_size=moments.n_realizations,
            )
        except DegenerateVarianceError:
            rows.append(DiagnosticRow(str(label), comp, time, float("nan"), False, True))
            continue
        rows.append(DiagnosticRow(str(label), comp, time, value, value > DEFAULT_THRESHOLD))
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
    space from the block's rows of G and the belief's z."""
    rows = []
    for kind, g in beliefs.blocks.items():
        if not np.any(g):
            rows.append(DiagnosticRow(kind, None, None, 0.0, False))
            continue
        try:
            value = linalg.whitened_adjustment_discrepancy(
                g, beliefs.z, sample_size=beliefs.moments.n_realizations
            )
        except DegenerateVarianceError:
            rows.append(DiagnosticRow(kind, None, None, float("nan"), False, True))
            continue
        rows.append(DiagnosticRow(kind, None, None, value, value > DEFAULT_THRESHOLD))
    return DiagnosticReport(rows)
