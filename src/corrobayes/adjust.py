"""Bayes linear mean updating of system state and remnant-life forecasting.

Targets (minimum state, wall thickness, corrosion rate at any component and
time, including forecast times beyond the data and never-observed components)
are adjusted against the full observation vector using simulation moments.
The minimum enters only through simulation, which is what keeps the
non-linear observation equation tractable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .calibrate import CalibrationResult, calibrate
from .errors import ShapeError
from .simulate import MomentEstimates, estimate_moments
from .system import InspectionDataset, PriorSpecification, SystemTopology

#: Half-width multiplier of the reported 95% bands (Gaussian convention on
#: the Bayes linear adjusted variance; documented in output metadata).
BAND_Z = 1.96

BAND_CONVENTION = "mean +/- 1.96*sqrt(adjusted variance)"


@dataclass(frozen=True)
class TargetBelief:
    kind: str
    component: object
    time: int
    prior_mean: float
    adjusted_mean: float
    prior_var: float
    adjusted_var: float


@dataclass
class AdjustedBelief:
    """Adjusted means/variances per target plus per-quantity blocks for
    adjustment diagnostics.

    A block holds the kind's mean shift and its rows of the adjustment
    weights cov(B,D) var(D)^+ and of cov(B,D); the kind's resolved variance
    is weights @ cov', formed only when a diagnostic asks for it.
    """

    rows: list
    blocks: dict  # kind -> (shift vector, weight rows, cov_targets rows)
    moments: MomentEstimates

    def rows_for(self, kind: str, component=None) -> list:
        return [
            r
            for r in self.rows
            if r.kind == kind and (component is None or r.component == component)
        ]


def adjust_targets(
    prior: PriorSpecification,
    topology: SystemTopology,
    dataset: InspectionDataset,
    observed_y: np.ndarray | None = None,
    targets=(),
    calibrated: CalibrationResult | None = None,
    seed: int | None = None,
    n_realizations: int | None = None,
    store_prior_band: bool = False,
) -> AdjustedBelief:
    """Adjust the requested targets by the observed data.

    With a calibration result, moments are re-simulated under the selected
    local variance and learned mean variance; otherwise prior variances are
    used.  An empty dataset leaves every target at its prior.
    """
    sigma_r = mu_wx = None
    if calibrated is not None:
        sigma_r = calibrated.selected.sigma_r
        mu_wx = calibrated.selected.adjusted_mu_wx
    moments = estimate_moments(
        prior,
        topology,
        dataset,
        targets=targets,
        n_realizations=n_realizations,
        seed=seed,
        sigma_r=sigma_r,
        mu_wx=mu_wx,
        store_target_samples=store_prior_band,
        allow_empty_design=True,
    )
    return adjust_from_moments(moments, dataset, observed_y)


def adjust_from_moments(
    moments: MomentEstimates,
    dataset: InspectionDataset,
    observed_y: np.ndarray | None = None,
) -> AdjustedBelief:
    """Apply the Bayes linear update given precomputed moments."""
    targets = moments.targets
    n_obs = len(moments.design_points)
    if observed_y is None:
        observed_y = dataset.values_vector()
    observed_y = np.asarray(observed_y, dtype=float)
    if observed_y.shape != (n_obs,):
        raise ShapeError(
            f"observed vector has shape {observed_y.shape}, design has {n_obs} points"
        )

    if n_obs == 0:
        weights = np.zeros_like(moments.cov_targets)
        adj_mean = moments.e_targets.copy()
        adj_var = moments.var_targets.copy()
    else:
        pinv, _ = linalg.pinv_with_rank(moments.var_y)
        weights = moments.cov_targets @ pinv  # (n_targets, n_obs)
        adj_mean = moments.e_targets + weights @ (observed_y - moments.e_y)
        # diagonal of the resolved variance weights @ cov_targets'
        adj_var = moments.var_targets - np.einsum("ij,ij->i", weights, moments.cov_targets)

    rows = []
    for j, (kind, c, t) in enumerate(targets):
        rows.append(
            TargetBelief(
                kind, c, t,
                float(moments.e_targets[j]), float(adj_mean[j]),
                float(moments.var_targets[j]), float(adj_var[j]),
            )
        )
    blocks = {}
    kinds = [k for k, _, _ in targets]
    for kind in dict.fromkeys(kinds):
        idx = np.array([j for j, k in enumerate(kinds) if k == kind], dtype=int)
        blocks[kind] = (
            adj_mean[idx] - moments.e_targets[idx],
            weights[idx],
            moments.cov_targets[idx],
        )
    return AdjustedBelief(rows, blocks, moments)


def _first_crossing(times: np.ndarray, values: np.ndarray, critical: float):
    """First month (linearly interpolated) where the curve drops below
    critical; None if it never does."""
    below = values < critical
    if not below.any():
        return None
    idx = int(np.argmax(below))
    if idx == 0:
        return float(times[0])
    t0, t1 = times[idx - 1], times[idx]
    v0, v1 = values[idx - 1], values[idx]
    frac = (v0 - critical) / (v0 - v1)
    return float(t0 + frac * (t1 - t0))


@dataclass(frozen=True)
class ComponentLife:
    component: object
    mean_crossing: float | None
    lower_band_crossing: float | None
    upper_band_crossing: float | None


@dataclass
class RemnantLifeEstimate:
    per_component: list
    critical: float
    band_convention: str = BAND_CONVENTION


def remnant_life(beliefs: AdjustedBelief, critical: float) -> RemnantLifeEstimate:
    """Crossing months of the adjusted minimum-state mean and its 95% band
    edges against the critical thickness."""
    by_comp = {}
    for r in beliefs.rows_for("zmin"):
        by_comp.setdefault(r.component, []).append(r)
    out = []
    for comp in sorted(by_comp):
        rows = sorted(by_comp[comp], key=lambda r: r.time)
        times = np.array([r.time for r in rows], dtype=float)
        if not np.all(np.diff(times) == 1):
            raise ShapeError(f"component {comp} beliefs are not on a contiguous monthly grid")
        mean = np.array([r.adjusted_mean for r in rows])
        half = BAND_Z * np.sqrt(np.clip([r.adjusted_var for r in rows], 0.0, None))
        out.append(
            ComponentLife(
                comp,
                _first_crossing(times, mean, critical),
                _first_crossing(times, mean - half, critical),
                _first_crossing(times, mean + half, critical),
            )
        )
    return RemnantLifeEstimate(out, critical)


@dataclass
class LearningComparison:
    """Paired pipeline runs with and without variance learning."""

    without_learning: AdjustedBelief
    with_learning: AdjustedBelief
    calibration: CalibrationResult
    life_without: RemnantLifeEstimate | None
    life_with: RemnantLifeEstimate | None


def compare_with_without_variance_learning(
    prior: PriorSpecification,
    topology: SystemTopology,
    dataset: InspectionDataset,
    observed_y: np.ndarray | None = None,
    targets=(),
    seed: int | None = None,
    n_realizations: int | None = None,
    calibration: CalibrationResult | None = None,
    store_prior_band: bool = False,
) -> LearningComparison:
    """Run adjustment twice, with prior variances and with calibrated ones.

    Both branches share the same seed (common random numbers) so paired
    contrasts are not swamped by Monte Carlo noise.
    """
    seed = prior.rng_seed if seed is None else seed
    if calibration is None:
        calibration = calibrate(
            prior, topology, dataset, observed_y, seed=seed, n_realizations=n_realizations
        )
    without = adjust_targets(
        prior, topology, dataset, observed_y, targets,
        calibrated=None, seed=seed, n_realizations=n_realizations,
        store_prior_band=store_prior_band,
    )
    with_learning = adjust_targets(
        prior, topology, dataset, observed_y, targets,
        calibrated=calibration, seed=seed, n_realizations=n_realizations,
    )

    def _life(beliefs):
        try:
            return remnant_life(beliefs, prior.critical_thickness)
        except ShapeError:
            return None

    return LearningComparison(
        without, with_learning, calibration, _life(without), _life(with_learning)
    )
