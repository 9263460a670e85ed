"""Bayes linear mean updating of system state and remnant-life forecasting.

Targets (minimum state, wall thickness, corrosion rate at any component and
time, including forecast times beyond the data and never-observed components)
are adjusted against the full observation vector.  Only their first and
second moments enter, and the minimum over locations reduces to the
one-dimensional functions of ``quadrature.min_of_normals``, which is what
keeps the non-linear observation equation tractable.

``adjust_from_moments`` is the one Bayes linear update: it takes the moments
of one law, from ``simulate.exact_moments``, ``estimate_moments`` or one
entry of either's multi-law call.  The paired comparison takes both laws,
the prior law and the calibrated law, from one ``simulate.moments_by_law``
call, and each branch is that update on its own law's moments.  Once both
are adjusted it releases their cov_targets, as everything downstream reads
the G blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calibrate import CalibrationResult, calibrate
from .errors import ShapeError
from .simulate import MomentEstimates, moments_by_law
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
    """Adjusted means/variances per target plus what adjustment diagnostics
    need, kept in whitened data space.

    With R the root of the factor of var(Y) (R R' = var(Y)^+: L^-T with
    L = chol(var(Y)) when var(Y) is certified full rank, Q_k Lambda_k^(-1/2)
    from its eigendecomposition otherwise), ``z`` is the whitened residual
    R'(y - E(Y)) and a kind's block holds its rows of G = cov(B,D) R: the
    kind's mean shift is G z and its resolved variance G G', which is never
    formed.  Any R with R R' = var(Y)^+ rotates G and z together, so
    neither G z, rowsum(G * G) nor a block's discrepancy depends on which.
    """

    rows: list
    blocks: dict  # kind -> rows of G
    z: np.ndarray
    moments: MomentEstimates

    def rows_for(self, kind: str, component=None) -> list:
        return [
            r
            for r in self.rows
            if r.kind == kind and (component is None or r.component == component)
        ]


def adjust_from_moments(
    moments: MomentEstimates,
    dataset: InspectionDataset,
    observed_y: np.ndarray | None = None,
) -> AdjustedBelief:
    """Apply the Bayes linear update given precomputed moments, in whitened
    data space: E_D(B) = E(B) + G z and var_D(B) = var(B) - rowsum(G * G)."""
    targets = moments.targets
    n_obs = len(moments.design_points)
    if observed_y is None:
        observed_y = dataset.values_vector()
    observed_y = np.asarray(observed_y, dtype=float)
    if observed_y.shape != (n_obs,):
        raise ShapeError(
            f"observed vector has shape {observed_y.shape}, design has {n_obs} points"
        )

    factor = moments.y_moment_pair().factor
    z = factor.whiten(observed_y - moments.e_y)
    g = moments.cov_targets @ factor.root  # (n_targets, rank)
    adj_mean = moments.e_targets + g @ z
    adj_var = moments.var_targets - np.einsum("ij,ij->i", g, g)

    rows = []
    for j, (kind, c, t) in enumerate(targets):
        rows.append(
            TargetBelief(
                kind, c, t,
                float(moments.e_targets[j]), float(adj_mean[j]),
                float(moments.var_targets[j]), float(adj_var[j]),
            )
        )
    kinds = np.array([k for k, _, _ in targets])
    blocks = {kind: g[kinds == kind] for kind in dict.fromkeys(kinds.tolist())}
    return AdjustedBelief(rows, blocks, z, moments)


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
    return RemnantLifeEstimate(out)


def _life_or_none(beliefs: AdjustedBelief, critical: float) -> RemnantLifeEstimate | None:
    try:
        return remnant_life(beliefs, critical)
    except ShapeError:
        return None


@dataclass
class LearningComparison:
    """Paired pipeline runs with and without variance learning.  Each
    branch's remnant life (None when its zmin targets are not a monthly
    grid) is computed on first read."""

    without_learning: AdjustedBelief
    with_learning: AdjustedBelief
    calibration: CalibrationResult
    critical_thickness: float

    @cached_property
    def life_without(self) -> RemnantLifeEstimate | None:
        return _life_or_none(self.without_learning, self.critical_thickness)

    @cached_property
    def life_with(self) -> RemnantLifeEstimate | None:
        return _life_or_none(self.with_learning, self.critical_thickness)


def compare_with_without_variance_learning(
    prior: PriorSpecification,
    topology: SystemTopology,
    dataset: InspectionDataset,
    observed_y: np.ndarray | None = None,
    targets=(),
    seed: int | None = None,
    n_realizations: int | None = None,
    calibration: CalibrationResult | None = None,
) -> LearningComparison:
    """Run adjustment twice, with prior variances and with calibrated ones.

    Both branches' moments come from one two-law ``moments_by_law`` call:
    exact under Gaussian noise, and under Student-t noise one two-law
    ensemble on ``seed`` (common random numbers, so paired contrasts are not
    swamped by Monte Carlo noise).  Either way each branch equals
    ``adjust_from_moments`` on its own law's one-law call.  Both branches'
    ``cov_targets`` are released once adjusted, so each branch's moments keep
    only what the diagnostics and bands read.
    """
    seed = prior.rng_seed if seed is None else seed
    if calibration is None:
        calibration = calibrate(
            prior, topology, dataset, observed_y, seed=seed, n_realizations=n_realizations
        )
    selected = calibration.selected
    laws = [
        (prior.sigma_r, prior.hyper.mu_wx),
        (selected.sigma_r, selected.adjusted_mu_wx),
    ]
    prior_moments, learned_moments = moments_by_law(
        prior, topology, dataset, laws, targets, n_realizations, seed
    )
    without = adjust_from_moments(prior_moments, dataset, observed_y)
    with_learning = adjust_from_moments(learned_moments, dataset, observed_y)
    prior_moments.cov_targets = learned_moments.cov_targets = None
    return LearningComparison(without, with_learning, calibration, prior.critical_thickness)
