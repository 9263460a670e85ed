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
call, and each branch is that update on its own law's moments.

The update runs over blocks of targets of about ``BLOCK_ELEMENTS``
cross-covariance entries each, and never fewer targets than observations:
a block's rows of cov(B,D) are built, turned into rows of G = cov(B,D) R
and reduced at once to adjusted means and variances, so no (targets x
observations) array is ever held whole.  What the adjustment diagnostics
need of G is kept per kind: its rows when they are no more than G's
columns, otherwise their Gram matrix G'G, folded block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .calibrate import CalibrationResult, calibrate
from .errors import ShapeError
from .simulate import TARGET_KINDS, MomentEstimates, moments_by_law
from .system import InspectionDataset, PriorSpecification, SystemTopology

#: Half-width multiplier of the reported 95% bands (Gaussian convention on
#: the Bayes linear adjusted variance; documented in output metadata).
BAND_Z = 1.96

BAND_CONVENTION = "mean +/- 1.96*sqrt(adjusted variance)"

ZMIN = TARGET_KINDS.index("zmin")


def band_half_width(var: np.ndarray) -> np.ndarray:
    """BAND_Z standard deviations for each variance; a negative one gives 0."""
    return BAND_Z * np.sqrt(np.clip(var, 0.0, None))


@dataclass(frozen=True)
class TargetBelief:
    kind: str
    component: object
    time: int
    prior_mean: float
    adjusted_mean: float
    prior_var: float
    adjusted_var: float


#: Element budget (float64 count) of one block's cross-covariance rows in
#: the adjustment; ``block_rows`` turns it into targets per block.  Twice
#: the simulation's budget: 752-row blocks at the reference design's 174
#: observations, where half of it (376 rows) lets the comparison's traced
#: peak grow by more than a fifth from 12 to 96 forecast months.
BLOCK_ELEMENTS = 2**17


def block_rows(n_obs: int) -> int:
    """Targets per block: the larger of ``BLOCK_ELEMENTS`` // n_obs rounded
    down and n_obs rounded up to a multiple of 8 (752 rows at 174
    observations, 1,504 at 1,500).  Blocks never thinner than square keep
    each block's products and Gram folds near the speed of one whole
    product; whole multiples of 8 rows keep each row's matrix products off
    BLAS's leftover-row kernels, so a row does not depend on the block it
    falls in."""
    rows = max(BLOCK_ELEMENTS // max(1, n_obs), n_obs + 7)
    return rows - rows % 8


class KindRows:
    """What the adjustment diagnostics keep of one kind's rows of G, added
    block by block: the rows themselves when they are no more than G's
    columns (rank), otherwise their Gram matrix G'G, into which each block's
    rows are folded as they arrive.  ``regather`` yields the rows again,
    block by block, for the rare Gram matrix that fails its certificate."""

    def __init__(self, count: int, rank: int, regather):
        self.tall = count > rank
        self.rows = None if self.tall else np.empty((count, rank))
        self.filled = 0
        self.gram = np.zeros((rank, rank)) if self.tall else None
        self.nonzero = False
        self.regather = regather

    def add(self, g: np.ndarray) -> None:
        self.nonzero = self.nonzero or bool(g.any())
        if not self.tall:
            self.rows[self.filled : self.filled + len(g)] = g
            self.filled += len(g)
            return
        # slices no taller than rank keep BLAS's packing buffers, and so the
        # peak, small; G has no columns when var(Y) has rank zero
        step = max(1, len(self.gram))
        for i in range(0, len(g), step):
            piece = g[i : i + step]
            self.gram += piece.T @ piece

    def discrepancy(self, z: np.ndarray, sample_size) -> float:
        """The kind's adjustment discrepancy, as
        ``linalg.whitened_adjustment_discrepancy`` of its rows of G."""
        if not self.tall:
            return linalg.whitened_adjustment_discrepancy(self.rows, z, sample_size)
        return linalg.gram_adjustment_discrepancy(self.gram, self.regather, z, sample_size)


@dataclass
class AdjustedBelief:
    """Prior and adjusted means/variances of the targets, as arrays in the
    moments' target order, plus what adjustment diagnostics need, kept in
    whitened data space.

    ``kind`` indexes ``simulate.TARGET_KINDS``; ``component`` holds the
    targets' component ids and ``time`` their months.  With R the root of
    the factor of var(Y) (R R' = var(Y)^+: L^-T with L = chol(var(Y)) when
    var(Y) is certified full rank, Q_k Lambda_k^(-1/2) from its
    eigendecomposition otherwise), ``z`` is the whitened residual
    R'(y - E(Y)) and ``kind_rows`` holds, per kind present, in order of first
    appearance, what is kept of its rows of G = cov(B,D) R: the kind's mean
    shift is G z and its resolved variance G G', which is never formed.  Any
    R with R R' = var(Y)^+ rotates G and z together, so neither G z,
    rowsum(G * G) nor a kind's discrepancy depends on which.
    """

    kind: np.ndarray
    component: np.ndarray
    time: np.ndarray
    prior_mean: np.ndarray
    adjusted_mean: np.ndarray
    prior_var: np.ndarray
    adjusted_var: np.ndarray
    z: np.ndarray
    kind_rows: dict | None  # kind name -> KindRows; None when not diagnosed
    moments: MomentEstimates

    def rows_for(self, kind: str | None = None, component=None) -> list:
        """The targets of one kind (every kind when None), optionally of one
        component, as ``TargetBelief`` rows in target order."""
        sel = np.ones(len(self.kind), dtype=bool)
        if kind is not None:
            sel = self.kind == (TARGET_KINDS.index(kind) if kind in TARGET_KINDS else -1)
        if component is not None:
            sel &= self.component == component
        idx = np.flatnonzero(sel)
        columns = (
            self.component[idx], self.time[idx], self.prior_mean[idx],
            self.adjusted_mean[idx], self.prior_var[idx], self.adjusted_var[idx],
        )
        return [
            TargetBelief(TARGET_KINDS[k], *row)
            for k, *row in zip(self.kind[idx].tolist(), *(c.tolist() for c in columns))
        ]


def _g_blocks(moments: MomentEstimates, root: np.ndarray):
    """(rows, target moments, rows of G = cov(B,D) R) per block of targets."""
    n_t = len(moments.targets)
    step = block_rows(root.shape[0])
    for i0 in range(0, n_t, step):
        rows = slice(i0, min(i0 + step, n_t))
        tm = moments.target_moments(rows)
        yield rows, tm, tm.cov_targets @ root


def adjust_from_moments(
    moments: MomentEstimates,
    dataset: InspectionDataset,
    observed_y: np.ndarray | None = None,
    diagnose: bool = True,
) -> AdjustedBelief:
    """Apply the Bayes linear update given precomputed moments, in whitened
    data space and block by block over the targets (``block_rows``):
    E_D(B) = E(B) + G z and var_D(B) = var(B) - rowsum(G * G).

    Without ``diagnose`` nothing is kept of G (``kind_rows`` is None), which
    saves a tall kind's Gram matrix, as costly as G itself."""
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
    root = factor.root
    kind, component, time = moments.target_cells
    prior_mean, adjusted_mean, prior_var, adjusted_var = np.empty((4, len(kind)))

    def regather(code):
        return lambda: (g[kind[rows] == code] for rows, _, g in _g_blocks(moments, root))

    # the kinds present, in order of first appearance, with their row counts
    codes, first, counts = np.unique(kind, return_index=True, return_counts=True)
    present = [(codes[i], counts[i]) for i in np.argsort(first)]
    held = [(k, KindRows(n, root.shape[1], regather(k))) for k, n in present if diagnose]
    for rows, tm, g in _g_blocks(moments, root):
        prior_mean[rows], prior_var[rows] = tm.e_targets, tm.var_targets
        adjusted_mean[rows] = tm.e_targets + g @ z
        adjusted_var[rows] = tm.var_targets - np.einsum("ij,ij->i", g, g)
        kinds = kind[rows]
        for k, kind_g in held:
            mask = kinds == k
            kind_g.add(g if mask.all() else g[mask])
    kind_rows = {TARGET_KINDS[k]: kind_g for k, kind_g in held} if diagnose else None
    return AdjustedBelief(
        kind, component, time, prior_mean, adjusted_mean, prior_var, adjusted_var,
        z, kind_rows, moments,
    )


def _first_crossings(times: np.ndarray, values: np.ndarray, starts: np.ndarray, critical: float):
    """Per run of ``times`` and ``values`` beginning at ``starts``: the first
    month (linearly interpolated) where the curve drops below critical, and
    whether it does at all."""
    n = len(values)
    below = np.flatnonzero(values < critical)
    first = np.full(n, n)
    first[below] = below
    first = np.minimum.reduceat(first, starts)
    found = first < n
    out = np.zeros(len(starts))
    at_start = found & (first == starts)
    out[at_start] = times[first[at_start]]
    inside = found & ~at_start
    i = first[inside]
    frac = (values[i - 1] - critical) / (values[i - 1] - values[i])
    out[inside] = times[i - 1] + frac * (times[i] - times[i - 1])
    return out, found


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
    edges against the critical thickness, over every component's zmin
    targets at once; each component's months must form one contiguous
    monthly run."""
    zmin = np.flatnonzero(beliefs.kind == ZMIN)
    comps, code = np.unique(beliefs.component[zmin], return_inverse=True)
    times = beliefs.time[zmin]
    order = np.lexsort((times, code))
    zmin, code, times = zmin[order], code[order], times[order].astype(float)
    same = code[1:] == code[:-1]
    broken = same & (np.diff(times) != 1)
    if broken.any():
        comp = comps[code[np.argmax(broken)]]
        raise ShapeError(f"component {comp} beliefs are not on a contiguous monthly grid")
    starts = np.flatnonzero(np.diff(code, prepend=-1))
    mean = beliefs.adjusted_mean[zmin]
    half = band_half_width(beliefs.adjusted_var[zmin])
    crossings = []
    for curve in (mean, mean - half, mean + half):
        at, found = _first_crossings(times, curve, starts, critical)
        crossings.append([t if f else None for t, f in zip(at.tolist(), found.tolist())])
    return RemnantLifeEstimate(
        [ComponentLife(c, *row) for c, *row in zip(comps.tolist(), *crossings)]
    )


def _life_or_none(beliefs: AdjustedBelief, critical: float) -> RemnantLifeEstimate | None:
    try:
        return remnant_life(beliefs, critical)
    except ShapeError:
        return None


@dataclass
class LearningComparison:
    """Paired pipeline runs with and without variance learning.  Each
    branch's remnant life (None when its zmin targets are not a monthly
    grid) is computed on first read.  Only the with-learning branch keeps
    what adjustment diagnostics read."""

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
    ``adjust_from_moments`` on its own law's one-law call, and is adjusted
    block by block, so neither branch holds a (targets x observations)
    array whole.
    """
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
    # only the with-learning branch is diagnosed
    without = adjust_from_moments(prior_moments, dataset, observed_y, diagnose=False)
    with_learning = adjust_from_moments(learned_moments, dataset, observed_y)
    return LearningComparison(without, with_learning, calibration, prior.critical_thickness)
