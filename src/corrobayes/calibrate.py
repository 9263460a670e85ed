"""Mahalanobis calibration of the local corrosion variance.

For each candidate local variance the pipeline (i) takes the Dbar moments
under the prior, (ii) adjusts the population mean evolution variance
using the Dbar statistic of the observed data, (iii) computes the observation
moments under the adjusted variances, and (iv) scores the observed data by
the discrepancy ratio H.  The observed data are the dataset's own values,
read by both (ii) and (iv), and one difference scheme of its design serves
every candidate.  The candidate whose H is nearest unity wins; ties
break toward the smaller local variance.

The two passes take two seeds spawned from the run seed.  The learning
pass takes every candidate at the prior mu_wx and reads only the Dbar
moments that variance learning needs (``simulate.exact_dbar_moments``);
the rescoring pass takes every candidate at its learned mu_wx and reads
the observation moments (``simulate.exact_moments``).  Both are exact
under either noise law, but for what they sample of the minimum over
locations: one draw per pass, the learning pass's on the first seed and
the rescoring pass's on the second, serves every candidate, so every
candidate sees the same random numbers.  Under Gaussian noise that is the
fourth moments of the minimum in var(Dbar) alone; under Student-t noise
the minimum's moments in both passes.  var(Y) is not a sample covariance,
so H takes no finite-ensemble correction, and the rescoring pass scores
each candidate and drops its var(Y) and factor before it builds the next.

The estimator study shares everything that does not depend on a
replicate's data: one set of Dbar moments (exact, as in the learning
pass, from ``simulate.exact_dbar_moments``), one difference scheme and
one factor of var(Dbar) for the adjustment.  Its replicates are the
realizations of an ensemble at the true law, drawn by the same engine as
every other ensemble (``simulate._ensemble``, in up to two lanes once a
replicate is large enough), written as their Dbar rows into one array,
then adjusted together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg, varlearn
from .errors import ConfigError, InsufficientDataError
from .simulate import (
    _as_seedseq, _cells, _ensemble, _size_and_seed, exact_dbar_moments, exact_moments,
)
from .system import VARIANCE_FLOOR, InspectionDataset, PriorSpecification, SystemTopology


@dataclass(frozen=True)
class CandidateRow:
    sigma_r: float
    adjusted_mu_wx: float
    adjusted_var_wx: float
    h: float

    @property
    def floored(self) -> bool:
        """The learned mu_wx came out below the floor and was raised to it."""
        return self.adjusted_mu_wx <= VARIANCE_FLOOR


@dataclass
class CalibrationResult:
    """One row per candidate, the selected one's index, and the difference
    scheme every candidate learned with."""

    rows: list
    selected_index: int
    scheme: varlearn.DifferenceScheme

    @property
    def selected(self) -> CandidateRow:
        return self.rows[self.selected_index]


def select_index(h_values) -> int:
    """Index of the least |H - 1| (``np.argmin``); ties go to the smaller
    (earlier) candidate, numpy's first minimum."""
    return int(np.argmin(np.abs(np.asarray(h_values) - 1.0)))


def _scan(prior, topology, dataset, scheme, candidates, seeds, n_realizations):
    """Both passes over ``candidates`` on the pass seeds ``seeds``.  Returns
    one row per candidate."""
    learned = exact_dbar_moments(
        prior, topology, dataset,
        [(sr, prior.hyper.mu_wx) for sr in candidates],
        scheme, n_realizations=n_realizations, seed=seeds[0],
    )
    # the observed Dbar does not depend on the candidate
    observed_dbar = varlearn.compute_dbar(dataset, scheme)
    adjusted = [
        varlearn.adjust_wx(
            varlearn.build_dbar_statistic(observed_dbar, scheme, prior.hyper, mom), prior.hyper
        )
        for mom in learned
    ]
    observed = dataset.values_vector()

    def score(mom):
        return linalg.mahalanobis_discrepancy(observed, mom.y_moment_pair())

    rescored = exact_moments(
        prior, topology, dataset,
        [(sr, mu) for sr, (mu, _) in zip(candidates, adjusted)],
        n_realizations=n_realizations, seed=seeds[1],
    )
    # map holds no record once its H is scored, so each candidate's var(Y)
    # and factor go before the next candidate's are built
    return [
        CandidateRow(sr, mu, var, h)
        for sr, (mu, var), h in zip(candidates, adjusted, map(score, rescored))
    ]


def calibrate_candidate(
    prior: PriorSpecification,
    topology: SystemTopology,
    dataset: InspectionDataset,
    scheme,
    sigma_r: float,
    seeds,
    n_realizations: int,
) -> CandidateRow:
    """One grid point: learn mu_wx under this local variance, rescore the
    observed data under the learned law.  With ``calibrate``'s two pass seeds it
    reproduces that candidate's row."""
    (row,) = _scan(prior, topology, dataset, scheme, (sigma_r,), seeds, n_realizations)
    return row


def calibrate(
    prior: PriorSpecification,
    topology: SystemTopology,
    dataset: InspectionDataset,
    seed: int | None = None,
    n_realizations: int | None = None,
) -> CalibrationResult:
    """Run the fitting loop over the candidate grid on the dataset's values;
    deterministic per seed."""
    candidates = prior.sigma_r_candidates
    if not candidates:
        raise ConfigError("candidate grid is empty")
    n, seed = _size_and_seed(n_realizations, seed)
    scheme = varlearn.build_scheme(dataset, prior.hyper.lam)
    rows = _scan(prior, topology, dataset, scheme, candidates, _as_seedseq(seed).spawn(2), n)
    return CalibrationResult(rows, select_index([r.h for r in rows]), scheme)


def _sorted_quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile(ordered, q)`` of sorted values, bit for bit: the linear
    rule at v = (n - 1) q, as a + (b - a) g, or as b - (b - a)(1 - g) when
    g >= 0.5.  np.quantile itself imports ``numpy.ma`` on its first call."""
    n = len(ordered)
    v = (n - 1) * q
    if v >= n - 1:
        return float(ordered[-1])
    i = math.floor(v)
    a, b, g = ordered[i], ordered[i + 1], v - i
    return float(b - (b - a) * (1.0 - g) if g >= 0.5 else a + (b - a) * g)


@dataclass
class EstimatorStudy:
    """Replicated variance-learning estimates under known truth; ``floored``
    counts the replicates whose estimate was raised to the floor."""

    estimates: np.ndarray
    mean: float
    q05: float
    q95: float
    floored: int


def estimator_study(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    true_mu_wx: float,
    true_sigma_r: float,
    replicates: int,
    seed: int | None = None,
    n_realizations: int | None = None,
) -> EstimatorStudy:
    """Distribution of the adjusted variance estimate over replicate systems.

    Moments (Dbar variance and local min-difference moments) depend only on
    the design and priors, so they are taken once, from
    ``exact_dbar_moments`` on one seed spawned from ``seed``, and shared by
    all replicates.
    Replicate i is realization i of one ensemble at the true law, rooted at
    the other spawned seed, with every W_c held at ``true_mu_wx``.  Each
    block of that ensemble, whichever of the engine's lanes draws it, writes
    its Dbar rows into its own rows of one (replicates, n_components)
    array, which is all the study keeps of the replicates; the estimates do
    not depend on the number of lanes or the block size.  All rows are then
    adjusted together against one factor of var(Dbar), and each estimate
    below the floor is raised to it with a warning.
    """
    if replicates < 1:
        raise ConfigError("replicate count must be at least 1")
    n, seed = _size_and_seed(n_realizations, seed)
    scheme = varlearn.build_scheme(design, prior.hyper.lam)
    if not scheme.components:
        raise InsufficientDataError("no component has three or more observations")
    moment_seed, data_seed = _as_seedseq(seed).spawn(2)
    (moments,) = exact_dbar_moments(
        prior, topology, design, [(true_sigma_r, prior.hyper.mu_wx)], scheme,
        n_realizations=n, seed=moment_seed,
    )
    # without hypervariance every drawn W_c is exactly the law's mu_wx; the
    # rows carry no prior trend, which Dbar annihilates
    known = replace(prior, hyper=replace(prior.hyper, sigma_wx=0.0, gamma_wx=0.0))
    dvec = np.empty((replicates, len(scheme.components)))

    def take(_, rows, y, _m, _t):
        dvec[rows] = scheme(y)

    _ensemble(
        known, topology, _cells(known, topology, design), [(true_sigma_r, true_mu_wx)],
        replicates, data_seed, take,
    )
    dbar = varlearn.build_dbar_statistic(dvec, scheme, prior.hyper, moments)
    estimates, _ = varlearn.adjust_wx(dbar, prior.hyper)
    ordered = np.sort(estimates)
    return EstimatorStudy(
        estimates,
        float(estimates.mean()),
        _sorted_quantile(ordered, 0.05),
        _sorted_quantile(ordered, 0.95),
        int(np.count_nonzero(estimates <= VARIANCE_FLOOR)),
    )
