"""Variance learning from irregular observation differences.

For each component with at least three observations, the combination
k_i*Y^(2) - l_i*Y^(1) of first and second observation-differences annihilates
both the wall-thickness level and the corrosion-rate slope, leaving only
evolution errors and local min-function terms.  Summing the squared
combinations (each divided by its lag weight K_i) gives the statistic Dbar
whose expectation and covariance with the population mean variance are known
in closed form, enabling a scalar Bayes linear adjustment of that variance.

The per-term normalization by K_i is what makes
cov(M(W_X), Dbar_c) = (T_c - 2) * gamma_wx exact.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import InsufficientDataError, ShapeError
from .system import VARIANCE_FLOOR, InspectionDataset, VarianceHyperprior


def lag_weight(k: int, l: int, lam: float) -> float:
    """K = k*l*(k-l)*(2*lam*k^2 - 2*lam*k*l - lam - 6)/6.

    This is the variance of the annihilating combination k*Y^(2) - l*Y^(1)
    per unit of evolution variance; it is strictly positive whenever
    l > k >= 1.  For k=1, l=2 it reduces to lam + 2, the coefficient of the
    population mean variance in the regular-inspection expectation.
    """
    return k * l * (k - l) * (2.0 * lam * k * k - 2.0 * lam * k * l - lam - 6.0) / 6.0


@dataclass(frozen=True)
class SchemeEntry:
    """One difference term: observation i >= 3 of a component."""

    component: object
    t0: int  # t_i
    t1: int  # t_{i-1}
    t2: int  # t_{i-2}
    k: int
    l: int
    weight: float


def _lag_arrays(scheme: DifferenceScheme):
    """(k, l, K) of every scheme entry, as float arrays."""
    return tuple(
        np.array([getattr(e, name) for e in scheme.entries], dtype=float)
        for name in ("k", "l", "weight")
    )


def _rank_groups(scheme: DifferenceScheme) -> list:
    """(entry columns, component columns) of each component's r-th entry, for
    r = 0, 1, ...; no component appears twice in one group."""
    comp = scheme.entry_component_indices()
    rank = np.empty(len(comp), dtype=int)
    seen = {}
    for j, c in enumerate(comp):
        rank[j] = seen.get(c, 0)
        seen[c] = rank[j] + 1
    return [
        (np.flatnonzero(rank == r), comp[rank == r])
        for r in range(max(seen.values(), default=0))
    ]


def _sum_by_component(terms: np.ndarray, groups: list, n_components: int) -> np.ndarray:
    """(n, n_entries) per-entry terms -> (n, n_components) sums.

    Each component's terms are added one at a time in entry order, so a
    row's sums do not depend on the other rows and equal the explicit
    per-entry loop bit for bit (a product with a 0/1 matrix would not).
    """
    out = np.zeros((terms.shape[0], n_components))
    for cols, comps in groups:
        out[:, comps] += terms[:, cols]
    return out


class DbarKernel:
    """Dbar of many datasets at once.

    Maps an (n, n_obs) array whose rows are observation vectors, in the
    order of ``points``, to the (n, n_components) array of their Dbar rows.
    The ensemble moments, ``compute_dbar`` and the estimator study all run
    through it.
    """

    def __init__(self, scheme: DifferenceScheme, points):
        pos = {pt: j for j, pt in enumerate(points)}
        #: positions of each entry's y_i, y_{i-1}, y_{i-2} in an observation row
        self.p0, self.p1, self.p2 = (
            np.array([pos[(e.component, getattr(e, t))] for e in scheme.entries], dtype=int)
            for t in ("t0", "t1", "t2")
        )
        self.k, self.l, self.weight = _lag_arrays(scheme)
        self._groups = _rank_groups(scheme)
        self._n_components = len(scheme.components)

    def terms(self, y: np.ndarray, normalized: bool = True) -> np.ndarray:
        """Per-entry (k*Y^(2) - l*Y^(1))^2 terms, optionally divided by K_i."""
        # k (y0 - y2) - l (y0 - y1); temporaries are built in place to keep
        # them few for ensemble-sized inputs
        comb = y[:, self.p0]
        comb -= y[:, self.p2]
        comb *= self.k
        lag1 = y[:, self.p0]
        lag1 -= y[:, self.p1]
        lag1 *= self.l
        comb -= lag1
        del lag1
        comb *= comb
        if normalized:
            comb /= self.weight
        return comb

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return _sum_by_component(self.terms(y), self._groups, self._n_components)


@dataclass(frozen=True)
class DifferenceScheme:
    """Per-component observation times with lags and weights.

    components lists (in canonical order) the components contributing at
    least one entry; skipped lists those with fewer than three observations.
    """

    entries: tuple
    components: tuple
    t_counts: dict
    lam: float
    skipped: tuple

    def component_index(self) -> dict:
        return {c: i for i, c in enumerate(self.components)}

    def entry_component_indices(self) -> np.ndarray:
        idx = self.component_index()
        return np.array([idx[e.component] for e in self.entries], dtype=int)

    def kernel(self, points) -> DbarKernel:
        """The Dbar kernel for observation rows ordered as ``points``."""
        return DbarKernel(self, points)


def build_scheme(dataset: InspectionDataset, lam: float) -> DifferenceScheme:
    """Sorted per-component times, lags k_i, l_i and weights K_i."""
    entries = []
    t_counts = {}
    skipped = []
    for comp, recs in sorted(dataset.by_component().items()):
        times = [r.time for r in recs]
        t_counts[comp] = len(times)
        if len(times) < 3:
            skipped.append(comp)
            continue
        for i in range(2, len(times)):
            k = times[i] - times[i - 1]
            l = times[i] - times[i - 2]
            entries.append(
                SchemeEntry(comp, times[i], times[i - 1], times[i - 2], k, l, lag_weight(k, l, lam))
            )
    comps = tuple(sorted({e.component for e in entries}))
    return DifferenceScheme(tuple(entries), comps, t_counts, lam, tuple(skipped))


def compute_dbar(dataset: InspectionDataset, scheme: DifferenceScheme) -> np.ndarray:
    """Dbar vector over scheme.components from the dataset's observed values."""
    y = dataset.values_vector()[None, :]
    return scheme.kernel(dataset.design_points())(y)[0]


def _term_expectation(k, l, weight, mu_wx, m1_sq, m2_sq, m1m2, normalized):
    m_part = l**2 * m1_sq + k**2 * m2_sq - 2.0 * k * l * m1m2
    raw = weight * mu_wx + m_part
    return raw / weight if normalized else raw


def entry_expectation(
    entry: SchemeEntry,
    mu_wx: float,
    m1_sq: float,
    m2_sq: float,
    m1m2: float,
    normalized: bool = True,
) -> float:
    """E of one Dbar term: K*mu_wx plus the local min-difference moments."""
    return _term_expectation(entry.k, entry.l, entry.weight, mu_wx, m1_sq, m2_sq, m1m2, normalized)


def expected_dbar(
    scheme: DifferenceScheme,
    hyper: VarianceHyperprior,
    m_moments,
    normalized: bool = True,
) -> np.ndarray:
    """Closed-form E(Dbar) per component given simulated local min moments.

    ``m_moments`` supplies arrays m1_sq, m2_sq, m1m2 aligned with
    scheme.entries (a MomentEstimates works, as does any object with those
    attributes).
    """
    for name in ("m1_sq", "m2_sq", "m1m2"):
        arr = getattr(m_moments, name, None)
        if arr is None or len(arr) != len(scheme.entries):
            missing = scheme.entries[0] if scheme.entries else None
            raise ShapeError(
                f"m_moments.{name} missing or misaligned with scheme "
                f"(first entry: component {getattr(missing, 'component', '?')})"
            )
    terms = _term_expectation(
        *_lag_arrays(scheme), hyper.mu_wx,
        np.asarray(m_moments.m1_sq), np.asarray(m_moments.m2_sq), np.asarray(m_moments.m1m2),
        normalized,
    )
    return _sum_by_component(terms[None, :], _rank_groups(scheme), len(scheme.components))[0]


@dataclass
class DbarStatistic:
    """Dbar with its closed-form expectation, cross-covariance, and
    simulation-estimated variance.  ``values`` is one Dbar vector, or an
    (n, n_components) array of Dbar rows of datasets on one design."""

    components: tuple
    values: np.ndarray
    expectation: np.ndarray
    cross_cov: np.ndarray
    variance: np.ndarray
    t_counts: dict


def build_dbar_statistic(
    data,
    scheme: DifferenceScheme,
    hyper: VarianceHyperprior,
    moments,
) -> DbarStatistic:
    """Assemble the adjustment inputs for the observed data.

    ``data`` is the observed InspectionDataset, or its Dbar vector, or an
    (n, n_components) array of Dbar rows of n datasets on the scheme's
    design, already computed by ``scheme.kernel``.  ``moments`` must provide
    m1_sq/m2_sq/m1m2 (entry-aligned) and dbar_var (the ensemble variance
    matrix of Dbar over scheme.components).
    """
    if not scheme.components:
        raise InsufficientDataError("no component has three or more observations")
    if isinstance(data, InspectionDataset):
        values = compute_dbar(data, scheme)
    else:
        values = np.asarray(data, dtype=float)
        if values.ndim not in (1, 2) or values.shape[-1] != len(scheme.components):
            raise ShapeError("dbar rows do not match scheme components")
    expectation = expected_dbar(scheme, hyper, moments)
    cross = np.array([(scheme.t_counts[c] - 2) * hyper.gamma_wx for c in scheme.components])
    variance = np.asarray(moments.dbar_var, dtype=float)
    if variance.shape != (len(scheme.components),) * 2:
        raise ShapeError("dbar variance matrix does not match scheme components")
    return DbarStatistic(scheme.components, values, expectation, cross, variance, scheme.t_counts)


def adjust_wx(dbar: DbarStatistic, hyper: VarianceHyperprior, floor: float = VARIANCE_FLOOR):
    """Scalar adjusted expectation and variance of the population mean
    variance M(W_X) given Dbar.

    For one Dbar vector both are floats.  For Dbar rows the expectation is
    an array with one entry per row, all adjusted against one factor of
    var(Dbar); the adjusted variance does not depend on the data and stays
    one float.  Each expectation below ``floor`` is raised to it with its
    own warning.
    """
    prior = linalg.MomentPair([hyper.mu_wx], [[hyper.gamma_wx]])
    data_prior = linalg.MomentPair(dbar.expectation, dbar.variance)
    cross = dbar.cross_cov.reshape(1, -1)
    mean = linalg.adjusted_expectation(prior, data_prior, cross, dbar.values)[..., 0]
    var = float(linalg.adjusted_variance(prior, data_prior, cross)[0, 0])
    low = mean < floor
    for m in mean[low]:
        warnings.warn(f"adjusted variance expectation {m:g} floored at {floor:g}", stacklevel=2)
    mean = np.where(low, floor, mean)
    if var < floor:
        warnings.warn(f"adjusted variance {var:g} floored at {floor:g}", stacklevel=2)
        var = floor
    return (float(mean) if mean.ndim == 0 else mean), var
