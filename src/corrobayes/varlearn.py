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


def _rank_groups(entry_component: np.ndarray) -> list:
    """(entry columns, component columns) of each component's r-th entry, for
    r = 0, 1, ...; no component appears twice in one group.  The entries
    come component by component, in component order."""
    rank = np.arange(len(entry_component)) - np.searchsorted(entry_component, entry_component)
    return [
        (np.flatnonzero(rank == r), entry_component[rank == r])
        for r in range(rank.max(initial=-1) + 1)
    ]


@dataclass(frozen=True, eq=False)
class DifferenceScheme:
    """The difference terms of one design, and the Dbar kernel of its
    observation rows.

    ``points`` is the design's canonical (component, time) order, the column
    order of every observation row the scheme is applied to; ``entries``
    holds one ``SchemeEntry`` per term.  ``components`` lists (in canonical
    order) the components contributing at least one entry, ``t_counts``
    every component's observation count and ``skipped`` those with fewer
    than three observations.  The arrays are what variance learning reads of
    the entries, built once: the row positions p0, p1, p2 of each entry's
    y_i, y_{i-1}, y_{i-2}, its k, l and weight K_i and its component's index
    (``entry_component``); each component's entry count T_c - 2
    (``t_eff``); and the rank groups that sum entries by component.

    ``combine`` is the one definition of the difference combination: every
    Dbar quantity is built on it.  ``terms`` squares it and divides by K_i;
    called on an (n, n_obs) array whose rows are observation vectors on the
    scheme's design, the scheme returns the (n, n_components) array of their
    Dbar rows, which the ensemble moments, ``compute_dbar`` and the
    estimator study all run through; ``simulate.exact_dbar_moments``
    combines the rows, then the columns, of (n_obs x n_obs) moment matrices
    and sums their entries to components with ``sum_by_component``.
    """

    entries: tuple
    components: tuple
    t_counts: dict
    skipped: tuple
    points: tuple
    p0: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    k: np.ndarray
    l: np.ndarray
    weight: np.ndarray
    entry_component: np.ndarray
    t_eff: np.ndarray
    groups: list

    def component_index(self) -> dict:
        return {c: i for i, c in enumerate(self.components)}

    def check_design(self, points) -> None:
        """Raise ShapeError unless ``points`` are the scheme's design points."""
        if tuple(points) != self.points:
            raise ShapeError("observation rows are not on the difference scheme's design")

    def combine(self, y: np.ndarray) -> np.ndarray:
        """Per-entry (k - l) y_i + l y_{i-1} - k y_{i-2} over the last axis
        of ``y``, which annihilates level and slope."""
        out = y[..., self.p0] * (self.k - self.l)
        out += y[..., self.p1] * self.l
        out -= y[..., self.p2] * self.k
        return out

    def terms(self, y: np.ndarray) -> np.ndarray:
        """Per-entry combination squared and divided by its weight K_i."""
        comb = self.combine(y)
        comb *= comb
        comb /= self.weight
        return comb

    def __call__(self, y: np.ndarray) -> np.ndarray:
        return self.sum_by_component(self.terms(y))

    def sum_by_component(self, terms: np.ndarray) -> np.ndarray:
        """(n, n_entries) per-entry terms -> (n, n_components) sums.

        Each component's terms are added one at a time in entry order, so a
        row's sums do not depend on the other rows and equal the explicit
        per-entry loop bit for bit (a product with a 0/1 matrix would not).
        """
        out = np.zeros((terms.shape[0], len(self.components)))
        for cols, comps in self.groups:
            out[:, comps] += terms[:, cols]
        return out


def build_scheme(dataset: InspectionDataset, lam: float) -> DifferenceScheme:
    """Sorted per-component times, lags k_i, l_i and weights K_i, and the
    arrays the kernel reads of them on the dataset's design."""
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
    points = tuple(dataset.design_points())
    pos = {pt: j for j, pt in enumerate(points)}
    idx = {c: i for i, c in enumerate(comps)}
    entry_component = np.array([idx[e.component] for e in entries], dtype=int)
    return DifferenceScheme(
        tuple(entries), comps, t_counts, tuple(skipped), points,
        *(
            np.array([pos[(e.component, getattr(e, t))] for e in entries], dtype=int)
            for t in ("t0", "t1", "t2")
        ),
        *(np.array([getattr(e, a) for e in entries], dtype=float) for a in ("k", "l", "weight")),
        entry_component,
        np.bincount(entry_component, minlength=len(comps)).astype(float),
        _rank_groups(entry_component),
    )


def compute_dbar(dataset: InspectionDataset, scheme: DifferenceScheme) -> np.ndarray:
    """Dbar vector over scheme.components from the dataset's observed values."""
    scheme.check_design(dataset.design_points())
    return scheme(dataset.values_vector()[None, :])[0]


def _term_expectation(k, l, weight, mu_wx, m1_sq, m2_sq, m1m2, normalized=True):
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
) -> np.ndarray:
    """Closed-form E(Dbar) per component given simulated local min moments.

    ``m_moments`` supplies arrays m1_sq, m2_sq, m1m2 aligned with
    scheme.entries (a ``simulate.DbarMoments`` works, as does any object
    with those attributes).
    """
    for name in ("m1_sq", "m2_sq", "m1m2"):
        if len(getattr(m_moments, name)) != len(scheme.entries):
            first = scheme.entries[0] if scheme.entries else None
            raise ShapeError(
                f"m_moments.{name} misaligned with scheme "
                f"(first entry: component {getattr(first, 'component', '?')})"
            )
    terms = _term_expectation(
        scheme.k, scheme.l, scheme.weight, hyper.mu_wx,
        np.asarray(m_moments.m1_sq), np.asarray(m_moments.m2_sq), np.asarray(m_moments.m1m2),
    )
    return scheme.sum_by_component(terms[None, :])[0]


@dataclass
class DbarStatistic:
    """Dbar with its closed-form expectation, cross-covariance, and
    simulation-estimated variance.  ``values`` is one Dbar vector, or an
    (n, n_components) array of Dbar rows of datasets on one design."""

    values: np.ndarray
    expectation: np.ndarray
    cross_cov: np.ndarray
    variance: np.ndarray


def build_dbar_statistic(
    data,
    scheme: DifferenceScheme,
    hyper: VarianceHyperprior,
    moments,
) -> DbarStatistic:
    """Assemble the adjustment inputs for the observed data.

    ``data`` is the observed InspectionDataset, or its Dbar vector, or an
    (n, n_components) array of Dbar rows of n datasets on the scheme's
    design, already computed by the scheme.  ``moments`` is a
    ``simulate.DbarMoments``, or any object with m1_sq/m2_sq/m1m2
    (entry-aligned) and dbar_var (the ensemble variance matrix of Dbar over
    scheme.components).
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
    cross = scheme.t_eff * hyper.gamma_wx
    variance = np.asarray(moments.dbar_var, dtype=float)
    if variance.shape != (len(scheme.components),) * 2:
        raise ShapeError("dbar variance matrix does not match scheme components")
    return DbarStatistic(values, expectation, cross, variance)


def adjust_wx(dbar: DbarStatistic, hyper: VarianceHyperprior):
    """Scalar adjusted expectation and variance of the population mean
    variance M(W_X) given Dbar.

    For one Dbar vector both are floats.  For Dbar rows the expectation is
    an array with one entry per row, all adjusted against one factor of
    var(Dbar); the adjusted variance does not depend on the data and stays
    one float.  Each expectation below ``VARIANCE_FLOOR`` is raised to it
    with its own warning.
    """
    prior = linalg.MomentPair([hyper.mu_wx], [[hyper.gamma_wx]])
    data_prior = linalg.MomentPair(dbar.expectation, dbar.variance)
    cross = dbar.cross_cov.reshape(1, -1)
    mean = linalg.adjusted_expectation(prior, data_prior, cross, dbar.values)[..., 0]
    var = float(linalg.adjusted_variance(prior, data_prior, cross)[0, 0])
    floor = VARIANCE_FLOOR
    low = mean < floor
    for m in mean[low]:
        warnings.warn(f"adjusted variance expectation {m:g} floored at {floor:g}", stacklevel=2)
    mean = np.where(low, floor, mean)
    if var < floor:
        warnings.warn(f"adjusted variance {var:g} floored at {floor:g}", stacklevel=2)
        var = floor
    return (float(mean) if mean.ndim == 0 else mean), var
