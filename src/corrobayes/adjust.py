"""Bayes linear mean updating of system state and remnant-life forecasting.

Targets (minimum state, wall thickness, corrosion rate at any component and
time, including forecast times beyond the data and never-observed components)
are adjusted against the full observation vector.  Only their first and
second moments enter, and the minimum over locations reduces to its
moments by month, which is what keeps the non-linear observation equation
tractable.

``adjust_from_moments`` is the one Bayes linear update: it takes the exact
moments of one law (``simulate.exact_moments``, or one entry of its
multi-law call), whose minimum is in closed form under Gaussian noise and
sampled under Student-t noise.  The paired comparison takes both laws, the
prior law and the calibrated law, from one ``simulate.exact_moments``
call, and each branch is that update on its own law's moments.

The update goes through the structure of the target rows,
row(c,t)[j] = A[c, c_j] kappa_t[j] + m(c,t)[j] (``simulate.ExactTargetRows``):
month by month, the adjusted means and variances are read off R and
P = R R', laid out as one (component, visit) tensor per visit count, and no
row of cov(B,D) or of G = cov(B,D) R is formed but a short kind's.  What
the adjustment diagnostics need of G is kept per kind: its rows when they
are no more than G's columns, otherwise their Gram matrix G'G, built in
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .calibrate import CalibrationResult, calibrate
from .errors import ConfigError, ShapeError
from .simulate import TARGET_KINDS, MomentEstimates, exact_moments
from .system import InspectionDataset, PriorSpecification, SystemTopology

#: Half-width multiplier of the reported 95% bands (Gaussian convention on
#: the Bayes linear adjusted variance; documented in output metadata).
BAND_Z = 1.96

BAND_CONVENTION = f"mean +/- {BAND_Z}*sqrt(adjusted variance)"

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


class KindRows:
    """What the adjustment diagnostics keep of one kind's rows of G: the
    rows themselves when they are no more than G's columns (rank), otherwise
    (``tall``) their Gram matrix G'G, with ``regather``, a function that
    yields the rows again, block by block, for the rare Gram matrix that
    fails its certificate."""

    def __init__(self, rows=None, gram=None, regather=None):
        self.rows, self.gram, self.regather = rows, gram, regather
        self.tall = rows is None
        self.nonzero = bool((gram if self.tall else rows).any())

    def discrepancy(self, z: np.ndarray) -> float:
        """The kind's adjustment discrepancy, as
        ``linalg.whitened_adjustment_discrepancy`` of its rows of G."""
        if not self.tall:
            return linalg.whitened_adjustment_discrepancy(self.rows, z)
        return linalg.gram_adjustment_discrepancy(self.gram, self.regather, z)


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
    appearance, a ``KindRows`` of its rows of G = cov(B,D) R: the rows of a
    short kind (no more rows than G's columns), the Gram matrix G'G of a
    tall one, built in closed form.  The kind's mean shift is G z and its
    resolved variance G G', which is never formed.  Any R with
    R R' = var(Y)^+ rotates G and z together, so neither G z,
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


def _kinds_present(kind: np.ndarray) -> list:
    """The kinds present, in order of first appearance, with their row counts."""
    codes, first, counts = np.unique(kind, return_index=True, return_counts=True)
    return [(codes[i], counts[i]) for i in np.argsort(first)]


def _regather(moments: MomentEstimates, root: np.ndarray, code):
    """A function that yields one kind's rows of G again, in blocks as tall
    as var(Y) is wide."""

    def blocks():
        sel = np.flatnonzero(moments.target_cells[0] == code)
        step = max(1, root.shape[0])
        for i in range(0, len(sel), step):
            yield moments.target_moments(sel[i : i + step]).cov_targets @ root

    return blocks


class _VisitLayout:
    """The observations regrouped by their component's visit count, so that
    P reads as one (component, visit) tensor per count: ``perm`` orders them
    group by group, component-major and in time order within a group, and
    ``groups`` holds each group's (observation slice, component slice,
    visits) in that order.  ``comps`` are the observed components in that
    order, ``offsets`` where each one's observations start, ``at`` each
    reordered observation's position in ``comps``, ``position`` each
    component's (-1 when it has no observation) and ``pairs`` the index
    pairs of observations of one component, component by component."""

    def __init__(self, obs_c: np.ndarray, n_comp: int):
        # a component's observations are consecutive in canonical order
        starts = np.flatnonzero(np.diff(obs_c, prepend=-1))
        visits = np.diff(starts, append=len(obs_c))
        by_count = np.argsort(visits, kind="stable")
        rank = np.empty_like(by_count)
        rank[by_count] = np.arange(len(by_count))
        self.perm = np.argsort(np.repeat(rank, visits), kind="stable")
        self.comps = obs_c[starts[by_count]]
        visits = visits[by_count]
        self.at = np.repeat(np.arange(len(visits)), visits)
        self.position = np.full(n_comp, -1)
        self.position[self.comps] = np.arange(len(visits))
        self.offsets = offsets = np.append(0, np.cumsum(visits))
        edges = np.append(np.flatnonzero(np.diff(visits, prepend=0)), len(visits))
        self.groups = [
            (slice(offsets[c0], offsets[c1]), slice(c0, c1), int(visits[c0]))
            for c0, c1 in zip(edges[:-1], edges[1:])
        ]
        self.pairs = np.nonzero(self.at[:, None] == self.at)


def adjust_from_moments(
    moments: MomentEstimates,
    dataset: InspectionDataset,
    diagnose: bool = True,
) -> AdjustedBelief:
    """Apply the Bayes linear update given the exact moments of one law to
    the dataset's values, in whitened data space: E_D(B) = E(B) + G z and
    var_D(B) = var(B) - rowsum(G * G), with G = cov(B,D) R.  The dataset's
    design must be the moments' design.

    The update reads the structure of the rows,
    row(c,t)[j] = A[c, c_j] kappa_t[j] + m(c,t)[j] (``ExactTargetRows``).
    With P = R R' from the factor's root, r = y - E(Y), U the observations'
    component indicator and lin(c,t) = kappa_t o U A[c,:]' the row's linear
    part, month by month and for each kernel (zmin and x share one, alpha
    has its own):

        G z at (c,t) = A[c,:] K_t z + m(c,t) P r,
        rowsum(G * G) at (c,t) = |S_t A[c,:]'|^2 + 2 m(c,t) P lin(c,t)
                                 + m(c,t) P m(c,t)',

    with K_t = U' diag(kappa_t) R and S_t the triangular factor of a QR of
    K_t', so that S_t'S_t = N_t = U' diag(kappa_t) P diag(kappa_t) U.  Read
    off K_t and S_t, the linear parts keep the accuracy of forming G's rows;
    as A[c,:] U'(kappa_t o P r) the mean shift lost a digit at platform
    scale, and as the quadratic form A[c,:] N_t A[c,:]' the variance lost
    about three on the full run, where the data pin a target down.  R and P
    are read as one (component, visit) tensor per visit count
    (``_VisitLayout``), and the largest arrays are (observations x
    observations).  A short kind's rows of G are built for its diagnostics;
    a tall kind's Gram matrix is R' (sum of its rows' outer products) R, in
    closed form (``_row_gram``).

    Without ``diagnose`` nothing is kept of G (``kind_rows`` is None), which
    saves a tall kind's Gram matrix."""
    if dataset.design_points() != list(moments.design_points):
        raise ShapeError("the dataset's design is not the design of its moments")
    ex = moments.rows
    if ex is None:
        raise ConfigError("the update reads exact moments (simulate.exact_moments)")
    cells = ex.cells
    factor = moments.y_moment_pair().factor
    z = factor.whiten(dataset.values_vector() - moments.e_y)
    root = factor.root
    kind, component, time = moments.target_cells
    layout = _VisitLayout(cells.obs_c, len(ex.pi))
    r = root[layout.perm]
    a = ex.scale_matrix()[:, layout.comps]
    kind_rows = None
    if diagnose:
        # first, while few target-sized arrays are held
        kind_rows = {}
        for k, count in _kinds_present(kind):
            sel = np.flatnonzero(kind == k)
            if count > root.shape[1]:
                held = KindRows(
                    gram=r.T @ _row_gram(ex, layout, a, sel) @ r,
                    regather=_regather(moments, root, k),
                )
            else:
                held = KindRows(rows=moments.target_moments(sel).cov_targets @ root)
            kind_rows[TARGET_KINDS[k]] = held

    shift, resolved = _month_sums(ex, layout, a, r, z)
    prior_mean, prior_var = ex.prior()
    shift += prior_mean
    np.subtract(prior_var, resolved, out=resolved)
    return AdjustedBelief(
        kind, component, time, prior_mean, shift, prior_var, resolved, z, kind_rows, moments,
    )


def _month_sums(ex, layout: _VisitLayout, a: np.ndarray, r: np.ndarray, z: np.ndarray):
    """G z and rowsum(G * G) of every target, month by month and kernel by
    kernel (see ``adjust_from_moments``), with R in the visit layout."""
    cells = ex.cells
    p, pr = r @ r.T, r @ z
    n, n_comp, starts = len(p), len(layout.comps), layout.offsets[:-1]
    jj, kk = layout.pairs
    p_own, pair_starts = p[jj, kk], np.flatnonzero(np.diff(layout.at[jj], prepend=-1))
    # P o A[c_i, c_j], in place: (P o A[c_i, c_j]) kappa_t is P lin(c,t) at
    # the observations of c
    p *= a[layout.comps][np.ix_(layout.at, layout.at)]
    k_t = np.empty((n_comp, r.shape[1]))  # K_t = U' diag(kappa_t) R
    shift, resolved = np.zeros((2, len(cells.tgt_t)))
    per_month = list(_months(cells)) if n else []
    step = _month_step(n)
    for i in range(0, len(per_month), step):
        chunk = per_month[i : i + step]
        months = np.array([t for _, t, _ in chunk])
        kappas = ex.kernel(months, np.array([alpha for *_, alpha in chunk]))[:, layout.perm]
        # the minimum's m(c,t)[j] at every observation j of c, with its
        # terms m P r and 2 m P lin; m P m' is added month by month
        m = ex.minimum.cross(months[:, None], layout.perm)
        m_shift = np.add.reduceat(m * pr, starts, axis=1)
        m_res = np.add.reduceat(m * (kappas @ p), starts, axis=1)
        m_res *= 2.0
        for (idx, _, _), kappa, m_t, m_shift_t, m_res_t in zip(chunk, kappas, m, m_shift, m_res):
            for o, c, v in layout.groups:
                r_g = r[o].reshape(-1, v, r.shape[1])
                k_t[c] = np.einsum("cvk,cv->ck", r_g, kappa[o].reshape(-1, v))
            # A[c,:] N_t A[c,:]' as |S_t A[c,:]'|^2, S_t from a QR of K_t'
            s = np.linalg.qr(k_t.T, mode="r")
            a_t = a[cells.tgt_c[idx]]
            shift[idx] = a_t @ (k_t @ z)
            g = a_t @ s.T
            resolved[idx] = np.einsum("ij,ij->i", g, g)
            at = layout.position[cells.tgt_c[idx]]
            mine = cells.is_zmin[idx] & (at >= 0)
            if not mine.any():
                continue
            m_res_t += np.add.reduceat(m_t[jj] * p_own * m_t[kk], pair_starts)
            shift[idx[mine]] += m_shift_t[at[mine]]
            resolved[idx[mine]] += m_res_t[at[mine]]
    return shift, resolved


def _month_step(n_obs: int) -> int:
    """Months per chunk of kernel rows: a chunk's (months x observations)
    rows are at most an eighth of P's size."""
    return max(1, n_obs // 8)


def _months(cells):
    """(target indices, month, alpha or not) per month and kernel."""
    t, alpha = cells.tgt_t, cells.is_alpha
    order = np.lexsort((t, alpha))
    cuts = np.flatnonzero(np.diff(t[order]) | np.diff(alpha[order])) + 1
    for idx in np.split(order, cuts):
        yield idx, t[idx[0]], alpha[idx[0]]


def _month_counts(cells, sel: np.ndarray, n_comp: int):
    """The months of the targets ``sel`` and how many of them lie at each
    (month, component); a function of its own, so that its target-sized
    temporaries are gone before the Gram matrix's products."""
    months, at_month = np.unique(cells.tgt_t[sel], return_inverse=True)
    counts = np.zeros((len(months), n_comp))
    np.add.at(counts, (at_month, cells.tgt_c[sel]), 1.0)
    return months, counts


def _row_gram(ex, layout: _VisitLayout, a: np.ndarray, sel: np.ndarray) -> np.ndarray:
    """The sum of the outer products of the rows of cov(B,D) of the targets
    ``sel``, all of one kind, in the visit layout, with q_t[c] the targets
    at (t, c) and kappa_t read a few months at a time:

    * the linear parts, sum_t (U A' diag(q_t) A U') o kappa_t kappa_t',
      over the months grouped by their q_t;
    * for zmin, the minimum's terms: sum_t q_t[c] (lin(c,t) m(c,t)' + its
      transpose + m(c,t) m(c,t)') over each observed component c."""
    cells = ex.cells
    months, counts = _month_counts(cells, sel, len(a))
    kernel = np.full(len(months), cells.is_alpha[sel[0]])
    n, at = len(layout.perm), layout.at
    step = _month_step(n)
    total = np.zeros((n, n))
    q_groups, in_group = np.unique(counts, axis=0, return_inverse=True)
    for g, q in enumerate(q_groups):
        rows = np.flatnonzero(in_group == g)
        part = np.zeros((n, n))
        for i in range(0, len(rows), step):
            chunk = rows[i : i + step]
            kappa = ex.kernel(months[chunk], kernel[chunk])[:, layout.perm]
            part += kappa.T @ kappa
        part *= ((a.T * q) @ a)[np.ix_(at, at)]
        total += part
    if not cells.is_zmin[sel[0]]:
        return total
    # the minimum's terms: for each observation j of component c,
    # sum_t q_t[c] kappa_t m(c,t)[j], scaled by A[c, c_i] in row i, and the
    # blocks sum_t q_t[c] m(c,t) m(c,t)' of each observed component
    obs, comp_of_obs = layout.perm, layout.comps[at]
    jj, kk = layout.pairs
    cross = np.zeros((n, n))
    for i in range(0, len(months), step):
        chunk = slice(i, i + step)
        kappa = ex.kernel(months[chunk], kernel[chunk])[:, obs]
        m = ex.minimum.cross(months[chunk, None], obs)
        m_q = m * counts[chunk][:, comp_of_obs]
        cross += kappa.T @ m_q
        total[jj, kk] += (m_q.T @ m)[jj, kk]
    cross *= a[layout.comps][np.ix_(at, at)].T
    total += cross
    total += cross.T
    return total


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


@dataclass
class LearningComparison:
    """Paired pipeline runs with and without variance learning.  Each
    branch's remnant life is computed on first read, and raises ShapeError
    when its zmin targets are not a monthly grid.  Only the with-learning
    branch keeps what adjustment diagnostics read."""

    without_learning: AdjustedBelief
    with_learning: AdjustedBelief
    calibration: CalibrationResult
    critical_thickness: float

    @cached_property
    def life_without(self) -> RemnantLifeEstimate:
        return remnant_life(self.without_learning, self.critical_thickness)

    @cached_property
    def life_with(self) -> RemnantLifeEstimate:
        return remnant_life(self.with_learning, self.critical_thickness)


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

    Every step reads the dataset's values; an ``observed_y`` given in canonical
    design order replaces them first (``InspectionDataset.with_values``).  A
    given ``calibration`` must be of the dataset's design (``ShapeError``
    otherwise); its values are not checked, so it must be of the same
    values, as a calibration of the dataset whose horizon-extended copy is
    adjusted is.  Both branches' moments come from one two-law
    ``exact_moments`` call, exact but for a Student-t minimum, which one
    draw on ``seed`` serves for both laws (common random numbers, so paired
    contrasts are not swamped by Monte Carlo noise).  Each branch equals
    ``adjust_from_moments`` on its own law's one-law call, and neither holds
    a (targets x observations) array whole.
    """
    if observed_y is not None:
        dataset = dataset.with_values(observed_y)
    if calibration is None:
        calibration = calibrate(prior, topology, dataset, seed=seed, n_realizations=n_realizations)
    elif calibration.scheme.points != tuple(dataset.design_points()):
        raise ShapeError("the calibration is not of the dataset's design")
    selected = calibration.selected
    laws = [
        (prior.sigma_r, prior.hyper.mu_wx),
        (selected.sigma_r, selected.adjusted_mu_wx),
    ]
    prior_moments, learned_moments = exact_moments(
        prior, topology, dataset, laws, targets, n_realizations, seed
    )
    # only the with-learning branch is diagnosed
    without = adjust_from_moments(prior_moments, dataset, diagnose=False)
    with_learning = adjust_from_moments(learned_moments, dataset)
    return LearningComparison(without, with_learning, calibration, prior.critical_thickness)
