"""Brute-force references: the simulator, the ensemble target moments, the
whole-array update and the dense Dbar moments.

``simulate_realization`` runs the model forward once and keeps every
trajectory.  It consumes its stream exactly as ``simulate.draw_dataset``
does, so tests compare that drawer against it per seed, and use its full
paths (levels, rates, walks and the zmin state) as the reference for the
ensemble engine's moment estimates.  ``ensemble_moments`` is the row
oracle: the sample moments of the observations and targets of one ensemble
of the library's engine, the reference for ``simulate.exact_moments`` and
its target rows.  ``reference_update`` is the Bayes linear update with
every (targets x observations) array held whole, the reference for
``adjust.adjust_from_moments``, which reads the structure of the rows.
``reference_dbar_moments`` holds the difference combination as a dense
(entries x observations) matrix, each entry's coefficients on every
innovation as a dense (entries x innovations) matrix and the sum over a
component's entries as a 0/1 (entries x components) matrix, the reference
for ``simulate.exact_dbar_moments``, which builds them on the difference
scheme's ``combine`` and ``sum_by_component`` and factors the innovations'
fourth-cumulant sum into a component sum and a time sum.
``minimum_draw`` fills one whole array for the draw of the minimum, the
reference for ``simulate._minimum_draw``, which streams it month by month.
"""

import math
from dataclasses import dataclass

import numpy as np

from corrobayes import linalg, quadrature, simulate
from corrobayes.errors import DegenerateVarianceError
from corrobayes.simulate import _correlation_factor
from corrobayes.system import (
    InspectionDataset,
    PriorSpecification,
    SystemTopology,
    build_correlation,
    draw_variance_scales,
)


def _noise(rng: np.random.Generator, shape, dist: str, dof: float) -> np.ndarray:
    if dist == "gaussian":
        return rng.standard_normal(shape)
    # unit-variance Student t
    return rng.standard_t(dof, shape) / math.sqrt(dof / (dof - 2.0))


@dataclass
class EnsembleRealization:
    """Full trajectories of one realization (row t of each array is time t,
    row 0 the initial state)."""

    x: np.ndarray        # (T+1, C)
    alpha: np.ndarray    # (T+1, C)
    r: np.ndarray        # (T+1, L, C)
    zmin: np.ndarray     # (T+1, C)
    y: dict              # (component, t) -> observed minimum at designed points
    w_x: np.ndarray
    w_alpha: np.ndarray
    m_wx: float


def simulate_realization(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    rng: np.random.Generator,
    sigma_r: float | None = None,
    mu_wx: float | None = None,
    fix_scales: bool = False,
) -> EnsembleRealization:
    """Run the model forward once, observing at the designed points.

    With ``fix_scales`` every component's evolution variance is held at
    ``mu_wx`` exactly (known-truth data generation) instead of being drawn
    from the hyperprior.
    """
    pi = build_correlation(topology, prior.corr)
    factor = _correlation_factor(pi)
    sigma_r = prior.sigma_r if sigma_r is None else sigma_r
    mu_wx = prior.hyper.mu_wx if mu_wx is None else mu_wx
    t_len, n, l_cnt = design.horizon, topology.component_count, prior.locations_per_component

    hyper = prior.hyper.with_mean(mu_wx)
    if fix_scales:
        w_x, m_wx = np.full(n, mu_wx), mu_wx
    else:
        w_x, m_wx = draw_variance_scales(hyper, n, rng, prior.w_dist)
    w_a = hyper.lam * w_x

    dist, dof = prior.noise_dist, prior.t_dof
    eps_a = (_noise(rng, (t_len, n), dist, dof) @ factor.T) * np.sqrt(w_a)
    alpha = np.vstack([prior.alpha0, prior.alpha0 + np.cumsum(eps_a, axis=0)])
    eps_x = (_noise(rng, (t_len, n), dist, dof) @ factor.T) * np.sqrt(w_x)
    x = np.vstack([prior.x0, prior.x0 + np.cumsum(alpha[1:] + eps_x, axis=0)])

    r = np.zeros((t_len + 1, l_cnt, n))
    r[1:] = np.cumsum(math.sqrt(sigma_r) * _noise(rng, (t_len, l_cnt, n), dist, dof), axis=0)
    zmin = x + r.min(axis=1)

    eps_y = math.sqrt(prior.sigma_y) * _noise(rng, (t_len, l_cnt, n), dist, dof)
    noisy_min = (r[1:] + eps_y).min(axis=1)
    comp_idx = {c: i for i, c in enumerate(topology.components)}
    y = {
        (c, t): float(x[t, comp_idx[c]] + noisy_min[t - 1, comp_idx[c]])
        for (c, t) in design.design_points()
    }
    return EnsembleRealization(x, alpha, r, zmin, y, w_x, w_a, m_wx)


def ensemble_moments(prior, topology, design, targets, n_realizations, seed, laws=None):
    """Sample moments of the observations and the targets under each law
    (sigma_r, mu_wx) of ``laws`` (the prior's one law by default), from one
    common-random-number ensemble of ``simulate._ensemble`` on ``seed``: one
    ``simulate.MomentEstimates`` per law, whose target rows are the sample
    covariances of the centered ensemble it keeps, formed for the rows asked
    for."""
    if laws is None:
        laws = [(prior.sigma_r, prior.hyper.mu_wx)]
    laws = [(float(sr), float(mu)) for sr, mu in laws]
    targets, n = tuple(targets), n_realizations
    cells = simulate._cells(prior, topology, design, targets)
    _, blocks = simulate._ensemble(prior, topology, cells, laws, n, seed)
    y = [np.empty((n, len(cells.points))) for _ in laws]
    tv = [np.empty((n, len(targets))) for _ in laws]
    for k, rows, y_b, _, t_b in blocks:
        y[k][rows], tv[k][rows] = y_b, t_b
    out = []
    for yc, tc in zip(y, tv):
        e_y, e_t = yc.mean(axis=0), tc.mean(axis=0)
        yc -= e_y
        tc -= e_t
        var_y = simulate._cov(yc, yc)
        e_t += cells.trend_t
        var_t = np.einsum("ij,ij->j", tc, tc) / (n - 1)

        def rows(sl, e_t=e_t, var_t=var_t, tc=tc, yc=yc):
            return e_t[sl], var_t[sl], simulate._cov(tc[:, sl], yc)

        out.append(simulate.MomentEstimates(
            design_points=cells.points,
            e_y=e_y + cells.trend_y,
            var_y=0.5 * (var_y + var_y.T),
            targets=targets,
            target_cells=(cells.tgt_kind, cells.tgt_id, cells.tgt_t),
            rows=rows,
            n_realizations=n,
        ))
    return out


def reference_update(moments, observed_y):
    """The Bayes linear update with every (targets x observations) array
    held whole: G = cov(B,D) R for all targets at once, then each kind's
    adjustment discrepancy from its rows of G (0.0 when they are all zero,
    None when their resolved variance has rank zero).  Returns the adjusted
    means, the adjusted variances and {kind: discrepancy} in order of first
    appearance."""
    factor = moments.y_moment_pair().factor
    z = factor.whiten(np.asarray(observed_y, dtype=float) - moments.e_y)
    tm = moments.target_moments()
    g = tm.cov_targets @ factor.root
    kinds = np.array([kind for kind, _, _ in moments.targets])
    discrepancy = {}
    for kind in dict.fromkeys(kinds.tolist()):
        rows = g[kinds == kind]
        try:
            discrepancy[kind] = (
                linalg.whitened_adjustment_discrepancy(rows, z)
                if rows.any() else 0.0
            )
        except DegenerateVarianceError:
            discrepancy[kind] = None
    return tm.e_targets + g @ z, tm.var_targets - np.einsum("ij,ij->i", g, g), discrepancy


def _innovation_coefficients(prior, pi, cells):
    """The (observations x innovations) coefficients of the unit linear
    part x_std at the observed cells on the iid unit innovations z mixed by
    the factor F of Pi: F[c, k] on eps_x (month s, column k) up to month t,
    and sqrt(lam) F[c, k] (t - s + 1) on eps_alpha (month s, column k)."""
    months = np.arange(1, cells.horizon + 1)
    f_obs = _correlation_factor(pi)[cells.obs_c]
    step = (months <= cells.obs_t[:, None]).astype(float)
    ramp = np.clip(cells.obs_t[:, None] - months + 1, 0, None).astype(float)
    n_obs = len(cells.obs_t)
    return np.hstack([
        (step[:, :, None] * f_obs[:, None, :]).reshape(n_obs, -1),
        math.sqrt(prior.hyper.lam) * (ramp[:, :, None] * f_obs[:, None, :]).reshape(n_obs, -1),
    ])


def minimum_draw(prior, months, n, seed, sigma_rs):
    """The minima ``simulate._minimum_draw`` keeps, from one whole
    (months, 2, n, L) month-major array filled at once on ``seed`` through
    the last of ``months``: the cumsum of its walk increments, and the
    minima over locations of the walk and of sqrt(sr) walk + eps_y for each
    sr of ``sigma_rs``, gathered at ``months``."""
    rng = np.random.default_rng(simulate._as_seedseq(seed))
    last = months[-1] if len(months) else 0
    draw = _noise(rng, (last, 2, n, prior.locations_per_component), prior.noise_dist, prior.t_dof)
    walk = np.cumsum(draw[:, 0], axis=0)[months - 1]
    eps = math.sqrt(prior.sigma_y) * draw[months - 1, 1]
    noisy = np.array([(math.sqrt(sr) * walk + eps).min(axis=2) for sr in sigma_rs])
    return walk.min(axis=2), noisy


def reference_dbar_moments(prior, topology, design, laws, scheme, n_realizations, seed):
    """The Dbar moments of each law by dense products: with C the (entries
    x observations) combination and S the 0/1 (entries x components)
    membership, A = C U C', E[b b'] = C E[M M'] C', var(Dbar) = S' T S for
    the per-entry covariance terms T, and the minimum's Dbar rows
    (C m)^2 / K summed by S.  Under Student-t noise T gains
    E[W W'] kappa4 (E o E)(E o E)' for the (entries x innovations)
    coefficients E = C B (``_innovation_coefficients``), with kappa4 the
    unit-variance t's fourth moment 3 (nu - 2) / (nu - 4) minus 3.  Under
    either noise law the minimum at the observed months is one whole-array
    draw (``minimum_draw``); E[M M'] is closed-form under Gaussian noise
    and that draw's sample moments under Student-t noise.  Returns one
    dict per law of m1_sq, m2_sq, m1m2, dbar_var and mw_dbar_cov."""
    cells, pi, same_y = simulate._exact_setup(prior, topology, design)
    n, seed = simulate._size_and_seed(n_realizations, seed)
    obs_t, obs_c = cells.obs_t, cells.obs_c
    yi, yj = np.nonzero(same_y)
    p0, p1, p2, k, l, weight = scheme.p0, scheme.p1, scheme.p2, scheme.k, scheme.l, scheme.weight
    entries = np.arange(len(p0))
    comb = np.zeros((len(p0), len(obs_t)))
    comb[entries, p0], comb[entries, p1], comb[entries, p2] = k - l, l, -k
    member = scheme.entry_component[:, None] == np.arange(len(scheme.components))
    lin = comb @ simulate._unit_linear_cov(pi, prior.hyper.lam, cells) @ comb.T
    same = obs_c[p0][:, None] == obs_c[p0]
    hyper = prior.hyper
    kk = np.outer(weight, weight)
    sigma_rs = [sr for sr, _ in laws]
    months = np.unique(obs_t)
    at = np.searchsorted(months, obs_t)
    _, noisy = minimum_draw(prior, months, n, seed, sigma_rs)
    min_rows = [((m[at].T @ comb.T) ** 2 / weight) @ member for m in noisy]
    fourth = 0.0
    if prior.noise_dist == "gaussian":
        minima = map(simulate._minimum_law(prior, cells, sigma_rs), range(len(laws)))
    else:
        minima = (simulate._SampledMinimum([m], at) for m in noisy)
        nu = prior.t_dof
        coef_sq = (comb @ _innovation_coefficients(prior, pi, cells)) ** 2
        fourth = (3.0 * (nu - 2.0) / (nu - 4.0) - 3.0) * coef_sq @ coef_sq.T
    out = []
    for (_, mu), rows, minimum in zip(laws, min_rows, minima):
        ew, root_pair, square, pair = quadrature.scale_moments(hyper.with_mean(mu), prior.w_dist)
        e_m, min_cov = minimum.observed(yi, yj)
        mm = np.outer(e_m, e_m)
        mm[yi, yj] += min_cov
        bb = comb @ mm @ comb.T
        terms = np.where(same, hyper.sigma_wx, hyper.gamma_wx) * kk
        terms += np.where(same, square, pair) * (2.0 * lin * lin + fourth)
        terms += 4.0 * np.where(same, ew, root_pair) * lin * bb
        dv = member.T @ (terms / kk) @ member
        dv += np.diag(rows.var(axis=0, ddof=1))
        out.append(dict(
            m1_sq=mm[p0, p0] - 2.0 * mm[p0, p1] + mm[p1, p1],
            m2_sq=mm[p0, p0] - 2.0 * mm[p0, p2] + mm[p2, p2],
            m1m2=mm[p0, p0] - mm[p0, p1] - mm[p0, p2] + mm[p1, p2],
            dbar_var=0.5 * (dv + dv.T),
            mw_dbar_cov=scheme.t_eff * hyper.gamma_wx,
        ))
    return out
