"""Brute-force references: the simulator, the whole-array update and the
dense Dbar moments.

``simulate_realization`` runs the model forward once and keeps every
trajectory.  It consumes its stream exactly as ``simulate.draw_dataset``
does, so tests compare that drawer against it per seed, and use its full
paths (levels, rates, walks and the zmin state) as the reference for the
ensemble engine's moment estimates.  ``reference_update`` is the Bayes
linear update with every (targets x observations) array held whole, the
reference for the block-by-block ``adjust.adjust_from_moments``.
``reference_dbar_moments`` holds the difference combination as a dense
(entries x observations) matrix and the sum over a component's entries as a
0/1 (entries x components) matrix, the reference for
``simulate.exact_dbar_moments``, which builds both on the difference
scheme's ``combine`` and ``sum_by_component``.
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
                linalg.whitened_adjustment_discrepancy(rows, z, moments.n_realizations)
                if rows.any() else 0.0
            )
        except DegenerateVarianceError:
            discrepancy[kind] = None
    return tm.e_targets + g @ z, tm.var_targets - np.einsum("ij,ij->i", g, g), discrepancy


def reference_dbar_moments(prior, topology, design, laws, scheme, n_realizations, seed):
    """The Dbar moments of each law by dense products: with C the (entries
    x observations) combination and S the 0/1 (entries x components)
    membership, A = C U C', E[b b'] = C E[M M'] C', var(Dbar) = S' T S for
    the per-entry covariance terms T, and the minimum's Dbar rows
    (C m)^2 / K summed by S.  The minimum is drawn as
    ``simulate.exact_dbar_moments`` draws it.  Returns one dict per law of
    m1_sq, m2_sq, m1m2, dbar_var and mw_dbar_cov."""
    cells, pi, mins, same_y = simulate._exact_setup(prior, topology, design)
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
    min_rows = [[] for _ in laws]
    blocks = simulate._min_blocks(prior, seed, n, cells)
    for _, j, mo in simulate._minima(blocks, [sr for sr, _ in laws]):
        min_rows[j].append(((mo @ comb.T) ** 2 / weight) @ member)
    out = []
    for (sr, mu), rows in zip(laws, min_rows):
        ew, root_pair, square, pair = quadrature.scale_moments(hyper.with_mean(mu), prior.w_dist)
        v_y, min_cov = simulate._observed_min(mins, sr, prior.sigma_y, obs_t, yi, yj)
        e_m = np.sqrt(v_y) * mins.mean
        mm = np.outer(e_m, e_m)
        mm[yi, yj] += min_cov
        bb = comb @ mm @ comb.T
        terms = np.where(same, hyper.sigma_wx, hyper.gamma_wx) * kk
        terms += 2.0 * np.where(same, square, pair) * lin * lin
        terms += 4.0 * np.where(same, ew, root_pair) * lin * bb
        dv = member.T @ (terms / kk) @ member
        dv += np.diag(np.concatenate(rows).var(axis=0, ddof=1))
        out.append(dict(
            m1_sq=mm[p0, p0] - 2.0 * mm[p0, p1] + mm[p1, p1],
            m2_sq=mm[p0, p0] - 2.0 * mm[p0, p2] + mm[p2, p2],
            m1m2=mm[p0, p0] - mm[p0, p1] - mm[p0, p2] + mm[p1, p2],
            dbar_var=0.5 * (dv + dv.T),
            mw_dbar_cov=scheme.t_eff * hyper.gamma_wx,
        ))
    return out
