"""Brute-force reference simulator.

``simulate_realization`` runs the model forward once and keeps every
trajectory.  It consumes its stream exactly as ``simulate.draw_dataset``
does, so tests compare that drawer against it per seed, and use its full
paths (levels, rates, walks and the zmin state) as the reference for the
ensemble engine's moment estimates.
"""

import math
from dataclasses import dataclass

import numpy as np

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
