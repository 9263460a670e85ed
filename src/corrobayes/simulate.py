"""Forward simulation and Monte Carlo moment estimation.

Each realization draws variance scales W_c from the variance hyperprior (so
uncertainty about the variances propagates into var(Y)), runs the
linear-growth model forward, evolves per-location local random walks, and
observes the minimum over locations with measurement error.

Separability of the min: Y_{c,t} = X_{c,t} + M_{c,t} with
M_{c,t} = min_l(r_{l,c,t} + eps_y), which is how the local min-difference
moments needed by variance learning are extracted per realization.

``estimate_moments_by_law`` estimates moments for a list of laws
(sigma_r, mu_wx) from one ensemble.  Realizations are processed in blocks
whose noise buffers hold about ``BLOCK_ELEMENTS`` floats.  A block draws its
standard-normal noise once, from one child stream per realization, and forms
the unit local walk cumsum(z_r) and the unit-scale level and rate paths once.
Each law then only rescales them: the walk by sqrt(sigma_r), the linear part
by sqrt(W_c) drawn for that law's mu_wx from a separate scale stream that all
laws share.  The measurement error eps_y is drawn at the observed cells only.
The per-realization observation and target values of every law are kept for
the whole ensemble (they are small next to the (T, C, L) noise), and the
moments come from one centered pass of matrix products, so they do not
depend on the block size.

``draw_observations`` is the data drawer next to this moment kernel: it
draws whole synthetic datasets (one per seed, in blocks under the same
element budget) with each dataset's stream consumed exactly as
``simulate_realization`` consumes it, building Pi's factor and the observed
cell indices once.  ``draw_dataset`` is its one-seed case.  Both the
ensemble's Dbar moments and the estimator study reduce observation rows with
the difference scheme's one Dbar kernel (``DifferenceScheme.kernel``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InsufficientDataError, ShapeError
from .linalg import MomentPair
from .system import (
    InspectionDataset,
    PriorSpecification,
    SystemTopology,
    build_correlation,
    draw_variance_scales,
)

TARGET_KINDS = ("zmin", "x", "alpha")

#: Element budget (float64 count) of one block's local-walk noise buffer: a
#: block holds max(1, BLOCK_ELEMENTS // (T * C * L)) realizations.
BLOCK_ELEMENTS = 2**16


def _as_seedseq(seed) -> np.random.SeedSequence:
    """A fresh SeedSequence: spawning from it never advances the caller's
    object, so the same seed always gives the same child streams."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
    return np.random.SeedSequence(seed)


def correlation_factor(pi: np.ndarray) -> np.ndarray:
    """A with A A' = Pi, valid for merely positive semi-definite Pi."""
    vals, vecs = np.linalg.eigh(pi)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


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

    Keeps every trajectory; the pipeline draws datasets with
    ``draw_observations`` and tests use this as its brute-force reference.
    With ``fix_scales`` every component's evolution variance is held at
    ``mu_wx`` exactly (known-truth data generation) instead of being drawn
    from the hyperprior.
    """
    pi = build_correlation(topology, prior.corr)
    factor = correlation_factor(pi)
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


def _observed_cells(design: InspectionDataset, topology: SystemTopology):
    """(times, component indices) of the design's points in canonical order."""
    points = design.design_points()
    comp_idx = {c: i for i, c in enumerate(topology.components)}
    obs_c = np.array([comp_idx[c] for c, _ in points], dtype=int)
    obs_t = np.array([t for _, t in points], dtype=int)
    if points and (obs_t.min() < 1 or obs_t.max() > design.horizon):
        raise ConfigError("design times outside horizon")
    return obs_t, obs_c


def draw_observations(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    seeds,
    sigma_r: float | None = None,
    mu_wx: float | None = None,
    fix_scales: bool = False,
):
    """Observation vectors of independent synthetic datasets, in blocks.

    Dataset j is drawn from the j-th seed of the iterable ``seeds``, which is
    read lazily, one block at a time.  Yields (b, n_obs) arrays whose rows are
    the datasets' values in the design's canonical point order.  Each row
    consumes its stream exactly as ``simulate_realization`` does (W unless
    ``fix_scales``, then eps_alpha (T, C), eps_x (T, C), r (T, L, C) and
    eps_y (T, L, C)), so it equals that realization's observations.  Pi's
    factor and the observed-cell indices are built once for all datasets.
    """
    sigma_r = prior.sigma_r if sigma_r is None else sigma_r
    mu_wx = prior.hyper.mu_wx if mu_wx is None else mu_wx
    hyper = prior.hyper.with_mean(mu_wx)
    obs_t, obs_c = _observed_cells(design, topology)
    factor_t = correlation_factor(build_correlation(topology, prior.corr)).T
    t_len, n_comp, l_cnt = design.horizon, topology.component_count, prior.locations_per_component
    dist, dof = prior.noise_dist, prior.t_dof

    block = max(1, BLOCK_ELEMENTS // (t_len * n_comp * l_cnt))
    w_x = np.full((block, n_comp), float(mu_wx))
    za = np.empty((block, t_len, n_comp))
    zx = np.empty((block, t_len, n_comp))
    zr = np.empty((block, t_len, l_cnt, n_comp))
    zy = np.empty((block, t_len, l_cnt, n_comp))
    seeds = iter(seeds)
    # zip stops at the end of range before taking a seed past the block
    while chunk := [seed for _, seed in zip(range(block), seeds)]:
        b = len(chunk)
        for j, seed in enumerate(chunk):
            rng = np.random.default_rng(_as_seedseq(seed))
            if not fix_scales:
                w_x[j], _ = draw_variance_scales(hyper, n_comp, rng, prior.w_dist)
            for buf in (za, zx, zr, zy):
                _fill_noise(rng, buf[j], dist, dof)
        # alpha_t = alpha0 + cumsum(eps_alpha), then x_t = x0 + cumsum(alpha_t
        # + eps_x), in one buffer and in simulate_realization's operation order
        x = (za[:b] @ factor_t) * np.sqrt(hyper.lam * w_x[:b, None, :])
        np.cumsum(x, axis=1, out=x)
        x += prior.alpha0
        x += (zx[:b] @ factor_t) * np.sqrt(w_x[:b, None, :])
        np.cumsum(x, axis=1, out=x)
        x += prior.x0
        walk = zr[:b]
        walk *= math.sqrt(sigma_r)
        np.cumsum(walk, axis=1, out=walk)
        noisy = zy[:b]
        noisy *= math.sqrt(prior.sigma_y)
        noisy += walk
        yield x[:, obs_t - 1, obs_c] + noisy.min(axis=2)[:, obs_t - 1, obs_c]


def draw_dataset(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    seed,
    sigma_r: float | None = None,
    mu_wx: float | None = None,
    fix_scales: bool = False,
) -> InspectionDataset:
    """One synthetic inspection dataset drawn under the model: the one-seed
    case of ``draw_observations``."""
    (values,) = draw_observations(prior, topology, design, [seed], sigma_r, mu_wx, fix_scales)
    return design.with_values(values[0])


@dataclass
class MomentEstimates:
    """Ensemble moment estimates over the designed observation points.

    m1_sq / m2_sq / m1m2 are entry-aligned raw moments of the local
    min-differences used by variance learning; dbar_* describe the Dbar
    statistic across realizations; mw_* track the drawn population mean
    variance for oracle checks.
    """

    design_points: list
    e_y: np.ndarray
    var_y: np.ndarray
    targets: tuple
    e_targets: np.ndarray
    var_targets: np.ndarray
    cov_targets: np.ndarray      # (n_targets, n_obs)
    n_realizations: int
    seed: int
    sigma_r: float
    mu_wx: float
    scheme: object = None
    m1_sq: np.ndarray = None
    m2_sq: np.ndarray = None
    m1m2: np.ndarray = None
    dbar_mean: np.ndarray = None
    dbar_var: np.ndarray = None
    mw_mean: float = math.nan
    mw_var: float = math.nan
    mw_dbar_cov: np.ndarray = None
    target_samples: np.ndarray = None
    skipped_components: tuple = ()
    _y_pair: MomentPair = field(default=None, init=False, repr=False, compare=False)

    def y_moment_pair(self) -> MomentPair:
        """(e_y, var_y) as one MomentPair, built on first use, so H, the
        adjustment and its diagnostics share one factor of var(Y)."""
        if self._y_pair is None:
            self._y_pair = MomentPair(self.e_y, self.var_y)
        return self._y_pair


def _target_arrays(targets, topology, horizon):
    kinds, comps, times = [], [], []
    comp_idx = {c: i for i, c in enumerate(topology.components)}
    for kind, c, t in targets:
        if kind not in TARGET_KINDS:
            raise ConfigError(f"unknown target kind {kind!r}")
        if c not in comp_idx:
            raise ConfigError(f"unknown target component {c}")
        if not 1 <= t <= horizon:
            raise ConfigError(f"target time {t} outside 1..{horizon}")
        kinds.append(kind)
        comps.append(comp_idx[c])
        times.append(t)
    return kinds, np.array(comps, dtype=int), np.array(times, dtype=int)


def _fill_noise(rng: np.random.Generator, out: np.ndarray, dist: str, dof: float) -> None:
    if dist == "gaussian":
        rng.standard_normal(out=out)
    else:
        out[...] = _noise(rng, out.shape, dist, dof)


def _child(root: np.random.SeedSequence, i: int) -> np.random.SeedSequence:
    """Child i of ``root.spawn``, built on demand instead of all at once."""
    return np.random.SeedSequence(
        root.entropy, spawn_key=root.spawn_key + (i,), pool_size=root.pool_size
    )


def _draw_scales(prior: PriorSpecification, mu_wx: float, n: int, n_comp: int, seed):
    """Variance scales W (n, C) and drawn population means (n,) of one law,
    read from the start of the scale stream ``seed``."""
    rng = np.random.default_rng(seed)
    hyper = prior.hyper.with_mean(mu_wx)
    w_x, m_wx = np.empty((n, n_comp)), np.empty(n)
    for i in range(n):
        w_x[i], m_wx[i] = draw_variance_scales(hyper, n_comp, rng, prior.w_dist)
    return w_x, m_wx


def _run_blocks(prior, factor_t, horizon, root, n, laws, scales, obs, tgt, keep_min):
    """The blocked kernel over ``n`` realizations.  ``obs`` = (times,
    component indices) of the observed cells; ``tgt`` = (times, component
    indices, is_alpha, is_zmin) of the targets.  Returns, per law and
    realization, the observations and targets minus their prior trend, and
    (with ``keep_min``) the local min-effects at the observed cells."""
    n_law = len(laws)
    obs_t, obs_c = obs
    tgt_t, tgt_c, is_alpha, is_zmin = tgt
    n_comp, l_cnt = factor_t.shape[0], prior.locations_per_component
    dist, dof = prior.noise_dist, prior.t_dof
    root_lam, root_y = math.sqrt(prior.hyper.lam), math.sqrt(prior.sigma_y)
    y = np.empty((n_law, n, len(obs_t)))
    m = np.empty((n_law, n, len(obs_t))) if keep_min else None
    tv = np.empty((n_law, n, len(tgt_t)))

    block = max(1, BLOCK_ELEMENTS // (horizon * n_comp * l_cnt))
    za = np.empty((block, horizon, n_comp))
    zx = np.empty((block, horizon, n_comp))
    zr = np.empty((block, horizon, n_comp, l_cnt))
    zy = np.empty((block, len(obs_t), l_cnt))
    noisy = np.empty_like(zy)
    for i0 in range(0, n, block):
        b = min(block, n - i0)
        rows = slice(i0, i0 + b)
        for j in range(b):
            rng = np.random.default_rng(_child(root, i0 + j))
            for buf in (za, zx, zr, zy):
                _fill_noise(rng, buf[j], dist, dof)
        # unit-scale paths: with W_c the law's variance scale,
        # alpha_t - alpha0 = sqrt(W_c) a_std and x_t - x0 - alpha0 t = sqrt(W_c) x_std
        a_std = np.cumsum(za[:b] @ factor_t, axis=1)
        a_std *= root_lam
        x_std = np.cumsum(a_std, axis=1)
        x_std += np.cumsum(zx[:b] @ factor_t, axis=1)
        walk = np.cumsum(zr[:b], axis=1, out=zr[:b])
        obs_walk = walk[:, obs_t - 1, obs_c]
        zy[:b] *= root_y
        obs_lin = x_std[:, obs_t - 1, obs_c]
        tgt_lin = np.where(is_alpha, a_std[:, tgt_t - 1, tgt_c], x_std[:, tgt_t - 1, tgt_c])
        tgt_min = 0.0
        if is_zmin.any():
            tgt_min = np.where(is_zmin, walk.min(axis=-1)[:, tgt_t - 1, tgt_c], 0.0)
        for k, (sr, mu) in enumerate(laws):
            root_w = np.sqrt(scales[mu][0][rows])
            np.multiply(obs_walk, math.sqrt(sr), out=noisy[:b])
            noisy[:b] += zy[:b]
            mo = noisy[:b].min(axis=-1)
            y[k, rows] = root_w[:, obs_c] * obs_lin + mo
            if keep_min:
                m[k, rows] = mo
            tv[k, rows] = root_w[:, tgt_c] * tgt_lin + math.sqrt(sr) * tgt_min
    return y, m, tv


def _cov(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sample cross-covariance of the columns of two centered ensembles."""
    return a.T @ b / (a.shape[0] - 1)


def _add_scheme_moments(est, scheme, kernel, comp_idx, y, m, w_x, m_wx, hyper) -> None:
    """Attach the local min-difference moments and the Dbar moments.

    ``y`` and ``m`` are the (n, n_obs) observations and their local
    min-effects; ``kernel`` is the scheme's Dbar kernel for their columns.
    ``y`` may omit the prior trend: every difference combination
    annihilates level and slope.
    """
    est.scheme = scheme
    est.skipped_components = scheme.skipped
    n = y.shape[0]
    p0, p1, p2 = kernel.p0, kernel.p1, kernel.p2
    # ensemble-sized temporaries are built in place to keep them few
    m1 = m[:, p0]
    m1 -= m[:, p1]
    m2 = m[:, p0]
    m2 -= m[:, p2]
    est.m1_sq = np.einsum("ij,ij->j", m1, m1) / n
    est.m2_sq = np.einsum("ij,ij->j", m2, m2) / n
    est.m1m2 = np.einsum("ij,ij->j", m1, m2) / n
    del m1, m2
    if not scheme.entries:
        return
    t_eff = np.array([scheme.t_counts[c] - 2 for c in scheme.components], dtype=float)
    dvec = kernel(y)
    # conditional residual: the drawn-variance contribution has known
    # conditional mean (T_c - 2) * W_c, so only the remainder's covariance
    # needs Monte Carlo (law of total variance).
    res = dvec - t_eff * w_x[:, [comp_idx[c] for c in scheme.components]]
    res -= res.mean(axis=0)
    gam, sig = hyper.gamma_wx, hyper.sigma_wx
    dv = gam * np.outer(t_eff, t_eff) + np.diag(t_eff**2 * (sig - gam)) + _cov(res, res)
    est.dbar_mean = dvec.mean(axis=0)
    est.dbar_var = 0.5 * (dv + dv.T)
    mw = m_wx - m_wx.mean()
    est.mw_mean = float(m_wx.mean())
    est.mw_var = float(mw @ mw / (n - 1))
    est.mw_dbar_cov = mw @ (dvec - est.dbar_mean) / (n - 1)


def estimate_moments_by_law(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    laws,
    targets=(),
    n_realizations: int | None = None,
    seed: int | None = None,
    scheme=None,
    store_target_samples: bool = False,
    allow_empty_design: bool = False,
) -> list:
    """Sample moments under each law (sigma_r, mu_wx) of ``laws`` from one
    shared ensemble; deterministic given seed.

    Every law sees the same standard-normal noise and the same variance-scale
    stream (common random numbers), so a one-law call equals that law's entry
    of a multi-law call, and differences between laws are not Monte Carlo
    noise.  Returns one MomentEstimates per law, in order.  When a difference
    scheme is supplied, the Dbar statistic and the local min-difference
    moments of each scheme entry are estimated alongside the observation
    moments.
    """
    n = prior.ensemble_size if n_realizations is None else int(n_realizations)
    if n < 2:
        raise ConfigError("need at least 2 realizations")
    seed = prior.rng_seed if seed is None else seed
    laws = [(float(sr), float(mu)) for sr, mu in laws]
    targets = tuple(targets)

    points = design.design_points()
    if not points and not allow_empty_design:
        raise InsufficientDataError("design contains no observation points")
    if prior.x0.shape[0] != topology.component_count:
        raise ShapeError("x0 length does not match component count")

    obs_t, obs_c = _observed_cells(design, topology)
    kinds, tgt_c, tgt_t = _target_arrays(targets, topology, design.horizon)
    is_alpha = np.array([k == "alpha" for k in kinds], dtype=bool)
    is_zmin = np.array([k == "zmin" for k in kinds], dtype=bool)

    # realization i draws its noise from child i of the seed; child n is the
    # variance-scale stream, read from its start once per distinct mu_wx
    root = _as_seedseq(seed)
    scales = {
        mu: _draw_scales(prior, mu, n, topology.component_count, _child(root, n))
        for mu in dict.fromkeys(mu for _, mu in laws)
    }
    factor_t = correlation_factor(build_correlation(topology, prior.corr)).T
    y, m, tv = _run_blocks(
        prior, factor_t, design.horizon, root, n, laws, scales,
        (obs_t, obs_c), (tgt_t, tgt_c, is_alpha, is_zmin), scheme is not None,
    )

    base_y = prior.x0[obs_c] + prior.alpha0[obs_c] * obs_t
    base_t = np.where(is_alpha, prior.alpha0[tgt_c], prior.x0[tgt_c] + prior.alpha0[tgt_c] * tgt_t)
    if scheme is not None:
        comp_idx = {c: i for i, c in enumerate(topology.components)}
        kernel = scheme.kernel(points)
    out = []
    for k, (sr, mu) in enumerate(laws):
        e_y, e_t = y[k].mean(axis=0), tv[k].mean(axis=0)
        samples = tv[k] + base_t if store_target_samples else None
        # the targets are centered in place (their raw values are not read
        # again); y[k] is not, because the Dbar moments below read it
        yc, tc = y[k] - e_y, tv[k]
        tc -= e_t
        var_y = _cov(yc, yc)
        est = MomentEstimates(
            design_points=points,
            e_y=e_y + base_y,
            var_y=0.5 * (var_y + var_y.T),
            targets=targets,
            e_targets=e_t + base_t,
            var_targets=np.einsum("ij,ij->j", tc, tc) / (n - 1),
            cov_targets=_cov(tc, yc),
            n_realizations=n,
            seed=seed,
            sigma_r=sr,
            mu_wx=mu,
            target_samples=samples,
        )
        del yc, tc, samples
        if scheme is not None:
            w_x, m_wx = scales[mu]
            _add_scheme_moments(
                est, scheme, kernel, comp_idx, y[k], m[k], w_x, m_wx, prior.hyper
            )
        out.append(est)
    return out


def estimate_moments(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    targets=(),
    n_realizations: int | None = None,
    seed: int | None = None,
    sigma_r: float | None = None,
    mu_wx: float | None = None,
    scheme=None,
    store_target_samples: bool = False,
    allow_empty_design: bool = False,
) -> MomentEstimates:
    """Sample moments under one law; ``sigma_r`` and ``mu_wx`` default to
    the prior's.  The one-law case of ``estimate_moments_by_law``."""
    law = (
        prior.sigma_r if sigma_r is None else sigma_r,
        prior.hyper.mu_wx if mu_wx is None else mu_wx,
    )
    (est,) = estimate_moments_by_law(
        prior, topology, design, [law], targets, n_realizations, seed,
        scheme, store_target_samples, allow_empty_design,
    )
    return est


def forecast_extend(design: InspectionDataset, extra_months: int) -> InspectionDataset:
    """Same records, horizon extended so forecast targets beyond T are valid."""
    return design.extended(extra_months)
