"""Forward simulation, Monte Carlo moment estimation, and exact moments.

Under Gaussian noise the moments of the observations and of the targets
have closed forms (``exact_moments``), and the pipeline reads those
(``moments_by_law``); it simulates only the Dbar moments of variance
learning, whose fourth moments of the minimum have none.  Under Student-t
noise every moment is an ensemble's.

Each realization draws variance scales W_c from the variance hyperprior (so
uncertainty about the variances propagates into var(Y)), runs the
linear-growth model forward, evolves per-location local random walks, and
observes the minimum over locations with measurement error.

Separability of the min: Y_{c,t} = X_{c,t} + M_{c,t} with
M_{c,t} = min_l(r_{l,c,t} + eps_y), which is how the local min-difference
moments needed by variance learning are extracted per realization.

``_run_blocks`` is the one ensemble engine: n realizations of a list of
laws (sigma_r, mu_wx), processed in blocks whose noise buffers hold about
``BLOCK_ELEMENTS`` floats.  Each block comes from one of two drawers, chosen
from the pass's own inputs:

* the monthly drawer serves passes with targets, with a difference scheme or
  with Student-t noise.  From one child stream per realization it draws the
  level and rate noise and the local walk noise of every month, component
  and location, and eps_y at the observed cells, and forms the unit local
  walk cumsum(z_r) and the unit-scale level and rate paths once;
* the observed-cell drawer serves the other passes (Gaussian noise, no
  targets, no scheme), which read nothing but the observations.  It draws
  only at the observed cells: the unit linear part as one Gaussian vector
  whose covariance Pi[c,c'] k(t,t') is factored once per pass, the walk as
  independent sqrt(gap) z increments between a component's visits, and
  eps_y.  Its values have the same law as the monthly drawer's, but its
  streams are laid out differently, so its ensembles are not the monthly
  drawer's.

Each law then only rescales a block, in one loop shared by both drawers:
the walk by sqrt(sigma_r), the linear part by sqrt(W_c) drawn for that law's
mu_wx from a separate scale stream that all laws share.  The walk and eps_y
are held location-major, so the minimum over locations runs over whole
slices.  The engine yields each block's observations, local min-effects and
targets per law, minus the prior trend, to two consumers:

* ``estimate_moments_by_law`` keeps them for the whole ensemble (they are
  small next to the noise) and takes the moments in one centered pass of
  matrix products, so they do not depend on the block size: only the Dbar
  moments (``DbarMoments``) for a pass with a difference scheme, only the
  observation and target moments (``MomentEstimates``) for any other;
* the estimator study (``calibrate.estimator_study``) draws its replicate
  datasets as the realizations of one ensemble at the true law and reduces
  each block to its Dbar rows with the difference scheme's Dbar kernel
  (``DifferenceScheme.kernel``), the kernel the ensemble's Dbar moments use.

``draw_dataset`` draws one synthetic dataset from one seed, every month of
every location, with its own fixed stream layout.  The ensembles remain the
oracle the exact moments are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quadrature
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

#: Element budget (float64 count) of one block's local-walk noise buffer, in
#: each drawer: a block holds max(1, BLOCK_ELEMENTS // (T * C * L))
#: realizations in the monthly drawer and max(1, BLOCK_ELEMENTS // (n_obs * L))
#: in the observed-cell drawer.
BLOCK_ELEMENTS = 2**16


def _as_seedseq(seed) -> np.random.SeedSequence:
    """A fresh SeedSequence: spawning from it never advances the caller's
    object, so the same seed always gives the same child streams."""
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
    return np.random.SeedSequence(seed)


def _correlation_factor(pi: np.ndarray) -> np.ndarray:
    """A with A A' = Pi, valid for merely positive semi-definite Pi."""
    vals, vecs = np.linalg.eigh(pi)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _observed_cells(design: InspectionDataset, topology: SystemTopology):
    """(times, component indices) of the design's points in canonical order."""
    points = design.design_points()
    comp_idx = {c: i for i, c in enumerate(topology.components)}
    obs_c = np.array([comp_idx[c] for c, _ in points], dtype=int)
    obs_t = np.array([t for _, t in points], dtype=int)
    if points and (obs_t.min() < 1 or obs_t.max() > design.horizon):
        raise ConfigError("design times outside horizon")
    return obs_t, obs_c


def draw_dataset(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    seed,
    sigma_r: float | None = None,
    mu_wx: float | None = None,
    fix_scales: bool = False,
) -> InspectionDataset:
    """One synthetic inspection dataset drawn under the model from ``seed``.

    The stream is read in one fixed order: W unless ``fix_scales`` (which
    holds every W_c at ``mu_wx``), then eps_alpha (T, C), eps_x (T, C),
    r (T, L, C) and eps_y (T, L, C).
    """
    sigma_r = prior.sigma_r if sigma_r is None else sigma_r
    mu_wx = prior.hyper.mu_wx if mu_wx is None else mu_wx
    hyper = prior.hyper.with_mean(mu_wx)
    obs_t, obs_c = _observed_cells(design, topology)
    factor_t = _correlation_factor(build_correlation(topology, prior.corr)).T
    t_len, n_comp, l_cnt = design.horizon, topology.component_count, prior.locations_per_component
    rng = np.random.default_rng(_as_seedseq(seed))
    w_x = np.full(n_comp, float(mu_wx))
    if not fix_scales:
        w_x, _ = draw_variance_scales(hyper, n_comp, rng, prior.w_dist)
    za, zx = np.empty((2, t_len, n_comp))
    zr, zy = np.empty((2, t_len, l_cnt, n_comp))
    for buf in (za, zx, zr, zy):
        _fill_noise(rng, buf, prior.noise_dist, prior.t_dof)
    # alpha_t = alpha0 + cumsum(eps_alpha), then x_t = x0 + cumsum(alpha_t
    # + eps_x), in one buffer; the operation order fixes the rounding
    x = (za @ factor_t) * np.sqrt(hyper.lam * w_x)
    np.cumsum(x, axis=0, out=x)
    x += prior.alpha0
    x += (zx @ factor_t) * np.sqrt(w_x)
    np.cumsum(x, axis=0, out=x)
    x += prior.x0
    zr *= math.sqrt(sigma_r)
    walk = np.cumsum(zr, axis=0, out=zr)
    zy *= math.sqrt(prior.sigma_y)
    zy += walk
    return design.with_values(x[obs_t - 1, obs_c] + zy.min(axis=1)[obs_t - 1, obs_c])


@dataclass
class MomentEstimates:
    """Moments of the designed observations and the targets under one law,
    exact (``n_realizations`` None) or from an ensemble of that size.

    The paired comparison (``adjust.compare_with_without_variance_learning``)
    releases both branches' ``cov_targets`` once they are adjusted: their
    whitened rows live on in the beliefs' G blocks.
    """

    design_points: list
    e_y: np.ndarray
    var_y: np.ndarray
    targets: tuple
    e_targets: np.ndarray
    var_targets: np.ndarray
    cov_targets: np.ndarray | None  # (n_targets, n_obs); None after the comparison
    n_realizations: int | None
    _y_pair: MomentPair = field(default=None, init=False, repr=False, compare=False)

    def y_moment_pair(self) -> MomentPair:
        """(e_y, var_y) as one MomentPair, built on first use, so H, the
        adjustment and its diagnostics share one factor of var(Y)."""
        if self._y_pair is None:
            self._y_pair = MomentPair(self.e_y, self.var_y)
        return self._y_pair


@dataclass
class DbarMoments:
    """What variance learning reads, from a pass with a difference scheme:
    entry-aligned raw moments m1_sq / m2_sq / m1m2 of the local
    min-differences, the mean and variance of Dbar over the scheme's
    components, and its covariance with the drawn population mean variance.
    A scheme without entries gives empty arrays."""

    n_realizations: int
    m1_sq: np.ndarray
    m2_sq: np.ndarray
    m1m2: np.ndarray
    dbar_mean: np.ndarray
    dbar_var: np.ndarray
    mw_dbar_cov: np.ndarray


def _target_arrays(targets, topology, horizon):
    """(times, component indices, is_alpha, is_zmin) of the targets."""
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
    return (
        np.array(times, dtype=int),
        np.array(comps, dtype=int),
        np.array([k == "alpha" for k in kinds], dtype=bool),
        np.array([k == "zmin" for k in kinds], dtype=bool),
    )


def _fill_noise(rng: np.random.Generator, out: np.ndarray, dist: str, dof: float) -> None:
    if dist == "gaussian":
        rng.standard_normal(out=out)
    else:
        # unit-variance Student t
        out[...] = rng.standard_t(dof, out.shape) / math.sqrt(dof / (dof - 2.0))


def _child(root: np.random.SeedSequence, i: int) -> np.random.SeedSequence:
    """Child i of ``root.spawn``, built on demand instead of all at once."""
    return np.random.SeedSequence(
        root.entropy, spawn_key=root.spawn_key + (i,), pool_size=root.pool_size
    )


def _draw_scales(prior: PriorSpecification, mu_wx: float, n: int, n_comp: int, seed):
    """Variance scales W (n, C) and drawn population means (n,) of one law,
    read from the start of the scale stream ``seed``."""
    hyper = prior.hyper.with_mean(mu_wx)
    return draw_variance_scales(hyper, n_comp, np.random.default_rng(seed), prior.w_dist, size=n)


def _linear_kernel(times: np.ndarray, lam: float) -> np.ndarray:
    """k(t, t') at the given months: the unit-scale linear part of the model
    has cov(x_{c,t}, x_{c',t'}) = Pi[c,c'] k(t, t') with
    k(t, t') = min(t, t') + lam sum_{u<=t} sum_{u'<=t'} min(u, u')."""
    times = np.asarray(times, dtype=int)
    u = np.arange(1, times.max(initial=0) + 1)
    # integer partial sums, so the double sum is exact
    sums = np.minimum.outer(u, u).cumsum(axis=0).cumsum(axis=1)
    return np.minimum.outer(times, times) + lam * sums[np.ix_(times - 1, times - 1)]


def _monthly_blocks(prior, factor_t, horizon, root, n, obs, tgt):
    """The monthly drawer: every month of every component and location.

    Realization i fills eps_alpha (T, C), eps_x (T, C), the local walk noise
    (T, C, L) and eps_y at the observed cells (n_obs, L) from child i of
    ``root``.  ``obs`` = (times, component indices) of the observed cells;
    ``tgt`` = (times, component indices, is_alpha, is_zmin) of the targets.
    Yields (rows, unit linear part (b, n_obs), unit walk (b, L, n_obs),
    scaled eps_y (b, L, n_obs), unit target linear part (b, n_tgt), unit
    target min-effect (b, n_tgt) or 0) per block.
    """
    obs_t, obs_c = obs
    tgt_t, tgt_c, is_alpha, is_zmin = tgt
    n_comp, l_cnt = factor_t.shape[0], prior.locations_per_component
    dist, dof = prior.noise_dist, prior.t_dof
    root_lam, root_y = math.sqrt(prior.hyper.lam), math.sqrt(prior.sigma_y)
    block = max(1, BLOCK_ELEMENTS // (horizon * n_comp * l_cnt))
    za = np.empty((block, horizon, n_comp))
    zx = np.empty((block, horizon, n_comp))
    zr = np.empty((block, horizon, n_comp, l_cnt))
    zy = np.empty((len(obs_t), l_cnt))
    eps = np.empty((block, l_cnt, len(obs_t)))
    # flat offsets of the observed cells' walks in one realization, location-major
    gather = ((obs_t - 1) * n_comp + obs_c) * l_cnt + np.arange(l_cnt)[:, None]
    for i0 in range(0, n, block):
        b = min(block, n - i0)
        for j in range(b):
            rng = np.random.default_rng(_child(root, i0 + j))
            for buf in (za[j], zx[j], zr[j], zy):
                _fill_noise(rng, buf, dist, dof)
            eps[j] = zy.T
        # unit-scale paths: with W_c the law's variance scale,
        # alpha_t - alpha0 = sqrt(W_c) a_std and x_t - x0 - alpha0 t = sqrt(W_c) x_std
        a_std = np.cumsum(za[:b] @ factor_t, axis=1)
        a_std *= root_lam
        x_std = np.cumsum(a_std, axis=1)
        x_std += np.cumsum(zx[:b] @ factor_t, axis=1)
        walk = np.cumsum(zr[:b], axis=1, out=zr[:b])
        obs_walk = np.take(walk.reshape(b, -1), gather, axis=1)
        eps[:b] *= root_y
        tgt_lin = np.where(is_alpha, a_std[:, tgt_t - 1, tgt_c], x_std[:, tgt_t - 1, tgt_c])
        tgt_min = 0.0
        if is_zmin.any():
            low = walk[..., 0].copy()
            for loc in range(1, l_cnt):
                np.minimum(low, walk[..., loc], out=low)
            tgt_min = np.where(is_zmin, low[:, tgt_t - 1, tgt_c], 0.0)
        yield slice(i0, i0 + b), x_std[:, obs_t - 1, obs_c], obs_walk, eps[:b], tgt_lin, tgt_min


def _observed_blocks(prior, pi, root, n, obs_t, obs_c):
    """The observed-cell drawer, for Gaussian noise and no targets.

    Realization i fills one standard-normal array (2L + 1, n_obs) from
    child i of ``root``: row 0 gives the unit linear part at the observed
    cells through one factor of its covariance Pi[c,c'] k(t,t'), rows 1..L
    the walk increments sqrt(gap) z of each location, and rows L+1..2L
    eps_y.  The walk at a cell is the sum of its component's increments up
    to it, in canonical point order.  Yields blocks as ``_monthly_blocks``.
    """
    n_obs, l_cnt = len(obs_t), prior.locations_per_component
    factor_t = _correlation_factor(
        pi[np.ix_(obs_c, obs_c)] * _linear_kernel(obs_t, prior.hyper.lam)
    ).T
    # points of one component are consecutive and in time order; a
    # component's first point is its walk's gap from t = 0
    first = np.ones(n_obs, dtype=bool)
    first[1:] = obs_c[1:] != obs_c[:-1]
    gap = obs_t.copy()
    gap[1:] -= np.where(first[1:], 0, obs_t[:-1])
    root_gap = np.sqrt(gap)
    index = np.arange(n_obs)
    rank = index - np.maximum.accumulate(np.where(first, index, 0))
    later = [np.flatnonzero(rank == r) for r in range(1, rank.max(initial=0) + 1)]
    root_y = math.sqrt(prior.sigma_y)
    block = max(1, BLOCK_ELEMENTS // max(1, l_cnt * n_obs))
    z = np.empty((block, 2 * l_cnt + 1, n_obs))
    for i0 in range(0, n, block):
        b = min(block, n - i0)
        for j in range(b):
            np.random.default_rng(_child(root, i0 + j)).standard_normal(out=z[j])
        walk = z[:b, 1 : l_cnt + 1]
        walk *= root_gap
        for idx in later:
            walk[..., idx] += walk[..., idx - 1]
        eps = z[:b, l_cnt + 1 :]
        eps *= root_y
        # a (1, n_obs) product per realization: a matrix product over the
        # block would round differently for different block sizes
        lin = (z[:b, :1] @ factor_t)[:, 0]
        yield slice(i0, i0 + b), lin, walk, eps, np.empty((b, 0)), 0.0


def _run_blocks(prior, topology, design, laws, n, seed, targets=(), monthly=False):
    """The ensemble engine: n realizations of each law (sigma_r, mu_wx) of
    ``laws``, drawn once in blocks and rescaled per law.

    Realization i draws its noise from child i of ``seed``; child n is the
    variance-scale stream, read from its start once per distinct mu_wx.  The
    monthly drawer runs when there are targets, when ``monthly`` is set or
    when the noise is Student-t; the observed-cell drawer runs otherwise.

    Returns the laws' variance scales, one (W (n, C), drawn population means
    (n,)) pair per law, and a generator yielding, per block and law, (law
    index, rows, observations (b, n_obs), local min-effects (b, n_obs),
    targets (b, n_tgt)); the observations and targets are minus their prior
    trend.
    """
    obs_t, obs_c = _observed_cells(design, topology)
    tgt = _target_arrays(targets, topology, design.horizon)
    tgt_c = tgt[1]
    root = _as_seedseq(seed)
    drawn = {
        mu: _draw_scales(prior, mu, n, topology.component_count, _child(root, n))
        for mu in dict.fromkeys(mu for _, mu in laws)
    }
    pi = build_correlation(topology, prior.corr)
    if monthly or len(tgt_c) or prior.noise_dist != "gaussian":
        drawer = _monthly_blocks(
            prior, _correlation_factor(pi).T, design.horizon, root, n, (obs_t, obs_c), tgt
        )
    else:
        drawer = _observed_blocks(prior, pi, root, n, obs_t, obs_c)

    def blocks():
        noisy = np.empty(0)
        for rows, lin, walk, eps, tgt_lin, tgt_min in drawer:
            if noisy.shape != walk.shape:
                noisy = np.empty(walk.shape)
            for k, (sr, mu) in enumerate(laws):
                root_w = np.sqrt(drawn[mu][0][rows])
                np.multiply(walk, math.sqrt(sr), out=noisy)
                noisy += eps
                # location-major, so the min runs over whole (b, n_obs) slices
                mo = noisy.min(axis=1)
                yield (
                    k, rows, root_w[:, obs_c] * lin + mo, mo,
                    root_w[:, tgt_c] * tgt_lin + math.sqrt(sr) * tgt_min,
                )

    return [drawn[mu] for _, mu in laws], blocks()


def _cov(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sample cross-covariance of the columns of two centered ensembles."""
    return a.T @ b / (a.shape[0] - 1)


def _dbar_moments(scheme, kernel, comp_idx, y, m, w_x, m_wx, hyper) -> DbarMoments:
    """The local min-difference moments and the Dbar moments of one law.

    ``y`` and ``m`` are the (n, n_obs) observations and their local
    min-effects; ``kernel`` is the scheme's Dbar kernel for their columns.
    ``y`` may omit the prior trend: every difference combination
    annihilates level and slope.
    """
    n = y.shape[0]
    p0, p1, p2 = kernel.p0, kernel.p1, kernel.p2
    # ensemble-sized temporaries are built in place to keep them few
    m1 = m[:, p0]
    m1 -= m[:, p1]
    m2 = m[:, p0]
    m2 -= m[:, p2]
    m1_sq = np.einsum("ij,ij->j", m1, m1) / n
    m2_sq = np.einsum("ij,ij->j", m2, m2) / n
    m1m2 = np.einsum("ij,ij->j", m1, m2) / n
    del m1, m2
    t_eff = np.array([scheme.t_counts[c] - 2 for c in scheme.components], dtype=float)
    dvec = kernel(y)
    # conditional residual: the drawn-variance contribution has known
    # conditional mean (T_c - 2) * W_c, so only the remainder's covariance
    # needs Monte Carlo (law of total variance).
    res = dvec - t_eff * w_x[:, [comp_idx[c] for c in scheme.components]]
    res -= res.mean(axis=0)
    gam, sig = hyper.gamma_wx, hyper.sigma_wx
    dv = gam * np.outer(t_eff, t_eff) + np.diag(t_eff**2 * (sig - gam)) + _cov(res, res)
    dbar_mean = dvec.mean(axis=0)
    mw = m_wx - m_wx.mean()
    return DbarMoments(
        n, m1_sq, m2_sq, m1m2, dbar_mean, 0.5 * (dv + dv.T), mw @ (dvec - dbar_mean) / (n - 1)
    )


def estimate_moments_by_law(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    laws,
    targets=(),
    n_realizations: int | None = None,
    seed: int | None = None,
    scheme=None,
    allow_empty_design: bool = False,
) -> list:
    """Sample moments under each law (sigma_r, mu_wx) of ``laws`` from one
    shared ensemble; deterministic given seed.

    Every law sees the same standard-normal noise and the same variance-scale
    stream (common random numbers), so a one-law call equals that law's entry
    of a multi-law call, and differences between laws are not Monte Carlo
    noise.  Returns one record per law, in order: with a difference scheme a
    DbarMoments (what variance learning reads, and nothing else), otherwise
    a MomentEstimates of the observations and the targets.  A pass takes a
    scheme or targets, not both.

    A call with targets, a scheme or Student-t noise runs the monthly
    drawer; any other call runs the observed-cell drawer, which lays out its
    streams differently (see the module docstring).  Either way the
    ensemble has the model's exact law and the estimator is the same.

    The ensemble is kept as one array per law of observations and targets
    (or, for a scheme, local min-effects); each law's arrays are dropped as
    soon as its record is built, so the moments of later laws do not pile
    up on top of every law's ensemble.
    """
    n = prior.ensemble_size if n_realizations is None else int(n_realizations)
    if n < 2:
        raise ConfigError("need at least 2 realizations")
    seed = prior.rng_seed if seed is None else seed
    laws = [(float(sr), float(mu)) for sr, mu in laws]
    targets = tuple(targets)
    if scheme is not None and targets:
        raise ConfigError("a moment pass takes a difference scheme or targets, not both")

    points = design.design_points()
    if not points and not allow_empty_design:
        raise InsufficientDataError("design contains no observation points")
    if prior.x0.shape[0] != topology.component_count:
        raise ShapeError("x0 length does not match component count")

    obs_t, obs_c = _observed_cells(design, topology)
    tgt_t, tgt_c, is_alpha, _ = _target_arrays(targets, topology, design.horizon)
    # a scheme pass keeps the monthly drawer's streams for its Dbar moments
    scales, blocks = _run_blocks(
        prior, topology, design, laws, n, seed, targets, monthly=scheme is not None
    )
    y = [np.empty((n, len(obs_c))) for _ in laws]
    if scheme is not None:
        m = [np.empty((n, len(obs_c))) for _ in laws]
        for k, rows, y_b, m_b, _ in blocks:
            y[k][rows], m[k][rows] = y_b, m_b
        comp_idx = {c: i for i, c in enumerate(topology.components)}
        kernel = scheme.kernel(points)
        # popped, so each law's arrays go once its moments are built
        return [
            _dbar_moments(scheme, kernel, comp_idx, y.pop(0), m.pop(0), *law_scales, prior.hyper)
            for law_scales in scales
        ]

    out = []
    tv = [np.empty((n, len(tgt_c))) for _ in laws]
    for k, rows, y_b, _, t_b in blocks:
        y[k][rows], tv[k][rows] = y_b, t_b
    base_y = prior.x0[obs_c] + prior.alpha0[obs_c] * obs_t
    base_t = np.where(is_alpha, prior.alpha0[tgt_c], prior.x0[tgt_c] + prior.alpha0[tgt_c] * tgt_t)
    for _ in laws:
        yc, tc = y.pop(0), tv.pop(0)
        e_y, e_t = yc.mean(axis=0), tc.mean(axis=0)
        # centered in place: the raw values are not read again
        yc -= e_y
        tc -= e_t
        var_y = _cov(yc, yc)
        out.append(MomentEstimates(
            design_points=points,
            e_y=e_y + base_y,
            var_y=0.5 * (var_y + var_y.T),
            targets=targets,
            e_targets=e_t + base_t,
            var_targets=np.einsum("ij,ij->j", tc, tc) / (n - 1),
            cov_targets=_cov(tc, yc),
            n_realizations=n,
        ))
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
    allow_empty_design: bool = False,
) -> MomentEstimates | DbarMoments:
    """Sample moments under one law; ``sigma_r`` and ``mu_wx`` default to
    the prior's.  The one-law case of ``estimate_moments_by_law``, so with a
    difference scheme it returns a DbarMoments."""
    law = (
        prior.sigma_r if sigma_r is None else sigma_r,
        prior.hyper.mu_wx if mu_wx is None else mu_wx,
    )
    (est,) = estimate_moments_by_law(
        prior, topology, design, [law], targets, n_realizations, seed, scheme, allow_empty_design,
    )
    return est


def _min_cov(mins, common: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """cov of two minima over one component's locations: sqrt(v1 v2)
    g_L(rho), where v1 and v2 are the variances at one location and
    ``common`` their covariance."""
    scale = np.sqrt(v1 * v2)
    rho = np.divide(common, scale, out=np.ones_like(scale), where=scale > 0.0)
    return scale * mins.cov(rho)


def exact_moments(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    laws,
    targets=(),
) -> list:
    """Exact moments of the observations and targets under each law
    (sigma_r, mu_wx) of ``laws``: one MomentEstimates per law, with
    ``n_realizations`` None.  Gaussian noise only.

    The three parts of Y = trend + sqrt(W_c) x_std + M are independent:

    * the linear part: cov = E[sqrt(W_c W_c')] Pi[c,c'] k(t,t'), with k from
      ``_linear_kernel`` and the scale moments from
      ``quadrature.scale_moments``; an alpha target at T has kernel
      lam sum_{s<=t'} min(T, s) with x_std(t') and variance lam T;
    * the minimum: M_{c,t} = min_l(r_l(t) + eps_y) is independent across
      components, and for one component sqrt(v_t) times the minimum of L
      standard normals, v_t = sigma_r t + sigma_y, whose location pairs at
      two cells have covariance sigma_r min(t, t') (plus sigma_y for one
      cell).  So E M = sqrt(v_t) e_L and cov = sqrt(v_t v_t') g_L(rho)
      (``quadrature.min_of_normals``).  A zmin target carries no eps_y:
      v = sigma_r t on its side.

    Nothing is drawn, so the moments do not depend on a seed, and the
    observation moments do not depend on the targets or the horizon.
    """
    if prior.noise_dist != "gaussian":
        raise ConfigError("exact moments need Gaussian noise")
    if prior.x0.shape[0] != topology.component_count:
        raise ShapeError("x0 length does not match component count")
    targets = tuple(targets)
    points = design.design_points()
    obs_t, obs_c = _observed_cells(design, topology)
    tgt_t, tgt_c, is_alpha, is_zmin = _target_arrays(targets, topology, design.horizon)
    lam, sigma_y = prior.hyper.lam, prior.sigma_y
    pi = build_correlation(topology, prior.corr)
    mins = quadrature.min_of_normals(prior.locations_per_component)

    same_y = obs_c[:, None] == obs_c
    lin_y = pi[np.ix_(obs_c, obs_c)] * _linear_kernel(obs_t, lam)
    u = np.arange(1, max(obs_t.max(initial=0), tgt_t.max(initial=0)) + 1)
    # part[T-1, t-1] = sum_{s<=t} min(T, s), and sums its partial sums over T
    part = np.minimum.outer(u, u).cumsum(axis=1)
    sums = part.cumsum(axis=0)
    # built in place: it is (targets, observations), the largest array here
    lin_t = lam * sums[np.ix_(tgt_t - 1, obs_t - 1)]
    lin_t += np.minimum.outer(tgt_t, obs_t)
    lin_t[is_alpha] = lam * part[np.ix_(tgt_t[is_alpha] - 1, obs_t - 1)]
    lin_t *= pi[np.ix_(tgt_c, obs_c)]
    same_t = tgt_c[:, None] == obs_c
    var_lin_t = np.where(is_alpha, lam * tgt_t, tgt_t + lam * sums[tgt_t - 1, tgt_t - 1])
    base_y = prior.x0[obs_c] + prior.alpha0[obs_c] * obs_t
    base_t = np.where(is_alpha, prior.alpha0[tgt_c], prior.x0[tgt_c] + prior.alpha0[tgt_c] * tgt_t)
    # the minimum couples cells of one component only
    yi, yj = np.nonzero(same_y)
    ti, tj = np.nonzero(same_t & is_zmin[:, None])

    out = []
    for sr, mu in laws:
        ew, ew_pair = quadrature.scale_moments(prior.hyper.with_mean(mu), prior.w_dist)
        v_y, v_t = sr * obs_t + sigma_y, sr * tgt_t
        var_y = np.where(same_y, ew, ew_pair) * lin_y
        common = sr * np.minimum(obs_t[yi], obs_t[yj]) + np.where(yi == yj, sigma_y, 0.0)
        var_y[yi, yj] += _min_cov(mins, common, v_y[yi], v_y[yj])
        cov_t = np.where(same_t, ew, ew_pair)
        cov_t *= lin_t
        cov_t[ti, tj] += _min_cov(mins, sr * np.minimum(tgt_t[ti], obs_t[tj]), v_t[ti], v_y[tj])
        out.append(MomentEstimates(
            design_points=points,
            e_y=base_y + np.sqrt(v_y) * mins.mean,
            var_y=var_y,
            targets=targets,
            e_targets=base_t + np.where(is_zmin, np.sqrt(v_t) * mins.mean, 0.0),
            var_targets=ew * var_lin_t + np.where(is_zmin, v_t * mins.var, 0.0),
            cov_targets=cov_t,
            n_realizations=None,
        ))
    return out


def moments_by_law(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    laws,
    targets=(),
    n_realizations: int | None = None,
    seed=None,
) -> list:
    """Moments of the observations and targets under each law, as the
    pipeline reads them: ``exact_moments`` under Gaussian noise, the
    ensemble of ``estimate_moments_by_law`` under Student-t noise, for
    which the minimum's moments have no closed form."""
    if prior.noise_dist == "gaussian":
        return exact_moments(prior, topology, design, laws, targets)
    return estimate_moments_by_law(
        prior, topology, design, laws, targets, n_realizations, seed, allow_empty_design=True
    )


def zmin_quantiles(prior: PriorSpecification, months, probs) -> np.ndarray:
    """Exact quantiles (len(months), len(probs)) of zmin_{c,t} - E zmin_{c,t}
    under the prior law (Gaussian noise), the same for every component:
    sqrt(W_c k(t,t)) Z + sqrt(sigma_r t) (M_L - e_L)."""
    months, back = np.unique(np.asarray(months, dtype=int), return_inverse=True)
    scale = np.sqrt(np.diag(_linear_kernel(months, prior.hyper.lam)))
    return quadrature.centered_quantiles(
        prior.hyper, prior.w_dist, prior.locations_per_component,
        scale, np.sqrt(prior.sigma_r * months), probs,
    )[back]


def forecast_extend(design: InspectionDataset, extra_months: int) -> InspectionDataset:
    """Same records, horizon extended so forecast targets beyond T are valid."""
    return design.extended(extra_months)
