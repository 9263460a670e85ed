"""Forward simulation, Monte Carlo moment estimation, and exact moments.

Under Gaussian noise the pipeline reads exact moments (``moments_by_law``):
the moments of the observations and of the targets have closed forms
(``exact_moments``), and so do the Dbar moments of variance learning
(``exact_dbar_moments``) but for the fourth moments of the minimum over
locations, which it simulates from the local walks and eps_y alone
(``_min_blocks``).  Under Student-t noise every moment is an ensemble's.

Each realization draws variance scales W_c from the variance hyperprior (so
uncertainty about the variances propagates into var(Y)), runs the
linear-growth model forward, evolves per-location local random walks, and
observes the minimum over locations with measurement error.

Separability of the min: Y_{c,t} = X_{c,t} + M_{c,t} with
M_{c,t} = min_l(r_{l,c,t} + eps_y), which is how the local min-difference
moments needed by variance learning are extracted per realization.

What the exact passes and the ensembles both need is defined once: a
pass's cells with their prior trend (``_cells``), the unit linear
covariance Pi[c,c'] k(t,t') (``_unit_linear_cov``, on k's integer sums
``_kernel_sums``), the walk and eps_y at the observed cells
(``_cell_blocks``), the noisy minimum per law (``_minima``), the exact
passes' start (``_exact_setup``) and each pass's size and seed
(``_size_and_seed``); the factors of W_c live in ``system``.

``_ensemble`` is the one ensemble engine (``_run_blocks`` runs it at a
design's cells): n realizations of a list of laws (sigma_r, mu_wx), in
blocks whose noise buffers hold about ``BLOCK_ELEMENTS`` floats, from one
of two drawers chosen from the pass's own inputs:

* the monthly drawer serves passes with targets, with a difference scheme or
  with Student-t noise.  From one child stream per realization it draws the
  level and rate noise and the local walk noise of every month, component
  and location, and eps_y at the observed cells, and forms the unit local
  walk cumsum(z_r) and the unit-scale level and rate paths once;
* the observed-cell drawer serves the other passes (Gaussian noise, no
  targets, no scheme), which read nothing but the observations.  It draws
  only at the observed cells: the unit linear part as one Gaussian vector
  whose covariance is factored once per pass, the walk as independent
  sqrt(gap) z increments between a component's visits, and eps_y.  Its
  values have the same law as the monthly drawer's, but its streams are
  laid out differently, so its ensembles are not the monthly drawer's.

Each law then only rescales a block: the walk by sqrt(sigma_r), the linear
part by sqrt(W_c) drawn for that law's mu_wx from a separate scale stream
that all laws share.  The walk and eps_y are held location-major, so the
minimum over locations runs over whole slices.  The engine yields each
block's observations, local min-effects and targets per law, minus the
prior trend, to two consumers:

* ``estimate_moments_by_law`` keeps them for the whole ensemble (they are
  small next to the noise) and takes the moments in one centered pass of
  matrix products, so they do not depend on the block size: only the Dbar
  moments (``DbarMoments``) for a pass with a difference scheme, only the
  observation and target moments (``MomentEstimates``) for any other, whose
  target rows it forms on request from the centered ensemble it keeps;
* the estimator study (``calibrate.estimator_study``) draws its replicate
  datasets as the realizations of one ensemble at the true law and reduces
  each block to its Dbar rows with the difference scheme's Dbar kernel
  (``DifferenceScheme.kernel``), the kernel the ensemble's Dbar moments use.

The min-part drawer (``_min_blocks``) is not part of the engine: it draws
the walk and eps_y at the observed cells, all realizations in order from
one generator, for ``exact_dbar_moments``.

``draw_dataset`` draws one synthetic dataset from one seed, every month of
every location, with its own fixed stream layout.  The ensembles remain the
oracle the exact moments are tested against.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from collections.abc import Callable

import numpy as np

from . import quadrature
from .errors import ConfigError, ShapeError
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
#: in the observed-cell and min-part drawers.
BLOCK_ELEMENTS = 2**16

#: A pass's ensemble size and seed when its caller gives none.
DEFAULT_REALIZATIONS = 1000
DEFAULT_SEED = 0


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


#: A pass's observed cells (the design's points, in canonical order) and
#: targets, with their months, component indices and prior trend (``_cells``).
#: ``tgt_kind`` indexes ``TARGET_KINDS`` and ``tgt_id`` holds the targets'
#: component ids.
_Cells = namedtuple(
    "_Cells",
    "points horizon obs_t obs_c tgt_t tgt_c tgt_kind tgt_id is_alpha is_zmin trend_y trend_t",
)


def _cells(prior, topology, design, targets=()) -> _Cells:
    """The cells of ``design`` and ``targets``, checked against the topology,
    the horizon and x0's length; the trend is x0 + alpha0 t (alpha0 at alpha)."""
    if prior.x0.shape[0] != topology.component_count:
        raise ShapeError("x0 length does not match component count")
    points = design.design_points()
    comp_idx = {c: i for i, c in enumerate(topology.components)}
    obs_c = np.array([comp_idx[c] for c, _ in points], dtype=int)
    obs_t = np.array([t for _, t in points], dtype=int)
    if points and (obs_t.min() < 1 or obs_t.max() > design.horizon):
        raise ConfigError("design times outside horizon")
    targets = tuple(targets)
    kind_idx = {k: i for i, k in enumerate(TARGET_KINDS)}
    for kind, c, t in targets:
        if kind not in kind_idx:
            raise ConfigError(f"unknown target kind {kind!r}")
        if c not in comp_idx:
            raise ConfigError(f"unknown target component {c}")
        if not 1 <= t <= design.horizon:
            raise ConfigError(f"target time {t} outside 1..{design.horizon}")
    tgt_t = np.array([t for _, _, t in targets], dtype=int)
    tgt_c = np.array([comp_idx[c] for _, c, _ in targets], dtype=int)
    tgt_kind = np.array([kind_idx[k] for k, _, _ in targets], dtype=int)
    is_alpha = tgt_kind == kind_idx["alpha"]
    ids = np.empty(topology.component_count, dtype=object)
    ids[:] = topology.components
    x0, a0 = prior.x0, prior.alpha0
    return _Cells(
        points, design.horizon, obs_t, obs_c, tgt_t, tgt_c, tgt_kind, ids[tgt_c], is_alpha,
        tgt_kind == kind_idx["zmin"],
        x0[obs_c] + a0[obs_c] * obs_t,
        np.where(is_alpha, a0[tgt_c], x0[tgt_c] + a0[tgt_c] * tgt_t),
    )


def _unit_linear_cov(pi: np.ndarray, lam: float, cells: _Cells) -> np.ndarray:
    """Pi[c,c'] k(t,t'): the unit-scale linear part's covariance at the observed cells."""
    return pi[np.ix_(cells.obs_c, cells.obs_c)] * _linear_kernel(cells.obs_t, lam)


def _size_and_seed(n_realizations, seed):
    """The ensemble size and the seed of a pass: the defaults unless given."""
    n = DEFAULT_REALIZATIONS if n_realizations is None else int(n_realizations)
    if n < 2:
        raise ConfigError("need at least 2 realizations")
    return n, DEFAULT_SEED if seed is None else seed


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
    cells = _cells(prior, topology, design)
    obs_t, obs_c = cells.obs_t, cells.obs_c
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


#: The moments of a run of targets: their means and variances, and their
#: covariance with the observations, one row per target.
TargetMoments = namedtuple("TargetMoments", "e_targets var_targets cov_targets")


@dataclass
class MomentEstimates:
    """Moments of the designed observations and the targets under one law,
    exact (``n_realizations`` None) or from an ensemble of that size.

    ``target_cells`` holds the targets as arrays: kind (an index into
    ``TARGET_KINDS``), component id and month.  The target moments are
    built on request for a run of targets (``target_moments``), so a caller
    that takes them block by block never holds a (targets x observations)
    array: exact moments build only the rows asked for, and an ensemble
    forms them from the centered ensemble it keeps.
    """

    design_points: list
    e_y: np.ndarray
    var_y: np.ndarray
    targets: tuple
    target_cells: tuple  # (kind, component id, month), one entry per target
    _target_rows: Callable = field(repr=False, compare=False)
    n_realizations: int | None
    _y_pair: MomentPair = field(default=None, init=False, repr=False, compare=False)

    def target_moments(self, rows: slice = slice(None)) -> TargetMoments:
        """The moments of the targets ``rows`` (all of them by default)."""
        return TargetMoments(*self._target_rows(rows))

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
    ``n_realizations`` is the size of the ensemble, or for exact moments
    (``exact_dbar_moments``) of the draw of the minimum behind var(Dbar).
    A scheme without entries gives empty arrays."""

    n_realizations: int
    m1_sq: np.ndarray
    m2_sq: np.ndarray
    m1m2: np.ndarray
    dbar_mean: np.ndarray
    dbar_var: np.ndarray
    mw_dbar_cov: np.ndarray


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


def _kernel_sums(t_max: int):
    """k's exact integer sums, part[T-1, t-1] = sum_{s<=t} min(T, s) and
    sums[T-1, t-1] = sum_{u<=T} part[u-1, t-1], for T and t in 1..t_max."""
    u = np.arange(1, t_max + 1)
    part = np.minimum.outer(u, u).cumsum(axis=1)
    return part, part.cumsum(axis=0)


def _linear_kernel(times: np.ndarray, lam: float) -> np.ndarray:
    """k(t, t') at the given months: the unit-scale linear part of the model
    has cov(x_{c,t}, x_{c',t'}) = Pi[c,c'] k(t, t') with
    k(t, t') = min(t, t') + lam sum_{u<=t} sum_{u'<=t'} min(u, u')."""
    times = np.asarray(times, dtype=int)
    _, sums = _kernel_sums(times.max(initial=0))
    return np.minimum.outer(times, times) + lam * sums[np.ix_(times - 1, times - 1)]


def _monthly_blocks(prior, factor_t, root, n, cells):
    """The monthly drawer: every month of every component and location.

    Realization i fills eps_alpha (T, C), eps_x (T, C), the local walk noise
    (T, C, L) and eps_y at the observed cells (n_obs, L) from child i of
    ``root``.  Yields (rows, unit walk (b, L, n_obs), scaled eps_y
    (b, L, n_obs), unit linear part (b, n_obs), unit target linear part
    (b, n_tgt), unit target min-effect (b, n_tgt) or 0) per block.
    """
    obs_t, obs_c, tgt_t, tgt_c = cells.obs_t, cells.obs_c, cells.tgt_t, cells.tgt_c
    is_alpha, is_zmin, horizon = cells.is_alpha, cells.is_zmin, cells.horizon
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
            tgt_min = np.where(is_zmin, walk.min(axis=-1)[:, tgt_t - 1, tgt_c], 0.0)
        yield slice(i0, i0 + b), obs_walk, eps[:b], x_std[:, obs_t - 1, obs_c], tgt_lin, tgt_min


def _gap_walk(obs_t, obs_c):
    """The unit local walk at the observed cells from iid standard normals:
    a function that turns an array (..., n_obs) of them, in place, into
    sqrt(gap) z increments between a component's visits summed up to each
    cell.  A component's points are consecutive and in time order, and its
    first point is its walk's gap from t = 0."""
    n_obs = len(obs_t)
    first = np.ones(n_obs, dtype=bool)
    first[1:] = obs_c[1:] != obs_c[:-1]
    gap = obs_t.copy()
    gap[1:] -= np.where(first[1:], 0, obs_t[:-1])
    root_gap = np.sqrt(gap)
    index = np.arange(n_obs)
    rank = index - np.maximum.accumulate(np.where(first, index, 0))
    later = [np.flatnonzero(rank == r) for r in range(1, rank.max(initial=0) + 1)]

    def walk(z):
        z *= root_gap
        for idx in later:
            z[..., idx] += z[..., idx - 1]
        return z

    return walk


def _cell_blocks(prior, cells, n, lead, fill):
    """Standard normals at the observed cells: ``fill(z, i0)`` fills z (b,
    lead + 2L, n_obs) with realizations i0..i0+b-1, whose rows after the
    lead become each location's walk (``_gap_walk``), then eps_y.  Yields
    (rows, unit walk, scaled eps_y, both (b, L, n_obs), lead rows) per block."""
    n_obs, l_cnt = len(cells.obs_t), prior.locations_per_component
    gap_walk = _gap_walk(cells.obs_t, cells.obs_c)
    root_y = math.sqrt(prior.sigma_y)
    block = max(1, BLOCK_ELEMENTS // max(1, l_cnt * n_obs))
    z = np.empty((block, lead + 2 * l_cnt, n_obs))
    for i0 in range(0, n, block):
        b = min(block, n - i0)
        fill(z[:b], i0)
        eps = z[:b, lead + l_cnt :]
        eps *= root_y
        yield slice(i0, i0 + b), gap_walk(z[:b, lead : lead + l_cnt]), eps, z[:b, :lead]


def _observed_blocks(prior, pi, root, n, cells):
    """The observed-cell drawer, for Gaussian noise and no targets: child i
    of ``root`` fills realization i of ``_cell_blocks`` with one lead row,
    the unit linear part at the observed cells through one factor of its
    covariance.  Yields blocks as ``_monthly_blocks``."""
    factor_t = _correlation_factor(_unit_linear_cov(pi, prior.hyper.lam, cells)).T

    def fill(z, i0):
        for j in range(len(z)):
            np.random.default_rng(_child(root, i0 + j)).standard_normal(out=z[j])

    for rows, walk, eps, z0 in _cell_blocks(prior, cells, n, 1, fill):
        # a (1, n_obs) product per realization: a matrix product over the
        # block would round differently for different block sizes
        yield rows, walk, eps, (z0 @ factor_t)[:, 0], np.empty((len(z0), 0)), 0.0


def _min_blocks(prior, seed, n, cells):
    """The min-part drawer: ``_cell_blocks`` without the linear part, every
    realization read in order from one generator on ``seed``, so the draws
    do not depend on the block size."""
    rng = np.random.default_rng(_as_seedseq(seed))
    return _cell_blocks(prior, cells, n, 0, lambda z, _: rng.standard_normal(out=z))


def _minima(drawer, sigma_rs):
    """min over locations of sqrt(sr) walk + eps_y for every block (rows,
    walk, eps_y, ...) of ``drawer`` and every sr of ``sigma_rs``: yields
    (block, index into sigma_rs, minimum (b, n_obs))."""
    noisy = np.empty(0)
    for block in drawer:
        walk, eps = block[1], block[2]
        if noisy.shape != walk.shape:
            noisy = np.empty(walk.shape)
        for k, sr in enumerate(sigma_rs):
            np.multiply(walk, math.sqrt(sr), out=noisy)
            noisy += eps
            # location-major, so the min runs over whole (b, n_obs) slices
            yield block, k, noisy.min(axis=1)


def _ensemble(prior, topology, cells, laws, n, seed, monthly=False):
    """The ensemble engine: n realizations of each law (sigma_r, mu_wx) of
    ``laws`` at the observed cells and targets ``cells``, drawn once in
    blocks and rescaled per law.

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
    root = _as_seedseq(seed)
    drawn = {
        mu: _draw_scales(prior, mu, n, topology.component_count, _child(root, n))
        for mu in dict.fromkeys(mu for _, mu in laws)
    }
    pi = build_correlation(topology, prior.corr)
    if monthly or len(cells.tgt_c) or prior.noise_dist != "gaussian":
        drawer = _monthly_blocks(prior, _correlation_factor(pi).T, root, n, cells)
    else:
        drawer = _observed_blocks(prior, pi, root, n, cells)

    def blocks():
        for (rows, _, _, lin, tgt_lin, tgt_min), k, mo in _minima(drawer, [sr for sr, _ in laws]):
            sr, mu = laws[k]
            root_w = np.sqrt(drawn[mu][0][rows])
            yield (
                k, rows, root_w[:, cells.obs_c] * lin + mo, mo,
                root_w[:, cells.tgt_c] * tgt_lin + math.sqrt(sr) * tgt_min,
            )

    return [drawn[mu] for _, mu in laws], blocks()


def _run_blocks(prior, topology, design, laws, n, seed, targets=(), monthly=False):
    """``_ensemble`` at the observed cells of ``design`` and ``targets``."""
    cells = _cells(prior, topology, design, targets)
    return _ensemble(prior, topology, cells, laws, n, seed, monthly)


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
    (or, for a scheme, local min-effects).  A scheme pass drops each law's
    arrays as soon as its record is built, so the moments of later laws do
    not pile up on top of every law's ensemble.  A pass with targets hands
    each law's arrays, centered in place, to its record, which keeps them
    for as long as it lives to form target rows from: every law's ensemble
    stays held, (n x observations) and (n x targets) per law.
    """
    n, seed = _size_and_seed(n_realizations, seed)
    laws = [(float(sr), float(mu)) for sr, mu in laws]
    targets = tuple(targets)
    if scheme is not None and targets:
        raise ConfigError("a moment pass takes a difference scheme or targets, not both")
    cells = _cells(prior, topology, design, targets)
    points = cells.points

    # a scheme pass keeps the monthly drawer's streams for its Dbar moments
    scales, blocks = _ensemble(prior, topology, cells, laws, n, seed, monthly=scheme is not None)
    y = [np.empty((n, len(points))) for _ in laws]
    if scheme is not None:
        m = [np.empty((n, len(points))) for _ in laws]
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
    tv = [np.empty((n, len(targets))) for _ in laws]
    for k, rows, y_b, _, t_b in blocks:
        y[k][rows], tv[k][rows] = y_b, t_b
    for _ in laws:
        yc, tc = y.pop(0), tv.pop(0)
        e_y, e_t = yc.mean(axis=0), tc.mean(axis=0)
        # centered in place: the raw values are not read again
        yc -= e_y
        tc -= e_t
        var_y = _cov(yc, yc)
        out.append(MomentEstimates(
            design_points=points,
            e_y=e_y + cells.trend_y,
            var_y=0.5 * (var_y + var_y.T),
            targets=targets,
            target_cells=(cells.tgt_kind, cells.tgt_id, cells.tgt_t),
            _target_rows=_ensemble_target_rows(
                e_t + cells.trend_t, np.einsum("ij,ij->j", tc, tc) / (n - 1), tc, yc
            ),
            n_realizations=n,
        ))
    return out


def _ensemble_target_rows(e_t, var_t, tc, yc):
    """Target rows from a centered ensemble: their means and variances, and
    their sample covariance with the observations, formed for the rows asked
    for.  Without targets the ensemble is not kept."""
    if not tc.shape[1]:
        n_obs = yc.shape[1]
        return lambda rows: (e_t, var_t, np.empty((0, n_obs)))
    return lambda rows: (e_t[rows], var_t[rows], _cov(tc[:, rows], yc))


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
) -> MomentEstimates | DbarMoments:
    """Sample moments under one law; ``sigma_r`` and ``mu_wx`` default to
    the prior's.  The one-law case of ``estimate_moments_by_law``, so with a
    difference scheme it returns a DbarMoments."""
    law = (
        prior.sigma_r if sigma_r is None else sigma_r,
        prior.hyper.mu_wx if mu_wx is None else mu_wx,
    )
    (est,) = estimate_moments_by_law(
        prior, topology, design, [law], targets, n_realizations, seed, scheme,
    )
    return est


def _min_cov(mins, common: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """cov of two minima over one component's locations: sqrt(v1 v2)
    g_L(rho), where v1 and v2 are the variances at one location and
    ``common`` their covariance."""
    scale = np.sqrt(v1 * v2)
    rho = np.divide(common, scale, out=np.ones_like(scale), where=scale > 0.0)
    return scale * mins.cov(rho)


def _observed_min(mins, sr, sigma_y, obs_t, yi, yj):
    """The minimum M at the observed cells under local variance ``sr``: its
    variance at one location v_t = sr t + sigma_y, and cov(M_i, M_j) at the
    cell pairs (yi, yj) of one component."""
    v = sr * obs_t + sigma_y
    common = sr * np.minimum(obs_t[yi], obs_t[yj]) + np.where(yi == yj, sigma_y, 0.0)
    return v, _min_cov(mins, common, v[yi], v[yj])


def _exact_setup(prior, topology, design, targets=()):
    """The cells, Pi, the minimum of L normals' moments and which observed
    cells share a component, the only ones the minimum couples: what both
    exact passes start from.  Gaussian noise only."""
    if prior.noise_dist != "gaussian":
        raise ConfigError("exact moments need Gaussian noise")
    cells = _cells(prior, topology, design, targets)
    pi = build_correlation(topology, prior.corr)
    mins = quadrature.min_of_normals(prior.locations_per_component)
    return cells, pi, mins, cells.obs_c[:, None] == cells.obs_c


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
    observation moments do not depend on the targets or the horizon.  The
    target moments are built on request, for the rows asked for
    (``MomentEstimates.target_moments``); each row is formed entry by entry,
    so it does not depend on which rows are built with it.
    """
    targets = tuple(targets)
    cells, pi, mins, same_y = _exact_setup(prior, topology, design, targets)
    obs_t = cells.obs_t
    lam, sigma_y = prior.hyper.lam, prior.sigma_y
    lin_y = _unit_linear_cov(pi, lam, cells)
    kernel_sums = _kernel_sums(max(obs_t.max(initial=0), cells.tgt_t.max(initial=0)))
    yi, yj = np.nonzero(same_y)

    out = []
    for sr, mu in laws:
        ew, ew_pair, _, _ = quadrature.scale_moments(prior.hyper.with_mean(mu), prior.w_dist)
        v_y, min_cov = _observed_min(mins, sr, sigma_y, obs_t, yi, yj)
        var_y = np.where(same_y, ew, ew_pair) * lin_y
        var_y[yi, yj] += min_cov
        out.append(MomentEstimates(
            design_points=cells.points,
            e_y=cells.trend_y + np.sqrt(v_y) * mins.mean,
            var_y=var_y,
            targets=targets,
            target_cells=(cells.tgt_kind, cells.tgt_id, cells.tgt_t),
            _target_rows=_exact_target_rows(
                cells, pi, kernel_sums, lam, mins, sr, (ew, ew_pair), v_y
            ),
            n_realizations=None,
        ))
    return out


def _exact_target_rows(cells, pi, kernel_sums, lam, mins, sr, scale, v_y):
    """The exact moments of a run of targets under one law, built for those
    rows alone (see ``exact_moments``); ``scale`` is (E W, E sqrt(W_c W_c'))
    and ``v_y`` the minimum's variance at one location of each observed cell."""
    part, sums = kernel_sums
    obs_t, obs_c = cells.obs_t, cells.obs_c
    ew, ew_pair = scale

    def rows(sl):
        tgt_t, tgt_c = cells.tgt_t[sl], cells.tgt_c[sl]
        is_alpha, is_zmin = cells.is_alpha[sl], cells.is_zmin[sl]
        cov_t = lam * sums[np.ix_(tgt_t - 1, obs_t - 1)]
        cov_t += np.minimum.outer(tgt_t, obs_t)
        cov_t[is_alpha] = lam * part[np.ix_(tgt_t[is_alpha] - 1, obs_t - 1)]
        cov_t *= pi[np.ix_(tgt_c, obs_c)]
        same_t = tgt_c[:, None] == obs_c
        cov_t *= np.where(same_t, ew, ew_pair)
        ti, tj = np.nonzero(same_t & is_zmin[:, None])
        v_t = sr * tgt_t
        cov_t[ti, tj] += _min_cov(mins, sr * np.minimum(tgt_t[ti], obs_t[tj]), v_t[ti], v_y[tj])
        var_lin_t = np.where(is_alpha, lam * tgt_t, tgt_t + lam * sums[tgt_t - 1, tgt_t - 1])
        return (
            cells.trend_t[sl] + np.where(is_zmin, np.sqrt(v_t) * mins.mean, 0.0),
            ew * var_lin_t + np.where(is_zmin, v_t * mins.var, 0.0),
            cov_t,
        )

    return rows


def exact_dbar_moments(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    laws,
    scheme,
    n_realizations: int | None = None,
    seed=None,
) -> list:
    """The Dbar moments of variance learning under each law (sigma_r, mu_wx)
    of ``laws``: one DbarMoments per law, exact but for one part of
    var(Dbar).  Gaussian noise only.

    Entry i (component c, lags k and l, weight K_i) combines the
    observations as (k - l) y_i + l y_{i-1} - k y_{i-2}, which annihilates
    the trend and leaves sqrt(W_c) a_i + b_i: a_i the same combination of
    the unit linear part, Gaussian with A_ij = cov(a_i, a_j) from
    Pi[c,c'] k(t,t') and A_ii = K_i, and b_i the same combination of the
    minimum, independent of W and of a.  Then m1_sq, m2_sq, m1m2, E Dbar
    and E[b_i b_j] follow from e_L and g_L as in ``exact_moments``,
    cov(M(W), Dbar_c) = (T_c - 2) gamma_wx, and

        K_i K_j cov(term_i, term_j) = cov(W_ci, W_cj) K_i K_j
            + 2 E[W_ci W_cj] A_ij^2 + 4 E[sqrt(W_ci W_cj)] A_ij E[b_i b_j]
            + [c_i = c_j] cov(b_i^2, b_j^2).

    cov(W) is the hyperprior's gamma_wx / sigma_wx, and the other scale
    moments are those of the law's drawn W (``quadrature.scale_moments``).
    Only the last term, the fourth moments of the minimum, is simulated:
    per component, the sample variance of the Dbar kernel applied to
    n_realizations draws of M at the observed cells (``_min_blocks``),
    from one generator on ``seed`` shared by every law.  The kernel rows are
    kept whole, so the variances do not depend on the block size.
    """
    cells, pi, mins, same_y = _exact_setup(prior, topology, design)
    n, seed = _size_and_seed(n_realizations, seed)
    obs_t, obs_c = cells.obs_t, cells.obs_c
    yi, yj = np.nonzero(same_y)
    kernel = scheme.kernel(cells.points)
    p0, p1, p2, k, l, weight = kernel.p0, kernel.p1, kernel.p2, kernel.k, kernel.l, kernel.weight
    entries = np.arange(len(p0))
    comb = np.zeros((len(p0), len(obs_t)))
    comb[entries, p0], comb[entries, p1], comb[entries, p2] = k - l, l, -k
    lin = comb @ _unit_linear_cov(pi, prior.hyper.lam, cells) @ comb.T
    same = obs_c[p0][:, None] == obs_c[p0]
    # (entries, scheme components) 0/1: sums the entries of each component
    member = scheme.entry_component_indices()[:, None] == np.arange(len(scheme.components))
    t_eff = member.sum(axis=0).astype(float)
    hyper, sigma_y = prior.hyper, prior.sigma_y
    kk = np.outer(weight, weight)
    cov_w = np.where(same, hyper.sigma_wx, hyper.gamma_wx) * kk
    min_rows = [np.empty((n, len(scheme.components))) for _ in laws]
    for (rows, *_), j, mo in _minima(_min_blocks(prior, seed, n, cells), [sr for sr, _ in laws]):
        min_rows[j][rows] = kernel(mo)
    # each law's kernel rows go once their variance is taken
    min_var = [min_rows.pop(0).var(axis=0, ddof=1) for _ in laws]

    out = []
    for (sr, mu), m_var in zip(laws, min_var):
        ew, root_pair, square, pair = quadrature.scale_moments(hyper.with_mean(mu), prior.w_dist)
        v_y, min_cov = _observed_min(mins, sr, sigma_y, obs_t, yi, yj)
        e_m = np.sqrt(v_y) * mins.mean
        # E[M M'] at the observed cells
        mm = np.outer(e_m, e_m)
        mm[yi, yj] += min_cov
        bb = comb @ mm @ comb.T
        terms = cov_w + 2.0 * np.where(same, square, pair) * lin * lin
        terms += 4.0 * np.where(same, ew, root_pair) * lin * bb
        terms /= kk
        dv = member.T @ terms @ member
        dv[np.diag_indices_from(dv)] += m_var
        out.append(DbarMoments(
            n,
            mm[p0, p0] - 2.0 * mm[p0, p1] + mm[p1, p1],
            mm[p0, p0] - 2.0 * mm[p0, p2] + mm[p2, p2],
            mm[p0, p0] - mm[p0, p1] - mm[p0, p2] + mm[p1, p2],
            t_eff * ew + (np.diag(bb) / weight) @ member,
            0.5 * (dv + dv.T),
            t_eff * hyper.gamma_wx,
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
    scheme=None,
) -> list:
    """Moments under each law, as the pipeline reads them: with a
    difference scheme the Dbar moments of variance learning, otherwise the
    moments of the observations and targets.  Under Gaussian noise these
    are ``exact_dbar_moments`` and ``exact_moments``; under Student-t noise,
    for which the minimum's moments have no closed form, the ensemble of
    ``estimate_moments_by_law``."""
    if prior.noise_dist != "gaussian":
        return estimate_moments_by_law(
            prior, topology, design, laws, targets, n_realizations, seed, scheme,
        )
    if scheme is None:
        return exact_moments(prior, topology, design, laws, targets)
    if tuple(targets):
        raise ConfigError("a moment pass takes a difference scheme or targets, not both")
    return exact_dbar_moments(prior, topology, design, laws, scheme, n_realizations, seed)


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
