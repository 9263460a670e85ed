"""Forward simulation, Monte Carlo moment estimation, and exact moments.

Every pass of the pipeline calls one of two exact engines, under either
noise law.  Passes that score or adjust read the moments of the
observations and targets from ``exact_moments`` (yielded one law at a
time); passes that learn the mean evolution variance read the Dbar
moments from ``exact_dbar_moments`` (built on the difference scheme's one
combination, ``DifferenceScheme.combine``).  Every innovation has unit
variance and a symmetric law, so the linear part's moments have closed
forms; Student-t innovations add only a fourth-cumulant term to
var(Dbar).  What depends on the noise law beyond that is the minimum over
locations (``_minimum_law``).  Under Gaussian noise its first
and second moments are closed forms; var(Dbar)'s fourth moments of it, and
under Student-t noise all of its moments, are read off one draw of one
component's local walks and eps_y (``_minimum_draw``), streamed month by
month, which every law rescales and every component shares, as the walks
are iid across components.  A sum of monthly increments has the walk's law
under either noise law, so the one draw serves both.

Each realization draws variance scales W_c from the variance hyperprior (so
uncertainty about the variances propagates into var(Y)), runs the
linear-growth model forward, evolves per-location local random walks, and
observes the minimum over locations with measurement error.

Separability of the min: Y_{c,t} = X_{c,t} + M_{c,t} with
M_{c,t} = min_l(r_{l,c,t} + eps_y), which is how the local min-difference
moments needed by variance learning are extracted per realization.

What the exact passes and the ensembles both need is defined once: a
pass's cells with their prior trend (``_cells``), the unit linear
covariance Pi[c,c'] k(t,t') (``_unit_linear_cov``, on k's integer sums in
closed form, ``_kernel_sums``), the exact passes' start
(``_exact_setup``) and each pass's size and seed (``_size_and_seed``); the
factors of W_c live in ``system``.

``_ensemble`` is the one ensemble engine: n realizations of a list of laws
(sigma_r, mu_wx), in blocks whose walk-noise buffers hold about
``BLOCK_ELEMENTS`` floats between them, from one of two drawers chosen
from the pass's own inputs:

* the monthly drawer serves passes with targets, with a difference scheme or
  with Student-t noise.  From one child stream per realization it draws, in
  one fill, the level and rate noise and the local walk noise of every
  month, component and location, and eps_y at the observed cells, and forms
  the unit local walk cumsum(z_r) and the unit-scale level and rate paths
  once;
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
minimum over locations runs over whole slices.

The engine runs its blocks in K lanes, K the CPUs the process may run on,
at most ``MAX_LANES`` and at most the block count: each lane, on its own
thread (lane 0 on the caller's), draws the next block no lane has claimed,
so the lanes overlap the normal fills and the blocks' array work, during
which numpy releases the interpreter lock, and a lane slowed by another
process on its CPU draws fewer blocks instead of holding up the call (a
fixed split, lane k drawing blocks k, k + K, ..., lost to one thread when
the machine was busy).  Realization i reads child i of the pass's seed
whichever lane draws it, and every block step is arithmetic per
realization, so no value depends on K or on the block size.  Each lane
reseeds one generator per realization at the PCG64 state child i starts
from, hashed for all n children at once (``_child_states``): a
SeedSequence per realization cost about 15 us under the lock, the reseed
costs about 2.  Below ``LANE_MIN_NORMALS`` standard normals per
realization the engine runs one lane and starts no thread: there the
lanes' contention for the lock over reseeding and the blocks' Python steps
costs more than they overlap.  The lanes split one block's noise budget
(``BLOCK_ELEMENTS``) in buffers the calling thread allocates, so the noise
in flight does not grow with K.  Each lane hands each law's observations,
local min-effects and targets of its block, minus the prior trend, to the
caller's ``take`` with their rows, and ``take`` writes only those rows of
arrays the caller owns: no two lanes write one element, and none reads
another's, so the lanes share no running total and need no lock.  Two
callers take the rows:

* ``estimate_moments`` keeps one law's whole ensemble (it is small next to
  the noise) and takes the moments in one centered pass of matrix products,
  so they do not depend on the block size: only the Dbar moments
  (``DbarMoments``) for a pass with a difference scheme, only the
  observation moments (``MomentEstimates``) for any other;
* the estimator study (``calibrate.estimator_study``) draws its replicate
  datasets as the realizations of one ensemble at the true law and writes
  each block's Dbar rows, by the difference scheme (its own Dbar kernel and
  the one the ensemble's Dbar moments use), into one (replicates x
  components) array.

The engine's several laws and targets serve the tests' ensemble oracle of
the exact moments.

``draw_dataset`` draws one synthetic dataset from one seed, every month of
every location, with its own fixed stream layout.  The ensembles remain the
oracle the exact moments are tested against.
"""

from __future__ import annotations

import math
import os
import threading
from collections import namedtuple
from dataclasses import dataclass, field
from collections.abc import Iterator

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

#: Element budget (float64 count) of the local-walk noise buffers in flight
#: in the ensemble engine, shared by its K lanes: each lane's block holds
#: max(1, BLOCK_ELEMENTS // K // (T * C * L)) realizations in the monthly
#: drawer and max(1, BLOCK_ELEMENTS // K // (n_obs * L)) in the
#: observed-cell drawer, so more lanes do not hold more noise.
BLOCK_ELEMENTS = 2**16

#: The standard normals one realization must draw for the ensemble engine to
#: run in more than one lane.  Below it the lanes' contention for the
#: interpreter lock (per-realization reseeding, the blocks' Python steps)
#: costs more than the overlapped fills save: measured on both drawers, two
#: lanes lost at 672 normals (observed cells) and 554 (monthly), tied at 836
#: (monthly) and won from 1,008 (observed cells) and 1,088 (monthly).
LANE_MIN_NORMALS = 1000

#: The most lanes the ensemble engine runs: two against one is what was
#: timed, on a 2-CPU machine.  Each further lane would shrink every lane's
#: block (``BLOCK_ELEMENTS // K``) and add to the per-block Python steps
#: that hold the interpreter lock, and more lanes have not been timed.
MAX_LANES = 2

#: PCG64's multiplier and its 128-bit state's mask (``_pcg64_state``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1

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


@dataclass
class MomentEstimates:
    """Moments of the designed observations and the targets under one law:
    exact (``exact_moments``, ``n_realizations`` None), or an ensemble's of
    that size of the observations alone (``estimate_moments``).

    ``target_cells`` holds the targets as arrays: kind (an index into
    ``TARGET_KINDS``), component id and month.  Exact moments carry what
    their target rows are made of (``rows``, an ``ExactTargetRows``), which
    ``adjust`` reads a month at a time, so no (targets x observations)
    array is held.
    """

    design_points: list
    e_y: np.ndarray
    var_y: np.ndarray
    targets: tuple
    target_cells: tuple  # (kind, component id, month), one entry per target
    rows: ExactTargetRows | None = field(repr=False, compare=False)
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
    E W_c of the law's variance scales (``e_w``, the same for every
    component) and entry-aligned raw moments m1_sq / m2_sq / m1m2 of the
    local min-differences, from which ``varlearn.expected_dbar`` forms
    E Dbar, and the variance of Dbar over the scheme's components and its
    covariance with the drawn population mean variance.  ``n_realizations``
    is the size of the ensemble (``estimate_moments``), or for exact moments
    (``exact_dbar_moments``) of the draw of the minimum behind them: behind
    var(Dbar) alone under Gaussian noise, behind the m-moments too under
    Student-t noise.  A scheme without entries gives empty arrays."""

    n_realizations: int
    e_w: float
    m1_sq: np.ndarray
    m2_sq: np.ndarray
    m1m2: np.ndarray
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


def _words(x) -> list:
    """An int, or a sequence of them, as numpy's SeedSequence reads it:
    32-bit words, low word first, one word for 0."""
    if isinstance(x, (int, np.integer)):
        x = int(x)
        words = [x & 0xFFFFFFFF]
        while x >> 32:
            x >>= 32
            words.append(x & 0xFFFFFFFF)
        return words
    return [w for v in x for w in _words(v)]


def _hash(value, const: int, mult: int):
    """One hash step of numpy's SeedSequence on uint32 ``value``: the
    hashed value and the next hash constant."""
    following = const * mult & 0xFFFFFFFF
    value = (value ^ np.uint32(const)) * np.uint32(following)
    return value ^ (value >> np.uint32(16)), following


def _child_states(root: np.random.SeedSequence, n: int) -> np.ndarray:
    """(n, 4) uint64: ``_child(root, i).generate_state(4, np.uint64)`` for
    i < n, bit for bit, without a SeedSequence per child.

    The children's entropy words differ only in the last, i (one word, as
    n < 2**32), so numpy's SeedSequence hashing (``mix_entropy``, then
    ``generate_state``) runs once on arrays of all n children in wrapping
    uint32 arithmetic."""
    run, spawn = _words(root.entropy), _words(root.spawn_key + (0,))[:-1]
    size = root.pool_size
    # a child's spawn key is never empty, so its run entropy is padded
    words = [np.full(n, w, np.uint32) for w in run + [0] * (size - len(run)) + spawn]
    words.append(np.arange(n, dtype=np.uint32))
    const, pool = 0x43B0D7E5, []
    for word in words[:size]:
        hashed, const = _hash(word, const, 0x931E8875)
        pool.append(hashed)

    def mix(dst, word):
        nonlocal const
        hashed, const = _hash(word, const, 0x931E8875)
        out = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashed
        pool[dst] = out ^ (out >> np.uint32(16))

    for src in range(size):
        for dst in range(size):
            if src != dst:
                mix(dst, pool[src])
    for word in words[size:]:
        for dst in range(size):
            mix(dst, word)
    state, const = [], 0x8B51F9DD
    for k in range(8):
        hashed, const = _hash(pool[k % size], const, 0x58F38DED)
        state.append(hashed.astype(np.uint64))
    return np.stack([state[2 * k] | state[2 * k + 1] << np.uint64(32) for k in range(4)], axis=1)


def _pcg64_state(words: np.ndarray) -> dict:
    """The state PCG64 seeds from a SeedSequence's four uint64 words (a row
    of ``_child_states``), as pcg_setseq_128_srandom_r sets it."""
    hi, lo, seq_hi, seq_lo = words.tolist()
    inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
    state = ((inc + (hi << 64 | lo)) * _PCG_MULT + inc) & _MASK128
    return {
        "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
        "has_uint32": 0, "uinteger": 0,
    }


def _draw_scales(prior: PriorSpecification, mu_wx: float, n: int, n_comp: int, seed):
    """Variance scales W (n, C) and drawn population means (n,) of one law,
    read from the start of the scale stream ``seed``."""
    hyper = prior.hyper.with_mean(mu_wx)
    return draw_variance_scales(hyper, n_comp, np.random.default_rng(seed), prior.w_dist, size=n)


def _kernel_sums(t: np.ndarray, u: np.ndarray):
    """k's exact integer sums at months t and u (broadcast together):
    part(t, u) = sum_{s<=u} min(t, s) and sums(t, u) = sum_{s<=t} part(s, u),
    in closed form with a = min(t, u) and b = max(t, u):
    part = a(a+1)/2 + (u - a) t and sums = a(a+1)(2a+1)/6 + (b - a) a(a+1)/2."""
    # in place, so a (months x observations) call holds few temporaries
    a = np.minimum(t, u)
    tri = a + 1
    tri *= a
    tri //= 2
    part = u - a
    part *= t
    part += tri
    sums = np.maximum(t, u)
    sums -= a
    sums *= tri
    a *= 2
    a += 1
    a *= tri
    a //= 3
    sums += a
    return part, sums


def _linear_kernel(times: np.ndarray, lam: float) -> np.ndarray:
    """k(t, t') at the given months: the unit-scale linear part of the model
    has cov(x_{c,t}, x_{c',t'}) = Pi[c,c'] k(t, t') with
    k(t, t') = min(t, t') + lam sum_{u<=t} sum_{u'<=t'} min(u, u')."""
    times = np.asarray(times, dtype=int)
    sums = _kernel_sums(times[:, None], times)[1]
    return np.minimum.outer(times, times) + lam * sums


def _kernel_diagonal(months: np.ndarray, lam: float) -> np.ndarray:
    """k(t, t) = t + lam sums(t, t) at the given months: ``_linear_kernel``'s
    diagonal, without the (months x months) array."""
    return months + lam * _kernel_sums(months, months)[1]


#: A drawer of the ensemble engine (``_monthly_blocks`` or
#: ``_observed_blocks``): the standard normals one realization draws, the
#: elements of its local-walk noise, and ``lane(block)``, which allocates
#: one lane's buffers for ``block`` realizations and returns the lane's
#: block function ``draw(i0, b)``.  That draws realizations i0 .. i0 + b - 1
#: into those buffers and returns their unit walk (b, L, n_obs), scaled
#: eps_y (b, L, n_obs), unit linear part (b, n_obs), unit target linear part
#: (b, n_tgt) and unit target min-effect (b, n_tgt) or 0.
_Drawer = namedtuple("_Drawer", "normals walk_elements lane")


def _monthly_blocks(prior, factor_t, seeds, cells) -> _Drawer:
    """The monthly drawer: every month of every component and location.

    Realization i fills eps_alpha (T, C), eps_x (T, C), the local walk noise
    (T, C, L) and eps_y at the observed cells (n_obs, L) from child i of
    the pass's seed, started at ``seeds[i]`` (``_child_states``).
    """
    obs_t, obs_c, tgt_t, tgt_c = cells.obs_t, cells.obs_c, cells.tgt_t, cells.tgt_c
    is_alpha, is_zmin, horizon = cells.is_alpha, cells.is_zmin, cells.horizon
    n_comp, l_cnt = factor_t.shape[0], prior.locations_per_component
    dist, dof = prior.noise_dist, prior.t_dof
    root_lam, root_y = math.sqrt(prior.hyper.lam), math.sqrt(prior.sigma_y)
    # flat offsets of the observed cells' walks in one realization, location-major
    gather = ((obs_t - 1) * n_comp + obs_c) * l_cnt + np.arange(l_cnt)[:, None]
    parts = (horizon * n_comp, horizon * n_comp, horizon * n_comp * l_cnt)
    normals = sum(parts) + len(obs_t) * l_cnt

    def lane(block):
        # one row of noise per realization, filled by one call: eps_alpha,
        # eps_x, the walk noise and eps_y in stream order, each a view
        z = np.empty((block, normals))
        za, zx, zr, zy = np.split(z, np.cumsum(parts), axis=1)
        za = za.reshape(block, horizon, n_comp)
        zx = zx.reshape(block, horizon, n_comp)
        zr = zr.reshape(block, horizon, n_comp, l_cnt)
        eps = np.empty((block, l_cnt, len(obs_t)))
        bitgen = np.random.PCG64(0)
        rng = np.random.Generator(bitgen)

        def draw(i0, b):
            for j in range(b):
                bitgen.state = _pcg64_state(seeds[i0 + j])
                _fill_noise(rng, z[j], dist, dof)
            eps[:b] = zy[:b].reshape(b, len(obs_t), l_cnt).transpose(0, 2, 1)
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
            return obs_walk, eps[:b], x_std[:, obs_t - 1, obs_c], tgt_lin, tgt_min

        return draw

    return _Drawer(normals, parts[2], lane)


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


def _observed_blocks(prior, pi, seeds, cells) -> _Drawer:
    """The observed-cell drawer, for Gaussian noise and no targets: child i
    of the pass's seed, started at ``seeds[i]`` (``_child_states``), fills
    realization i with standard normals (1 + 2L, n_obs)
    at the observed cells, whose first row becomes the unit linear part
    through one factor of its covariance, the next L rows each location's
    walk (``_gap_walk``) and the last L rows eps_y."""
    factor_t = _correlation_factor(_unit_linear_cov(pi, prior.hyper.lam, cells)).T
    n_obs, l_cnt = len(cells.obs_t), prior.locations_per_component
    gap_walk = _gap_walk(cells.obs_t, cells.obs_c)
    root_y = math.sqrt(prior.sigma_y)

    def lane(block):
        z = np.empty((block, 1 + 2 * l_cnt, n_obs))
        bitgen = np.random.PCG64(0)
        rng = np.random.Generator(bitgen)

        def draw(i0, b):
            for j in range(b):
                bitgen.state = _pcg64_state(seeds[i0 + j])
                rng.standard_normal(out=z[j])
            eps = z[:b, 1 + l_cnt :]
            eps *= root_y
            # a (1, n_obs) product per realization: a matrix product over the
            # block would round differently for different block sizes
            lin = (z[:b, :1] @ factor_t)[:, 0]
            return gap_walk(z[:b, 1 : 1 + l_cnt]), eps, lin, np.empty((b, 0)), 0.0

        return draw

    return _Drawer((1 + 2 * l_cnt) * n_obs, l_cnt * n_obs, lane)


def _lane_count(normals: int, blocks: int) -> int:
    """The ensemble's lanes: one when a realization draws fewer than
    ``LANE_MIN_NORMALS`` standard normals, else one per CPU this process
    may run on, at most ``MAX_LANES`` and one per block."""
    if normals < LANE_MIN_NORMALS:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, blocks, MAX_LANES))


def _ensemble(prior, topology, cells, laws, n, seed, take, monthly=False):
    """The ensemble engine: n realizations of each law (sigma_r, mu_wx) of
    ``laws`` at the observed cells and targets ``cells``, drawn once in
    blocks and rescaled per law.

    Realization i draws its noise from child i of ``seed``; child n is the
    variance-scale stream, read from its start once per distinct mu_wx.  The
    monthly drawer runs when there are targets, when ``monthly`` is set or
    when the noise is Student-t; the observed-cell drawer runs otherwise.

    The blocks run in lanes (``_lane_count``): each lane claims the next
    undrawn block, on its own thread (lane 0 on the caller's), and draws it
    into buffers allocated here for ``BLOCK_ELEMENTS // K`` walk elements.  Per block and law
    it calls ``take(law index, rows, observations (b, n_obs), local
    min-effects (b, n_obs), targets (b, n_tgt))``, the observations and
    targets minus their prior trend, from the lane's thread: ``take`` may
    write only those rows of what it fills.  Every lane is joined before
    the call returns; the first lane to fail stops the others and its
    exception is raised here, and so does an interrupt that reaches the
    caller while it waits for the lanes.

    Returns the laws' variance scales, one (W (n, C), drawn population means
    (n,)) pair per law.
    """
    root = _as_seedseq(seed)
    drawn = {
        mu: _draw_scales(prior, mu, n, topology.component_count, _child(root, n))
        for mu in dict.fromkeys(mu for _, mu in laws)
    }
    pi = build_correlation(topology, prior.corr)
    seeds = _child_states(root, n)
    if monthly or len(cells.tgt_c) or prior.noise_dist != "gaussian":
        drawer = _monthly_blocks(prior, _correlation_factor(pi).T, seeds, cells)
    else:
        drawer = _observed_blocks(prior, pi, seeds, cells)
    walk_elements = max(1, drawer.walk_elements)
    lanes = _lane_count(drawer.normals, -(-n // max(1, BLOCK_ELEMENTS // walk_elements)))
    block = min(n, max(1, BLOCK_ELEMENTS // lanes // walk_elements))
    noisy_shape = (block, prior.locations_per_component, len(cells.obs_t))
    buffers = [(drawer.lane(block), np.empty(noisy_shape)) for _ in range(lanes)]
    failed, starts, claim = [], iter(range(0, n, block)), threading.Lock()

    def run(lane):
        draw, noisy = buffers[lane]
        try:
            while not failed:
                with claim:
                    i0 = next(starts, None)
                if i0 is None:
                    return
                b = min(block, n - i0)
                rows = slice(i0, i0 + b)
                walk, eps, lin, tgt_lin, tgt_min = draw(i0, b)
                for k, (sr, mu) in enumerate(laws):
                    np.multiply(walk, math.sqrt(sr), out=noisy[:b])
                    noisy[:b] += eps
                    # location-major, so the min runs over whole (b, n_obs) slices
                    mo = noisy[:b].min(axis=1)
                    root_w = np.sqrt(drawn[mu][0][rows])
                    take(
                        k, rows, root_w[:, cells.obs_c] * lin + mo, mo,
                        root_w[:, cells.tgt_c] * tgt_lin + math.sqrt(sr) * tgt_min,
                    )
        except BaseException as exc:  # raised again on the calling thread
            failed.append(exc)

    threads = [threading.Thread(target=run, args=(lane,)) for lane in range(1, lanes)]
    for thread in threads:
        thread.start()
    try:
        run(0)
    finally:
        for thread in threads:
            while thread.is_alive():
                try:
                    thread.join()
                except BaseException as exc:  # an interrupt: stop the lanes, wait again
                    failed.insert(0, exc)
    if failed:
        raise failed[0]
    return [drawn[mu] for _, mu in laws]


def _cov(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sample cross-covariance of the columns of two centered ensembles."""
    return a.T @ b / (a.shape[0] - 1)


def _dbar_moments(scheme, comp_idx, y, m, w_x, m_wx, hyper, e_w) -> DbarMoments:
    """The local min-difference moments and the Dbar moments of one law,
    whose scales have mean ``e_w``.

    ``y`` and ``m`` are the (n, n_obs) observations and their local
    min-effects on the scheme's design.  ``y`` may omit the prior trend:
    every difference combination annihilates level and slope.
    """
    n = y.shape[0]
    p0, p1, p2 = scheme.p0, scheme.p1, scheme.p2
    # ensemble-sized temporaries are built in place to keep them few
    m1 = m[:, p0]
    m1 -= m[:, p1]
    m2 = m[:, p0]
    m2 -= m[:, p2]
    m1_sq = np.einsum("ij,ij->j", m1, m1) / n
    m2_sq = np.einsum("ij,ij->j", m2, m2) / n
    m1m2 = np.einsum("ij,ij->j", m1, m2) / n
    del m1, m2
    t_eff = scheme.t_eff
    dvec = scheme(y)
    # conditional residual: the drawn-variance contribution has known
    # conditional mean (T_c - 2) * W_c, so only the remainder's covariance
    # needs Monte Carlo (law of total variance).
    res = dvec - t_eff * w_x[:, [comp_idx[c] for c in scheme.components]]
    res -= res.mean(axis=0)
    gam, sig = hyper.gamma_wx, hyper.sigma_wx
    dv = gam * np.outer(t_eff, t_eff) + np.diag(t_eff**2 * (sig - gam)) + _cov(res, res)
    dvec -= dvec.mean(axis=0)
    mw = m_wx - m_wx.mean()
    return DbarMoments(n, e_w, m1_sq, m2_sq, m1m2, 0.5 * (dv + dv.T), mw @ dvec / (n - 1))


def estimate_moments(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    n_realizations: int | None = None,
    seed: int | None = None,
    sigma_r: float | None = None,
    mu_wx: float | None = None,
    scheme=None,
) -> MomentEstimates | DbarMoments:
    """Sample moments under one law, from one ensemble; deterministic given
    seed.  ``sigma_r`` and ``mu_wx`` default to the prior's.  With a
    difference scheme it returns a DbarMoments (what variance learning
    reads, and nothing else), otherwise a MomentEstimates of the
    observations.

    A call with a scheme or Student-t noise runs the monthly drawer; any
    other call runs the observed-cell drawer, which lays out its streams
    differently (see the module docstring).  Either way the ensemble has the
    model's exact law and the estimator is the same.
    """
    n, seed = _size_and_seed(n_realizations, seed)
    law = (
        float(prior.sigma_r if sigma_r is None else sigma_r),
        float(prior.hyper.mu_wx if mu_wx is None else mu_wx),
    )
    cells = _cells(prior, topology, design)
    if scheme is not None:
        scheme.check_design(cells.points)
    y = np.empty((n, len(cells.points)))
    if scheme is not None:
        m = np.empty_like(y)

        def take(_, rows, y_b, m_b, _t):
            y[rows], m[rows] = y_b, m_b

        # a scheme pass keeps the monthly drawer's streams for its Dbar moments
        (scales,) = _ensemble(prior, topology, cells, [law], n, seed, take, monthly=True)
        comp_idx = {c: i for i, c in enumerate(topology.components)}
        e_w = quadrature.scale_moments(prior.hyper.with_mean(law[1]), prior.w_dist)[0]
        return _dbar_moments(scheme, comp_idx, y, m, *scales, prior.hyper, e_w)

    def take(_, rows, y_b, _m, _t):
        y[rows] = y_b

    _ensemble(prior, topology, cells, [law], n, seed, take)
    e_y = y.mean(axis=0)
    # centered in place: the raw values are not read again
    y -= e_y
    var_y = _cov(y, y)
    return MomentEstimates(
        design_points=cells.points,
        e_y=e_y + cells.trend_y,
        var_y=0.5 * (var_y + var_y.T),
        targets=(),
        target_cells=(cells.tgt_kind, cells.tgt_id, cells.tgt_t),
        rows=None,
        n_realizations=n,
    )


def _min_cov(mins, common: np.ndarray, v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """cov of two minima over one component's locations: sqrt(v1 v2)
    g_L(rho), where v1 and v2 are the variances at one location and
    ``common`` their covariance."""
    scale = np.sqrt(v1 * v2)
    rho = np.divide(common, scale, out=np.ones_like(scale), where=scale > 0.0)
    return scale * mins.cov(rho)


class _ClosedFormMinimum:
    """The minimum's moments under Gaussian noise and local variance
    ``sigma_r``: M_{c,t} = min_l(r_l(t) + eps_y) is sqrt(v_t) times the
    minimum of L standard normals, v_t = sigma_r t + sigma_y, whose location
    pairs at two cells have covariance sigma_r min(t, t') (plus sigma_y for
    one cell).  So E M = sqrt(v_t) e_L and cov = sqrt(v_t v_t') g_L(rho)
    (``quadrature.min_of_normals``).  A zmin target carries no eps_y:
    v = sigma_r t on its side."""

    def __init__(self, mins, sigma_r: float, sigma_y: float, obs_t: np.ndarray):
        self.mins, self.sigma_r, self.sigma_y, self.obs_t = mins, sigma_r, sigma_y, obs_t
        self.v_y = sigma_r * obs_t + sigma_y

    def observed(self, yi, yj):
        """E M at the observed cells, and cov(M_i, M_j) at the cell pairs
        (yi, yj) of one component."""
        t = self.obs_t
        common = self.sigma_r * np.minimum(t[yi], t[yj]) + np.where(yi == yj, self.sigma_y, 0.0)
        return (
            np.sqrt(self.v_y) * self.mins.mean,
            _min_cov(self.mins, common, self.v_y[yi], self.v_y[yj]),
        )

    def target(self, months):
        """The mean and variance of a zmin target's minimum in ``months``."""
        v_t = self.sigma_r * months
        return np.sqrt(v_t) * self.mins.mean, v_t * self.mins.var

    def cross(self, months, obs):
        """m(c,t)[j]: the covariance of a zmin target's minimum in ``months``
        with M at observations ``obs`` of its component (index arrays
        broadcast together)."""
        sr = self.sigma_r
        common = sr * np.minimum(months, self.obs_t[obs])
        return _min_cov(self.mins, common, sr * months, self.v_y[obs])


def _minimum_draw(prior, months: np.ndarray, n: int, seed, sigma_rs):
    """The minimum over one component's locations, n times, from one
    generator on ``seed`` read month by month up to the last of ``months``
    (ascending, from 1): each month n x L walk increments, then n x L eps_y,
    so a month's draws do not depend on the months after it.  A sum of
    monthly increments has the walk's law under either noise law.  Only the
    running walk is held; at ``months`` alone it keeps zmin's unit minimum
    (len(months), n) and the minimum of sqrt(sr) walk + eps_y for the law
    at each position of ``sigma_rs`` (len(sigma_rs), len(months), n)."""
    rng = np.random.default_rng(_as_seedseq(seed))
    l_cnt = prior.locations_per_component
    zmin = np.empty((len(months), n))
    noisy = np.empty((len(sigma_rs), len(months), n))
    month, level = np.empty((2, n, l_cnt)), np.empty((n, l_cnt))
    walk, eps = np.zeros((n, l_cnt)), month[1]
    root_y, roots = math.sqrt(prior.sigma_y), [math.sqrt(sr) for sr in sigma_rs]
    for i, last in enumerate(months):
        for _ in range(last - (months[i - 1] if i else 0)):
            # a month at a time, so a Student-t fill's temporaries are a month's
            _fill_noise(rng, month, prior.noise_dist, prior.t_dof)
            walk += month[0]
        eps *= root_y
        walk.min(axis=1, out=zmin[i])
        for k, root in enumerate(roots):
            np.multiply(walk, root, out=level)
            level += eps
            level.min(axis=1, out=noisy[k, i])
    return zmin, noisy


class _SampledMinimum:
    """The minimum's moments under one law, read off the minima ``rows`` of
    one draw (``_minimum_draw``), stacked: their means and joint sample
    covariance, M at the observed cells being rows ``obs_at``.  The exact
    moments stack zmin's minimum Z_t (no eps_y) and M_t (with eps_y) at
    every month t of the horizon, Z_t at row t - 1 and M_t at row
    horizon + t - 1, which ``target`` and ``cross`` read; the Dbar pass
    gives M at the observed months alone.  The local walks are iid across
    components, so the minimum's joint law over months is every
    component's, and one table serves them all."""

    def __init__(self, rows: list, obs_at: np.ndarray):
        z = np.concatenate(rows).T
        self.mean = z.mean(axis=0)
        z -= self.mean
        cov = _cov(z, z)
        self.cov = 0.5 * (cov + cov.T)
        self.obs_at = obs_at

    def observed(self, yi, yj):
        """As ``_ClosedFormMinimum.observed``."""
        return self.mean[self.obs_at], self.cov[self.obs_at[yi], self.obs_at[yj]]

    def target(self, months):
        """As ``_ClosedFormMinimum.target``."""
        return self.mean[months - 1], self.cov[months - 1, months - 1]

    def cross(self, months, obs):
        """As ``_ClosedFormMinimum.cross``."""
        return self.cov[months - 1, self.obs_at[obs]]


def _minimum_law(prior, cells: _Cells, sigma_rs, n_realizations=None, seed=None):
    """The moments of the minimum over locations of the law at each
    position k of ``sigma_rs``, as a function of k: in closed form under
    Gaussian noise; under Student-t noise, which gives the minimum no closed
    form, read off one draw (``_minimum_draw``, its size and seed those of
    the pass) at every month of the horizon."""
    if prior.noise_dist == "gaussian":
        mins = quadrature.min_of_normals(prior.locations_per_component)
        return lambda k: _ClosedFormMinimum(mins, sigma_rs[k], prior.sigma_y, cells.obs_t)
    n, seed = _size_and_seed(n_realizations, seed)
    horizon = cells.horizon
    zmin, noisy = _minimum_draw(prior, np.arange(1, horizon + 1), n, seed, sigma_rs)
    obs_at = horizon + cells.obs_t - 1
    return lambda k: _SampledMinimum([math.sqrt(sigma_rs[k]) * zmin, noisy[k]], obs_at)


def _exact_setup(prior, topology, design, targets=()):
    """The cells, Pi and which observed cells share a component, the only
    ones the minimum couples: what both exact passes start from."""
    cells = _cells(prior, topology, design, targets)
    return cells, build_correlation(topology, prior.corr), cells.obs_c[:, None] == cells.obs_c


def exact_moments(
    prior: PriorSpecification,
    topology: SystemTopology,
    design: InspectionDataset,
    laws,
    targets=(),
    n_realizations: int | None = None,
    seed=None,
) -> Iterator[MomentEstimates]:
    """Exact moments of the observations and targets under each law
    (sigma_r, mu_wx) of ``laws``: one MomentEstimates per law, with
    ``n_realizations`` None.

    The inputs are checked at the call; the records are then yielded one
    law at a time, each built when the caller asks for it, so a caller that
    drops a record before taking the next never holds two var(Y).

    The three parts of Y = trend + sqrt(W_c) x_std + M are independent:

    * the linear part: cov = E[sqrt(W_c W_c')] Pi[c,c'] k(t,t'), with k from
      ``_linear_kernel`` and the scale moments from
      ``quadrature.scale_moments``; an alpha target at T has kernel
      lam sum_{s<=t'} min(T, s) with x_std(t') and variance lam T.  Every
      innovation has unit variance under either noise law, so these second
      moments are exact under Student-t noise too;
    * the minimum, independent across components (``_minimum_law``): in
      closed form under Gaussian noise, where nothing is drawn and the
      moments do not depend on a seed; under Student-t noise read off one
      draw of ``n_realizations`` one-component walks and eps_y on ``seed``
      (``_minimum_draw``), made at the call for every law and kept at every
      month of the horizon.  A zmin target carries no eps_y.

    The observation moments do not depend on the targets or the horizon.
    Each record carries, as its
    ``rows`` (an ``ExactTargetRows``), the targets' cells, Pi, the scale
    pair (E W, E sqrt(W_c W_c')), lam and the minimum's moments: with k's
    integer sums in closed form (``_kernel_sums``), what every target row is
    made of.
    """
    targets, laws = tuple(targets), list(laws)
    cells, pi, same_y = _exact_setup(prior, topology, design, targets)
    minimum = _minimum_law(prior, cells, [sr for sr, _ in laws], n_realizations, seed)
    lam = prior.hyper.lam
    lin_y = _unit_linear_cov(pi, lam, cells)
    yi, yj = np.nonzero(same_y)

    def record(k, mu):
        ew, ew_pair, _, _ = quadrature.scale_moments(prior.hyper.with_mean(mu), prior.w_dist)
        min_part = minimum(k)
        e_m, min_cov = min_part.observed(yi, yj)
        var_y = np.where(same_y, ew, ew_pair) * lin_y
        var_y[yi, yj] += min_cov
        return MomentEstimates(
            design_points=cells.points,
            e_y=cells.trend_y + e_m,
            var_y=var_y,
            targets=targets,
            target_cells=(cells.tgt_kind, cells.tgt_id, cells.tgt_t),
            rows=ExactTargetRows(cells, pi, (ew, ew_pair), lam, min_part),
            n_realizations=None,
        )

    # the generator itself holds no record between laws
    return (record(k, mu) for k, (_, mu) in enumerate(laws))


@dataclass(frozen=True)
class ExactTargetRows:
    """The exact target means and variances of one law (``prior``; see
    ``exact_moments``) and what their rows of cov(B,D) are made of, which
    ``adjust`` forms a month at a time.  Every row has the face-splitting
    form

        row(c,t)[j] = A[c, c_j] kappa_t[j] + m(c,t)[j]:

    A = Pi o S, S being E W on the diagonal and E sqrt(W_c W_c') off it
    (``scale_matrix``); kappa_t[j] = k(t, t_j) for zmin and x targets and
    lam part(t, t_j) for alpha, from k's integer sums (``kernel``); m the
    minimum's term, nonzero only at component c's own observations and only
    for zmin (``minimum.cross``).  ``scale`` is (E W, E sqrt(W_c W_c')) and
    ``minimum`` the law's minimum (``_minimum_law``)."""

    cells: _Cells
    pi: np.ndarray
    scale: tuple
    lam: float
    minimum: _ClosedFormMinimum | _SampledMinimum

    def prior(self):
        """The means and variances of the targets."""
        cells = self.cells
        tgt_t, is_alpha, is_zmin = cells.tgt_t, cells.is_alpha, cells.is_zmin
        min_mean, min_var = self.minimum.target(tgt_t)
        var_lin_t = np.where(is_alpha, self.lam * tgt_t, _kernel_diagonal(tgt_t, self.lam))
        return (
            cells.trend_t + np.where(is_zmin, min_mean, 0.0),
            self.scale[0] * var_lin_t + np.where(is_zmin, min_var, 0.0),
        )

    def kernel(self, months: np.ndarray, is_alpha: np.ndarray) -> np.ndarray:
        """kappa (len(months), n_obs) at the observed cells, for targets in
        ``months`` that are alpha where ``is_alpha``."""
        obs_t = self.cells.obs_t
        part, sums = _kernel_sums(months[:, None], obs_t)
        kappa = self.lam * sums
        kappa += np.minimum.outer(months, obs_t)
        kappa[is_alpha] = self.lam * part[is_alpha]
        return kappa

    def scale_matrix(self) -> np.ndarray:
        """A = Pi o S over every pair of components."""
        ew, ew_pair = self.scale
        return self.pi * np.where(np.eye(len(self.pi), dtype=bool), ew, ew_pair)


def _innovation_fourth_moments(prior, pi, cells, scheme) -> np.ndarray:
    """The fourth-cumulant part of K_i K_j cov(a_i^2, a_j^2) under Student-t
    innovations, per unit of E[W_ci W_cj]:

        kappa4 [(F o F)(F o F)']_{c_i c_j}
            sum_s (h^x_i(s)^2 h^x_j(s)^2 + lam^2 h^a_i(s)^2 h^a_j(s)^2),

    with kappa4 = 6 / (nu - 4) the unit-variance t's excess kurtosis, F the
    factor that mixes the components' innovations (``_correlation_factor``)
    and h^x_i(s), h^a_i(s) entry i's combination (``scheme.combine``) of the
    coefficients of innovation month s in x_std at the observed months: the
    step 1[s <= t] for eps_x and the ramp (t - s + 1)+ for eps_alpha, whose
    sqrt(lam) is squared twice."""
    # t - s + 1 at the observed months t and innovation months s = 1..horizon
    ahead = cells.obs_t[:, None] - np.arange(cells.horizon)
    h_x = scheme.combine((ahead > 0).T.astype(float)) ** 2
    h_a = scheme.combine(np.clip(ahead, 0, None).T.astype(float)) ** 2
    f_sq = _correlation_factor(pi)[cells.obs_c[scheme.p0]] ** 2
    time_sum = h_x.T @ h_x + prior.hyper.lam**2 * (h_a.T @ h_a)
    return 6.0 / (prior.t_dof - 4.0) * (f_sq @ f_sq.T) * time_sum


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
    of ``laws``: one DbarMoments per law, exact but for the minimum's part
    of var(Dbar), and under Student-t noise the minimum's moments.

    Entry i (component c, lags k and l, weight K_i) combines the
    observations as (k - l) y_i + l y_{i-1} - k y_{i-2}
    (``scheme.combine``), which annihilates the trend and leaves
    sqrt(W_c) a_i + b_i: a_i the same combination of the unit linear part,
    with A_ij = cov(a_i, a_j) from Pi[c,c'] k(t,t') and A_ii = K_i, and b_i
    the same combination of the minimum, independent of W and of a.  A and
    E[b b'] are C U C' and C E[M M'] C' for the combination C, U the unit
    linear covariance at the observed cells and E[M M'] from the minimum's
    law as in ``exact_moments``; each is formed by combining U's (or
    E[M M']'s) rows, then its columns.  The m-moments m1_sq, m2_sq, m1m2 are
    read off E[M M'] (E Dbar follows from them, ``varlearn.expected_dbar``),
    cov(M(W), Dbar_c) = (T_c - 2) gamma_wx, and, as the innovations are
    symmetric with unit variance,

        K_i K_j cov(term_i, term_j) = cov(W_ci, W_cj) K_i K_j
            + E[W_ci W_cj] (2 A_ij^2 + Q_ij)
            + 4 E[sqrt(W_ci W_cj)] A_ij E[b_i b_j]
            + [c_i = c_j] cov(b_i^2, b_j^2),

    summed to components over both axes (``scheme.sum_by_component``).
    Q is zero for Gaussian innovations and the fourth-cumulant term of
    ``_innovation_fourth_moments`` for Student-t ones.  cov(W) is the
    hyperprior's gamma_wx / sigma_wx, and the other scale moments are those
    of the law's drawn W (``quadrature.scale_moments``).  The last term,
    the fourth moments of the minimum, is the per-component sample variance
    of the scheme's Dbar rows of n_realizations draws of M at the observed
    cells.  Under either noise law they are one draw on ``seed`` shared by
    every law (``_minimum_draw``), which keeps each law's M at the observed
    months alone.  Under Gaussian noise E[M M'] is closed-form; under
    Student-t noise, whose sums of increments are no scaled t, it is that
    draw's sample moments.  The two laws differ only there and in Q.
    """
    cells, pi, same_y = _exact_setup(prior, topology, design)
    scheme.check_design(cells.points)
    n, seed = _size_and_seed(n_realizations, seed)
    yi, yj = np.nonzero(same_y)
    p0, p1, p2 = scheme.p0, scheme.p1, scheme.p2
    sigma_rs = [sr for sr, _ in laws]

    def between_entries(u):
        """C u C' for a symmetric (n_obs x n_obs) u."""
        return scheme.combine(scheme.combine(u).T)

    lin = between_entries(_unit_linear_cov(pi, prior.hyper.lam, cells))
    same = scheme.entry_component[:, None] == scheme.entry_component
    hyper = prior.hyper
    kk = np.outer(scheme.weight, scheme.weight)
    cov_w = np.where(same, hyper.sigma_wx, hyper.gamma_wx) * kk
    # the draw keeps the observed months alone, cell j's at row obs_at[j]
    months = np.flatnonzero(np.bincount(cells.obs_t))
    obs_at = np.searchsorted(months, cells.obs_t)
    _, noisy = _minimum_draw(prior, months, n, seed, sigma_rs)
    if prior.noise_dist == "gaussian":
        minima, fourth = map(_minimum_law(prior, cells, sigma_rs), range(len(laws))), None
    else:
        minima = (_SampledMinimum([m], obs_at) for m in noisy)
        fourth = _innovation_fourth_moments(prior, pi, cells, scheme)

    out = []
    for k, ((_, mu), minimum) in enumerate(zip(laws, minima)):
        e_m, min_cov = minimum.observed(yi, yj)
        ew, root_pair, square, pair = quadrature.scale_moments(hyper.with_mean(mu), prior.w_dist)
        # E[M M'] at the observed cells
        mm = np.outer(e_m, e_m)
        mm[yi, yj] += min_cov
        w_pair = np.where(same, square, pair)
        terms = cov_w + 2.0 * w_pair * lin * lin
        if fourth is not None:
            terms += w_pair * fourth
        terms += 4.0 * np.where(same, ew, root_pair) * lin * between_entries(mm)
        terms /= kk
        dv = scheme.sum_by_component(scheme.sum_by_component(terms).T)
        dv[np.diag_indices_from(dv)] += scheme(noisy[k][obs_at].T).var(axis=0, ddof=1)
        out.append(DbarMoments(
            n,
            ew,
            mm[p0, p0] - 2.0 * mm[p0, p1] + mm[p1, p1],
            mm[p0, p0] - 2.0 * mm[p0, p2] + mm[p2, p2],
            mm[p0, p0] - mm[p0, p1] - mm[p0, p2] + mm[p1, p2],
            0.5 * (dv + dv.T),
            scheme.t_eff * hyper.gamma_wx,
        ))
    return out


def zmin_quantiles(prior: PriorSpecification, months, probs) -> np.ndarray:
    """Exact quantiles (len(months), len(probs)) of zmin_{c,t} - E zmin_{c,t}
    under the prior law (Gaussian noise), the same for every component:
    sqrt(W_c k(t,t)) Z + sqrt(sigma_r t) (M_L - e_L)."""
    months, back = np.unique(np.asarray(months, dtype=int), return_inverse=True)
    scale = np.sqrt(_kernel_diagonal(months, prior.hyper.lam))
    return quadrature.centered_quantiles(
        prior.hyper, prior.w_dist, prior.locations_per_component,
        scale, np.sqrt(prior.sigma_r * months), probs,
    )[back]


def forecast_extend(design: InspectionDataset, extra_months: int) -> InspectionDataset:
    """Same records, horizon extended so forecast targets beyond T are valid."""
    return design.extended(extra_months)
