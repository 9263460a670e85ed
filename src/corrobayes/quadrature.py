"""Closed forms and quadrature behind the exact moments (numpy and ``math``
only; every table is built on first use).

* ``ndtr``: the standard normal CDF, vectorized.  erfc(z) = t exp(-z^2 + P(t))
  with t = 2/(2 + z), and P is a degree-19 Chebyshev interpolant fitted to
  ``math.erfc`` once (absolute error below 1e-13).
* Gauss rules from the Golub-Welsch eigenproblem: Legendre on an interval,
  and the expectation rules of N(0, 1) and of Gamma(shape, 1).
* ``min_of_normals``: for the minimum M_L of L iid standard normals, its
  mean e_L, its variance g_L(1) and g_L(rho) = cov(min_l U_l, min_l V_l)
  over L iid standard bivariate normal pairs of correlation rho.  With
  U = aX + bY, V = aX - bY (a^2 = (1 + rho)/2, b^2 = (1 - rho)/2),
  g_L(rho) = g_L(1) - E[(min U - min V)^2]/2, and the expectation is a
  smooth integral once the gap V - U is scaled by b:

      E[(min U - min V)^2] = 8b int dm int_0^inf deta [Q(y)^L - (Q(y) - r)^L],
      y = m + b eta,
      r = int_0^inf phi(eta + tau) [Phi((m + b tau)/a) - Phi((m - b tau)/a)] dtau,

  with Q = 1 - Phi.  The integrand is analytic in s = sqrt(1 - rho), so
  g_L is tabulated by Chebyshev interpolation in s, and the end rho -> 1,
  where the bivariate normal degenerates, needs no special case.
* The variance scales: E W_c, E sqrt(W_c W_c'), E W_c^2 and E W_c W_c'
  (c != c') in closed form for ``gamma`` and ``lognormal`` and by
  Gauss-Hermite quadrature over M for the truncated ``gaussian``; quadrature
  nodes of W_c for the prior bands.
* ``centered_quantiles``: quantiles of sqrt(W) a Z + b (M_L - e_L) for
  several (a, b) at once, the centered marginal of a zmin target.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .system import VARIANCE_FLOOR, VarianceHyperprior, _scale_factors

#: Beyond this, erfc(z) < 1e-295 and exp(-z^2) takes the result to zero.
_Z_MAX = 26.0
_T_MIN = 2.0 / (2.0 + _Z_MAX)
_ROOT_2PI = math.sqrt(2.0 * math.pi)


def _cheb_points(n: int) -> np.ndarray:
    return np.cos(np.pi * (np.arange(n) + 0.5) / n)


def _cheb_fit(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through values at
    ``_cheb_points(len(values))``."""
    n = len(values)
    c = np.cos(np.pi * np.outer(np.arange(n), np.arange(n) + 0.5) / n) @ values * (2.0 / n)
    c[0] /= 2.0
    return c


def _cheb_eval(c: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Clenshaw's recurrence for sum_j c_j T_j(x), on three buffers."""
    x2 = 2.0 * x
    b1, b2, nxt = np.zeros_like(x2), np.zeros_like(x2), np.empty_like(x2)
    for cj in c[:0:-1]:
        np.multiply(x2, b1, out=nxt)
        nxt -= b2
        nxt += cj
        b1, b2, nxt = nxt, b1, b2
    return x * b1 - b2 + c[0]


@functools.cache
def _erfc_coefficients() -> np.ndarray:
    t = _T_MIN + (1.0 - _T_MIN) * (_cheb_points(20) + 1.0) / 2.0
    z = 2.0 / t - 2.0
    return _cheb_fit(np.array(
        [math.log(math.erfc(zi) * math.exp(zi * zi) / ti) for zi, ti in zip(z, t)]
    ))


def ndtr(x) -> np.ndarray:
    """The standard normal CDF Phi(x), elementwise."""
    x = np.asarray(x, dtype=float)
    z = np.abs(x) * math.sqrt(0.5)
    t = 2.0 / (2.0 + np.minimum(z, _Z_MAX))
    p = _cheb_eval(_erfc_coefficients(), (2.0 * t - 1.0 - _T_MIN) / (1.0 - _T_MIN))
    half = 0.5 * t * np.exp(p - z * z)
    return np.where(x < 0.0, half, 1.0 - half)


def _phi(x: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * x * x) / _ROOT_2PI


def _gauss(diag, off, mass: float = 1.0):
    """Golub-Welsch: nodes and weights of the Gauss rule whose Jacobi
    matrix has diagonal ``diag`` and off-diagonal ``off``."""
    vals, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    return vals, mass * vecs[0] ** 2


def legendre(n: int, lo: float, hi: float):
    """n-point Gauss-Legendre nodes and weights on [lo, hi]."""
    k = np.arange(1.0, n)
    x, w = _gauss(np.zeros(n), k / np.sqrt(4.0 * k * k - 1.0), 2.0)
    return lo + (hi - lo) * (x + 1.0) / 2.0, w * (hi - lo) / 2.0


def normal_rule(n: int):
    """n-point rule for expectations over N(0, 1) (probabilists' Hermite)."""
    return _gauss(np.zeros(n), np.sqrt(np.arange(1.0, n)))


def gamma_rule(n: int, shape: float):
    """n-point rule for expectations over Gamma(shape, 1) (generalized
    Gauss-Laguerre)."""
    k = np.arange(1.0, n)
    return _gauss(2.0 * np.arange(n) + shape, np.sqrt(k * (k + shape - 1.0)))


@dataclass(frozen=True)
class MinOfNormals:
    """Moments of the minimum of ``count`` iid standard normals."""

    count: int
    mean: float  # e_L
    var: float  # g_L(1)
    coefficients: np.ndarray  # of g_L in 2 sqrt(1 - rho) - 1

    def cov(self, rho) -> np.ndarray:
        """g_L(rho) for rho in [0, 1]."""
        s = np.sqrt(np.clip(1.0 - np.asarray(rho, dtype=float), 0.0, 1.0))
        return _cheb_eval(self.coefficients, 2.0 * s - 1.0)


def _min_density(count: int, x: np.ndarray) -> np.ndarray:
    """Density of the minimum of ``count`` standard normals."""
    return count * _phi(x) * ndtr(-x) ** (count - 1)


#: Integration ranges of the minimum (m) and of the scaled gaps (eta, tau).
_M_RANGE = (-12.0, 8.0)
_D_GRID = ((56, -9.0, 5.0), (32, 0.0, 9.0), (32, 0.0, 9.0))
_S_NODES = 12


def _gap_square(count: int, s: np.ndarray) -> np.ndarray:
    """E[(min U - min V)^2] at s = sqrt(1 - rho), by the integral of the
    module docstring."""
    (m, wm), (eta, we), (tau, wt) = (legendre(*spec) for spec in _D_GRID)
    b = (s / math.sqrt(2.0))[:, None, None]
    a = np.sqrt(1.0 - s * s / 2.0)[:, None, None]
    mm = m[:, None]
    gap = ndtr((mm + b * tau) / a) - ndtr((mm - b * tau) / a)  # (s, m, tau)
    r = gap @ (_phi(eta[:, None] + tau) * wt).T  # (s, m, eta)
    qy = ndtr(-(mm + b * eta))
    return 8.0 * b[:, 0, 0] * np.einsum("j,sjk,k->s", wm, qy**count - (qy - r) ** count, we)


@functools.cache
def min_of_normals(count: int) -> MinOfNormals:
    """e_L, g_L(1) and the g_L table for L = ``count``, built once per L."""
    x, w = legendre(128, *_M_RANGE)
    w = w * _min_density(count, x)
    mean = float(w @ x)
    var = float(w @ (x - mean) ** 2)
    s = (_cheb_points(_S_NODES) + 1.0) / 2.0
    return MinOfNormals(count, mean, var, _cheb_fit(var - 0.5 * _gap_square(count, s)))


def _above_floor(m: np.ndarray, s: float):
    """A 64-point rule in y = sqrt(X) over the mass of X ~ N(m, s^2) above
    the variance floor, per entry of m, where the integrand is smooth: nodes
    y and weights, both (len(m), 64), of X's density carried to y."""
    lo = np.sqrt(np.maximum(m - 12.0 * s, VARIANCE_FLOOR))[:, None]
    hi = np.sqrt(np.maximum(m + 12.0 * s, 4.0 * VARIANCE_FLOOR))[:, None]
    y, w = legendre(64, 0.0, 1.0)
    y = lo + (hi - lo) * y
    return y, w * (hi - lo) * 2.0 * y * _phi((y * y - m[:, None]) / s) / s


def scale_nodes(hyper: VarianceHyperprior, w_dist: str):
    """Nodes and weights (both 1-D) of a rule for the law of one
    component's scale W_c.  Under ``gamma`` and ``lognormal`` W_c = M U_c
    takes the product of a 16-point rule over M and an 8-point rule over
    U_c, and a factor without variance one node.  The truncated
    ``gaussian`` W_c = max(X, floor), X ~ N(mu_wx, sigma_wx), takes one
    node at the floor for P(X <= floor) and ``_above_floor``'s rule over the
    rest."""
    factors = _scale_factors(hyper, w_dist)
    (mu, gam), (_, resid_var) = factors
    if w_dist == "gaussian":
        f, sd = VARIANCE_FLOOR, math.sqrt(gam + resid_var)
        if sd <= 0.0:
            return np.array([max(mu, f)]), np.ones(1)
        (y,), (w,) = _above_floor(np.array([mu]), sd)
        return np.append(f, y * y), np.append(ndtr((f - mu) / sd), w)
    rules = []
    for (mean, var), size in zip(factors, (16, 8)):
        if var <= 0.0:
            rules.append((np.array([mean]), np.ones(1)))
        elif w_dist == "gamma":
            x, w = gamma_rule(size, mean * mean / var)
            rules.append((x * var / mean, w))
        else:
            s2 = math.log1p(var / mean**2)
            x, w = normal_rule(size)
            rules.append((np.exp(math.log(mean) - 0.5 * s2 + math.sqrt(s2) * x), w))
    (xm, wm), (xu, wu) = rules
    return np.maximum(np.outer(xm, xu), VARIANCE_FLOOR).ravel(), np.outer(wm, wu).ravel()


def _floored_normal(m: np.ndarray, s: float):
    """(E W, E sqrt(W), E W^2) for W = max(X, floor), X ~ N(m, s^2), per
    entry of m: the first and last in closed form, the second by
    ``_above_floor``'s rule over X's mass above the floor."""
    f = VARIANCE_FLOOR
    if s <= 0.0:
        w = np.maximum(m, f)
        return w, np.sqrt(w), w * w
    a = (f - m) / s
    below, dens = ndtr(a), _phi(a)
    mean = f * below + m * (1.0 - below) + s * dens
    square = f * f * below + (m * m + s * s) * (1.0 - below) + s * (m + f) * dens
    y, w = _above_floor(m, s)
    return mean, math.sqrt(f) * below + (w * y).sum(axis=1), square


def scale_moments(hyper: VarianceHyperprior, w_dist: str):
    """(E W_c, E sqrt(W_c W_c'), E W_c^2, E W_c W_c') for two distinct
    components c and c'.

    W_c = M U_c under ``gamma`` and ``lognormal``, so E W_c = mu_wx and
    E sqrt(W_c W_c') = mu_wx (E sqrt U)^2: for U ~ Gamma(kappa, 1/kappa),
    E sqrt U = Gamma(kappa + 1/2)/(Gamma(kappa) sqrt(kappa)); for a
    lognormal U of log-variance s2, E sqrt U = exp(-s2/8).  Their draws
    match var(W_c) = sigma_wx and cov(W_c, W_c') = gamma_wx, so
    E W_c^2 = sigma_wx + mu_wx^2 and E W_c W_c' = gamma_wx + mu_wx^2.  The
    floor of these two laws is ignored.  The truncated ``gaussian``
    W_c = max(M + R_c, floor) integrates its floored residual exactly given
    M (``_floored_normal``) and M by a 48-point Gauss-Hermite rule; given M
    the scales of two components are independent.
    """
    (mu, gam), (_, res) = _scale_factors(hyper, w_dist)
    if w_dist == "gaussian":
        if res <= 0.0:  # one shared W = max(M, floor)
            (mean,), _, (square,) = _floored_normal(np.array([mu]), math.sqrt(gam))
            return float(mean), float(mean), float(square), float(square)
        x, w = normal_rule(48) if gam > 0.0 else (np.zeros(1), np.ones(1))
        mean, root, square = _floored_normal(mu + math.sqrt(gam) * x, math.sqrt(res))
        return float(w @ mean), float(w @ root**2), float(w @ square), float(w @ mean**2)
    second = (hyper.sigma_wx + mu * mu, hyper.gamma_wx + mu * mu)
    if res <= 0.0:
        return (mu, mu, *second)
    if w_dist == "lognormal":
        return (mu, mu * math.exp(-0.25 * math.log1p(res)), *second)
    kappa = 1.0 / res
    root_pair = mu * math.exp(2.0 * (math.lgamma(kappa + 0.5) - math.lgamma(kappa))) / kappa
    return (mu, root_pair, *second)


def centered_quantiles(hyper, w_dist, count, a, b, probs) -> np.ndarray:
    """Quantiles (len(a), len(probs)) of X_j = sqrt(W) a_j Z + b_j (M_L - e_L),
    with W a component's variance scale, Z standard normal and M_L the
    minimum of ``count`` standard normals, all independent.

    The CDF of S = sqrt(W) Z, G(x) = E_W Phi(x / sqrt(W)), is tabulated
    once on a grid dense near 0, where the mass of W near zero makes it
    steep.  The CDF of X_j at y is then E G((y - b_j (M_L - e_L))/a_j) by a
    96-point rule over M_L's density.  Every quantile is bisected at once,
    from Chebyshev's bracket |q| <= sd(X_j)/sqrt(min(p, 1 - p)), down to
    about 1e-10 of that bracket.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    mins = min_of_normals(count)
    scales, weights = scale_nodes(hyper, w_dist)
    top = 12.0 * math.sqrt(scales.max())
    grid = top * np.linspace(0.0, 1.0, 512) ** 2
    # in slices of the grid, so that no (512, nodes) temporary is held
    root = np.sqrt(scales)
    table = np.concatenate([ndtr(g[:, None] / root) @ weights for g in np.split(grid, 8)])

    def cdf_s(x):
        g = np.interp(np.abs(x), grid, table)
        return np.where(x < 0.0, 1.0 - g, g)

    m, wmin = legendre(96, -9.0, 5.0)
    wmin = wmin * _min_density(count, m)
    shift = b[:, None, None] * (m - mins.mean)  # (j, 1, m)
    p = np.asarray(probs, dtype=float)
    sd = np.sqrt(a * a * (weights @ scales) + b * b * mins.var)
    hi = np.outer(sd, 1.0 / np.sqrt(np.minimum(p, 1.0 - p)))
    lo = -hi
    for _ in range(36):
        mid = 0.5 * (lo + hi)
        below = cdf_s((mid[..., None] - shift) / a[:, None, None]) @ wmin < p
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)
