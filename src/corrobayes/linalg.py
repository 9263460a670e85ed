"""Bayes linear algebra primitives.

Adjusted expectation and variance and rank-normalized Mahalanobis
discrepancies, all read off one spectral factor per variance matrix.  The
factor checks symmetry, runs a single eigendecomposition, checks positive
semi-definiteness from its eigenvalues, and applies the one cutoff of
the package: eigenvalues with |lambda| <= DEFAULT_RTOL * max|lambda| count as
zero.  What it keeps is R = Q_k |Lambda_k|^(-1/2), so the pseudo-inverse is
R R' and the numerical rank is R's column count; rank-deficient covariance
matrices (common here because of min-function degeneracies) are handled
consistently, and the numerator and denominator of every discrepancy ratio
agree about which directions carry information.  No entry point takes a
tolerance: the cutoff is the module constant.

A ``MomentPair`` builds its factor once, so every update and discrepancy
against the same data moments shares one decomposition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateVarianceError, ShapeError

#: Relative eigenvalue cutoff shared by the pseudo-inverse and rank computation.
DEFAULT_RTOL = 1e-10

#: Relative Frobenius tolerance for symmetry checks.
SYMMETRY_RTOL = 1e-10

#: Eigenvalues of a covariance may dip this far (relative to the largest
#: eigenvalue) below zero before we call the matrix indefinite.
PSD_RTOL = 1e-8


def _as_vector(v, name: str) -> np.ndarray:
    arr = np.asarray(v, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1)
    if arr.ndim != 1:
        raise ShapeError(f"{name} must be a vector, got shape {arr.shape}")
    return arr


def _as_square(m, name: str) -> np.ndarray:
    arr = np.atleast_2d(np.asarray(m, dtype=float))
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {arr.shape}")
    return arr


class _SpectralFactor:
    """One eigendecomposition of a symmetric positive semi-definite matrix V,
    truncated at the package cutoff.  ``root`` (dim x rank) satisfies
    V^+ = root @ root.T."""

    def __init__(self, m: np.ndarray, name: str):
        scale = np.linalg.norm(m)
        if scale > 0.0 and np.linalg.norm(m - m.T) > SYMMETRY_RTOL * scale:
            raise ShapeError(f"{name} is not symmetric within tolerance {SYMMETRY_RTOL}")
        # a 1 x 1 matrix is its own eigendecomposition
        vals, vecs = (m[0], np.ones((1, 1))) if m.shape == (1, 1) else np.linalg.eigh(m)
        top = max(vals.max(initial=0.0), np.finfo(float).tiny)
        if vals.size and vals[0] < -PSD_RTOL * top:
            raise ShapeError(f"{name} is not positive semi-definite (min eigenvalue {vals[0]:g})")
        keep = np.abs(vals) > DEFAULT_RTOL * np.abs(vals).max(initial=0.0)
        self.root = vecs[:, keep] / np.sqrt(np.abs(vals[keep]))

    @property
    def rank(self) -> int:
        return self.root.shape[1]

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """R' x: coordinates in which V^+ is the identity."""
        return self.root.T @ x


@dataclass
class MomentPair:
    """First- and second-order belief specification for a vector quantity,
    with the spectral factor of its covariance."""

    mean: np.ndarray
    covariance: np.ndarray
    factor: _SpectralFactor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mean = _as_vector(self.mean, "mean")
        self.covariance = _as_square(self.covariance, "covariance")
        n = self.mean.shape[0]
        if self.covariance.shape != (n, n):
            raise ShapeError(
                f"covariance shape {self.covariance.shape} does not match mean length {n}"
            )
        self.factor = _SpectralFactor(self.covariance, "covariance")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


def pinv_with_rank(m):
    """Pseudo-inverse of a symmetric positive semi-definite matrix together
    with its numerical rank."""
    f = _SpectralFactor(_as_square(m, "matrix"), "matrix")
    return f.root @ f.root.T, f.rank


def pseudo_inverse(m) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric positive semi-definite matrix
    via eigendecomposition; eigenvalues at or below the cutoff count as zero."""
    return pinv_with_rank(m)[0]


def _whitened_cross(prior: MomentPair, data_prior: MomentPair, cross) -> np.ndarray:
    """G = cov(B,D) R, so that Rvar_D(B) = G G'."""
    mat = np.atleast_2d(np.asarray(cross, float))
    if mat.shape[0] != prior.dim:
        raise ShapeError(
            f"cross-moment has {mat.shape[0]} rows but prior has dimension {prior.dim}"
        )
    if mat.shape[1] != data_prior.dim:
        raise ShapeError(
            f"cross-moment has {mat.shape[1]} columns but data prior has dimension {data_prior.dim}"
        )
    return mat @ data_prior.factor.root


def adjusted_expectation(
    prior: MomentPair,
    data_prior: MomentPair,
    cross,
    observed,
) -> np.ndarray:
    """E_D(B) = E(B) + cov(B,D) var(D)^+ (d - E(D)).

    ``observed`` is one data vector d, or an (n, dim) array whose rows are
    data vectors adjusted against the same moments; the result then has one
    row per data vector.
    """
    g = _whitened_cross(prior, data_prior, cross)
    d = np.asarray(observed, dtype=float)
    if d.ndim == 0:
        d = d.reshape(1)
    if d.ndim > 2 or d.shape[-1] != data_prior.dim:
        raise ShapeError(
            f"observed has shape {d.shape} but data prior has dimension {data_prior.dim}"
        )
    return prior.mean + (g @ data_prior.factor.whiten((d - data_prior.mean).T)).T


def adjusted_variance(prior: MomentPair, data_prior: MomentPair, cross) -> np.ndarray:
    """var_D(B) = var(B) - cov(B,D) var(D)^+ cov(D,B)."""
    g = _whitened_cross(prior, data_prior, cross)
    return prior.covariance - g @ g.T


def finite_sample_factor(rank: int, sample_size) -> float:
    """(n - rank - 2)/(n - 1) for n = ``sample_size``: it undoes the roughly
    (n-1)/(n-rank-2) inflation of quadratic forms through the pseudo-inverse
    of a rank-``rank`` covariance estimated from n realizations, so the
    expected discrepancy stays at unity.  1.0 without a sample size, and,
    with a warning, when n - rank - 2 <= 0 switches the correction off."""
    if sample_size is None:
        return 1.0
    n = int(sample_size)
    if n - rank - 2 <= 0:
        msg = f"finite-sample correction off: {n} realizations for a rank-{rank} variance"
        warnings.warn(msg, stacklevel=2)
        return 1.0
    return (n - rank - 2) / (n - 1)


def _rank_normalized(w: np.ndarray, rank: int, sample_size, name: str) -> float:
    """|w|^2 / rank with the finite-ensemble correction, where w is a vector
    in whitened coordinates of a rank-``rank`` variance."""
    if rank == 0:
        raise DegenerateVarianceError(f"{name} has rank zero")
    return float(w @ w) / rank * finite_sample_factor(rank, sample_size)


def mahalanobis_discrepancy(observed, prior: MomentPair, sample_size=None) -> float:
    """Rank-normalized Mahalanobis discrepancy; expectation 1 under the prior.

    When the prior moments were estimated from ``sample_size`` Monte Carlo
    realizations, a finite-ensemble bias correction is applied.
    """
    y = _as_vector(observed, "observed")
    if y.shape[0] != prior.dim:
        raise ShapeError(f"observed has length {y.shape[0]} but prior has dimension {prior.dim}")
    f = prior.factor
    return _rank_normalized(f.whiten(y - prior.mean), f.rank, sample_size, "variance matrix")


def adjustment_discrepancy(adjusted_mean, prior_mean, resolved_var, sample_size=None) -> float:
    """Rank-normalized discrepancy of the mean shift against resolved variance.

    (E_D(B)-E(B))' Rvar^+ (E_D(B)-E(B)) / rank(Rvar).  When the resolved
    variance is singular the pseudo-inverse restricts the form to its column
    space.
    """
    a = _as_vector(adjusted_mean, "adjusted_mean")
    p = _as_vector(prior_mean, "prior_mean")
    if a.shape != p.shape:
        raise ShapeError("adjusted_mean and prior_mean have different lengths")
    rv = _as_square(resolved_var, "resolved_var")
    if rv.shape[0] != a.shape[0]:
        raise ShapeError("resolved_var dimension does not match means")
    f = _SpectralFactor(rv, "resolved_var")
    return _rank_normalized(f.whiten(a - p), f.rank, sample_size, "resolved variance")


def whitened_adjustment_discrepancy(g, z, sample_size=None) -> float:
    """``adjustment_discrepancy`` of the shift G z against the resolved
    variance G G', computed in data space without forming G G'.

    G = cov(B,D) R are whitened cross-covariance rows and z = R'(d - E(D))
    the whitened data residual.  With the thin SVD G = U S V', the form
    equals |V_r' z|^2 over the r singular values whose squares (the
    eigenvalues of G G') pass the cutoff.  U is never needed, so a tall G
    is first reduced to the square R of G = Q R, whose SVD has the same S
    and V; the squared form G'G is avoided, as it squares the condition
    number.
    """
    g = np.atleast_2d(np.asarray(g, dtype=float))
    if g.shape[0] > g.shape[1]:
        g = np.linalg.qr(g, mode="r")
    _, s, vt = np.linalg.svd(g, full_matrices=False)
    keep = s * s > DEFAULT_RTOL * (s[0] * s[0] if s.size else 0.0)
    return _rank_normalized(
        vt[keep] @ np.asarray(z, dtype=float), int(np.count_nonzero(keep)),
        sample_size, "resolved variance",
    )
