"""Bayes linear algebra primitives.

Adjusted expectation and variance and rank-normalized Mahalanobis
discrepancies, all read off one factor per variance matrix.  The package has
one cutoff: eigenvalues with |lambda| <= DEFAULT_RTOL * max|lambda| count as
zero.  The spectral factor checks symmetry, runs a single
eigendecomposition, checks positive semi-definiteness from its eigenvalues
and keeps R = Q_k |Lambda_k|^(-1/2), so the pseudo-inverse is R R' and the
numerical rank is R's column count; rank-deficient covariance matrices
(common here because of min-function degeneracies) are handled
consistently, and the numerator and denominator of every discrepancy ratio
agree about which directions carry information.  No entry point takes a
tolerance: the cutoff is the module constant.

A ``MomentPair`` first tries one Cholesky factorization of
V - DEFAULT_RTOL * |V|_F * I.  If it succeeds, every eigenvalue of V exceeds
DEFAULT_RTOL * |V|_F >= DEFAULT_RTOL * max|lambda|, so the cutoff would keep
them all: V has full rank, its quadratic forms are solves, and its root,
built only when an update asks for it, is L^-T with L = chol(V).  If it
fails, the spectral factor decides, so every rank decision and every error
is the spectral one.  ``gram_adjustment_discrepancy`` certifies a tall
G's Gram matrix the same way; ``pinv_with_rank``, ``pseudo_inverse`` and
``adjustment_discrepancy`` are always spectral.

A ``MomentPair`` builds its factor once, so every update and discrepancy
against the same data moments shares one certificate and at most one root.
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


def _check_symmetric(m: np.ndarray, name: str) -> None:
    scale = np.linalg.norm(m)
    if scale > 0.0 and np.linalg.norm(m - m.T) > SYMMETRY_RTOL * scale:
        raise ShapeError(f"{name} is not symmetric within tolerance {SYMMETRY_RTOL}")


def _certified_full_rank(m: np.ndarray) -> bool:
    """True when the symmetric m - DEFAULT_RTOL * |m|_F * I has a Cholesky
    factor: then every eigenvalue of m exceeds the spectral cutoff."""
    shifted = m.copy()
    shifted.flat[:: m.shape[0] + 1] -= DEFAULT_RTOL * np.linalg.norm(m)
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return False
    return True


class _SpectralFactor:
    """One eigendecomposition of a symmetric positive semi-definite matrix V,
    truncated at the package cutoff.  ``root`` (dim x rank) satisfies
    V^+ = root @ root.T."""

    def __init__(self, m: np.ndarray, name: str):
        _check_symmetric(m, name)
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

    def quadratic_form(self, x: np.ndarray) -> float:
        """x' V^+ x."""
        w = self.whiten(x)
        return float(w @ w)


class _CertifiedFactor:
    """A symmetric V certified positive definite of full rank by
    ``_certified_full_rank``.  Quadratic forms are solves; the root
    R = L^-T (L = chol(V), so R R' = V^-1) is built on first use."""

    def __init__(self, m: np.ndarray):
        self._m = m
        self._root = None

    @property
    def rank(self) -> int:
        return self._m.shape[0]

    @property
    def root(self) -> np.ndarray:
        if self._root is None:
            self._root = np.linalg.inv(np.linalg.cholesky(self._m)).T
        return self._root

    def whiten(self, x: np.ndarray) -> np.ndarray:
        """R' x: coordinates in which V^-1 is the identity."""
        return self.root.T @ x

    def quadratic_form(self, x: np.ndarray) -> float:
        """x' V^-1 x."""
        return float(x @ np.linalg.solve(self._m, x))


@dataclass
class MomentPair:
    """First- and second-order belief specification for a vector quantity,
    with the factor of its covariance: certified full rank by one shifted
    Cholesky when it passes, the spectral factor otherwise.  Asymmetric and
    indefinite covariances raise ``ShapeError`` here."""

    mean: np.ndarray
    covariance: np.ndarray
    factor: _SpectralFactor | _CertifiedFactor = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.mean = _as_vector(self.mean, "mean")
        self.covariance = _as_square(self.covariance, "covariance")
        n = self.mean.shape[0]
        if self.covariance.shape != (n, n):
            raise ShapeError(
                f"covariance shape {self.covariance.shape} does not match mean length {n}"
            )
        _check_symmetric(self.covariance, "covariance")
        if _certified_full_rank(self.covariance):
            self.factor = _CertifiedFactor(self.covariance)
        else:
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


def _rank_normalized(form: float, rank: int, sample_size, name: str) -> float:
    """A quadratic form through the pseudo-inverse of a rank-``rank``
    variance, divided by the rank, with the finite-ensemble correction."""
    if rank == 0:
        raise DegenerateVarianceError(f"{name} has rank zero")
    return form / rank * finite_sample_factor(rank, sample_size)


def mahalanobis_discrepancy(observed, prior: MomentPair, sample_size=None) -> float:
    """Rank-normalized Mahalanobis discrepancy; expectation 1 under the prior.

    When the prior moments were estimated from ``sample_size`` Monte Carlo
    realizations, a finite-ensemble bias correction is applied.
    """
    y = _as_vector(observed, "observed")
    if y.shape[0] != prior.dim:
        raise ShapeError(f"observed has length {y.shape[0]} but prior has dimension {prior.dim}")
    f = prior.factor
    form = f.quadratic_form(y - prior.mean)
    return _rank_normalized(form, f.rank, sample_size, "variance matrix")


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
    return _rank_normalized(f.quadratic_form(a - p), f.rank, sample_size, "resolved variance")


def whitened_adjustment_discrepancy(g, z, sample_size=None) -> float:
    """``adjustment_discrepancy`` of the shift G z against the resolved
    variance G G', computed in data space without forming G G'.

    G = cov(B,D) R are whitened cross-covariance rows and z = R'(d - E(D))
    the whitened data residual.  With the thin SVD G = U S V', the form
    equals |V_r' z|^2 over the r singular values whose squares (the
    eigenvalues of G G') pass the cutoff.  A tall G goes through
    ``gram_adjustment_discrepancy``; U is never needed.
    """
    g = np.atleast_2d(np.asarray(g, dtype=float))
    z = np.asarray(z, dtype=float)
    if g.shape[0] > g.shape[1]:
        return gram_adjustment_discrepancy(g.T @ g, lambda: [g], z, sample_size)
    return _singular_form(g, z, sample_size)


def gram_adjustment_discrepancy(gram, blocks, z, sample_size=None) -> float:
    """``whitened_adjustment_discrepancy`` of a tall G held as its Gram
    matrix G'G, with ``blocks`` a function that yields G's rows again, block
    by block.

    A Gram matrix that passes the shifted-Cholesky certificate gives G full
    column rank, so V_r is square orthogonal and the form is |z|^2 (the Gram
    matrix only certifies: its rounding, about n eps s_max^2, lies far below
    the cutoff DEFAULT_RTOL s_max^2).  Otherwise G's rows are read once more
    into the square R of G = Q R, one block at a time (a tall-skinny QR), and
    R, whose SVD has G's S and V, takes the SVD route; the form never goes
    through G'G, which squares the condition number.
    """
    z = np.asarray(z, dtype=float)
    if _certified_full_rank(gram):
        return _rank_normalized(float(z @ z), gram.shape[0], sample_size, "resolved variance")
    r = None
    for g in blocks():
        if len(g):
            r = np.linalg.qr(g if r is None else np.vstack([r, g]), mode="r")
    return _singular_form(r, z, sample_size)


def _singular_form(g, z, sample_size) -> float:
    """|V_r' z|^2 over G's singular values whose squares pass the cutoff,
    rank-normalized."""
    _, s, vt = np.linalg.svd(g, full_matrices=False)
    keep = s * s > DEFAULT_RTOL * (s[0] * s[0] if s.size else 0.0)
    w = vt[keep] @ z
    return _rank_normalized(
        float(w @ w), int(np.count_nonzero(keep)), sample_size, "resolved variance"
    )
