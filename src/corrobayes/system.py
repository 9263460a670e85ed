"""System topology, priors, and the exchangeable variance hyperstructure.

Components live on corrosion circuits; the correlation between evolution
errors of two components is a universal floor, plus a circuit bonus, plus an
exponentially decaying along-circuit term.  Evolution covariance matrices are
assembled from per-component variance draws W_c as
S[c,c'] = sqrt(W_c) sqrt(W_c') Pi[c,c'].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, InvalidCorrelationError, ShapeError

#: Floor applied to drawn per-component variances so square roots stay real.
VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class SystemTopology:
    """Components, circuit membership, and along-circuit positions.

    The distance between two components of the same circuit is the absolute
    difference of their along-circuit positions (adjacent components are at
    distance one); components on different circuits are infinitely far apart,
    so the decaying correlation term vanishes between circuits.
    """

    components: tuple
    circuit_of: dict
    position_of: dict
    x0_of: dict | None = None

    def __post_init__(self):
        if len(set(self.components)) != len(self.components):
            raise ConfigError("duplicate component ids in topology")
        for c in self.components:
            if c not in self.circuit_of or c not in self.position_of:
                raise ConfigError(f"component {c} missing circuit or position")
        by_circuit = {}
        for c in self.components:
            by_circuit.setdefault(self.circuit_of[c], []).append(self.position_of[c])
        for circ, pos in by_circuit.items():
            if len(set(pos)) != len(pos):
                raise ConfigError(f"circuit {circ} has duplicate positions")

    @property
    def component_count(self) -> int:
        return len(self.components)

    def distance(self, c, cp) -> float:
        """Along-circuit separation s_cc' (|position difference|)."""
        if c == cp:
            return 0.0
        if self.circuit_of[c] != self.circuit_of[cp]:
            return math.inf
        return abs(self.position_of[c] - self.position_of[cp])

    def same_circuit(self, c, cp) -> bool:
        return self.circuit_of[c] == self.circuit_of[cp]

    def initial_thickness(self, default: float | None = None) -> np.ndarray:
        if self.x0_of is not None:
            return np.array([self.x0_of[c] for c in self.components], dtype=float)
        if default is None:
            raise ConfigError("topology carries no initial thickness and no default given")
        return np.full(self.component_count, float(default))


@dataclass(frozen=True)
class CorrelationParams:
    """Parameters of the three-term between-component correlation."""

    rho0: float
    rhoC: float
    rhoD: float
    nu: float = 1.0

    def __post_init__(self):
        for name in ("rho0", "rhoC", "rhoD"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.rho0 + self.rhoC + self.rhoD > 1.0 + 1e-12:
            raise ConfigError("rho0 + rhoC + rhoD must not exceed 1")
        if self.nu <= 0:
            raise ConfigError("nu must be positive")


def build_correlation(topology: SystemTopology, corr: CorrelationParams) -> np.ndarray:
    """Assemble Pi[c,c'] = rho0 + rhoC*[same circuit] + rhoD*exp(-nu*s_cc')."""
    comps = topology.components
    codes = {}
    circuit = np.array([codes.setdefault(topology.circuit_of[c], len(codes)) for c in comps])
    pos = np.array([topology.position_of[c] for c in comps], dtype=float)
    # components on different circuits are infinitely far apart: no decay term
    same = circuit[:, None] == circuit[None, :]
    decay = np.where(same, np.exp(-corr.nu * np.abs(pos[:, None] - pos[None, :])), 0.0)
    pi = corr.rho0 + corr.rhoC * same + corr.rhoD * decay
    # a correlation matrix has unit diagonal even when the three terms sum
    # below one; the surplus only strengthens positive definiteness
    np.fill_diagonal(pi, 1.0)
    eig = np.linalg.eigvalsh(pi)
    if eig.size and eig[0] < -1e-8 * max(eig[-1], np.finfo(float).tiny):
        raise InvalidCorrelationError(
            f"correlation parameters yield an indefinite matrix (min eigenvalue {eig[0]:g})"
        )
    return pi


@dataclass(frozen=True)
class VarianceHyperprior:
    """Exchangeable prior for per-component squared evolution errors.

    mu_wx / gamma_wx are the mean and variance of the population mean
    variance; sigma_wx is the variance of an individual component's variance
    (so sigma_wx - gamma_wx is the variance of the per-component residual).
    lam is the fixed ratio of slope to level evolution variance.
    """

    mu_wx: float
    sigma_wx: float
    gamma_wx: float
    lam: float

    def __post_init__(self):
        if self.mu_wx <= 0:
            raise ConfigError("mu_wx must be positive")
        if self.sigma_wx < 0 or self.gamma_wx < 0:
            raise ConfigError("variance hyperparameters must be nonnegative")
        if self.gamma_wx > self.sigma_wx + 1e-15:
            raise ConfigError("gamma_wx cannot exceed sigma_wx")
        if self.lam <= 0:
            raise ConfigError("lam must be positive")

    def with_mean(self, mu: float) -> "VarianceHyperprior":
        return replace(self, mu_wx=float(mu))


def _matched_draws(rng, w_dist: str, params, rows: int) -> np.ndarray:
    """(rows, len(params)) draws whose column j has the mean and variance
    params[j] = (mean, var), var > 0.  Each row takes its columns from the
    stream in order, so consecutive rows consume it as consecutive calls
    with one row each would."""
    shape = (rows, len(params))
    if w_dist == "gaussian":
        loc = np.array([m for m, _ in params])
        root = np.array([math.sqrt(v) for _, v in params])
        return loc + root * rng.standard_normal(shape)
    if w_dist == "lognormal":
        # the parameters are formed in scalar float arithmetic, as one draw did
        s2 = [math.log1p(v / m**2) for m, v in params]
        mu_ln = np.array([math.log(m) - 0.5 * s for (m, _), s in zip(params, s2)])
        return rng.lognormal(mu_ln, np.array([math.sqrt(s) for s in s2]), shape)
    shape_k = np.array([m * m / v for m, v in params])
    return rng.gamma(shape_k, np.array([v / m for m, v in params]), shape)


def _scale_factors(hyper: VarianceHyperprior, w_dist: str):
    """((mean, variance) of the population mean M, (mean, variance) of the
    residual): the two factors of W_c = M U_c under "gamma" and "lognormal"
    and of W_c = M + R_c under the truncated "gaussian"."""
    mu, sig, gam = hyper.mu_wx, hyper.sigma_wx, hyper.gamma_wx
    res_var = max(sig - gam, 0.0)
    if w_dist == "gaussian":
        return (mu, gam), (0.0, res_var)
    if w_dist in ("lognormal", "gamma"):
        return (mu, gam), (1.0, res_var / (gam + mu * mu))
    raise ConfigError(f"config key 'w_dist': unknown variance draw distribution {w_dist!r}")


def draw_variance_scales(
    hyper: VarianceHyperprior,
    n_components: int,
    rng: np.random.Generator,
    w_dist: str = "gamma",
    size: int | None = None,
):
    """Draw the population mean M(W) and per-component variances W_c.

    Returns (w, m) with w the length-C vector of variances and m the drawn
    population mean, drawn as the factors of ``_scale_factors``.  "gamma"
    (default) and "lognormal" draw M from a moment-matched distribution and
    each W_c = M * U_c with U_c moment-matched, so that
    E(W_c) = mu_wx, var(W_c) = sigma_wx and cov(W_c, W_c') = gamma_wx hold
    exactly while every draw stays positive without flooring (the residual
    scales with the drawn mean, keeping conditional tails moderate).  Gamma
    is the default because at the large coefficients of variation typical of
    variance hyperpriors the matched lognormal has an enormous kurtosis,
    which makes ensemble moment estimates converge very slowly.
    "gaussian" uses additive normal draws truncated at ``VARIANCE_FLOOR``
    (which biases E(W_c) upward when the hypervariances are large relative
    to mu_wx^2).

    With ``size`` = n the call makes n independent draws at once and returns
    w as an (n, C) array and m as an (n,) array.  It consumes the stream
    exactly as n calls without ``size`` do, one after another, and gives the
    same values.
    """
    (mu, gam), resid = _scale_factors(hyper, w_dist)
    rows = 1 if size is None else int(size)
    # one row per draw: M when it is drawn, then the C residuals when they vary
    draw_m = gam > 0
    params = [(mu, gam)] * draw_m + [resid] * (n_components if resid[1] > 0 else 0)
    z = _matched_draws(rng, w_dist, params, rows)
    m = z[:, 0] if draw_m else np.full(rows, float(mu))
    # w is formed in place over the residuals: m is a view of the same draws
    w = z[:, int(draw_m) :]
    if not w.shape[1]:
        w = np.full((rows, n_components), resid[0])
    if w_dist == "gaussian":
        w += m[:, None]
    else:
        w *= m[:, None]
    np.maximum(w, VARIANCE_FLOOR, out=w)
    if size is None:
        return w[0], float(m[0])
    return w, m


def default_candidate_grid(mu_wx: float) -> tuple:
    """12 log-spaced local-variance candidates spanning [mu_wx/25, 25*mu_wx]."""
    return tuple(np.geomspace(mu_wx / 25.0, mu_wx * 25.0, 12))


@dataclass(frozen=True)
class InspectionRecord:
    component: object
    time: int
    value: float = math.nan


@dataclass(frozen=True)
class InspectionDataset:
    """Irregular partial observations of component minimum wall thickness."""

    records: tuple
    horizon: int

    def __post_init__(self):
        object.__setattr__(self, "records", tuple(self.records))
        if self.horizon < 1:
            raise ConfigError("horizon must be a positive integer")

    def by_component(self) -> dict:
        out = {}
        for rec in self.records:
            out.setdefault(rec.component, []).append(rec)
        for recs in out.values():
            recs.sort(key=lambda r: r.time)
        return out

    def design_points(self) -> list:
        """Canonical (component, time) order used by every observation vector."""
        return sorted((r.component, r.time) for r in self.records)

    def values_vector(self) -> np.ndarray:
        by_key = {(r.component, r.time): r.value for r in self.records}
        return np.array([by_key[k] for k in self.design_points()], dtype=float)

    def with_values(self, values: np.ndarray) -> "InspectionDataset":
        """Copy of the design with observation values in canonical order."""
        values = np.asarray(values, dtype=float)
        pts = self.design_points()
        if values.shape != (len(pts),):
            raise ShapeError("value vector length does not match design")
        recs = tuple(InspectionRecord(c, t, v) for (c, t), v in zip(pts, values))
        return InspectionDataset(recs, self.horizon)

    def extended(self, extra: int) -> "InspectionDataset":
        if extra < 0:
            raise ConfigError("horizon extension must be nonnegative")
        return InspectionDataset(self.records, self.horizon + extra)


def validate_dataset(dataset: InspectionDataset, topology: SystemTopology) -> list:
    """Return one finding string per invariant violation (empty list = valid)."""
    findings = []
    seen = set()
    known = set(topology.components)
    for rec in dataset.records:
        key = (rec.component, rec.time)
        if rec.component not in known:
            findings.append(f"unknown component {rec.component} at time {rec.time}")
        if not 1 <= rec.time <= dataset.horizon:
            findings.append(
                f"time index {rec.time} for component {rec.component} outside 1..{dataset.horizon}"
            )
        if key in seen:
            findings.append(f"duplicate record for component {rec.component} at time {rec.time}")
        seen.add(key)
    return findings


@dataclass(frozen=True)
class PriorSpecification:
    """The beliefs about the system that the pipeline simulates and adjusts
    from; a run's ensemble size and seed are not among them.

    sigma_r is the prior (working) local-corrosion variance; the candidate
    grid is what the Mahalanobis calibration searches over.
    """

    hyper: VarianceHyperprior
    corr: CorrelationParams
    sigma_y: float
    sigma_r: float
    sigma_r_candidates: tuple = ()
    locations_per_component: int = 10
    x0: np.ndarray = field(default=None)
    alpha0: np.ndarray = field(default=None)
    critical_thickness: float = 4.0
    noise_dist: str = "gaussian"
    t_dof: float = 5.0
    w_dist: str = "gamma"

    def __post_init__(self):
        if self.sigma_y < 0:
            raise ConfigError("sigma_y must be nonnegative")
        if self.sigma_r < 0:
            raise ConfigError("sigma_r must be nonnegative")
        if self.locations_per_component < 1:
            raise ConfigError("locations_per_component must be at least 1")
        cands = tuple(float(v) for v in self.sigma_r_candidates)
        if not cands:
            cands = default_candidate_grid(self.hyper.mu_wx)
        if any(v <= 0 for v in cands) or any(b <= a for a, b in zip(cands, cands[1:])):
            raise ConfigError("sigma_r_candidates must be strictly increasing positive values")
        object.__setattr__(self, "sigma_r_candidates", cands)
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))
        object.__setattr__(self, "alpha0", np.asarray(self.alpha0, dtype=float))
        if self.x0.ndim != 1 or self.alpha0.shape != self.x0.shape:
            raise ShapeError("x0 and alpha0 must be equal-length vectors")
        if self.noise_dist not in ("gaussian", "student_t"):
            raise ConfigError(f"unknown noise distribution {self.noise_dist!r}")
        _scale_factors(self.hyper, self.w_dist)  # raises for an unknown w_dist
        if self.noise_dist == "student_t" and self.t_dof < 5:
            raise ConfigError("student_t noise requires at least 5 degrees of freedom")
