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

    def index_of(self, component) -> int:
        try:
            return self.components.index(component)
        except ValueError:
            raise ConfigError(f"unknown component {component}") from None

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

    def scaled(self, factor: float) -> "VarianceHyperprior":
        """Hyperprior for a variance whose mean is scaled by ``factor``."""
        return replace(
            self,
            mu_wx=self.mu_wx * factor,
            sigma_wx=self.sigma_wx * factor**2,
            gamma_wx=self.gamma_wx * factor**2,
        )

    def with_mean(self, mu: float) -> "VarianceHyperprior":
        return replace(self, mu_wx=float(mu))


def _matched_lognormal(rng, mean: float, var: float, size=None):
    """Lognormal draw with the requested mean and variance (var=0 -> constant)."""
    if var <= 0:
        return np.full(size, mean) if size is not None else mean
    s2 = math.log1p(var / mean**2)
    mu_ln = math.log(mean) - 0.5 * s2
    return rng.lognormal(mu_ln, math.sqrt(s2), size)


def _matched_gamma(rng, mean: float, var: float, size=None):
    """Gamma draw with the requested mean and variance (var=0 -> constant)."""
    if var <= 0:
        return np.full(size, mean) if size is not None else mean
    shape = mean * mean / var
    return rng.gamma(shape, var / mean, size)


def draw_variance_scales(
    hyper: VarianceHyperprior,
    n_components: int,
    rng: np.random.Generator,
    w_dist: str = "gamma",
    floor: float = VARIANCE_FLOOR,
    fixed_mean: float | None = None,
):
    """Draw the population mean M(W) and per-component variances W_c.

    Returns (w, m) with w the length-C vector of variances and m the drawn
    population mean.  "gamma" (default) and "lognormal" draw M from a
    moment-matched distribution and each W_c = M * U_c with U_c matched to
    mean 1 and relative variance
    v = (sigma_wx - gamma_wx) / (gamma_wx + mu_wx^2), so that
    E(W_c) = mu_wx, var(W_c) = sigma_wx and cov(W_c, W_c') = gamma_wx hold
    exactly while every draw stays positive without flooring (the residual
    scales with the drawn mean, keeping conditional tails moderate).  Gamma
    is the default because at the large coefficients of variation typical of
    variance hyperpriors the matched lognormal has an enormous kurtosis,
    which makes ensemble moment estimates converge very slowly.
    "gaussian" uses additive normal draws truncated at the floor (which
    biases E(W_c) upward when the hypervariances are large relative to
    mu_wx^2).

    ``fixed_mean`` pins the population mean at a known value instead of
    drawing it (used when generating data from a known truth); the
    per-component draws around it are unchanged.
    """
    mu, sig, gam = hyper.mu_wx, hyper.sigma_wx, hyper.gamma_wx
    res_var = max(sig - gam, 0.0)
    if w_dist in ("lognormal", "gamma"):
        draw = _matched_lognormal if w_dist == "lognormal" else _matched_gamma
        if fixed_mean is not None:
            m = float(fixed_mean)
        else:
            m = float(draw(rng, mu, gam))
        rel_var = res_var / (gam + mu * mu)
        if rel_var > 0:
            w = m * draw(rng, 1.0, rel_var, n_components)
        else:
            w = np.full(n_components, m)
    elif w_dist == "gaussian":
        if fixed_mean is not None:
            m = float(fixed_mean)
        else:
            m = mu + (math.sqrt(gam) * rng.standard_normal() if gam > 0 else 0.0)
        resid = math.sqrt(res_var) * rng.standard_normal(n_components) if res_var > 0 else np.zeros(n_components)
        w = m + resid
    else:
        raise ConfigError(f"unknown variance draw distribution {w_dist!r}")
    return np.maximum(w, floor), m


def scales_to_covariance(w: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """S[c,c'] = sqrt(W_c) sqrt(W_c') Pi[c,c']."""
    root = np.sqrt(w)
    return np.outer(root, root) * pi


def sample_variance_matrices(
    hyper: VarianceHyperprior,
    pi: np.ndarray,
    rng: np.random.Generator,
    w_dist: str = "gamma",
    floor: float = VARIANCE_FLOOR,
):
    """Draw one (S_X, S_alpha) pair of evolution covariance matrices.

    Slope-variance scales are the level scales multiplied by the fixed ratio
    lam (the variance-learning identities require the two to move together);
    both matrices share the correlation Pi.
    """
    n = pi.shape[0]
    w_x, _ = draw_variance_scales(hyper, n, rng, w_dist, floor)
    return scales_to_covariance(w_x, pi), scales_to_covariance(hyper.lam * w_x, pi)


def default_candidate_grid(mu_wx: float, size: int = 12) -> tuple:
    """Log-spaced local-variance candidates spanning [mu_wx/25, 25*mu_wx]."""
    return tuple(np.geomspace(mu_wx / 25.0, mu_wx * 25.0, size))


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
    """Everything the pipeline needs to simulate and adjust.

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
    ensemble_size: int = 1000
    critical_thickness: float = 4.0
    rng_seed: int = 0
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
        if self.ensemble_size < 2:
            raise ConfigError("ensemble_size must be at least 2")
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
        if self.noise_dist == "student_t" and self.t_dof < 5:
            raise ConfigError("student_t noise requires at least 5 degrees of freedom")
