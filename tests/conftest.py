"""Shared fixtures: small systems, priors, and design helpers."""

import numpy as np
import pytest

from corrobayes import designs
from corrobayes.system import (
    CorrelationParams,
    PriorSpecification,
    VarianceHyperprior,
)

APPENDIX_HYPER = dict(mu_wx=0.01, sigma_wx=1e-3, gamma_wx=5e-4, lam=0.02)
APPENDIX_CORR = dict(rho0=0.2, rhoC=0.5, rhoD=0.3)


def make_prior(topology, **overrides):
    """Reference priors sized to the given topology, overridable per test."""
    n = topology.component_count
    kwargs = dict(
        hyper=VarianceHyperprior(**APPENDIX_HYPER),
        corr=CorrelationParams(**APPENDIX_CORR),
        sigma_y=0.0256,
        sigma_r=0.08**2,
        x0=np.full(n, 12.0),
        alpha0=np.full(n, -0.01),
    )
    hyper_keys = {"mu_wx", "sigma_wx", "gamma_wx", "lam"}
    hk = {k: overrides.pop(k) for k in list(overrides) if k in hyper_keys}
    if hk:
        merged = dict(APPENDIX_HYPER)
        merged.update(hk)
        kwargs["hyper"] = VarianceHyperprior(**merged)
    corr_keys = {"rho0", "rhoC", "rhoD", "nu"}
    ck = {k: overrides.pop(k) for k in list(overrides) if k in corr_keys}
    if ck:
        merged = dict(APPENDIX_CORR)
        merged.update(ck)
        kwargs["corr"] = CorrelationParams(**merged)
    kwargs.update(overrides)
    return PriorSpecification(**kwargs)


def small_irregular_design(topology, horizon=40, visits=4):
    """Deterministic mildly irregular visits for every component."""
    times = {
        c: sorted({int(round(t)) for t in np.linspace(1 + (i % 4), horizon - (i % 3), visits)})
        for i, c in enumerate(topology.components)
    }
    return designs.design_from_times(times, horizon)


@pytest.fixture
def topo16():
    return designs.four_circuit_topology(16, 4)


@pytest.fixture
def topo8():
    return designs.four_circuit_topology(8, 2)


@pytest.fixture
def design16(topo16):
    return small_irregular_design(topo16)


@pytest.fixture
def prior16(topo16):
    return make_prior(topo16)


@pytest.fixture
def decompositions(monkeypatch):
    """Sizes of the matrices passed to np.linalg.eigh / eigvalsh while the
    test runs, in call order."""
    sizes = []
    for name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, name)

        def counted(a, *args, _orig=orig, **kwargs):
            sizes.append(np.shape(a)[-1])
            return _orig(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return sizes
