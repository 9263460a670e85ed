"""Closed forms and quadrature behind the exact moments."""

import math

import numpy as np
import pytest

from corrobayes import quadrature
from corrobayes.system import VarianceHyperprior, draw_variance_scales


def test_ndtr_matches_the_math_module():
    x = np.linspace(-38.0, 38.0, 20001)
    ref = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in x])
    got = quadrature.ndtr(x)
    assert np.abs(got - ref).max() < 1e-13
    # relative accuracy down to Phi(-36.7) ~ 1e-295, below which the value underflows
    tail = (x < 0) & (x > -36.7)
    assert np.max(np.abs(got[tail] / ref[tail] - 1.0)) < 1e-11


def test_gauss_rules_integrate_polynomials_exactly():
    x, w = quadrature.legendre(8, -1.0, 3.0)
    assert w @ x**15 == pytest.approx((3.0**16 - 1.0) / 16.0, rel=1e-13)
    z, v = quadrature.normal_rule(10)
    assert v @ z**18 == pytest.approx(17 * 15 * 13 * 11 * 9 * 7 * 5 * 3, rel=1e-12)
    g, u = quadrature.gamma_rule(6, 0.3)
    # E X^k = shape (shape + 1) ... (shape + k - 1)
    assert u @ g**5 == pytest.approx(0.3 * 1.3 * 2.3 * 3.3 * 4.3, rel=1e-12)


def test_minimum_of_ten_normals_anchors():
    mins = quadrature.min_of_normals(10)
    assert mins.mean == pytest.approx(-1.538753, abs=1e-6)
    assert mins.var == pytest.approx(0.344344, abs=1e-6)
    assert abs(mins.cov(0.0)) < 1e-6
    assert mins.cov(1.0) == pytest.approx(mins.var, abs=1e-9)


def test_one_location_gives_the_correlation_itself():
    mins = quadrature.min_of_normals(1)
    rho = np.linspace(0.0, 1.0, 41)
    assert abs(mins.mean) < 1e-9 and mins.var == pytest.approx(1.0, abs=1e-9)
    assert np.abs(mins.cov(rho) - rho).max() < 1e-6


def _plackett_reference(rho, count, n=320, nr=48):
    """Hoeffding's integral of p(u,v)^L - (Q(u)Q(v))^L, with
    p(u,v) = Q(u)Q(v) + int_0^rho phi_2(u,v;r) dr: an independent formula,
    accurate while phi_2 is wide against the grid."""
    u, wu = quadrature.legendre(n, -10.0, 6.0)
    r, wr = quadrature.legendre(nr, 0.0, rho)
    uu, vv = u[:, None], u[None, :]
    indep = np.outer(quadrature.ndtr(-u), quadrature.ndtr(-u))
    p = indep.copy()
    for ri, wi in zip(r, wr):
        d = 1.0 - ri * ri
        p += wi * np.exp(-(uu * uu - 2.0 * ri * uu * vv + vv * vv) / (2.0 * d)) / (
            2.0 * math.pi * math.sqrt(d)
        )
    return wu @ (p**count - indep**count) @ wu


def test_g_l_agrees_with_an_independent_integral_at_moderate_correlation():
    mins = quadrature.min_of_normals(10)
    for rho in (0.5, 0.9):
        assert abs(mins.cov(rho) - _plackett_reference(rho, 10)) < 1e-6, rho


def test_g_l_table_agrees_with_a_high_resolution_evaluation(monkeypatch):
    rho = np.array([0.5, 0.9, 0.98, 0.995, 0.9999])
    mins = quadrature.min_of_normals(10)
    monkeypatch.setattr(quadrature, "_D_GRID", ((160, -9.0, 5.0), (120, 0.0, 9.0), (120, 0.0, 9.0)))
    fine = mins.var - 0.5 * quadrature._gap_square(10, np.sqrt(1.0 - rho))
    assert np.abs(mins.cov(rho) - fine).max() < 1e-6
    # g_L(rho) = g_L(1) - (1 - rho) + O((1 - rho)^(3/2)) near one
    assert fine[-1] == pytest.approx(mins.var - 1e-4, abs=2e-6)


@pytest.mark.parametrize("w_dist", ["gamma", "lognormal", "gaussian"])
def test_scale_moments_match_a_large_draw(w_dist):
    hyper = VarianceHyperprior(0.01, 1e-3, 5e-4, 0.02)
    w, _ = draw_variance_scales(hyper, 2, np.random.default_rng(5), w_dist, size=400_000)
    mean, pair = quadrature.scale_moments(hyper, w_dist)
    root = np.sqrt(w[:, 0] * w[:, 1])
    se = (w[:, 0].std() / math.sqrt(len(w)), root.std() / math.sqrt(len(w)))
    assert abs(w[:, 0].mean() - mean) < 4 * se[0]
    assert abs(root.mean() - pair) < 4 * se[1]
    scales, weights = quadrature.scale_nodes(hyper, w_dist)
    assert weights.sum() == pytest.approx(1.0, rel=1e-9)
    assert weights @ scales == pytest.approx(mean, rel=1e-6)


def test_fixed_scales_have_one_node():
    hyper = VarianceHyperprior(0.02, 0.0, 0.0, 0.02)
    assert quadrature.scale_moments(hyper, "gamma") == (0.02, 0.02)
    scales, weights = quadrature.scale_nodes(hyper, "gamma")
    assert scales.tolist() == [0.02] and weights.tolist() == [1.0]
