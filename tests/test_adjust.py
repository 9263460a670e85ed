"""Mean adjustment of targets, paired comparison, and remnant life."""

import numpy as np
import pytest

from corrobayes import designs
from corrobayes.adjust import (
    _first_crossing,
    adjust_from_moments,
    compare_with_without_variance_learning,
    remnant_life,
)
from corrobayes.simulate import draw_dataset, estimate_moments, forecast_extend
from conftest import make_prior, small_irregular_design


def _zmin_targets(topology, horizon):
    return [("zmin", c, t) for c in topology.components for t in range(1, horizon + 1)]


def test_adjustment_reduces_variance_and_tracks_the_data(topo16, design16, prior16):
    data = draw_dataset(prior16, topo16, design16, seed=1)
    targets = [("x", c, design16.horizon) for c in topo16.components]
    mom = estimate_moments(prior16, topo16, data, targets, n_realizations=1500, seed=2)
    beliefs = adjust_from_moments(mom, data)
    for row in beliefs.rows:
        assert row.adjusted_var <= row.prior_var + 1e-12
        assert np.isfinite(row.adjusted_mean)


def test_empty_dataset_leaves_targets_at_their_priors(topo16, prior16):
    empty = designs.design_from_times({}, 20)
    targets = [("zmin", topo16.components[0], 20)]
    mom = estimate_moments(
        prior16, topo16, empty, targets, n_realizations=300, seed=3, allow_empty_design=True
    )
    beliefs = adjust_from_moments(mom, empty, np.zeros(0))
    (row,) = beliefs.rows
    assert row.adjusted_mean == row.prior_mean
    assert row.adjusted_var == row.prior_var


def test_uncorrelated_unobserved_components_stay_at_their_priors(topo16):
    # with the between-component correlation switched off, data on one
    # component carries no information about another
    # hypervariances kept small: with a heavy-tailed scale mixture the Monte
    # Carlo cross-covariance between unrelated components converges slowly
    prior = make_prior(topo16, rho0=0.0, rhoC=0.0, rhoD=0.0,
                       sigma_wx=2e-5, gamma_wx=1e-5)
    observed = topo16.components[0]
    other = topo16.components[9]
    design = designs.design_from_times({observed: [5, 10, 15, 20]}, 20)
    data = draw_dataset(prior, topo16, design, seed=4)
    targets = [("x", other, 20), ("alpha", other, 20)]
    mom = estimate_moments(prior, topo16, data, targets, n_realizations=4000, seed=5)
    beliefs = adjust_from_moments(mom, data)
    for row in beliefs.rows:
        shift = abs(row.adjusted_mean - row.prior_mean)
        assert shift < 0.1 * np.sqrt(row.prior_var)
        assert row.prior_var - row.adjusted_var < 0.02 * row.prior_var


def test_more_observations_never_inflate_adjusted_variance(topo16, prior16):
    base_times = {c: [10, 20, 30] for c in topo16.components[:4]}
    more_times = {c: [5, 10, 20, 30, 38] for c in topo16.components[:4]}
    d_small = designs.design_from_times(base_times, 40)
    d_big = designs.design_from_times(more_times, 40)
    data_big = draw_dataset(prior16, topo16, d_big, seed=6)
    big_vals = dict(zip(d_big.design_points(), data_big.values_vector()))
    data_small = d_small.with_values(
        np.array([big_vals[p] for p in d_small.design_points()])
    )
    targets = [("x", topo16.components[0], 40)]
    # common random numbers: same seed for both moment estimations
    b_small, b_big = (
        adjust_from_moments(
            estimate_moments(prior16, topo16, data, targets, n_realizations=4000, seed=7), data
        )
        for data in (data_small, data_big)
    )
    v_small = b_small.rows[0].adjusted_var
    v_big = b_big.rows[0].adjusted_var
    mc_se = 3.0 * v_small / np.sqrt(4000)
    assert v_big <= v_small + mc_se


def test_first_crossing_interpolates_linearly():
    times = np.array([1.0, 2.0, 3.0, 4.0])
    values = np.array([10.0, 8.0, 6.0, 4.0])
    assert _first_crossing(times, values, 7.0) == pytest.approx(2.5)
    assert _first_crossing(times, values, 11.0) == 1.0
    assert _first_crossing(times, values, 3.0) is None


def test_first_crossing_agrees_between_monthly_and_refined_grids():
    rng = np.random.default_rng(8)
    for _ in range(20):
        a, b = 12.0, -rng.uniform(0.05, 0.3)
        months = np.arange(1.0, 101.0)
        weekly = np.arange(1.0, 100.01, 0.25)
        curve = lambda t: a + b * t + 0.3 * np.sin(t / 17.0)
        cm = _first_crossing(months, curve(months), 4.0)
        cw = _first_crossing(weekly, curve(weekly), 4.0)
        if cm is None or cw is None:
            assert cm is None and cw is None
            continue
        assert abs(cm - cw) < 1.0


def test_remnant_life_reports_band_and_mean_crossings(topo16):
    prior = make_prior(topo16, alpha0=np.full(16, -0.12))
    design = small_irregular_design(topo16, horizon=30)
    data = draw_dataset(prior, topo16, design, seed=9)
    ext = forecast_extend(data, 60)
    targets = _zmin_targets(topo16, ext.horizon)
    mom = estimate_moments(prior, topo16, ext, targets, n_realizations=500, seed=10)
    beliefs = adjust_from_moments(mom, ext)
    life = remnant_life(beliefs, critical=4.0)
    assert len(life.per_component) == 16
    for cl in life.per_component:
        # wider uncertainty crosses sooner: lower band <= mean <= upper band
        if cl.lower_band_crossing is not None and cl.mean_crossing is not None:
            assert cl.lower_band_crossing <= cl.mean_crossing + 1e-9
        if cl.mean_crossing is not None and cl.upper_band_crossing is not None:
            assert cl.mean_crossing <= cl.upper_band_crossing + 1e-9


def test_comparison_runs_both_branches_on_shared_targets(topo16, design16):
    grid = (0.0016, 0.0064, 0.0256)
    prior = make_prior(topo16, sigma_r_candidates=grid)
    data = draw_dataset(prior, topo16, design16, seed=11)
    targets = [("zmin", c, design16.horizon) for c in topo16.components]
    cmp_ = compare_with_without_variance_learning(
        prior, topo16, design16.with_values(data.values_vector()),
        data.values_vector(), targets, seed=12, n_realizations=300,
    )
    assert cmp_.calibration.selected.sigma_r in grid
    kinds_wo = [(r.kind, r.component, r.time) for r in cmp_.without_learning.rows]
    kinds_wl = [(r.kind, r.component, r.time) for r in cmp_.with_learning.rows]
    assert kinds_wo == kinds_wl
    assert cmp_.life_with is not None and cmp_.life_without is not None


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_both_branches_equal_their_one_law_adjustments_bit_for_bit(topo16, design16):
    prior = make_prior(topo16, sigma_r_candidates=(0.0016, 0.0064, 0.0256))
    data = draw_dataset(prior, topo16, design16, seed=11)
    ext = forecast_extend(data, 6)
    targets = _zmin_targets(topo16, ext.horizon)
    targets += [(kind, c, ext.horizon) for kind in ("alpha", "x") for c in topo16.components]
    observed = data.values_vector()
    cmp_ = compare_with_without_variance_learning(
        prior, topo16, ext, observed, targets, seed=12, n_realizations=300,
    )
    selected = cmp_.calibration.selected
    branches = (
        (cmp_.without_learning, prior.sigma_r, prior.hyper.mu_wx),
        (cmp_.with_learning, selected.sigma_r, selected.adjusted_mu_wx),
    )
    for branch, sigma_r, mu_wx in branches:
        mom = estimate_moments(
            prior, topo16, ext, targets, n_realizations=300, seed=12,
            sigma_r=sigma_r, mu_wx=mu_wx, store_target_samples=branch is cmp_.without_learning,
        )
        one = adjust_from_moments(mom, ext, observed)
        assert [(r.adjusted_mean, r.adjusted_var) for r in branch.rows] == [
            (r.adjusted_mean, r.adjusted_var) for r in one.rows
        ]
        assert branch.blocks.keys() == one.blocks.keys() == {"zmin", "alpha", "x"}
        for kind, g in one.blocks.items():
            assert np.array_equal(branch.blocks[kind], g), kind
        # the prior band's samples are kept for the without-learning branch only
        assert np.array_equal(branch.moments.target_samples, one.moments.target_samples)
