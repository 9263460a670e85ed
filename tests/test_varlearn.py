"""Variance learning: difference scheme, Dbar statistic, and the scalar
Bayes linear adjustment of the population mean evolution variance."""

import warnings

import numpy as np
import pytest

from corrobayes import designs, varlearn
from corrobayes.errors import InsufficientDataError, ShapeError
from corrobayes.simulate import draw_dataset, estimate_moments, exact_dbar_moments
from corrobayes.system import InspectionDataset, InspectionRecord
from conftest import make_prior


def test_lag_weight_reduces_to_regular_inspection_coefficient():
    lam = 0.02
    assert varlearn.lag_weight(1, 2, lam) == pytest.approx(lam + 2.0)


def test_lag_weight_is_positive_for_all_valid_lags():
    for lam in (0.001, 0.02, 0.5):
        for k in range(1, 30):
            for l in range(k + 1, 60):
                assert varlearn.lag_weight(k, l, lam) > 0.0


def test_lag_weight_matches_direct_variance_of_the_combination():
    # brute force: variance of k*(Y_t - Y_{t-l}) - l*(Y_t - Y_{t-k}) for a
    # pure random-walk-with-random-slope trajectory with unit evolution
    # variance, computed by Monte Carlo over exact Gaussian increments
    rng = np.random.default_rng(0)
    lam = 0.05
    reps = 200000
    for k, l in ((1, 2), (2, 5), (3, 4)):
        t = l + 1
        eps_a = np.sqrt(lam) * rng.standard_normal((reps, t))
        eps_x = rng.standard_normal((reps, t))
        alpha = np.cumsum(eps_a, axis=1)
        x = np.cumsum(alpha + eps_x, axis=1)
        comb = k * (x[:, -1] - x[:, -1 - l]) - l * (x[:, -1] - x[:, -1 - k])
        var = comb.var(ddof=1)
        assert var == pytest.approx(varlearn.lag_weight(k, l, lam), rel=0.02)


def test_scheme_collects_lags_and_skips_sparse_components():
    ds = InspectionDataset(
        (
            InspectionRecord("a", 2), InspectionRecord("a", 4), InspectionRecord("a", 9),
            InspectionRecord("b", 1), InspectionRecord("b", 5),
            InspectionRecord("c", 3),
        ),
        horizon=10,
    )
    scheme = varlearn.build_scheme(ds, 0.02)
    assert scheme.components == ("a",)
    assert scheme.skipped == ("b", "c")
    (entry,) = scheme.entries
    assert (entry.k, entry.l) == (5, 7)
    assert entry.weight == pytest.approx(varlearn.lag_weight(5, 7, 0.02))


def test_affine_trajectories_are_annihilated():
    # a noise-free line x0 + a*t contributes exactly zero to every term
    times = [1, 4, 9, 17, 30]
    ds = InspectionDataset(
        tuple(InspectionRecord("c", t, 12.0 - 0.3 * t) for t in times), horizon=30
    )
    scheme = varlearn.build_scheme(ds, 0.02)
    dbar = varlearn.compute_dbar(ds, scheme)
    assert np.all(np.abs(dbar) <= 1e-18 * 12.0**2)


def test_regular_inspection_terms_equal_the_explicit_second_difference():
    rng = np.random.default_rng(5)
    times = list(range(1, 11))
    values = rng.standard_normal(len(times)).cumsum() + 12.0
    ds = InspectionDataset(
        tuple(InspectionRecord("c", t, v) for t, v in zip(times, values)), horizon=10
    )
    lam = 0.02
    scheme = varlearn.build_scheme(ds, lam)
    assert all(e.k == 1 and e.l == 2 for e in scheme.entries)
    (terms,) = scheme.terms(ds.values_vector()[None, :])
    explicit = np.array(
        [(values[i] - 2 * values[i - 1] + values[i - 2]) ** 2 for i in range(2, len(values))]
    )
    assert np.array_equal(terms, explicit / scheme.weight)
    assert scheme.weight == pytest.approx(lam + 2.0, rel=1e-12)


def test_a_scheme_refuses_rows_of_another_design(topo16, design16, prior16):
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    data = draw_dataset(prior16, topo16, design16, seed=1)
    # one of the scheme's points missing, and one point the scheme lacks
    fewer = InspectionDataset(data.records[:-1], data.horizon)
    extra = InspectionDataset(
        data.records + (InspectionRecord(topo16.components[-1], 1, 12.0),), data.horizon
    )
    assert (topo16.components[-1], 1) not in design16.design_points()
    for other in (fewer, extra):
        with pytest.raises(ShapeError):
            varlearn.compute_dbar(other, scheme)
        with pytest.raises(ShapeError):
            exact_dbar_moments(
                prior16, topo16, other, [(prior16.sigma_r, prior16.hyper.mu_wx)], scheme,
                n_realizations=10, seed=0,
            )
        with pytest.raises(ShapeError):
            estimate_moments(prior16, topo16, other, n_realizations=10, seed=0, scheme=scheme)


def test_expected_term_without_local_noise_is_the_weighted_variance():
    lam, mu = 0.02, 0.01
    entry = varlearn.SchemeEntry("c", 3, 2, 1, 1, 2, varlearn.lag_weight(1, 2, lam))
    raw = varlearn.entry_expectation(entry, mu, 0.0, 0.0, 0.0, normalized=False)
    assert raw == pytest.approx((lam + 2.0) * mu, rel=1e-12)
    normalized = varlearn.entry_expectation(entry, mu, 0.0, 0.0, 0.0)
    assert normalized == pytest.approx(mu, rel=1e-12)


def test_expected_dbar_equals_the_per_entry_loop(topo16, design16, prior16):
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    mom = estimate_moments(
        prior16, topo16, design16, n_realizations=100, seed=2, scheme=scheme
    )
    idx = scheme.component_index()
    loop = np.zeros(len(scheme.components))
    for e, m1, m2, m12 in zip(scheme.entries, mom.m1_sq, mom.m2_sq, mom.m1m2):
        loop[idx[e.component]] += varlearn.entry_expectation(e, mom.e_w, m1, m2, m12)
    assert np.array_equal(varlearn.expected_dbar(scheme, mom), loop)


def test_expected_dbar_requires_entry_aligned_moments(topo16, design16, prior16):
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)

    class Bad:
        m1_sq = np.zeros(3)
        m2_sq = np.zeros(3)
        m1m2 = np.zeros(3)

    with pytest.raises(ShapeError):
        varlearn.expected_dbar(scheme, Bad())


def test_cross_covariance_equals_tc_minus_two_gamma(topo16, design16, prior16):
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    mom = estimate_moments(
        prior16, topo16, design16, n_realizations=400, seed=3, scheme=scheme
    )
    dbar = varlearn.build_dbar_statistic(_filled(design16), scheme, prior16.hyper, mom)
    tc = np.array([scheme.t_counts[c] for c in scheme.components])
    assert np.allclose(dbar.cross_cov, (tc - 2) * prior16.hyper.gamma_wx)


def _filled(design):
    return design.with_values(np.full(len(design.records), 10.0))


def test_statistic_requires_at_least_one_learnable_component(topo16, prior16):
    ds = designs.design_from_times({topo16.components[0]: [1, 5]}, 10)
    scheme = varlearn.build_scheme(ds, prior16.hyper.lam)
    with pytest.raises(InsufficientDataError):
        varlearn.build_dbar_statistic(_filled(ds), scheme, prior16.hyper, None)


def test_adjustment_moves_toward_the_data_and_reduces_variance(topo16, design16, prior16):
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    mom = estimate_moments(
        prior16, topo16, design16, n_realizations=2000, seed=4, scheme=scheme
    )
    # data drawn with a larger true variance should push the estimate up
    data = draw_dataset(
        prior16, topo16, design16, seed=5, mu_wx=4 * prior16.hyper.mu_wx, fix_scales=True
    )
    dbar = varlearn.build_dbar_statistic(data, scheme, prior16.hyper, mom)
    mean, var = varlearn.adjust_wx(dbar, prior16.hyper)
    assert mean > prior16.hyper.mu_wx
    assert var < prior16.hyper.gamma_wx


def test_negative_adjusted_estimates_are_floored_with_a_warning(topo16, design16, prior16):
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    mom = estimate_moments(
        prior16, topo16, design16, n_realizations=800, seed=6, scheme=scheme
    )
    # a constant dataset has zero second differences, far below expectation
    data = _filled(design16)
    dbar = varlearn.build_dbar_statistic(data, scheme, prior16.hyper, mom)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        mean, _ = varlearn.adjust_wx(dbar, prior16.hyper)
    assert mean >= 1e-12
    assert any("floored" in str(w.message) for w in caught)


def test_estimator_mean_close_to_truth_over_replicates(topo16, design16, prior16):
    from corrobayes.calibrate import estimator_study

    study = estimator_study(
        prior16, topo16, design16,
        true_mu_wx=prior16.hyper.mu_wx, true_sigma_r=prior16.sigma_r,
        replicates=50, seed=8, n_realizations=1500,
    )
    assert abs(study.mean - prior16.hyper.mu_wx) < 0.15 * prior16.hyper.mu_wx


def test_adjustment_factors_the_dbar_variance_once(topo16, design16, prior16, decompositions):
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    mom = estimate_moments(
        prior16, topo16, design16, n_realizations=400, seed=3, scheme=scheme
    )
    data = draw_dataset(prior16, topo16, design16, seed=5)
    dbar = varlearn.build_dbar_statistic(data, scheme, prior16.hyper, mom)
    decompositions.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        varlearn.adjust_wx(dbar, prior16.hyper)
    # the scalar prior variance is certified; var(Dbar) is certified and its
    # root built once
    n = len(scheme.components)
    assert decompositions == [1, n, n]
