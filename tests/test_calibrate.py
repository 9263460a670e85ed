"""Local-variance calibration by discrepancy ratio."""

import importlib
import tracemalloc
import warnings

import numpy as np
import pytest

from corrobayes import designs, linalg, simulate, varlearn
from corrobayes.calibrate import (
    _sorted_quantile,
    calibrate as run_calibration,
    calibrate_candidate,
    estimator_study,
    select_index,
)
from corrobayes.errors import ConfigError, InsufficientDataError
from corrobayes.simulate import _as_seedseq, draw_dataset
from conftest import make_prior


def test_selection_minimizes_distance_to_unity_with_low_tie_break():
    assert select_index([3.0, 1.2, 0.9, 1.5]) == 2
    assert select_index([1.5, 0.5]) == 0  # exact tie goes to the smaller candidate
    assert select_index([2.0, 1.25, 0.75]) == 1
    assert select_index([7.0]) == 0


def test_calibration_is_deterministic_and_orders_rows_by_grid(topo16, design16, monkeypatch):
    grid = (0.0016, 0.0064, 0.0256)
    prior = make_prior(topo16, sigma_r_candidates=grid)
    data = draw_dataset(prior, topo16, design16, seed=2)
    dbar_calls = []
    compute_dbar = varlearn.compute_dbar
    monkeypatch.setattr(
        varlearn, "compute_dbar", lambda *a: dbar_calls.append(1) or compute_dbar(*a)
    )
    a = run_calibration(prior, topo16, data, seed=5, n_realizations=300)
    b = run_calibration(prior, topo16, data, seed=5, n_realizations=300)
    assert len(dbar_calls) == 2  # the observed Dbar once per calibration, not per candidate
    assert [r.sigma_r for r in a.rows] == list(grid)
    assert [r.h for r in a.rows] == [r.h for r in b.rows]
    assert a.selected_index == b.selected_index
    assert a.selected is a.rows[a.selected_index]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_the_calibration_peak_grows_by_less_than_half_a_var_y_per_added_candidate():
    # one var(Y) of the 174-observation reference design takes 242 KB, and
    # one law's Dbar rows of the minimum at 200 realizations 46 KB.  Scoring
    # every candidate before dropping any adds a var(Y) each once the
    # rescoring pass sets the peak, as it does from 12 candidates on
    topo = designs.four_circuit_topology()
    design = designs.reference_design(topo)
    data = draw_dataset(make_prior(topo), topo, design, seed=7, sigma_r=0.0064, fix_scales=True)
    grid = tuple(0.01 / 25.0 * 625.0 ** (i / 23.0) for i in range(24))
    peaks = []
    for candidates in (grid[::2], grid):
        prior = make_prior(topo, sigma_r_candidates=candidates)
        tracemalloc.start()
        run_calibration(prior, topo, data, seed=3, n_realizations=200)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    var_y = len(design.design_points()) ** 2 * 8
    assert peaks[1] - peaks[0] < 12 * var_y / 2, peaks


def test_empty_candidate_grid_is_rejected(topo16, design16):
    prior = make_prior(topo16)
    data = draw_dataset(prior, topo16, design16, seed=2)
    object.__setattr__(prior, "sigma_r_candidates", ())
    with pytest.raises(ConfigError):
        run_calibration(prior, topo16, data, seed=1, n_realizations=100)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_candidate_call_on_the_pass_seeds_reproduces_the_calibration_rows(topo16, design16):
    grid = (0.0016, 0.0064, 0.0256)
    prior = make_prior(topo16, sigma_r_candidates=grid)
    data = draw_dataset(prior, topo16, design16, seed=2)
    result = run_calibration(prior, topo16, data, seed=5, n_realizations=200)
    scheme = varlearn.build_scheme(data, prior.hyper.lam)
    pass_seeds = np.random.SeedSequence(5).spawn(2)  # learning, rescoring
    for sr, expected in zip(grid, result.rows):
        row = calibrate_candidate(prior, topo16, data, scheme, sr, pass_seeds, 200)
        assert row.sigma_r == expected.sigma_r
        assert row.adjusted_mu_wx == pytest.approx(expected.adjusted_mu_wx, rel=1e-12)
        assert row.adjusted_var_wx == pytest.approx(expected.adjusted_var_wx, rel=1e-12)
        assert row.h == pytest.approx(expected.h, rel=1e-9)


def test_h_scored_against_its_own_generator_averages_one(topo16, design16):
    # data drawn under a candidate and scored against moments simulated
    # under that same candidate: the discrepancy ratio should center on 1
    from corrobayes import diagnostics
    from corrobayes.simulate import estimate_moments

    prior = make_prior(topo16, sigma_wx=2e-5, gamma_wx=1e-5)
    truth = 0.01
    mom = estimate_moments(prior, topo16, design16, n_realizations=3000, seed=11, sigma_r=truth)
    hs = [
        diagnostics.global_discrepancy(
            draw_dataset(prior, topo16, design16, seed=500 + i, sigma_r=truth).values_vector(),
            mom,
        )
        for i in range(50)
    ]
    assert 0.8 <= np.mean(hs) <= 1.2


def test_estimator_study_reports_distribution_summaries(topo16, design16, prior16):
    study = estimator_study(
        prior16, topo16, design16, true_mu_wx=0.01, true_sigma_r=0.01,
        replicates=10, seed=1, n_realizations=400,
    )
    assert study.estimates.shape == (10,)
    assert study.q05 <= study.mean <= study.q95
    with pytest.raises(ConfigError):
        estimator_study(
            prior16, topo16, design16, 0.01, 0.01, replicates=0, seed=1, n_realizations=100
        )


def test_estimator_study_equals_a_per_replicate_reference_loop(
    topo16, design16, prior16, monkeypatch
):
    # a true mu_wx well below the prior mean, under a local variance that
    # swamps it, drives some estimates below the floor
    truth = dict(true_mu_wx=0.0002, true_sigma_r=0.04)
    reps, seed, n = 40, 17, 400
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        study = estimator_study(
            prior16, topo16, design16, **truth, replicates=reps, seed=seed, n_realizations=n
        )
    study_warnings = sum("floored at" in str(w.message) for w in caught)

    hyper = prior16.hyper
    scheme = varlearn.build_scheme(design16, hyper.lam)
    moment_seed, data_seed = _as_seedseq(seed).spawn(2)
    (moments,) = simulate.exact_dbar_moments(
        prior16, topo16, design16, [(truth["true_sigma_r"], hyper.mu_wx)], scheme,
        n_realizations=n, seed=moment_seed,
    )
    prior_pair = linalg.MomentPair([hyper.mu_wx], [[hyper.gamma_wx]])
    data_pair = linalg.MomentPair(varlearn.expected_dbar(scheme, moments), moments.dbar_var)
    cross = np.array([[(scheme.t_counts[c] - 2) * hyper.gamma_wx for c in scheme.components]])
    # replicate i is realization i of the engine at the true law with every
    # W_c held at the truth, here drawn one realization per block
    known = make_prior(topo16, sigma_wx=0.0, gamma_wx=0.0)
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 1)
    ((w_x, _),), blocks = simulate._ensemble(
        known, topo16, simulate._cells(known, topo16, design16),
        [(truth["true_sigma_r"], truth["true_mu_wx"])], reps, data_seed,
    )
    assert np.all(w_x == truth["true_mu_wx"])
    # the engine's rows are minus the prior trend, which the study never adds
    # because Dbar annihilates it; each replicate dataset here gets it back
    comp_idx = {c: i for i, c in enumerate(topo16.components)}
    trend = np.array([
        prior16.x0[comp_idx[c]] + prior16.alpha0[comp_idx[c]] * t
        for c, t in design16.design_points()
    ])
    expected, floor_events = [], 0
    for _, _, (row,), _, _ in blocks:
        dbar = varlearn.compute_dbar(design16.with_values(row + trend), scheme)
        est = float(linalg.adjusted_expectation(prior_pair, data_pair, cross, dbar)[0])
        if est < 1e-12:
            floor_events += 1
            est = 1e-12
        expected.append(est)
    expected = np.array(expected)

    assert len(expected) == reps
    assert 0 < study.floored == np.count_nonzero(expected == 1e-12) < reps
    assert study_warnings == floor_events
    np.testing.assert_allclose(study.estimates, expected, rtol=1e-12, atol=0.0)
    assert np.array_equal(study.estimates == 1e-12, expected == 1e-12)


def test_estimator_study_does_not_depend_on_the_block_size(topo16, design16, prior16, monkeypatch):
    blocks = []
    drawer = simulate._observed_blocks
    monkeypatch.setattr(
        simulate, "_observed_blocks", lambda *a: (blocks.append(1) or b for b in drawer(*a))
    )

    def run():
        blocks.clear()
        estimates = estimator_study(
            prior16, topo16, design16, 0.01, 0.01, replicates=250, seed=31, n_realizations=250
        ).estimates
        return len(blocks), estimates

    n_default, default = run()
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 1)  # one realization per block
    n_single, single = run()
    # the replicates span several blocks by default
    assert 1 < n_default < n_single == 250
    assert np.array_equal(default, single)


def test_estimator_study_without_learnable_components_draws_nothing(topo16, prior16, monkeypatch):
    design = designs.design_from_times({c: [3, 9] for c in topo16.components}, 12)

    def no_draws(*args, **kwargs):
        raise AssertionError("a replicate was drawn")

    # the package exports a function of the same name as the module
    module = importlib.import_module("corrobayes.calibrate")
    monkeypatch.setattr(module, "_ensemble", no_draws)
    monkeypatch.setattr(module, "exact_dbar_moments", no_draws)
    with pytest.raises(InsufficientDataError):
        estimator_study(
            prior16, topo16, design, 0.01, 0.01, replicates=5, seed=1, n_realizations=50
        )


def test_sorted_quantile_equals_numpy_quantile_bit_for_bit():
    rng = np.random.default_rng(0)
    for n in range(1, 1002):
        ordered = np.sort(rng.standard_normal(n) * rng.exponential())
        for q in (0.0, 0.05, 0.5, 0.95, 1.0):
            got, want = _sorted_quantile(ordered, q), float(np.quantile(ordered, q))
            assert got == want and np.signbit(got) == np.signbit(want), (n, q)
