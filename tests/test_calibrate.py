"""Local-variance calibration by discrepancy ratio."""

import numpy as np
import pytest

from corrobayes import varlearn
from corrobayes.calibrate import (
    calibrate as run_calibration,
    calibrate_candidate,
    calibrate_replicates,
    estimator_study,
    h_curve,
    select_index,
)
from corrobayes.errors import ConfigError
from corrobayes.simulate import draw_dataset
from conftest import make_prior


def test_selection_minimizes_distance_to_unity_with_low_tie_break():
    assert select_index([3.0, 1.2, 0.9, 1.5]) == 2
    assert select_index([1.5, 0.5]) == 0  # exact tie goes to the smaller candidate
    assert select_index([2.0, 1.25, 0.75]) == 1
    assert select_index([7.0]) == 0


def test_calibration_is_deterministic_and_orders_rows_by_grid(topo16, design16):
    grid = (0.0016, 0.0064, 0.0256)
    prior = make_prior(topo16, sigma_r_candidates=grid)
    data = draw_dataset(prior, topo16, design16, seed=2)
    a = run_calibration(prior, topo16, data, seed=5, n_realizations=300)
    b = run_calibration(prior, topo16, data, seed=5, n_realizations=300)
    assert [r.sigma_r for r in a.rows] == list(grid)
    assert [r.h for r in a.rows] == [r.h for r in b.rows]
    assert a.selected_index == b.selected_index
    assert a.selected is a.rows[a.selected_index]


def test_empty_candidate_grid_is_rejected(topo16, design16):
    prior = make_prior(topo16)
    data = draw_dataset(prior, topo16, design16, seed=2)
    object.__setattr__(prior, "sigma_r_candidates", ())
    with pytest.raises(ConfigError):
        run_calibration(prior, topo16, data, seed=1, n_realizations=100)


def test_h_curve_rows_mirror_the_calibration_result(topo16, design16):
    prior = make_prior(topo16, sigma_r_candidates=(0.0064, 0.0256))
    data = draw_dataset(prior, topo16, design16, seed=3)
    result = run_calibration(prior, topo16, data, seed=7, n_realizations=200)
    rows = h_curve(result)
    assert [(r.sigma_r, r.adjusted_mu_wx, r.h) for r in result.rows] == rows


def test_replicate_bands_bracket_the_median_dataset(topo16, design16):
    prior = make_prior(topo16, sigma_r_candidates=(0.0064,))
    data = draw_dataset(prior, topo16, design16, seed=4)
    reps = [draw_dataset(prior, topo16, design16, seed=100 + i) for i in range(12)]
    result = calibrate_replicates(
        prior, topo16, design16.with_values(data.values_vector()), reps,
        seed=9, n_realizations=300,
    )
    row = result.rows[0]
    assert row.h_lo is not None and row.h_hi is not None
    assert row.h_lo <= row.h_hi


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_candidate_call_on_the_pass_seeds_reproduces_the_calibration_rows(topo16, design16):
    grid = (0.0016, 0.0064, 0.0256)
    prior = make_prior(topo16, sigma_r_candidates=grid)
    data = draw_dataset(prior, topo16, design16, seed=2)
    result = run_calibration(prior, topo16, data, seed=5, n_realizations=200)
    scheme = varlearn.build_scheme(data, prior.hyper.lam)
    pass_seeds = np.random.SeedSequence(5).spawn(2)  # learning, rescoring
    for sr, expected in zip(grid, result.rows):
        row, _, _ = calibrate_candidate(
            prior, topo16, data, data.values_vector(), scheme, sr, pass_seeds, 200
        )
        assert row.sigma_r == expected.sigma_r
        assert row.adjusted_mu_wx == pytest.approx(expected.adjusted_mu_wx, rel=1e-12)
        assert row.adjusted_var_wx == pytest.approx(expected.adjusted_var_wx, rel=1e-12)
        assert row.h == pytest.approx(expected.h, rel=1e-9)


def test_replicate_bands_score_against_the_calibration_moments(topo16, design16):
    # the point dataset as its only replicate: both band edges are its H,
    # which must be the H calibrate scored it at
    prior = make_prior(topo16, sigma_r_candidates=(0.0064, 0.0256))
    data = draw_dataset(prior, topo16, design16, seed=4)
    point = run_calibration(prior, topo16, data, seed=9, n_realizations=300)
    bands = calibrate_replicates(prior, topo16, data, [data], seed=9, n_realizations=300)
    for p, b in zip(point.rows, bands.rows):
        assert b.h_lo == b.h_hi == p.h


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
