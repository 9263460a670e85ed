"""Mean adjustment of targets, paired comparison, and remnant life."""

import tracemalloc

import numpy as np
import pytest

from corrobayes import adjust, designs, diagnostics, linalg
from corrobayes.adjust import (
    _first_crossings,
    adjust_from_moments,
    compare_with_without_variance_learning,
    remnant_life,
)
from corrobayes.calibrate import calibrate
from corrobayes.errors import ConfigError, ShapeError
from corrobayes.system import InspectionDataset
from corrobayes.simulate import draw_dataset, estimate_moments, exact_moments, forecast_extend
from conftest import make_prior, small_irregular_design
from oracle import reference_update


#: The law of ``make_prior``'s priors.
LAW16 = [(0.08**2, 0.01)]


def _zmin_targets(topology, horizon):
    return [("zmin", c, t) for c in topology.components for t in range(1, horizon + 1)]


def test_adjustment_reduces_variance_and_tracks_the_data(topo16, design16, prior16):
    data = draw_dataset(prior16, topo16, design16, seed=1)
    targets = [("x", c, design16.horizon) for c in topo16.components]
    (mom,) = exact_moments(prior16, topo16, data, LAW16, targets)
    beliefs = adjust_from_moments(mom, data)
    for row in beliefs.rows_for():
        assert row.adjusted_var <= row.prior_var + 1e-12
        assert np.isfinite(row.adjusted_mean)


def test_empty_dataset_leaves_targets_at_their_priors(topo16, prior16):
    empty = designs.design_from_times({}, 20)
    targets = [("zmin", topo16.components[0], 20)]
    (mom,) = exact_moments(prior16, topo16, empty, LAW16, targets)
    beliefs = adjust_from_moments(mom, empty)
    (row,) = beliefs.rows_for()
    assert row.adjusted_mean == row.prior_mean
    assert row.adjusted_var == row.prior_var


def test_the_dataset_must_be_on_the_design_of_its_moments(topo16, design16, prior16):
    data = draw_dataset(prior16, topo16, design16, seed=1)
    targets = [("x", topo16.components[0], design16.horizon)]
    (mom,) = exact_moments(
        prior16, topo16, data, [(prior16.sigma_r, prior16.hyper.mu_wx)], targets
    )
    fewer = InspectionDataset(data.records[:-1], data.horizon)
    with pytest.raises(ShapeError, match="design"):
        adjust_from_moments(mom, fewer)
    # an ensemble's moments carry no target rows to adjust with
    with pytest.raises(ConfigError, match="exact moments"):
        adjust_from_moments(estimate_moments(prior16, topo16, data, n_realizations=20), data)


def test_uncorrelated_unobserved_components_stay_at_their_priors(topo16):
    # with the between-component correlation switched off, data on one
    # component carries no information about another
    prior = make_prior(topo16, rho0=0.0, rhoC=0.0, rhoD=0.0,
                       sigma_wx=2e-5, gamma_wx=1e-5)
    observed = topo16.components[0]
    other = topo16.components[9]
    design = designs.design_from_times({observed: [5, 10, 15, 20]}, 20)
    data = draw_dataset(prior, topo16, design, seed=4)
    targets = [("x", other, 20), ("alpha", other, 20)]
    (mom,) = exact_moments(prior, topo16, data, [(prior.sigma_r, prior.hyper.mu_wx)], targets)
    beliefs = adjust_from_moments(mom, data)
    for row in beliefs.rows_for():
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
    b_small, b_big = (
        adjust_from_moments(next(exact_moments(prior16, topo16, data, LAW16, targets)), data)
        for data in (data_small, data_big)
    )
    v_small = b_small.adjusted_var[0]
    v_big = b_big.adjusted_var[0]
    assert v_big <= v_small * (1.0 + 1e-12)


def test_first_crossing_interpolates_linearly():
    # three runs in one call: crossing inside, at the first month, never
    times = np.tile([1.0, 2.0, 3.0, 4.0], 3)
    values = np.array([10.0, 8.0, 6.0, 4.0, 6.0, 4.0, 2.0, 0.0, 14.0, 12.0, 10.0, 8.0])
    at, found = _first_crossings(times, values, np.array([0, 4, 8]), 7.0)
    assert found.tolist() == [True, True, False]
    assert at[:2].tolist() == [pytest.approx(2.5), 1.0]


def test_first_crossing_agrees_between_monthly_and_refined_grids():
    rng = np.random.default_rng(8)
    curves = [(12.0, -rng.uniform(0.05, 0.3)) for _ in range(20)]
    crossings = []
    for grid in (np.arange(1.0, 101.0), np.arange(1.0, 100.01, 0.25)):
        values = np.concatenate([a + b * grid + 0.3 * np.sin(grid / 17.0) for a, b in curves])
        starts = np.arange(len(curves)) * len(grid)
        crossings.append(_first_crossings(np.tile(grid, len(curves)), values, starts, 4.0))
    (cm, found_m), (cw, found_w) = crossings
    assert np.array_equal(found_m, found_w)
    assert np.all(np.abs(cm - cw)[found_m] < 1.0)


def test_remnant_life_reports_band_and_mean_crossings(topo16):
    prior = make_prior(topo16, alpha0=np.full(16, -0.12))
    design = small_irregular_design(topo16, horizon=30)
    data = draw_dataset(prior, topo16, design, seed=9)
    ext = forecast_extend(data, 60)
    targets = _zmin_targets(topo16, ext.horizon)
    (mom,) = exact_moments(prior, topo16, ext, [(prior.sigma_r, prior.hyper.mu_wx)], targets)
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
    kinds_wo = [(r.kind, r.component, r.time) for r in cmp_.without_learning.rows_for()]
    kinds_wl = [(r.kind, r.component, r.time) for r in cmp_.with_learning.rows_for()]
    assert kinds_wo == kinds_wl == targets
    assert cmp_.life_with is not None and cmp_.life_without is not None


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_given_observed_vector_equals_the_dataset_holding_it_bit_for_bit(topo16, design16):
    prior = make_prior(topo16, sigma_r_candidates=(0.0016, 0.0064, 0.0256))
    data = draw_dataset(prior, topo16, design16, seed=11)
    y2 = data.values_vector() + 0.3 * np.random.default_rng(0).standard_normal(len(data.records))
    targets = _zmin_targets(topo16, design16.horizon)[:40]
    targets += [("alpha", c, design16.horizon) for c in topo16.components]
    given, held = (
        compare_with_without_variance_learning(
            prior, topo16, *args, targets, seed=12, n_realizations=100
        )
        for args in ((data, y2), (data.with_values(y2), None))
    )
    assert given.calibration.selected_index == held.calibration.selected_index
    assert given.calibration.rows == held.calibration.rows  # learned mu_wx, var_wx and H
    for branch in ("without_learning", "with_learning"):
        one, other = getattr(given, branch), getattr(held, branch)
        for field in ("adjusted_mean", "adjusted_var", "prior_mean", "prior_var"):
            assert np.array_equal(getattr(one, field), getattr(other, field)), (branch, field)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_remnant_life_of_zmin_targets_off_a_monthly_grid_raises(topo16, design16):
    prior = make_prior(topo16, sigma_r_candidates=(0.0016, 0.0064))
    data = draw_dataset(prior, topo16, design16, seed=11)
    targets = [("zmin", c, t) for c in topo16.components[:2] for t in (1, 3)]
    cmp_ = compare_with_without_variance_learning(
        prior, topo16, data, targets=targets, seed=12, n_realizations=100,
    )
    with pytest.raises(ShapeError, match="contiguous monthly grid"):
        cmp_.life_with
    with pytest.raises(ShapeError, match="contiguous monthly grid"):
        cmp_.life_without


def test_kind_blocks_are_the_rows_of_g_for_contiguous_and_interleaved_kinds(
    topo16, design16, prior16
):
    data = draw_dataset(prior16, topo16, design16, seed=1)
    comps, last = topo16.components[:3], design16.horizon
    contiguous = [(kind, c, last) for kind in ("zmin", "alpha", "x") for c in comps]
    interleaved = [(kind, c, last) for c in comps for kind in ("zmin", "alpha", "x")]
    # 640 zmin rows against 64 observations: held as their Gram matrix
    tall = _zmin_targets(topo16, last) + [("x", c, last) for c in comps]
    for targets in (contiguous, interleaved, tall):
        (mom,) = exact_moments(prior16, topo16, data, LAW16, targets)
        beliefs = adjust_from_moments(mom, data)
        g = mom.target_moments().cov_targets @ mom.y_moment_pair().factor.root
        kinds = np.array([kind for kind, _, _ in targets])
        assert list(beliefs.kind_rows) == list(dict.fromkeys(kinds.tolist()))
        for kind, held in beliefs.kind_rows.items():
            rows = g[kinds == kind]
            assert held.tall == (rows.shape[0] > rows.shape[1])
            if not held.tall:
                _assert_close(held.rows, rows)
            assert held.discrepancy(beliefs.z) == pytest.approx(
                linalg.whitened_adjustment_discrepancy(rows, beliefs.z), rel=1e-12
            ), kind


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_comparison_keeps_g_for_the_with_learning_branch_only(topo16, design16):
    prior = make_prior(topo16, sigma_r_candidates=(0.0016, 0.0064))
    data = draw_dataset(prior, topo16, design16, seed=11)
    targets = [("zmin", c, design16.horizon) for c in topo16.components]
    cmp_ = compare_with_without_variance_learning(
        prior, topo16, data, data.values_vector(), targets, seed=12, n_realizations=100,
    )
    assert cmp_.without_learning.kind_rows is None
    with pytest.raises(ValueError, match="without diagnostics") as misuse:
        diagnostics.adjustment_diagnostics(cmp_.without_learning)
    assert misuse.type is ValueError  # not a configuration error
    (held,) = cmp_.with_learning.kind_rows.values()
    assert held.rows.shape == (len(targets), cmp_.with_learning.z.shape[0])


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
        (mom,) = exact_moments(prior, topo16, ext, [(sigma_r, mu_wx)], targets)
        one = adjust_from_moments(mom, ext)
        assert np.array_equal(branch.adjusted_mean, one.adjusted_mean)
        assert np.array_equal(branch.adjusted_var, one.adjusted_var)
        assert branch.moments.n_realizations is None
    assert cmp_.with_learning.kind_rows.keys() == one.kind_rows.keys() == {"zmin", "alpha", "x"}
    assert [r.value for r in diagnostics.adjustment_diagnostics(cmp_.with_learning).rows] == [
        r.value for r in diagnostics.adjustment_diagnostics(one).rows
    ]


def _full_run_case(noise_dist="gaussian"):
    """The reference design's data, its zmin grid and the last month's alpha
    and x, and the exact moments of one law, whose minimum under Student-t
    noise is read off 200 draws."""
    topo = designs.four_circuit_topology()
    prior = make_prior(topo, noise_dist=noise_dist, t_dof=6.0)
    data = draw_dataset(
        make_prior(topo), topo, designs.reference_design(topo), seed=7,
        sigma_r=0.0064, mu_wx=0.01, fix_scales=True,
    )
    ext = forecast_extend(data, 12)
    targets = _zmin_targets(topo, ext.horizon)
    targets += [(kind, c, ext.horizon) for kind in ("alpha", "x") for c in topo.components]
    (mom,) = exact_moments(prior, topo, ext, [(0.0064, 0.01)], targets, 200, 3)
    return mom, ext


def _discrepancies(beliefs):
    return {
        r.label: None if r.indeterminate else r.value
        for r in diagnostics.adjustment_diagnostics(beliefs).rows
    }


def _assert_close(a, b, rtol=1e-12):
    assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


@pytest.mark.parametrize("noise_dist", ["gaussian", "student_t"])
@pytest.mark.parametrize("rows", [1, 3, 7])
def test_ragged_blocks_agree_with_the_whole_array_update(noise_dist, rows, monkeypatch):
    # the update reads the targets' months in blocks; blocks of 1, 3 or 7
    # months leave a ragged last block of the full run's 95 months
    mom, ext = _full_run_case(noise_dist)
    monkeypatch.setattr(adjust, "_month_step", lambda n_obs: rows)
    beliefs = _assert_matches_the_whole_array_update(mom, ext)
    assert beliefs.kind_rows.keys() == {"zmin", "alpha", "x"}


def _counted_regathers(monkeypatch):
    """How often a tall kind's rows of G are read again."""
    passes, regather = [], adjust._regather

    def counted(*args):
        blocks = regather(*args)
        return lambda: passes.append(1) or blocks()

    monkeypatch.setattr(adjust, "_regather", counted)
    return passes


def test_a_rank_deficient_tall_kind_falls_back_to_a_blockwise_qr(topo16, design16, monkeypatch):
    # as below, with the Student-t minimum read off a draw: 100 copies of
    # one target give one row of G, so the Gram matrix fails its
    # certificate and the rows are read again into R
    prior = make_prior(topo16, noise_dist="student_t", t_dof=6.0)
    data = draw_dataset(prior, topo16, design16, seed=5)
    targets = [("x", topo16.components[2], design16.horizon)] * 100
    targets += [("zmin", c, design16.horizon) for c in topo16.components[:5]]
    (mom,) = exact_moments(prior, topo16, data, [(0.0064, 0.01)], targets, 300, 4)
    passes = _counted_regathers(monkeypatch)
    beliefs = _assert_matches_the_whole_array_update(mom, data)
    assert beliefs.kind_rows["x"].tall and not beliefs.kind_rows["zmin"].tall
    assert len(passes) == 1


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_the_comparisons_traced_peak_does_not_grow_with_the_forecast_horizon():
    topo = designs.four_circuit_topology()
    prior = make_prior(topo, sigma_r_candidates=(0.0016, 0.0064))
    data = draw_dataset(prior, topo, designs.reference_design(topo), seed=7)
    calibration = calibrate(prior, topo, data, seed=3, n_realizations=200)
    peaks = []
    for months in (12, 96):
        ext = forecast_extend(data, months)
        targets = _zmin_targets(topo, ext.horizon)
        targets += [(kind, c, ext.horizon) for kind in ("alpha", "x") for c in topo.components]
        tracemalloc.start()
        compare_with_without_variance_learning(
            prior, topo, ext, data.values_vector(), targets, calibration=calibration,
        )
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    # 6,208 and 11,584 targets against 174 observations
    assert peaks[1] <= 1.2 * peaks[0], peaks


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_the_comparisons_traced_peak_stays_below_the_blockwise_updates():
    # at 752-row blocks the whole-array-free blockwise update peaked at
    # 6.7 MB here; the structured update of exact moments at 3.3 MB
    topo = designs.four_circuit_topology()
    prior = make_prior(topo, sigma_r_candidates=(0.0016, 0.0064))
    data = draw_dataset(prior, topo, designs.reference_design(topo), seed=7)
    calibration = calibrate(prior, topo, data, seed=3, n_realizations=200)
    ext = forecast_extend(data, 12)
    targets = _zmin_targets(topo, ext.horizon)
    targets += [(kind, c, ext.horizon) for kind in ("alpha", "x") for c in topo.components]
    assert len(targets) == 6208
    tracemalloc.start()
    compare_with_without_variance_learning(
        prior, topo, ext, data.values_vector(), targets, calibration=calibration,
    )
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 4.5e6, peak


def _ragged_case(topo16, prior16):
    # visit counts 1..6 and 2 across components 0..14; component 15 unobserved
    comps = topo16.components
    times = {c: list(range(3 + i % 5, 40, 6))[: 1 + i % 6] for i, c in enumerate(comps[:15])}
    times[comps[7]] = [4, 31]
    design = designs.design_from_times(times, 40)
    data = forecast_extend(draw_dataset(prior16, topo16, design, seed=21), 8)
    targets = _zmin_targets(topo16, data.horizon)
    targets += [(kind, c, data.horizon) for kind in ("alpha", "x") for c in comps]
    return prior16, data, targets, (0.0064, 0.01)


def _interleaved_case(topo16, prior16, design16):
    # kinds interleaved, months and components drawn at random, with repeats
    rng = np.random.default_rng(5)
    data = forecast_extend(draw_dataset(prior16, topo16, design16, seed=22), 10)
    targets = [
        (("zmin", "x", "alpha")[rng.integers(3)], topo16.components[rng.integers(16)],
         int(rng.integers(1, data.horizon + 1)))
        for _ in range(900)
    ]
    return prior16, data, targets, (0.0064, 0.01)


def _rank_deficient_case(topo16, design16):
    # fully correlated components with one shared W and no minimum: var(Y)
    # has rank 14 of 64, so the update takes the spectral factor
    prior = make_prior(topo16, rho0=1.0, rhoC=0.0, rhoD=0.0, sigma_wx=1e-3, gamma_wx=1e-3,
                       sigma_y=0.0, sigma_r=0.0)
    data = forecast_extend(draw_dataset(make_prior(topo16), topo16, design16, seed=3), 4)
    targets = _zmin_targets(topo16, data.horizon)
    targets += [("x", c, data.horizon) for c in topo16.components]
    return prior, data, targets, (0.0, 0.01)


def _structured_case(name, topo16, design16):
    prior16 = make_prior(topo16)
    if name == "ragged":
        return _ragged_case(topo16, prior16)
    if name == "interleaved":
        return _interleaved_case(topo16, prior16, design16)
    if name == "rank-deficient":
        return _rank_deficient_case(topo16, design16)
    if name == "many-observations":
        # 399 observations of 64 components, against 64-observation designs
        topo = designs.four_circuit_topology()
        design = designs.reference_design(topo, total_observations=400, visits=7, monitored=64)
        data = draw_dataset(
            make_prior(topo), topo, design, seed=7, sigma_r=0.0064, mu_wx=0.01, fix_scales=True
        )
        targets = _zmin_targets(topo, data.horizon)
        targets += [(kind, c, data.horizon) for kind in ("alpha", "x") for c in topo.components]
        return make_prior(topo), data, targets, (0.0064, 0.01)
    if name == "no-observations":
        targets = [(kind, c, 12) for c in topo16.components[:4] for kind in ("zmin", "x")]
        return prior16, designs.design_from_times({}, 12), targets, (0.0064, 0.01)
    data = forecast_extend(draw_dataset(prior16, topo16, design16, seed=23), 6)
    targets = _zmin_targets(topo16, data.horizon)
    targets += [(kind, c, data.horizon) for kind in ("alpha", "x") for c in topo16.components]
    if name == "floored":
        return prior16, data, targets, (0.0064, 1e-12)
    if name == "student_t":
        return make_prior(topo16, noise_dist="student_t", t_dof=6.0), data, targets, (0.0064, 0.01)
    # w_dist-gaussian or w_dist-lognormal
    return make_prior(topo16, w_dist=name.split("-")[1]), data, targets, (0.0064, 0.01)


def _assert_matches_the_whole_array_update(mom, data, rtol=1e-10):
    """The update of ``mom`` against ``reference_update``, and what it keeps
    of each kind's rows of G against those rows: a short kind's rows, a tall
    kind's Gram matrix."""
    beliefs = adjust_from_moments(mom, data)
    mean, var, discrepancy = reference_update(mom, data.values_vector())
    _assert_close(beliefs.adjusted_mean, mean, rtol)
    _assert_close(beliefs.adjusted_var, var, rtol)
    got = _discrepancies(beliefs)
    assert got.keys() == discrepancy.keys()
    for kind, value in discrepancy.items():
        assert got[kind] == pytest.approx(value, rel=rtol), kind
    g = mom.target_moments().cov_targets @ mom.y_moment_pair().factor.root
    kinds = np.array([kind for kind, _, _ in mom.targets])
    for kind, held in beliefs.kind_rows.items():
        rows = g[kinds == kind]
        assert held.tall == (len(rows) > rows.shape[1])
        if not rows.shape[1]:  # var(Y) of rank zero
            assert held.gram.shape == (0, 0)
        elif held.tall:
            _assert_close(held.gram, rows.T @ rows, rtol)
        else:
            _assert_close(held.rows, rows, rtol)
    return beliefs


@pytest.mark.parametrize(
    "name",
    [
        "ragged", "interleaved", "floored", "w_dist-gaussian", "w_dist-lognormal",
        "rank-deficient", "no-observations", "student_t", "many-observations",
    ],
)
def test_the_structured_update_agrees_with_the_whole_array_update(name, topo16, design16):
    prior, data, targets, law = _structured_case(name, topo16, design16)
    topo = designs.four_circuit_topology() if name == "many-observations" else topo16
    (mom,) = exact_moments(prior, topo, data, [law], targets, 300, 4)
    beliefs = _assert_matches_the_whole_array_update(mom, data)
    rank = mom.y_moment_pair().factor.rank
    assert beliefs.kind_rows["zmin"].tall
    if name == "no-observations":
        assert rank == 0 and np.array_equal(beliefs.adjusted_var, beliefs.prior_var)
    if name == "ragged":
        visits = np.bincount(
            [topo16.components.index(c) for c, _ in data.design_points()], minlength=16
        )
        assert len(set(visits.tolist())) > 3 and 0 < visits[7] < 3 and visits[15] == 0
    if name == "rank-deficient":
        assert 0 < rank < len(mom.e_y)
        assert isinstance(mom.y_moment_pair().factor, linalg._SpectralFactor)
    else:
        assert rank == len(mom.e_y)


def test_the_structured_update_of_the_full_run_forms_only_short_kinds_rows(monkeypatch):
    mom, ext = _full_run_case("gaussian")
    built, target_moments = [], type(mom).target_moments

    def counted(self, rows=slice(None)):
        out = target_moments(self, rows)
        built.append(out.cov_targets.shape)
        return out

    monkeypatch.setattr(type(mom), "target_moments", counted)
    adjust_from_moments(mom, ext)
    monkeypatch.undo()
    rank = mom.y_moment_pair().factor.rank
    assert built == [(64, rank), (64, rank)]  # alpha's and x's rows
    beliefs = _assert_matches_the_whole_array_update(mom, ext)
    assert beliefs.kind_rows["zmin"].tall and not beliefs.kind_rows["x"].tall


def test_a_structured_gram_that_fails_its_certificate_falls_back_to_a_blockwise_qr(
    topo16, design16, prior16, monkeypatch
):
    # 100 copies of one target: their rows of G are one row, so the
    # closed-form Gram matrix fails its certificate and the rows are read
    # into R block by block
    data = draw_dataset(prior16, topo16, design16, seed=5)
    targets = [("x", topo16.components[2], design16.horizon)] * 100
    targets += [("zmin", c, design16.horizon) for c in topo16.components[:5]]
    (mom,) = exact_moments(prior16, topo16, data, [(0.0064, 0.01)], targets)
    passes = _counted_regathers(monkeypatch)
    beliefs = _assert_matches_the_whole_array_update(mom, data)
    assert beliefs.kind_rows["x"].tall and not beliefs.kind_rows["zmin"].tall
    assert len(passes) == 1  # the x rows, read once for the fallback


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_a_calibration_of_another_design_is_refused(topo16, design16):
    prior = make_prior(topo16, sigma_r_candidates=(0.0016, 0.0064))
    data = draw_dataset(prior, topo16, design16, seed=11)
    fewer = InspectionDataset(data.records[:-1], data.horizon)
    calibration = calibrate(prior, topo16, fewer, seed=12, n_realizations=100)
    with pytest.raises(ShapeError, match="calibration"):
        compare_with_without_variance_learning(prior, topo16, data, calibration=calibration)
    # the horizon-extended copy of the calibrated dataset has its records
    targets = [("zmin", c, data.horizon + 6) for c in topo16.components]
    compare_with_without_variance_learning(
        prior, topo16, forecast_extend(fewer, 6), targets=targets, calibration=calibration,
    )
