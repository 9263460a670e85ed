"""Forward simulation and ensemble moment estimation."""

import tracemalloc
import warnings

import numpy as np
import pytest

from corrobayes import designs, simulate, varlearn
from corrobayes.calibrate import estimator_study
from corrobayes.errors import ConfigError
from corrobayes.simulate import (
    TARGET_KINDS,
    TargetMoments,
    draw_dataset,
    estimate_moments,
    exact_moments,
    forecast_extend,
)
from conftest import make_prior, small_irregular_design
from oracle import ensemble_moments, minimum_draw, reference_dbar_moments, simulate_realization


def test_identical_seeds_give_bit_identical_moments(topo16, design16, prior16):
    a = estimate_moments(prior16, topo16, design16, n_realizations=200, seed=42)
    b = estimate_moments(prior16, topo16, design16, n_realizations=200, seed=42)
    assert np.array_equal(a.e_y, b.e_y)
    assert np.array_equal(a.var_y, b.var_y)
    c = estimate_moments(prior16, topo16, design16, n_realizations=200, seed=43)
    assert not np.array_equal(c.e_y, a.e_y)


def test_minimum_state_decomposes_into_trend_plus_local_minimum(topo16, design16, prior16):
    real = simulate_realization(prior16, topo16, design16, np.random.default_rng(1))
    assert np.array_equal(real.zmin, real.x + real.r.min(axis=1))
    # row 0 is the initial state: no local effects yet
    assert np.allclose(real.zmin[0], real.x[0])


def test_realization_starts_at_the_prior_state(topo16, design16, prior16):
    real = simulate_realization(prior16, topo16, design16, np.random.default_rng(2))
    assert np.allclose(real.x[0], prior16.x0)
    assert np.allclose(real.alpha[0], prior16.alpha0)


def test_fixed_scales_pin_every_component_variance(topo16, design16, prior16):
    real = simulate_realization(
        prior16, topo16, design16, np.random.default_rng(3), mu_wx=0.02, fix_scales=True
    )
    assert np.allclose(real.w_x, 0.02)
    assert np.allclose(real.w_alpha, prior16.hyper.lam * 0.02)
    assert real.m_wx == 0.02


def test_slope_scales_track_level_scales_by_the_fixed_ratio(topo16, design16, prior16):
    real = simulate_realization(prior16, topo16, design16, np.random.default_rng(4))
    assert np.allclose(real.w_alpha, prior16.hyper.lam * real.w_x)


def test_observation_means_follow_the_prior_trend(topo16, design16, prior16):
    mom = estimate_moments(prior16, topo16, design16, n_realizations=3000, seed=5)
    comp_idx = {c: i for i, c in enumerate(topo16.components)}
    for (c, t), mean, var in zip(mom.design_points, mom.e_y, np.diag(mom.var_y)):
        trend = prior16.x0[comp_idx[c]] + prior16.alpha0[comp_idx[c]] * t
        # the min over locations pulls the mean below the trend
        assert mean < trend
        assert mean > trend - 5 * np.sqrt(var)


def test_variance_grows_with_time_for_a_single_component(topo16, prior16):
    c = topo16.components[0]
    design = designs.design_from_times({c: [5, 20, 40]}, 40)
    mom = estimate_moments(prior16, topo16, design, n_realizations=4000, seed=6)
    d = np.diag(mom.var_y)
    assert d[0] < d[1] < d[2]


def test_moment_matrix_is_symmetric_psd(topo16, design16, prior16):
    mom = estimate_moments(prior16, topo16, design16, n_realizations=500, seed=7)
    assert np.allclose(mom.var_y, mom.var_y.T)
    eig = np.linalg.eigvalsh(mom.var_y)
    assert eig.min() >= -1e-10 * eig.max()


def test_monte_carlo_error_shrinks_with_ensemble_size(topo16, design16, prior16):
    small = [
        estimate_moments(prior16, topo16, design16, n_realizations=400, seed=s).var_y
        for s in (10, 11, 12, 13)
    ]
    big = [
        estimate_moments(prior16, topo16, design16, n_realizations=1600, seed=s).var_y
        for s in (20, 21, 22, 23)
    ]

    def spread(mats):
        stack = np.stack(mats)
        return np.linalg.norm(stack.std(axis=0))

    # fluctuation should drop roughly like 1/sqrt(N); allow factor-3 slack
    assert spread(big) < spread(small)
    assert spread(big) > spread(small) / 6.0


def test_dbar_statistics_accumulate_when_a_scheme_is_given(topo16, design16, prior16):
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    mom = estimate_moments(
        prior16, topo16, design16, n_realizations=800, seed=8, scheme=scheme
    )
    # a scheme pass builds only what variance learning reads
    assert isinstance(mom, simulate.DbarMoments) and not hasattr(mom, "var_y")
    n_comp = len(scheme.components)
    assert varlearn.expected_dbar(scheme, mom).shape == (n_comp,)
    assert mom.dbar_var.shape == (n_comp, n_comp)
    assert np.all(np.diag(mom.dbar_var) > 0)
    assert mom.m1_sq.shape == (len(scheme.entries),)
    assert mom.mw_dbar_cov.shape == (n_comp,)
    assert np.all(np.isfinite(mom.mw_dbar_cov))


def test_a_scheme_without_entries_gives_empty_dbar_moments(topo16, prior16):
    # every component visited twice: no difference term
    design = small_irregular_design(topo16, visits=2)
    scheme = varlearn.build_scheme(design, prior16.hyper.lam)
    assert not scheme.entries
    mom = estimate_moments(prior16, topo16, design, n_realizations=50, seed=8, scheme=scheme)
    for name in ("m1_sq", "m2_sq", "m1m2", "mw_dbar_cov"):
        assert getattr(mom, name).shape == (0,), name
    assert mom.dbar_var.shape == (0, 0)


def test_expected_dbar_matches_simulation_within_monte_carlo_error(topo16):
    # closed form: each normalized term has mean E W_c plus its local
    # min-difference contribution; check the per-component sum against the
    # ensemble mean of the statistic itself.  The truncated gaussian W has
    # E W_c above mu_wx (0.0182 against 0.01 here)
    design = small_irregular_design(topo16, horizon=60, visits=5)
    for w_dist in ("gamma", "gaussian"):
        prior = make_prior(topo16, w_dist=w_dist)
        scheme = varlearn.build_scheme(design, prior.hyper.lam)
        mom = estimate_moments(prior, topo16, design, n_realizations=6000, seed=9, scheme=scheme)
        expect = varlearn.expected_dbar(scheme, mom)
        se = np.sqrt(np.diag(mom.dbar_var) / mom.n_realizations)
        # the Dbar rows of the ensemble those moments were taken from
        law = [(prior.sigma_r, prior.hyper.mu_wx)]
        cells = simulate._cells(prior, topo16, design)
        _, blocks = simulate._ensemble(prior, topo16, cells, law, 6000, 9, monthly=True)
        mean = np.concatenate([scheme(y) for _, _, y, _, _ in blocks]).mean(axis=0)
        assert np.all(np.abs(mean - expect) <= 3 * se), w_dist


def test_targets_cover_forecast_months_and_unobserved_components(topo16, prior16):
    observed = topo16.components[0]
    never_seen = topo16.components[5]
    design = designs.design_from_times({observed: [3, 6, 9]}, 12)
    extended = forecast_extend(design, 6)
    targets = [("zmin", never_seen, 18), ("x", observed, 15), ("alpha", observed, 18)]
    (mom,) = exact_moments(
        prior16, topo16, extended, [(prior16.sigma_r, prior16.hyper.mu_wx)], targets
    )
    tm = mom.target_moments()
    assert tm.e_targets.shape == (3,)
    assert np.all(tm.var_targets > 0)
    assert tm.cov_targets.shape == (3, 3)


def test_bad_target_requests_are_rejected(topo16, design16, prior16):
    law = [(prior16.sigma_r, prior16.hyper.mu_wx)]
    with pytest.raises(ConfigError):
        exact_moments(prior16, topo16, design16, law, [("nope", topo16.components[0], 1)])
    with pytest.raises(ConfigError):
        exact_moments(prior16, topo16, design16, law, [("x", topo16.components[0], 999)])


def test_an_empty_design_with_a_target_has_no_observation_moments(topo16, prior16):
    empty = designs.design_from_times({}, 10)
    (mom,) = exact_moments(
        prior16, topo16, empty, [(prior16.sigma_r, prior16.hyper.mu_wx)],
        [("x", topo16.components[0], 5)],
    )
    assert mom.e_y.shape == (0,)
    assert mom.target_moments().cov_targets.shape == (1, 0)


def test_draw_dataset_is_deterministic_and_fills_all_points(topo16, design16, prior16):
    a = draw_dataset(prior16, topo16, design16, seed=77)
    b = draw_dataset(prior16, topo16, design16, seed=77)
    assert np.array_equal(a.values_vector(), b.values_vector())
    assert np.all(np.isfinite(a.values_vector()))
    assert a.design_points() == design16.design_points()


def test_student_t_noise_option_runs(topo16, design16):
    prior = make_prior(topo16, noise_dist="student_t", t_dof=6.0)
    mom = estimate_moments(prior, topo16, design16, n_realizations=300, seed=12)
    assert np.all(np.isfinite(mom.e_y))


def _brute_force(prior, topology, design, targets, n, rng):
    """Observations and targets of n realizations run one at a time."""
    ys, zs = [], []
    for _ in range(n):
        real = simulate_realization(prior, topology, design, rng)
        ys.append([real.y[pt] for pt in design.design_points()])
        zs.append([real.zmin[t, topology.components.index(c)] for _, c, t in targets])
    return np.array(ys), np.array(zs)


def test_kernel_agrees_with_a_brute_force_loop_over_realizations(topo8):
    # independent ensembles of the same law: the oracle runs the model one
    # realization at a time, the kernel in blocks with its own stream layout.
    # With targets the monthly drawer runs; without them the observed-cell
    # drawer, whose linear kernel and walk increments across visits show in
    # the covariance of each observation with its component's previous one
    design = small_irregular_design(topo8, horizon=12, visits=3)
    points = design.design_points()
    later = np.array([i for i in range(1, len(points)) if points[i][0] == points[i - 1][0]])
    targets = [("zmin", c, t) for c in topo8.components[:4] for t in (4, 12)]
    n = 2000
    rng = np.random.default_rng(123)

    def mean_z(samples, estimate):
        se = np.sqrt(2.0 * samples.var(axis=0, ddof=1) / n)
        return np.abs(samples.mean(axis=0) - estimate) / se

    worst = []
    for hyper, cases in (
        (dict(sigma_wx=2e-5, gamma_wx=1e-5), (targets, ())),  # drawn W
        (dict(sigma_wx=0.0, gamma_wx=0.0), ((),)),  # fixed W
    ):
        prior = make_prior(topo8, **hyper)
        ys, zs = _brute_force(prior, topo8, design, targets, n, rng)
        yc = ys - ys.mean(axis=0)
        var = (yc * yc).sum(axis=0) / (n - 1)
        var_se = np.sqrt(2.0 * ((yc**4).mean(axis=0) - var**2) / n)
        lag = yc[:, later] * yc[:, later - 1]
        lag_cov = lag.sum(axis=0) / (n - 1)
        lag_se = np.sqrt(2.0 * lag.var(axis=0, ddof=1) / n)
        for case in cases:
            if case:
                (mom,) = ensemble_moments(prior, topo8, design, case, n, 321)
            else:
                mom = estimate_moments(prior, topo8, design, n_realizations=n, seed=321)
            worst.append(max(
                mean_z(ys, mom.e_y).max(),
                mean_z(zs, mom.target_moments().e_targets).max() if case else 0.0,
                (np.abs(var - np.diag(mom.var_y)) / var_se).max(),
                (np.abs(lag_cov - mom.var_y[later, later - 1]) / lag_se).max(),
            ))
    assert max(worst) < 4.0, worst


def _assert_close(a, b, rtol=1e-12):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape
    assert np.max(np.abs(a - b), initial=0.0) <= rtol * np.max(np.abs(b), initial=0.0)


OBSERVATION_FIELDS = ("e_y", "var_y", *TargetMoments._fields)
DBAR_FIELDS = ("e_w", "m1_sq", "m2_sq", "m1m2", "dbar_var", "mw_dbar_cov")


def _field(moments, name):
    """A field of a moment record; the target moments are built whole."""
    if name in TargetMoments._fields:
        return getattr(moments.target_moments(), name)
    return getattr(moments, name)


def test_one_law_call_equals_its_slice_of_a_multi_law_call(topo16, design16, prior16):
    targets = [("zmin", topo16.components[0], 30), ("alpha", topo16.components[3], 40)]
    laws = [(0.0016, 0.01), (0.0064, 0.004), (0.0256, 0.03)]
    # the engine through the row oracle: the monthly drawer (targets), then
    # the observed-cell drawer (no targets); the last field differs between laws
    for tg, fields in ((targets, OBSERVATION_FIELDS), ((), ("e_y", "var_y"))):
        many = ensemble_moments(prior16, topo16, design16, tg, 300, 4, laws)
        ones = [ensemble_moments(prior16, topo16, design16, tg, 300, 4, [law])[0] for law in laws]
        for one, est in zip(ones, many):
            for name in fields:
                _assert_close(_field(one, name), _field(est, name))
        assert not np.allclose(_field(many[0], fields[-1]), _field(many[2], fields[-1]))
    # estimate_moments is the engine's one-law ensemble: the observed-cell
    # records above, bit for bit
    for (sr, mu), est in zip(laws, many):
        one = estimate_moments(
            prior16, topo16, design16, n_realizations=300, seed=4, sigma_r=sr, mu_wx=mu
        )
        for name in fields:
            assert np.array_equal(_field(one, name), _field(est, name)), name


def test_variance_scales_are_drawn_once_per_distinct_mean(topo16, design16, prior16, monkeypatch):
    drawn = []
    draw_scales = simulate._draw_scales

    def counted(prior, mu_wx, *args):
        drawn.append(mu_wx)
        return draw_scales(prior, mu_wx, *args)

    monkeypatch.setattr(simulate, "_draw_scales", counted)
    laws = [(0.0016, 0.01), (0.0064, 0.03), (0.0256, 0.01), (0.0064, 0.01)]
    simulate._ensemble(prior16, topo16, simulate._cells(prior16, topo16, design16), laws, 20, 3)
    assert drawn == [0.01, 0.03]


def test_moments_do_not_depend_on_the_block_size(topo16, design16, prior16, monkeypatch):
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    targets = [("zmin", c, 20) for c in topo16.components] + [("x", topo16.components[1], 40)]
    runs = {
        DBAR_FIELDS: lambda: estimate_moments(
            prior16, topo16, design16, n_realizations=47, seed=13, scheme=scheme
        ),
        OBSERVATION_FIELDS: lambda: ensemble_moments(
            prior16, topo16, design16, targets, 47, 13
        )[0],
        ("e_y", "var_y"): lambda: estimate_moments(
            prior16, topo16, design16, n_realizations=47, seed=13
        ),
    }
    default = {fields: run() for fields, run in runs.items()}
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 1)  # one realization per block
    for fields, run in runs.items():
        single = run()
        for name in fields:
            assert np.array_equal(_field(default[fields], name), _field(single, name)), name


def test_only_gaussian_passes_without_targets_or_scheme_draw_observed_cells(
    topo16, design16, prior16, monkeypatch
):
    drawn = []
    for name in ("_monthly_blocks", "_observed_blocks", "_minimum_draw"):
        drawer = getattr(simulate, name)
        monkeypatch.setattr(
            simulate, name, lambda *a, _d=drawer, _n=name: drawn.append(_n) or _d(*a)
        )
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    student = make_prior(topo16, noise_dist="student_t", t_dof=6.0)
    target = [("x", topo16.components[0], 10)]
    ensemble_moments(prior16, topo16, design16, target, 5, 1)
    for prior, sch in ((prior16, scheme), (student, None), (prior16, None)):
        estimate_moments(prior, topo16, design16, n_realizations=5, seed=1, scheme=sch)
    assert drawn == ["_monthly_blocks"] * 3 + ["_observed_blocks"]
    # the estimator study: its Dbar moments are exact but for the monthly
    # draw of the minimum under either noise law, and its replicate pass
    # reads only the observations, a monthly ensemble under Student-t noise
    drawn.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for prior in (prior16, student):
            estimator_study(
                prior, topo16, design16, 0.01, 0.01, replicates=3, seed=1, n_realizations=5
            )
    assert drawn == ["_minimum_draw", "_observed_blocks", "_minimum_draw", "_monthly_blocks"]


@pytest.mark.parametrize(
    "overrides, fix_scales",
    [
        ({}, True),
        ({"noise_dist": "student_t", "t_dof": 6.0}, False),
        ({}, False),
        ({"w_dist": "lognormal"}, False),
        ({"w_dist": "gaussian"}, False),
    ],
    ids=[
        "gaussian-fixed-scales", "student-t-drawn-scales", "gaussian-drawn-scales",
        "lognormal-scales", "gaussian-scales",
    ],
)
def test_drawn_observations_equal_the_brute_force_realization(
    topo16, design16, overrides, fix_scales
):
    prior = make_prior(topo16, **overrides)
    seeds = [np.random.SeedSequence(900 + i) for i in range(25)]
    law = dict(sigma_r=0.01, mu_wx=0.02, fix_scales=fix_scales)
    rows = np.array([
        draw_dataset(prior, topo16, design16, s, **law).values_vector() for s in seeds
    ])
    points = design16.design_points()
    oracle = np.array([
        [real.y[pt] for pt in points]
        for real in (
            simulate_realization(prior, topo16, design16, np.random.default_rng(s), **law)
            for s in seeds
        )
    ])
    _assert_close(rows, oracle)


@pytest.mark.parametrize(
    "hyper", [dict(sigma_wx=0.0, gamma_wx=0.0), {}], ids=["fixed-scales", "drawn-scales"]
)
def test_exact_moments_lie_within_four_standard_errors_of_a_large_ensemble(topo8, hyper):
    # 100 independent ensembles of 250: the standard errors are batch means,
    # as the drawn scales' kurtosis makes Gaussian ones too small, and 100
    # batches pin them down well enough for a 4-SE bound over ~1,300 entries
    prior = make_prior(topo8, **hyper)
    design = forecast_extend(small_irregular_design(topo8, horizon=12, visits=3), 3)
    targets = [
        (kind, c, t) for c in topo8.components[:3] for kind in TARGET_KINDS for t in (2, 12, 15)
    ]
    law = (0.01, 0.02)
    (exact,) = exact_moments(prior, topo8, design, [law], targets)
    assert exact.n_realizations is None
    batches = [
        ensemble_moments(prior, topo8, design, targets, 250, 5000 + b, [law])[0]
        for b in range(100)
    ]
    for name in OBSERVATION_FIELDS:
        values = np.array([_field(m, name) for m in batches])
        se = values.std(axis=0, ddof=1) / np.sqrt(len(batches))
        z = (values.mean(axis=0) - _field(exact, name)) / se
        assert np.abs(z).max() < 4.0, (name, np.abs(z).max())


def test_exact_moments_take_every_law_on_its_own(topo16, design16, prior16):
    targets = [("zmin", topo16.components[0], 30), ("alpha", topo16.components[3], 40)]
    laws = [(0.0016, 0.01), (0.0064, 0.004)]
    many = list(exact_moments(prior16, topo16, design16, laws, targets))
    for law, est in zip(laws, many):
        (one,) = exact_moments(prior16, topo16, design16, [law], targets)
        for name in OBSERVATION_FIELDS:
            assert np.array_equal(_field(one, name), _field(est, name)), name
    # the observation moments do not depend on the targets or the horizon
    (bare,) = exact_moments(prior16, topo16, forecast_extend(design16, 9), laws[:1])
    assert np.array_equal(bare.e_y, many[0].e_y) and np.array_equal(bare.var_y, many[0].var_y)
    assert np.array_equal(bare.var_y, bare.var_y.T)


def test_student_t_exact_moments_sample_only_the_minimum(topo16, design16):
    # unit-variance t innovations give the linear part the Gaussian second
    # moments, so only entries within a component's minimum differ, and only
    # they depend on the draw
    targets = [(kind, c, 40) for c in topo16.components[:3] for kind in TARGET_KINDS]
    laws = [(0.0064, 0.01), (0.0256, 0.004)]
    student = make_prior(topo16, noise_dist="student_t", t_dof=6.0)
    (gauss,) = exact_moments(make_prior(topo16), topo16, design16, laws[:1], targets)
    many = list(exact_moments(student, topo16, design16, laws, targets, 300, 4))
    (one,) = exact_moments(student, topo16, design16, laws[:1], targets, 300, 4)
    (other,) = exact_moments(student, topo16, design16, laws[:1], targets, 300, 5)
    for name in OBSERVATION_FIELDS:
        assert np.array_equal(_field(one, name), _field(many[0], name)), name
    assert one.n_realizations is None
    comp = np.array([c for c, _ in design16.design_points()])
    same = comp[:, None] == comp
    assert np.array_equal(one.var_y[~same], gauss.var_y[~same])
    assert np.array_equal(one.var_y[~same], other.var_y[~same])
    assert not np.any(one.var_y[same] == other.var_y[same])
    rows, rows_g = one.target_moments(), gauss.target_moments()
    zmin = np.array([kind == "zmin" for kind, _, _ in targets])
    own = np.array([c for _, c, _ in targets])[:, None] == comp
    linear = ~(zmin[:, None] & own)
    assert np.array_equal(rows.cov_targets[linear], rows_g.cov_targets[linear])
    assert np.array_equal(rows.var_targets[~zmin], rows_g.var_targets[~zmin])
    assert np.linalg.eigvalsh(one.var_y)[0] > 0.0


def test_student_t_exact_moments_lie_within_four_standard_errors_of_a_large_ensemble(topo8):
    # as the Gaussian check, against 100 independent Student-t ensembles of
    # 100; the exact side reads its minimum off 100,000 draws (four
    # locations keep that draw near 50 MB), whose own Monte Carlo variance is
    # a tenth of the batch means'
    prior = make_prior(topo8, noise_dist="student_t", t_dof=6.0, locations_per_component=4)
    design = forecast_extend(small_irregular_design(topo8, horizon=12, visits=3), 3)
    targets = [
        (kind, c, t) for c in topo8.components[:3] for kind in TARGET_KINDS for t in (2, 12, 15)
    ]
    law = (0.01, 0.02)
    (exact,) = exact_moments(prior, topo8, design, [law], targets, 100_000, 77)
    batches = [
        ensemble_moments(prior, topo8, design, targets, 100, 6000 + b, [law])[0]
        for b in range(100)
    ]
    worst = {}
    for name in OBSERVATION_FIELDS:
        values = np.array([_field(m, name) for m in batches])
        se = values.std(axis=0, ddof=1) / np.sqrt(len(batches))
        worst[name] = float((np.abs(values.mean(axis=0) - _field(exact, name)) / se).max())
    print(" ".join(f"{name} {z:.2f}" for name, z in worst.items()))
    assert max(worst.values()) < 4.0, worst


DBAR_CASES = {
    "fixed-scales": dict(sigma_wx=0.0, gamma_wx=0.0),
    "gamma-scales": {},
    # at the reference hypervariances the matched lognormal W has
    # E W^4 / (E W^2)^2 in the thousands, so an ensemble's var(Dbar) rests
    # on rare draws and batch-means errors mean nothing; at these, E W^2 is
    # still twice mu_wx^2
    "lognormal-scales": dict(w_dist="lognormal", sigma_wx=1e-4, gamma_wx=5e-5),
    "gaussian-scales": dict(w_dist="gaussian"),
}


@pytest.mark.parametrize("hyper", DBAR_CASES.values(), ids=DBAR_CASES.keys())
def test_exact_dbar_moments_lie_within_four_standard_errors_of_a_large_ensemble(topo8, hyper):
    # batch-means standard errors of 40 ensembles of 2,500, field by field;
    # the exact moments draw the minimum 100,000 times, so their own Monte
    # Carlo error is small next to these
    prior = make_prior(topo8, **hyper)
    design = small_irregular_design(topo8, horizon=12, visits=4)
    scheme = varlearn.build_scheme(design, prior.hyper.lam)
    law = (0.0064, 0.01)
    (exact,) = simulate.exact_dbar_moments(
        prior, topo8, design, [law], scheme, n_realizations=100_000, seed=77
    )
    batches = [
        estimate_moments(
            prior, topo8, design, n_realizations=2500, seed=8000 + b,
            sigma_r=law[0], mu_wx=law[1], scheme=scheme,
        )
        for b in range(40)
    ]
    # the floored normal's cov(M(W), W_c) is not the hyperprior's gamma_wx
    fields = DBAR_FIELDS[:-1] if hyper.get("w_dist") == "gaussian" else DBAR_FIELDS
    worst = {}
    for name in fields:
        values = np.array([getattr(m, name) for m in batches])
        se = values.std(axis=0, ddof=1) / np.sqrt(len(batches))
        diff = values.mean(axis=0) - getattr(exact, name)
        # fixed scales give a mw_dbar_cov of exactly zero on both sides
        z = np.divide(diff, se, out=np.zeros_like(diff), where=se > 0)
        assert np.all(diff[se == 0] == 0), name
        worst[name] = float(np.abs(z).max())
    print(" ".join(f"{name} {z:.2f}" for name, z in worst.items()))
    assert max(worst.values()) < 4.0, worst


#: The dense-product cases: under Student-t noise var(Dbar) gains the
#: innovations' fourth-cumulant term, and the minimum is read off one draw.
DENSE_CASES = {**DBAR_CASES, "student-t-scales": dict(noise_dist="student_t", t_dof=6.0)}


@pytest.mark.parametrize("hyper", DENSE_CASES.values(), ids=DENSE_CASES.keys())
def test_exact_dbar_moments_equal_the_dense_products(topo16, design16, hyper):
    prior = make_prior(topo16, **hyper)
    scheme = varlearn.build_scheme(design16, prior.hyper.lam)
    laws = [(0.0016, 0.01), (0.0064, 0.004), (0.0256, 0.03)]
    got = simulate.exact_dbar_moments(
        prior, topo16, design16, laws, scheme, n_realizations=300, seed=4
    )
    reference = reference_dbar_moments(prior, topo16, design16, laws, scheme, 300, 4)
    for est, ref in zip(got, reference):
        for name in ("m1_sq", "m2_sq", "m1m2", "mw_dbar_cov"):
            assert np.array_equal(getattr(est, name), ref[name]), name
        _assert_close(est.dbar_var, ref["dbar_var"])


def test_exact_dbar_moments_take_every_law_on_its_own_at_any_block_size(
    topo16, design16, prior16, monkeypatch
):
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    laws = [(0.0016, 0.01), (0.0064, 0.004), (0.0256, 0.03)]

    def run(law_list):
        return simulate.exact_dbar_moments(
            prior16, topo16, design16, law_list, scheme, n_realizations=300, seed=4
        )

    many = run(laws)
    for law, est in zip(laws, many):
        (one,) = run([law])
        for name in DBAR_FIELDS:
            assert np.array_equal(getattr(one, name), getattr(est, name)), name
    assert not np.allclose(many[0].dbar_var, many[2].dbar_var)
    monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", 1)  # one realization per block
    for est, single in zip(many, run(laws)):
        for name in DBAR_FIELDS:
            assert np.array_equal(getattr(est, name), getattr(single, name)), name


@pytest.mark.parametrize("noise", [{}, dict(noise_dist="student_t", t_dof=6.0)],
                         ids=["gaussian", "student-t"])
def test_dbar_moments_draw_only_the_minimum(topo16, design16, monkeypatch, noise):
    passes = {name: 0 for name in ("_ensemble", "_minimum_draw")}
    for name in passes:
        def counted(*args, _name=name, _orig=getattr(simulate, name), **kwargs):
            passes[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(simulate, name, counted)
    prior = make_prior(topo16, **noise)
    scheme = varlearn.build_scheme(design16, prior.hyper.lam)
    laws = [(0.0064, 0.01), (0.0256, 0.004)]

    def run(law_list, seed=3):
        return simulate.exact_dbar_moments(
            prior, topo16, design16, law_list, scheme, n_realizations=50, seed=seed
        )

    many = run(laws)
    # one monthly draw of the minimum serves every law; nothing else is drawn
    assert passes == {"_ensemble": 0, "_minimum_draw": 1}
    assert [m.n_realizations for m in many] == [50, 50]
    (one,) = run(laws[:1])
    (other,) = run(laws[:1], seed=4)
    for name in DBAR_FIELDS:
        assert np.array_equal(getattr(one, name), getattr(many[0], name)), name
    # var(Dbar) reads the draw under either noise law, the m-moments only
    # under Student-t noise: under Gaussian noise they are closed-form
    assert not np.any(one.dbar_var.diagonal() == other.dbar_var.diagonal())
    if noise:
        assert not np.any(one.m1_sq == other.m1_sq)
    else:
        assert np.array_equal(one.m1_sq, other.m1_sq)
    assert np.array_equal(one.mw_dbar_cov, other.mw_dbar_cov)


@pytest.mark.parametrize("noise", [{}, dict(noise_dist="student_t", t_dof=6.0)],
                         ids=["gaussian", "student-t"])
def test_the_streamed_minimum_draw_equals_the_whole_array_draw(topo16, noise):
    prior = make_prior(topo16, locations_per_component=4, **noise)
    sigma_rs = [0.0016, 0.0064, 0.0256]
    for months in (np.arange(1, 41), np.array([2, 3, 9, 17, 40])):
        got = simulate._minimum_draw(prior, months, 60, 8, sigma_rs)
        want = minimum_draw(prior, months, 60, 8, sigma_rs)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("noise", [{}, dict(noise_dist="student_t", t_dof=6.0)],
                         ids=["gaussian", "student-t"])
def test_the_learning_pass_peak_does_not_grow_with_the_locations(noise):
    # the draw of the minimum holds a month of walks: a whole
    # (horizon x 2 x n x L) draw would grow by 8.0 MB from L = 10 to 40
    topo = designs.four_circuit_topology()
    design = designs.reference_design(topo)
    laws = [(0.01 / 25.0 * 625.0 ** (i / 11.0), 0.01) for i in range(12)]
    peaks = []
    for locations in (10, 40):
        prior = make_prior(topo, locations_per_component=locations, **noise)
        scheme = varlearn.build_scheme(design, prior.hyper.lam)
        tracemalloc.start()
        simulate.exact_dbar_moments(prior, topo, design, laws, scheme, n_realizations=200, seed=3)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.8e6, peaks


@pytest.mark.parametrize(
    "hyper", [DBAR_CASES["fixed-scales"], DBAR_CASES["gamma-scales"]],
    ids=["fixed-scales", "gamma-scales"],
)
def test_student_t_exact_dbar_moments_lie_within_four_standard_errors_of_a_large_ensemble(
    topo8, hyper
):
    # as the Gaussian check, against 40 Student-t ensembles of 2,500.  At
    # 12 degrees of freedom the innovations have finite eighth moments,
    # which batch-means standard errors of a variance need.  The exact side
    # samples the minimum too, with as much Monte Carlo error per draw as an
    # ensemble: it is the mean of 40 passes of 10,000 draws, and each z
    # divides by both sides' batch-means standard errors
    prior = make_prior(
        topo8, noise_dist="student_t", t_dof=12.0, locations_per_component=4, **hyper
    )
    design = small_irregular_design(topo8, horizon=12, visits=4)
    scheme = varlearn.build_scheme(design, prior.hyper.lam)
    law = (0.0064, 0.01)
    exact = [
        simulate.exact_dbar_moments(
            prior, topo8, design, [law], scheme, n_realizations=10_000, seed=70_000 + b
        )[0]
        for b in range(40)
    ]
    batches = [
        estimate_moments(
            prior, topo8, design, n_realizations=2500, seed=8000 + b,
            sigma_r=law[0], mu_wx=law[1], scheme=scheme,
        )
        for b in range(40)
    ]
    worst = {}
    for name in DBAR_FIELDS:
        sides = [np.array([getattr(m, name) for m in runs]) for runs in (batches, exact)]
        se = np.sqrt(sum(v.var(axis=0, ddof=1) for v in sides) / 40)
        diff = sides[0].mean(axis=0) - sides[1].mean(axis=0)
        # fixed scales give a mw_dbar_cov of exactly zero on both sides
        z = np.divide(diff, se, out=np.zeros_like(diff), where=se > 0)
        assert np.all(diff[se == 0] == 0), name
        worst[name] = float(np.abs(z).max())
    print(" ".join(f"{name} {z:.2f}" for name, z in worst.items()))
    assert max(worst.values()) < 4.0, worst


def test_student_t_dbar_variance_carries_the_fourth_cumulant_seen_by_an_ensemble(
    topo8, monkeypatch
):
    # var(Dbar) where its linear part dominates: fixed scales, sigma_r and
    # sigma_y near 0, and short gaps between visits, so the fourth-cumulant
    # term is 4-11% of the diagonal.  At 10 degrees of freedom the
    # innovations have finite eighth moments, which batch-means standard
    # errors of a variance need.  Against 40 monthly-drawer ensembles of
    # 2,000, over 36 sets of ensemble seeds the worst |z| read 1.5-3.9 with
    # the term and 10.7-16.6 without it (kappa4 = 0)
    prior = make_prior(
        topo8, noise_dist="student_t", t_dof=10.0, locations_per_component=2,
        sigma_r=1e-8, sigma_y=1e-8, sigma_wx=0.0, gamma_wx=0.0,
    )
    design = small_irregular_design(topo8, horizon=8, visits=4)
    scheme = varlearn.build_scheme(design, prior.hyper.lam)
    law = (1e-8, 0.01)
    batches = np.array([
        estimate_moments(
            prior, topo8, design, n_realizations=2000, seed=9000 + b,
            sigma_r=law[0], mu_wx=law[1], scheme=scheme,
        ).dbar_var
        for b in range(40)
    ])
    se = batches.std(axis=0, ddof=1) / np.sqrt(len(batches))

    def worst_z():
        (exact,) = simulate.exact_dbar_moments(
            prior, topo8, design, [law], scheme, n_realizations=1000, seed=1
        )
        return float(np.abs((batches.mean(axis=0) - exact.dbar_var) / se).max())

    assert worst_z() < 4.0
    fourth = simulate._innovation_fourth_moments
    monkeypatch.setattr(simulate, "_innovation_fourth_moments", lambda *a: 0.0 * fourth(*a))
    assert worst_z() >= 4.0
