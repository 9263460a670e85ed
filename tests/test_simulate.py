"""Forward simulation and ensemble moment estimation."""

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
    estimate_moments_by_law,
    exact_moments,
    forecast_extend,
)
from conftest import make_prior, small_irregular_design
from oracle import reference_dbar_moments, simulate_realization


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
    assert varlearn.expected_dbar(scheme, prior16.hyper, mom).shape == (n_comp,)
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


def test_expected_dbar_matches_simulation_within_monte_carlo_error(topo16, prior16):
    # closed form: each normalized term has mean mu_wx plus its local
    # min-difference contribution; check the per-component sum against the
    # ensemble mean of the statistic itself
    design = small_irregular_design(topo16, horizon=60, visits=5)
    scheme = varlearn.build_scheme(design, prior16.hyper.lam)
    mom = estimate_moments(
        prior16, topo16, design, n_realizations=6000, seed=9, scheme=scheme
    )
    expect = varlearn.expected_dbar(scheme, prior16.hyper, mom)
    se = np.sqrt(np.diag(mom.dbar_var) / mom.n_realizations)
    # the Dbar rows of the ensemble those moments were taken from
    law = [(prior16.sigma_r, prior16.hyper.mu_wx)]
    _, blocks = simulate._run_blocks(prior16, topo16, design, law, 6000, 9, monthly=True)
    mean = np.concatenate([scheme(y) for _, _, y, _, _ in blocks]).mean(axis=0)
    assert np.all(np.abs(mean - expect) <= 3 * se)


def test_targets_cover_forecast_months_and_unobserved_components(topo16, prior16):
    observed = topo16.components[0]
    never_seen = topo16.components[5]
    design = designs.design_from_times({observed: [3, 6, 9]}, 12)
    extended = forecast_extend(design, 6)
    targets = [("zmin", never_seen, 18), ("x", observed, 15), ("alpha", observed, 18)]
    mom = estimate_moments(
        prior16, topo16, extended, targets=targets, n_realizations=300, seed=10
    )
    tm = mom.target_moments()
    assert tm.e_targets.shape == (3,)
    assert np.all(tm.var_targets > 0)
    assert tm.cov_targets.shape == (3, 3)


def test_bad_target_requests_are_rejected(topo16, design16, prior16):
    with pytest.raises(ConfigError):
        estimate_moments(
            prior16, topo16, design16, targets=[("nope", topo16.components[0], 1)],
            n_realizations=10, seed=0,
        )
    with pytest.raises(ConfigError):
        estimate_moments(
            prior16, topo16, design16, targets=[("x", topo16.components[0], 999)],
            n_realizations=10, seed=0,
        )
    # a pass takes a difference scheme or targets, not both
    with pytest.raises(ConfigError):
        estimate_moments(
            prior16, topo16, design16, targets=[("x", topo16.components[0], 10)],
            n_realizations=10, seed=0, scheme=varlearn.build_scheme(design16, prior16.hyper.lam),
        )


def test_an_empty_design_with_a_target_has_no_observation_moments(topo16, prior16):
    empty = designs.design_from_times({}, 10)
    mom = estimate_moments(
        prior16, topo16, empty, targets=[("x", topo16.components[0], 5)],
        n_realizations=200, seed=0,
    )
    assert mom.e_y.shape == (0,)


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
            mom = estimate_moments(prior, topo8, design, case, n_realizations=n, seed=321)
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
DBAR_FIELDS = ("m1_sq", "m2_sq", "m1m2", "dbar_var", "mw_dbar_cov")


def _field(moments, name):
    """A field of a moment record; the target moments are built whole."""
    if name in TargetMoments._fields:
        return getattr(moments.target_moments(), name)
    return getattr(moments, name)


def test_one_law_call_equals_its_slice_of_a_multi_law_call(topo16, design16, prior16):
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    targets = [("zmin", topo16.components[0], 30), ("alpha", topo16.components[3], 40)]
    laws = [(0.0016, 0.01), (0.0064, 0.004), (0.0256, 0.03)]
    # the monthly drawer (targets, then a scheme), then the observed-cell
    # drawer (no targets, no scheme); the last field differs between laws
    for tg, sch, fields in (
        (targets, None, OBSERVATION_FIELDS),
        ((), scheme, DBAR_FIELDS),
        ((), None, ("e_y", "var_y")),
    ):
        many = estimate_moments_by_law(
            prior16, topo16, design16, laws, tg, n_realizations=300, seed=4, scheme=sch
        )
        for (sr, mu), est in zip(laws, many):
            one = estimate_moments(
                prior16, topo16, design16, tg, n_realizations=300, seed=4,
                sigma_r=sr, mu_wx=mu, scheme=sch,
            )
            for name in fields:
                _assert_close(_field(one, name), _field(est, name))
        assert not np.allclose(_field(many[0], fields[-1]), _field(many[2], fields[-1]))


def test_variance_scales_are_drawn_once_per_distinct_mean(topo16, design16, prior16, monkeypatch):
    drawn = []
    draw_scales = simulate._draw_scales

    def counted(prior, mu_wx, *args):
        drawn.append(mu_wx)
        return draw_scales(prior, mu_wx, *args)

    monkeypatch.setattr(simulate, "_draw_scales", counted)
    laws = [(0.0016, 0.01), (0.0064, 0.03), (0.0256, 0.01), (0.0064, 0.01)]
    estimate_moments_by_law(prior16, topo16, design16, laws, n_realizations=20, seed=3)
    assert drawn == [0.01, 0.03]


def test_moments_do_not_depend_on_the_block_size(topo16, design16, prior16, monkeypatch):
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    targets = [("zmin", c, 20) for c in topo16.components] + [("x", topo16.components[1], 40)]
    runs = {
        DBAR_FIELDS: lambda: estimate_moments(
            prior16, topo16, design16, n_realizations=47, seed=13, scheme=scheme
        ),
        OBSERVATION_FIELDS: lambda: estimate_moments(
            prior16, topo16, design16, targets, n_realizations=47, seed=13
        ),
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
    for name in ("_monthly_blocks", "_observed_blocks", "_min_blocks"):
        drawer = getattr(simulate, name)
        monkeypatch.setattr(
            simulate, name, lambda *a, _d=drawer, _n=name: drawn.append(_n) or _d(*a)
        )
    scheme = varlearn.build_scheme(design16, prior16.hyper.lam)
    student = make_prior(topo16, noise_dist="student_t", t_dof=6.0)
    target = [("x", topo16.components[0], 10)]
    for prior, targets, sch in (
        (prior16, target, None), (prior16, (), scheme), (student, (), None), (prior16, (), None),
    ):
        estimate_moments(prior, topo16, design16, targets, n_realizations=5, seed=1, scheme=sch)
    assert drawn == ["_monthly_blocks"] * 3 + ["_observed_blocks"]
    # the estimator study: under Gaussian noise its Dbar moments are exact
    # but for the draw of the minimum, and its replicate pass reads only the
    # observations; under Student-t noise both passes are monthly ensembles
    drawn.clear()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for prior in (prior16, student):
            estimator_study(
                prior, topo16, design16, 0.01, 0.01, replicates=3, seed=1, n_realizations=5
            )
    assert drawn == ["_min_blocks", "_observed_blocks"] + ["_monthly_blocks"] * 2


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
        estimate_moments(
            prior, topo8, design, targets, n_realizations=250, seed=5000 + b,
            sigma_r=law[0], mu_wx=law[1],
        )
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


def test_exact_moments_refuse_student_t_noise(topo16, design16):
    prior = make_prior(topo16, noise_dist="student_t", t_dof=6.0)
    with pytest.raises(ConfigError):
        exact_moments(prior, topo16, design16, [(0.01, 0.01)])


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


@pytest.mark.parametrize("hyper", DBAR_CASES.values(), ids=DBAR_CASES.keys())
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


def test_student_t_dbar_moments_are_the_ensemble(topo16, design16):
    prior = make_prior(topo16, noise_dist="student_t", t_dof=6.0)
    scheme = varlearn.build_scheme(design16, prior.hyper.lam)
    laws = [(0.0064, 0.01)]
    (got,) = simulate.moments_by_law(
        prior, topo16, design16, laws, n_realizations=50, seed=3, scheme=scheme
    )
    (ensemble,) = estimate_moments_by_law(
        prior, topo16, design16, laws, n_realizations=50, seed=3, scheme=scheme
    )
    for name in DBAR_FIELDS:
        assert np.array_equal(getattr(got, name), getattr(ensemble, name)), name
    with pytest.raises(ConfigError):
        simulate.exact_dbar_moments(prior, topo16, design16, laws, scheme, n_realizations=50)
