"""Discrepancy diagnostics at every grouping level."""

import numpy as np
import pytest

from corrobayes import diagnostics, linalg
from corrobayes.adjust import adjust_from_moments
from corrobayes.errors import ConfigError, ShapeError
from corrobayes.simulate import draw_dataset, estimate_moments, exact_moments
from conftest import make_prior


class _StubMoments:
    """Minimal moment container for synthetic diagnostic inputs."""

    def __init__(self, points, mean, cov, n_realizations=100000):
        self.design_points = points
        self.e_y = np.asarray(mean, dtype=float)
        self.var_y = np.asarray(cov, dtype=float)
        self.n_realizations = n_realizations

    def y_moment_pair(self):
        return linalg.MomentPair(self.e_y, self.var_y)


def _random_block_moments(rng, comps=3, per_comp=2):
    points, blocks = [], []
    for c in range(comps):
        for t in range(per_comp):
            points.append((f"c{c}", t + 1))
        a = rng.standard_normal((per_comp, per_comp + 2))
        blocks.append(a @ a.T + 0.1 * np.eye(per_comp))
    n = comps * per_comp
    cov = np.zeros((n, n))
    for c, b in enumerate(blocks):
        s = slice(c * per_comp, (c + 1) * per_comp)
        cov[s, s] = b
    return _StubMoments(points, rng.standard_normal(n), cov)


def test_global_value_matches_the_explicit_quadratic_form():
    rng = np.random.default_rng(0)
    mom = _random_block_moments(rng)
    y = mom.e_y + rng.standard_normal(mom.e_y.size)
    resid = y - mom.e_y
    rank = np.linalg.matrix_rank(mom.var_y)
    factor = (mom.n_realizations - rank - 2) / (mom.n_realizations - 1)
    expected = resid @ np.linalg.inv(mom.var_y) @ resid / rank * factor
    assert diagnostics.global_discrepancy(y, mom) == pytest.approx(expected, rel=1e-9)


def test_per_component_rows_use_the_diagonal_blocks():
    # with a block-diagonal covariance the component discrepancies are the
    # blockwise quadratic forms, and their rank-weighted mean is the global
    rng = np.random.default_rng(2)
    mom = _random_block_moments(rng, comps=4, per_comp=3)
    y = mom.e_y + rng.standard_normal(mom.e_y.size)
    report = diagnostics.data_discrepancy(y, mom, grouping="per-component")
    assert len(report.rows) == 4
    for c, row in enumerate(report.rows):
        idx = [i for i, (comp, _) in enumerate(mom.design_points) if comp == f"c{c}"]
        direct = linalg.mahalanobis_discrepancy(
            y[idx], linalg.MomentPair(mom.e_y[idx], mom.var_y[np.ix_(idx, idx)]),
            sample_size=mom.n_realizations,
        )
        assert row.value == pytest.approx(direct, rel=1e-12)
        assert row.component == f"c{c}" and row.time is None
    # blocks have equal rank, so the plain mean matches the global up to the
    # slightly different finite-ensemble factors of rank 3 vs rank 12
    ranks = 3
    fs_block = (mom.n_realizations - ranks - 2) / (mom.n_realizations - 1)
    fs_global = (mom.n_realizations - 12 - 2) / (mom.n_realizations - 1)
    mean_block = np.mean([r.value for r in report.rows]) / fs_block
    global_raw = diagnostics.global_discrepancy(y, mom) / fs_global
    assert mean_block == pytest.approx(global_raw, rel=1e-9)


def test_unknown_grouping_is_rejected():
    mom = _random_block_moments(np.random.default_rng(3))
    with pytest.raises(ConfigError):
        diagnostics.data_discrepancy(mom.e_y, mom, grouping="per-circuit")


def test_zero_variance_groups_are_marked_indeterminate_not_flagged():
    points = [("a", 1), ("a", 2)]
    cov = np.array([[1.0, 0.0], [0.0, 0.0]])
    mom = _StubMoments(points, np.zeros(2), cov)
    report = diagnostics.data_discrepancy(np.array([0.5, 99.0]), mom)
    first, second = report.rows
    assert not first.indeterminate
    assert second.indeterminate and not second.flagged and np.isnan(second.value)


def test_per_observation_rows_equal_one_by_one_moment_pairs():
    rng = np.random.default_rng(9)
    points = [("a", t) for t in range(1, 9)]
    a = rng.standard_normal((8, 8))
    cov = a @ a.T
    cov[5, :] = cov[:, 5] = 0.0
    mom = _StubMoments(points, rng.standard_normal(8), cov, n_realizations=300)
    y = mom.e_y + 3.0 * rng.standard_normal(8)
    report = diagnostics.data_discrepancy(y, mom)
    for i, row in enumerate(report.rows):
        assert (row.label, row.component, row.time) == (str(points[i]), "a", i + 1)
        if i == 5:
            assert row.indeterminate and not row.flagged and np.isnan(row.value)
            continue
        # bit for bit the spectral factor of the 1 x 1 variance
        one = linalg.MomentPair(mom.e_y[i : i + 1], cov[i : i + 1, i : i + 1])
        one.factor = linalg._SpectralFactor(one.covariance, "covariance")
        assert row.value == linalg.mahalanobis_discrepancy(y[i : i + 1], one, 300)
        assert row.flagged == (row.value > diagnostics.DEFAULT_THRESHOLD)
        assert not row.indeterminate
    cov[2, 2] = -1e-6
    with pytest.raises(ShapeError, match="positive semi-definite"):
        diagnostics.data_discrepancy(y, mom)


def test_per_observation_tail_stays_below_threshold_under_the_model(topo16, design16):
    # moderate hypervariances: a heavy-tailed variance mixture legitimately
    # throws occasional large per-observation discrepancies
    prior = make_prior(topo16, sigma_wx=2e-5, gamma_wx=1e-5)
    mom = estimate_moments(prior, topo16, design16, n_realizations=2000, seed=20)
    clean_runs = 0
    reps = 20
    for i in range(reps):
        data = draw_dataset(prior, topo16, design16, seed=300 + i)
        report = diagnostics.data_discrepancy(data.values_vector(), mom)
        values = np.array([r.value for r in report.rows])
        # a unit-mean ratio with chi-square-like tails puts a few values
        # above the threshold even under the model; a run only counts as
        # suspicious when a sizable share of observations are flagged
        if np.mean(values > diagnostics.DEFAULT_THRESHOLD) <= 0.15:
            clean_runs += 1
    assert clean_runs >= 0.9 * reps


def test_threshold_flags_only_values_above_it():
    rng = np.random.default_rng(4)
    mom = _random_block_moments(rng)
    # graded offsets: the small ones stay below the threshold
    y = mom.e_y + np.linspace(0.0, 8.0, mom.e_y.size)
    report = diagnostics.data_discrepancy(y, mom)
    threshold = diagnostics.DEFAULT_THRESHOLD
    assert report.flagged() == [r for r in report.rows if r.value > threshold]
    assert 0 < len(report.flagged()) < len(report.rows)


def test_adjustment_diagnostics_flag_a_displaced_system(topo16, design16):
    prior = make_prior(topo16)
    data = draw_dataset(prior, topo16, design16, seed=21)
    targets = [("x", c, design16.horizon) for c in topo16.components]
    law = [(prior.sigma_r, prior.hyper.mu_wx)]
    beliefs = adjust_from_moments(next(exact_moments(prior, topo16, data, law, targets)), data)
    clean = diagnostics.adjustment_diagnostics(beliefs)
    assert all(np.isfinite(r.value) for r in clean.rows if not r.indeterminate)

    # the same data interpreted under a prior whose initial thickness is
    # several sigma away forces a mean shift far beyond the resolved variance
    shifted_prior = make_prior(topo16, x0=np.full(16, 12.0 + 5.0))
    shifted = adjust_from_moments(
        next(exact_moments(shifted_prior, topo16, data, law, targets)), data
    )
    report = diagnostics.adjustment_diagnostics(shifted)
    assert any(r.flagged for r in report.rows)


def test_adjustment_diagnostics_report_zero_rows_without_data(topo16, prior16):
    from corrobayes import designs

    empty = designs.design_from_times({}, 20)
    (mom,) = exact_moments(
        prior16, topo16, empty, [(prior16.sigma_r, prior16.hyper.mu_wx)],
        [("x", topo16.components[0], 20)],
    )
    beliefs = adjust_from_moments(mom, empty)
    report = diagnostics.adjustment_diagnostics(beliefs)
    (row,) = report.rows
    assert row.value == 0.0 and not row.flagged


@pytest.mark.parametrize("n_realizations", [400, 40])
def test_adjustment_diagnostics_equal_the_full_resolved_variance_form(
    topo16, design16, n_realizations
):
    # reference: the whole n_t x n_t resolved variance, then each kind's block;
    # under Student-t noise, with the minimum read off 400 or 40 draws
    prior = make_prior(topo16, noise_dist="student_t", t_dof=6.0)
    data = draw_dataset(prior, topo16, design16, seed=21)
    targets = [("zmin", c, t) for c in topo16.components for t in (10, 40)]
    targets += [("x", c, 40) for c in topo16.components]
    law = [(prior.sigma_r, prior.hyper.mu_wx)]
    beliefs = adjust_from_moments(
        next(exact_moments(prior, topo16, data, law, targets, n_realizations, 3)), data
    )
    mom = beliefs.moments
    pinv, rank = linalg.pinv_with_rank(mom.var_y)
    assert rank == len(mom.design_points)
    tm = mom.target_moments()
    resolved = tm.cov_targets @ pinv @ tm.cov_targets.T
    resolved = 0.5 * (resolved + resolved.T)
    expected_var = tm.var_targets - np.diag(resolved)
    assert np.max(np.abs(beliefs.adjusted_var - expected_var)) <= 1e-10 * np.max(tm.var_targets)

    report = diagnostics.adjustment_diagnostics(beliefs)
    assert [r.label for r in report.rows] == ["zmin", "x"]
    for row in report.rows:
        idx = [j for j, (kind, _, _) in enumerate(targets) if kind == row.label]
        shift = beliefs.adjusted_mean[idx] - beliefs.prior_mean[idx]
        ref = linalg.adjustment_discrepancy(
            shift, np.zeros_like(shift), resolved[np.ix_(idx, idx)],
            sample_size=mom.n_realizations,
        )
        assert row.value == pytest.approx(ref, rel=1e-10)


def test_update_h_and_adjustment_diagnostics_share_one_factor_of_var_y(
    topo16, design16, decompositions
):
    prior = make_prior(topo16)
    data = draw_dataset(prior, topo16, design16, seed=21)
    targets = [("zmin", c, t) for c in topo16.components for t in (10, 40)]
    targets += [("x", c, 40) for c in topo16.components]
    (mom,) = exact_moments(prior, topo16, design16, [(prior.sigma_r, prior.hyper.mu_wx)], targets)
    decompositions.clear()  # simulation factors the correlation matrix
    beliefs = adjust_from_moments(mom, data)
    diagnostics.global_discrepancy(data.values_vector(), mom)
    diagnostics.adjustment_diagnostics(beliefs)
    # var(Y) has full rank: one shifted Cholesky certifies it, and the
    # adjustment builds its root from one more; H solves against it
    n = len(mom.design_points)
    assert decompositions == [n, n]
