"""Properties of the Bayes linear algebra primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrobayes import linalg
from corrobayes.errors import DegenerateVarianceError, ShapeError
from corrobayes.linalg import MomentPair


def random_psd(rng, dim, rank=None):
    rank = dim if rank is None else rank
    a = rng.standard_normal((dim, rank))
    return a @ a.T


@st.composite
def psd_instances(draw):
    dim = draw(st.integers(min_value=1, max_value=50))
    rank = draw(st.integers(min_value=0, max_value=dim))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return random_psd(rng, dim, rank)


@settings(max_examples=60, deadline=None)
@given(psd_instances())
def test_pseudo_inverse_satisfies_penrose_conditions(a):
    ap = linalg.pseudo_inverse(a)
    scale = max(np.linalg.norm(a), 1.0)
    assert np.linalg.norm(a @ ap @ a - a) <= 1e-8 * scale
    pscale = max(np.linalg.norm(ap), 1.0)
    assert np.linalg.norm(ap @ a @ ap - ap) <= 1e-8 * pscale
    aap = a @ ap
    apa = ap @ a
    assert np.linalg.norm(aap - aap.T) <= 1e-8 * max(np.linalg.norm(aap), 1.0)
    assert np.linalg.norm(apa - apa.T) <= 1e-8 * max(np.linalg.norm(apa), 1.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=20))
def test_adjusted_variance_never_exceeds_prior_variance(seed, dim):
    rng = np.random.default_rng(seed)
    n_data = int(rng.integers(1, 15))
    joint = random_psd(rng, dim + n_data)
    prior = MomentPair(rng.standard_normal(dim), joint[:dim, :dim])
    data = MomentPair(rng.standard_normal(n_data), joint[dim:, dim:])
    cross = joint[:dim, dim:]
    adj = linalg.adjusted_variance(prior, data, cross)
    eig = np.linalg.eigvalsh(prior.covariance - adj)
    scale = max(np.abs(np.linalg.eigvalsh(prior.covariance)).max(), 1e-12)
    assert eig.min() >= -1e-8 * scale


def test_adjusting_twice_by_the_same_data_changes_nothing():
    # after one adjustment the data's own expectation is updated to E_D(D);
    # the remaining residual carries no information, so a second pass with
    # the same observations moves the expectation by (numerically) nothing
    rng = np.random.default_rng(4)
    joint = random_psd(rng, 9)
    prior = MomentPair(rng.standard_normal(4), joint[:4, :4])
    data = MomentPair(rng.standard_normal(5), joint[4:, 4:])
    cross = joint[:4, 4:]
    d = rng.standard_normal(5)
    once = linalg.adjusted_expectation(prior, data, cross, d)
    e_dd = linalg.adjusted_expectation(data, data, data.covariance, d)
    prior2 = MomentPair(once, linalg.adjusted_variance(prior, data, cross))
    data2 = MomentPair(e_dd, data.covariance)
    twice = linalg.adjusted_expectation(prior2, data2, cross, d)
    assert np.linalg.norm(twice - once) < 1e-10 * max(np.linalg.norm(once), 1.0)


def test_zero_covariance_adjustment_is_a_no_op():
    rng = np.random.default_rng(11)
    prior = MomentPair(rng.standard_normal(3), random_psd(rng, 3))
    data = MomentPair(rng.standard_normal(4), random_psd(rng, 4))
    cross = np.zeros((3, 4))
    out = linalg.adjusted_expectation(prior, data, cross, rng.standard_normal(4))
    assert np.allclose(out, prior.mean)
    assert np.allclose(linalg.adjusted_variance(prior, data, cross), prior.covariance)


def test_full_rank_self_adjustment_reproduces_the_data():
    rng = np.random.default_rng(12)
    cov = random_psd(rng, 6)
    mean = rng.standard_normal(6)
    prior = MomentPair(mean, cov)
    d = rng.standard_normal(6)
    out = linalg.adjusted_expectation(prior, prior, cov, d)
    assert np.allclose(out, d, atol=1e-8)
    adj = linalg.adjusted_variance(prior, prior, cov)
    assert np.linalg.norm(adj) <= 1e-8 * np.linalg.norm(cov)


def test_discrepancy_of_gaussian_draws_averages_one():
    rng = np.random.default_rng(21)
    cov = random_psd(rng, 8)
    mean = rng.standard_normal(8)
    prior = MomentPair(mean, cov)
    chol = np.linalg.cholesky(cov + 1e-12 * np.eye(8))
    vals = [
        linalg.mahalanobis_discrepancy(mean + chol @ rng.standard_normal(8), prior)
        for _ in range(1500)
    ]
    assert 0.9 <= np.mean(vals) <= 1.1


def test_discrepancy_normalizes_by_rank_not_dimension():
    cov = np.diag([1.0, 0.0, 0.0])
    prior = MomentPair(np.zeros(3), cov)
    val = linalg.mahalanobis_discrepancy(np.array([2.0, 0.0, 0.0]), prior)
    assert val == pytest.approx(4.0)


def test_finite_ensemble_correction_shrinks_the_ratio():
    cov = np.eye(5)
    prior = MomentPair(np.zeros(5), cov)
    y = np.ones(5)
    plain = linalg.mahalanobis_discrepancy(y, prior)
    corrected = linalg.mahalanobis_discrepancy(y, prior, sample_size=50)
    assert corrected == pytest.approx(plain * (50 - 5 - 2) / 49)
    # tiny ensembles cannot be corrected and fall back to the plain ratio, with a warning
    with pytest.warns(UserWarning, match="finite-sample correction off"):
        assert linalg.mahalanobis_discrepancy(y, prior, sample_size=6) == pytest.approx(plain)


def test_zero_rank_variance_is_rejected():
    prior = MomentPair(np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(DegenerateVarianceError):
        linalg.mahalanobis_discrepancy(np.zeros(2), prior)


def test_moment_pair_rejects_asymmetric_and_indefinite_input():
    with pytest.raises(ShapeError):
        MomentPair(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ShapeError):
        MomentPair(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_adjustment_rejects_mismatched_shapes():
    prior = MomentPair(np.zeros(2), np.eye(2))
    data = MomentPair(np.zeros(3), np.eye(3))
    with pytest.raises(ShapeError):
        linalg.adjusted_expectation(prior, data, np.zeros((2, 2)), np.zeros(3))
    with pytest.raises(ShapeError):
        linalg.adjusted_expectation(prior, data, np.zeros((2, 3)), np.zeros(4))


def test_adjustment_discrepancy_restricts_to_resolved_space():
    rv = np.diag([4.0, 0.0])
    val = linalg.adjustment_discrepancy([2.0, 7.0], [0.0, 7.0], rv)
    assert val == pytest.approx(1.0)


@st.composite
def whitened_adjustments(draw):
    # G = U diag(s) V' of rank k: orthonormal U, V and singular values in
    # [0.1, 10], times an overall scale.  Either k < min(n_t, r), or G is tall
    # with full column rank (k = r < n_t), as a kind block of an adjustment
    # with more targets than data directions is
    n_t = draw(st.integers(min_value=2, max_value=30))
    r = draw(st.integers(min_value=2, max_value=30))
    if r < n_t and draw(st.booleans()):
        k = r
    else:
        k = draw(st.integers(min_value=1, max_value=min(n_t, r) - 1))
    scale = 10.0 ** draw(st.integers(min_value=-6, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    u = np.linalg.qr(rng.standard_normal((n_t, k)))[0]
    v = np.linalg.qr(rng.standard_normal((r, k)))[0]
    g = scale * (u * rng.uniform(0.1, 10.0, k)) @ v.T
    sample_size = draw(st.sampled_from([None, 200]))
    return g, rng.standard_normal(r), sample_size


@settings(max_examples=60, deadline=None)
@given(whitened_adjustments())
def test_data_space_adjustment_discrepancy_equals_the_resolved_variance_form(case):
    g, z, sample_size = case
    shift = g @ z
    ref = linalg.adjustment_discrepancy(shift, np.zeros_like(shift), g @ g.T, sample_size)
    val = linalg.whitened_adjustment_discrepancy(g, z, sample_size)
    assert val == pytest.approx(ref, rel=1e-9)


def _spectral(pair):
    """The same moments with the eigendecomposition factor in place of the
    full-rank certificate."""
    out = MomentPair(pair.mean, pair.covariance)
    out.factor = linalg._SpectralFactor(out.covariance, "covariance")
    return out


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=40))
def test_certified_full_rank_moments_agree_with_the_eigendecomposition(seed, dim):
    rng = np.random.default_rng(seed)
    n_targets = int(rng.integers(dim + 1, dim + 20))  # tall G: the Gram shortcut
    joint = random_psd(rng, n_targets + dim, n_targets + dim + 10)
    prior = MomentPair(rng.standard_normal(n_targets), joint[:n_targets, :n_targets])
    data = MomentPair(rng.standard_normal(dim), joint[n_targets:, n_targets:])
    assert isinstance(data.factor, linalg._CertifiedFactor) and data.factor.rank == dim
    ref = _spectral(data)
    assert ref.factor.rank == dim
    cross, d = joint[:n_targets, n_targets:], rng.standard_normal(dim)

    def close(a, b):
        return np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1e-300)

    assert close(
        linalg.mahalanobis_discrepancy(d, data, 500), linalg.mahalanobis_discrepancy(d, ref, 500)
    )
    assert close(
        linalg.adjusted_expectation(prior, data, cross, d),
        linalg.adjusted_expectation(prior, ref, cross, d),
    )
    assert close(
        linalg.adjusted_variance(prior, data, cross), linalg.adjusted_variance(prior, ref, cross)
    )
    dis = [
        linalg.whitened_adjustment_discrepancy(
            cross @ p.factor.root, p.factor.whiten(d - p.mean), 500
        )
        for p in (data, ref)
    ]
    assert close(dis[0], dis[1])


def _with_spectrum(rng, vals):
    q = np.linalg.qr(rng.standard_normal((len(vals), len(vals))))[0]
    v = (q * vals) @ q.T
    return 0.5 * (v + v.T)


def test_the_certificate_keeps_every_rank_decision_of_the_cutoff(decompositions):
    rng = np.random.default_rng(5)
    vals = np.concatenate([[1.0], rng.uniform(0.1, 1.0, 11)])
    # below the cutoff: the certificate fails and eigh drops the direction
    low = _with_spectrum(rng, np.append(vals, 0.5 * linalg.DEFAULT_RTOL * vals.max()))
    pair = MomentPair(np.zeros(13), low)
    assert isinstance(pair.factor, linalg._SpectralFactor) and pair.factor.rank == 12
    assert decompositions == [13, 13]  # the failed Cholesky, then eigh
    # twice the certificate's shift: certified, no eigh
    decompositions.clear()
    high = _with_spectrum(rng, np.append(vals, 2 * linalg.DEFAULT_RTOL * np.linalg.norm(vals)))
    pair = MomentPair(np.zeros(13), high)
    assert isinstance(pair.factor, linalg._CertifiedFactor) and pair.factor.rank == 13
    assert decompositions == [13]


def test_a_covariance_from_fewer_realizations_than_dimensions_takes_eigh(decompositions):
    rng = np.random.default_rng(6)
    cov = np.cov(rng.standard_normal((10, 20)), rowvar=False)
    pair = MomentPair(np.zeros(20), cov)
    assert isinstance(pair.factor, linalg._SpectralFactor) and pair.factor.rank == 9
    assert decompositions == [20, 20]


def test_indefinite_and_asymmetric_input_raise_before_any_certificate(decompositions):
    rng = np.random.default_rng(7)
    indefinite = _with_spectrum(rng, np.append(rng.uniform(0.5, 1.0, 9), -0.1))
    with pytest.raises(ShapeError, match="positive semi-definite"):
        MomentPair(np.zeros(10), indefinite)
    # the lower triangle alone is positive definite, so only the symmetry
    # check can catch it, and it runs first
    decompositions.clear()
    asymmetric = np.tril(random_psd(rng, 10)) + 2 * np.eye(10)
    with pytest.raises(ShapeError, match="symmetric"):
        MomentPair(np.zeros(10), asymmetric)
    assert decompositions == []


def _qr_svd_form(g, z):
    _, s, vt = np.linalg.svd(np.linalg.qr(g, mode="r"), full_matrices=False)
    keep = s * s > linalg.DEFAULT_RTOL * s[0] * s[0]
    w = vt[keep] @ z
    return float(w @ w), int(keep.sum())


def test_the_gram_shortcut_equals_qr_and_svd_and_falls_back_when_rank_deficient(monkeypatch):
    rng = np.random.default_rng(8)
    z = rng.standard_normal(12)
    full = rng.standard_normal((40, 12))
    deficient = rng.standard_normal((40, 7)) @ rng.standard_normal((7, 12))
    (full_form, full_rank), (low_form, low_rank) = (_qr_svd_form(g, z) for g in (full, deficient))
    assert (full_rank, low_rank) == (12, 7)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(
        np.linalg, "svd", lambda *a, **k: calls.append(np.shape(a[0])) or svd(*a, **k)
    )
    val = linalg.whitened_adjustment_discrepancy(full, z, 200)
    assert calls == []  # certified: no QR or SVD
    assert val == pytest.approx(full_form / 12 * (200 - 12 - 2) / 199, rel=1e-12)
    val = linalg.whitened_adjustment_discrepancy(deficient, z, 200)
    assert calls == [(12, 12)]
    assert val == pytest.approx(low_form / 7 * (200 - 7 - 2) / 199, rel=1e-12)
