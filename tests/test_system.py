"""Topology, correlation assembly, and variance hyperstructure draws."""

import math

import numpy as np
import pytest

from corrobayes import designs
from corrobayes.errors import ConfigError, InvalidCorrelationError
from corrobayes.system import (
    CorrelationParams,
    InspectionDataset,
    InspectionRecord,
    SystemTopology,
    VarianceHyperprior,
    build_correlation,
    draw_variance_scales,
    validate_dataset,
)
from conftest import APPENDIX_CORR, APPENDIX_HYPER


def test_distance_is_absolute_position_difference(topo16):
    c0, c1, c2 = topo16.components[0], topo16.components[1], topo16.components[3]
    assert topo16.distance(c0, c0) == 0.0
    assert topo16.distance(c0, c1) == 1.0
    assert topo16.distance(c1, c0) == 1.0
    assert topo16.distance(c0, c2) == 3.0
    cross = topo16.components[4]  # first component of the next circuit
    assert not topo16.same_circuit(c0, cross)
    assert topo16.distance(c0, cross) == np.inf


def test_correlation_entries_follow_the_three_term_form(topo16):
    corr = CorrelationParams(**APPENDIX_CORR, nu=1.0)
    pi = build_correlation(topo16, corr)
    assert np.allclose(np.diag(pi), 1.0)
    # same circuit, distance 1 and 2
    assert pi[0, 1] == pytest.approx(0.2 + 0.5 + 0.3 * np.exp(-1.0))
    assert pi[0, 2] == pytest.approx(0.2 + 0.5 + 0.3 * np.exp(-2.0))
    # different circuits: only the universal floor survives
    assert pi[0, 4] == pytest.approx(0.2)
    assert np.allclose(pi, pi.T)


def test_correlation_matches_the_pairwise_definition():
    # reference: one entry at a time from the topology's own distance and
    # circuit predicates
    topo = designs.four_circuit_topology()
    corr = CorrelationParams(**APPENDIX_CORR, nu=0.7)
    n = topo.component_count
    ref = np.empty((n, n))
    for i, c in enumerate(topo.components):
        for j, cp in enumerate(topo.components):
            s = topo.distance(c, cp)
            decay = 0.0 if np.isinf(s) else math.exp(-corr.nu * s)
            same = 1.0 if topo.same_circuit(c, cp) else 0.0
            ref[i, j] = 1.0 if i == j else corr.rho0 + corr.rhoC * same + corr.rhoD * decay
    np.testing.assert_allclose(build_correlation(topo, corr), ref, rtol=1e-15, atol=0)


def test_reference_correlation_matrix_is_positive_semidefinite():
    topo = designs.four_circuit_topology()
    pi = build_correlation(topo, CorrelationParams(**APPENDIX_CORR))
    eig = np.linalg.eigvalsh(pi)
    assert eig.min() >= -1e-8 * eig.max()


def test_correlation_is_equivariant_under_circuit_preserving_relabeling(topo16):
    corr = CorrelationParams(**APPENDIX_CORR)
    pi = build_correlation(topo16, corr)
    perm = np.random.default_rng(3).permutation(16)
    comps = tuple(topo16.components[i] for i in perm)
    relabeled = SystemTopology(
        comps,
        {c: topo16.circuit_of[c] for c in comps},
        {c: topo16.position_of[c] for c in comps},
    )
    pi2 = build_correlation(relabeled, corr)
    assert np.allclose(pi2, pi[np.ix_(perm, perm)])


def test_indefinite_correlation_parameters_are_rejected():
    # distance-0 pairs within one circuit would force correlation 1 between
    # distinct components; duplicate positions are rejected at construction
    with pytest.raises(ConfigError):
        SystemTopology((0, 1), {0: 0, 1: 0}, {0: 0, 1: 0})
    # a hand-built rank-breaking matrix: huge decay with nu tiny makes all
    # entries nearly equal; that stays PSD, so instead check the error path
    # by monkey-free construction of an inconsistent parameter set
    with pytest.raises(ConfigError):
        CorrelationParams(0.6, 0.5, 0.3)


def test_correlation_stays_psd_over_random_parameters_and_layouts():
    # the three-term form is a sum of PSD kernels, so any admissible
    # parameter set on any circuit layout must produce a PSD matrix
    rng = np.random.default_rng(31)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        n_circ = int(rng.integers(1, 4))
        comps = tuple(range(n))
        circ = {c: int(rng.integers(0, n_circ)) for c in comps}
        pos_counters = {}
        pos = {}
        for c in comps:
            pos[c] = pos_counters.get(circ[c], 0)
            pos_counters[circ[c]] = pos[c] + 1
        topo = SystemTopology(comps, circ, pos)
        raw = rng.random(3)
        raw *= rng.random() / max(raw.sum(), 1e-9)
        corr = CorrelationParams(*raw, nu=float(rng.random() * 3 + 0.1))
        pi = build_correlation(topo, corr)
        eig = np.linalg.eigvalsh(pi)
        assert eig.min() >= -1e-8 * max(eig.max(), 1e-12)


def test_variance_draw_moments_match_the_hyperprior():
    hyper = VarianceHyperprior(**APPENDIX_HYPER)
    rng = np.random.default_rng(7)
    n, reps = 8, 150000
    ws = np.empty((reps, n))
    ms = np.empty(reps)
    for i in range(reps):
        ws[i], ms[i] = draw_variance_scales(hyper, n, rng)
    assert np.all(ws > 0)
    assert ws.mean() == pytest.approx(hyper.mu_wx, rel=0.03)
    assert ms.var(ddof=1) == pytest.approx(hyper.gamma_wx, rel=0.08)
    assert ws.var(ddof=1) == pytest.approx(hyper.sigma_wx, rel=0.08)
    # covariance between two components of the same draw
    cov = np.cov(ws[:, 0], ws[:, 1])[0, 1]
    assert cov == pytest.approx(hyper.gamma_wx, rel=0.15)


def test_variance_draw_distributions_share_moments():
    hyper = VarianceHyperprior(**APPENDIX_HYPER)
    for dist in ("gamma", "lognormal", "gaussian"):
        rng = np.random.default_rng(9)
        w, m = draw_variance_scales(hyper, 5, rng, w_dist=dist)
        assert w.shape == (5,)
        assert np.all(w >= 0)
    with pytest.raises(ConfigError):
        draw_variance_scales(hyper, 5, np.random.default_rng(0), w_dist="cauchy")


@pytest.mark.parametrize("dist", ["gamma", "lognormal", "gaussian"])
@pytest.mark.parametrize("mean", [None, 0.02])
@pytest.mark.parametrize(
    "hyper_vars", [(1e-3, 5e-4), (0.0, 0.0), (5e-4, 5e-4), (1e-3, 0.0)],
    ids=["both", "none", "mean-only", "residual-only"],
)
def test_batched_variance_draws_equal_the_sequential_loop(dist, mean, hyper_vars):
    # ``mean`` None keeps the hyperprior's mu_wx; a value moves it, as the
    # ensemble does for each law's mu_wx
    hyper = VarianceHyperprior(0.01, *hyper_vars, lam=0.02)
    if mean is not None:
        hyper = hyper.with_mean(mean)
    seq_rng, batch_rng = np.random.default_rng(11), np.random.default_rng(11)
    seq = [draw_variance_scales(hyper, 6, seq_rng, dist) for _ in range(40)]
    w, m = draw_variance_scales(hyper, 6, batch_rng, dist, size=40)
    assert np.array_equal(w, np.array([ws for ws, _ in seq]))
    assert np.array_equal(m, np.array([ms for _, ms in seq]))
    # both consumed the stream alike
    assert seq_rng.random() == batch_rng.random()


def test_hyperprior_rejects_inconsistent_parameters():
    with pytest.raises(ConfigError):
        VarianceHyperprior(-0.01, 1e-3, 5e-4, 0.02)
    with pytest.raises(ConfigError):
        VarianceHyperprior(0.01, 1e-4, 5e-4, 0.02)  # gamma above sigma
    with pytest.raises(ConfigError):
        VarianceHyperprior(0.01, 1e-3, 5e-4, 0.0)


def test_dataset_validation_reports_each_violation(topo16):
    good = topo16.components[0]
    ds = InspectionDataset(
        (
            InspectionRecord(good, 1, 12.0),
            InspectionRecord(good, 1, 11.9),   # duplicate
            InspectionRecord("ghost", 2, 11.0),  # unknown component
            InspectionRecord(good, 99, 10.0),  # beyond horizon
        ),
        horizon=40,
    )
    findings = validate_dataset(ds, topo16)
    assert len(findings) == 3
    assert any("duplicate" in f for f in findings)
    assert any("unknown" in f for f in findings)
    assert any("outside" in f for f in findings)


def test_values_vector_follows_canonical_point_order(topo16):
    a, b = topo16.components[1], topo16.components[0]
    ds = InspectionDataset(
        (InspectionRecord(a, 5, 1.0), InspectionRecord(b, 9, 2.0), InspectionRecord(b, 2, 3.0)),
        horizon=10,
    )
    pts = ds.design_points()
    assert pts == sorted(pts)
    vec = ds.values_vector()
    lookup = dict(zip(pts, vec))
    assert lookup[(a, 5)] == 1.0 and lookup[(b, 2)] == 3.0


def test_with_values_round_trips_and_checks_length(topo16):
    ds = InspectionDataset((InspectionRecord(topo16.components[0], 3),), horizon=5)
    out = ds.with_values(np.array([7.5]))
    assert out.values_vector()[0] == 7.5
    with pytest.raises(Exception):
        ds.with_values(np.array([1.0, 2.0]))


def test_reference_design_shape():
    topo = designs.four_circuit_topology()
    d = designs.reference_design(topo)
    assert topo.component_count == 64
    assert d.horizon == 83
    assert len(d.records) == 174
    by_comp = d.by_component()
    assert all(len(recs) >= 3 for recs in by_comp.values())
    assert validate_dataset(d, topo) == []
