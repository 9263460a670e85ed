"""Command line driver: exit codes, artifacts, and reproducibility."""

import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from corrobayes import cli, diagnostics, fileio, linalg, simulate, varlearn

ARTIFACTS = (
    "prior_discrepancy.csv",
    "prior_discrepancy_components.csv",
    "h_curve.csv",
    "selected_variances.csv",
    "adjusted_beliefs.csv",
    "trajectory_bands.csv",
    "remnant_life.csv",
    "skipped_components.csv",
    "final_discrepancy.txt",
    "run_metadata.txt",
)

PRIORS_TEXT = """\
mu_WX = 0.01
sigma_WX = 0.0002
gamma_WX = 0.0001
lambda = 0.02
sigma_y = 0.0256
sigma_r = 0.0064
sigma_r_candidates = 0.0016, 0.0064, 0.0256
rho0 = 0.2
rhoC = 0.5
rhoD = 0.3
alpha0 = -0.05
x0 = 12.0
"""


def _write_workspace(tmp_path, inspections=True, horizon=24, run_extra=""):
    (tmp_path / "priors.cfg").write_text(PRIORS_TEXT)
    topo_lines = ["component_id,circuit_id,position_in_circuit"]
    for i in range(8):
        topo_lines.append(f"{i},{'A' if i < 4 else 'B'},{i % 4 + 1}")
    (tmp_path / "topology.csv").write_text("\n".join(topo_lines) + "\n")
    cfg = [
        "topology = topology.csv",
        "priors = priors.cfg",
        f"horizon = {horizon}",
        "origin_month = 1",
        "seed = 3",
        "realizations = 200",
    ]
    if inspections:
        rng = np.random.default_rng(0)
        rows = ["component,month,min_thickness_mm"]
        for i in range(8):
            for month in (2 + i % 3, 9, 15, horizon - i % 2):
                value = 12.0 - 0.06 * month + 0.03 * rng.standard_normal()
                rows.append(f"{i},{month},{value:.4f}")
        (tmp_path / "inspections.csv").write_text("\n".join(rows) + "\n")
        cfg.append("inspections = inspections.csv")
    if run_extra:
        cfg.append(run_extra)
    (tmp_path / "run.cfg").write_text("\n".join(cfg) + "\n")
    return tmp_path / "run.cfg"


def test_validate_succeeds_and_writes_the_prior_report(tmp_path, capsys):
    config = _write_workspace(tmp_path)
    out = tmp_path / "out"
    code = cli.main(["validate", "--config", str(config), "--out", str(out)])
    assert code == cli.EXIT_OK
    assert (out / "prior_discrepancy.csv").exists()
    assert "prior H" in capsys.readouterr().out


def test_validate_fails_on_records_for_unknown_components(tmp_path, capsys):
    config = _write_workspace(tmp_path)
    insp = tmp_path / "inspections.csv"
    insp.write_text(insp.read_text() + "99,5,11.0\n")
    out = tmp_path / "out"
    code = cli.main(["validate", "--config", str(config), "--out", str(out)])
    assert code == cli.EXIT_FAILURE
    assert "validation" in capsys.readouterr().err
    assert not out.exists()  # nothing written for an invalid dataset


def test_an_interrupt_inside_a_stage_is_not_turned_into_a_stage_failure(tmp_path, monkeypatch):
    config = _write_workspace(tmp_path)

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "moments_by_law", interrupted)
    out = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        cli.main(["validate", "--config", str(config), "--out", str(out)])
    assert not out.exists()


def test_missing_config_keys_exit_with_the_config_code(tmp_path, capsys):
    config = _write_workspace(tmp_path)
    text = config.read_text().replace("horizon = 24\n", "")
    config.write_text(text)
    code = cli.main(["validate", "--config", str(config)])
    assert code == cli.EXIT_CONFIG
    assert "horizon" in capsys.readouterr().err

    priors = tmp_path / "priors.cfg"
    priors.write_text(priors.read_text().replace("lambda = 0.02\n", ""))
    config.write_text(text.replace("", "", 1) + "horizon = 24\n")
    code = cli.main(["validate", "--config", str(config)])
    assert code == cli.EXIT_CONFIG


@pytest.mark.parametrize(
    "line",
    [
        "horizon = 2x",
        "origin_month = 1x",
        "extend_months = six",
        "x0 = 12mm",
        "sigma_r_candidates = 0.01,abc",
        "w_dist = gama",
        "mu_WX = nan",
        "critical_thickness = inf",
        pytest.param("sigma_r_candidates = 0.01,nan", id="sigma_r_candidates-nan"),
    ],
    ids=lambda line: line.split()[0],
)
def test_malformed_config_values_exit_with_the_config_code(tmp_path, capsys, line):
    config = _write_workspace(tmp_path, run_extra=line)  # a later key overrides
    code = cli.main(["validate", "--config", str(config), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert f"config error: config key {line.split()[0]!r}" in capsys.readouterr().err


STUDY_TRUTH = ["--true-wx", "0.01", "--true-sigr", "0.0064", "--replicates", "5"]


@pytest.mark.parametrize(
    "argv, run_extra, message",
    [
        (["analyze", "--seed", "-1"], "", "--seed must be nonnegative"),
        (["analyze"], "seed = -1", "seed must be nonnegative"),
        (["validate", "--realizations", "1"], "", "need at least 2 realizations"),
        (["validate"], "realizations = 1", "need at least 2 realizations"),
        (["simulate-study", *STUDY_TRUTH, "--true-sigr", "-0.001"], "", "--true-sigr must be"),
        (["simulate-study", *STUDY_TRUTH, "--true-sigr", "nan"], "", "--true-sigr must be"),
        (["simulate-study", *STUDY_TRUTH, "--true-wx", "nan"], "", "--true-wx must be"),
        (["simulate-study", *STUDY_TRUTH, "--true-wx", "0"], "", "--true-wx must be"),
        (["analyze", "--extend-months", "-1"], "", "extend_months must be nonnegative"),
        (["analyze"], "extend_months = -3", "extend_months must be nonnegative"),
    ],
    ids=[
        "seed-flag", "seed-key", "realizations-one", "realizations-key",
        "true-sigr-negative", "true-sigr-nan", "true-wx-nan", "true-wx-zero",
        "extend-months-flag", "extend-months-key",
    ],
)
def test_invalid_run_values_exit_with_the_config_code_before_any_stage(
    tmp_path, capsys, monkeypatch, argv, run_extra, message
):
    config = _write_workspace(tmp_path, run_extra=run_extra)  # a later key overrides

    def no_stage(name):
        raise AssertionError(f"stage {name!r} ran")

    monkeypatch.setattr(cli, "_stage", no_stage)
    out = tmp_path / "out"
    code = cli.main([argv[0], "--config", str(config), "--out", str(out), *argv[1:]])
    assert code == cli.EXIT_CONFIG
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_inspection_values_fail_validation_before_any_stage(
    tmp_path, capsys, monkeypatch, command, value
):
    config = _write_workspace(tmp_path)
    insp = tmp_path / "inspections.csv"
    header, first, *rest = insp.read_text().splitlines()
    insp.write_text("\n".join([header, first.rsplit(",", 1)[0] + f",{value}", *rest]) + "\n")

    def no_stage(name):
        raise AssertionError(f"stage {name!r} ran")

    monkeypatch.setattr(cli, "_stage", no_stage)
    out = tmp_path / "out"
    code = cli.main([command, "--config", str(config), "--out", str(out)])
    assert code == cli.EXIT_FAILURE
    assert "validation: value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_a_non_finite_topology_x0_exits_with_the_config_code_before_any_stage(
    tmp_path, capsys, monkeypatch, value
):
    config = _write_workspace(tmp_path)
    topo = tmp_path / "topology.csv"
    header, *rows = topo.read_text().splitlines()
    rows = [row + (f",{value}" if row.startswith("2,") else ",12.0") for row in rows]
    topo.write_text("\n".join([header + ",x0_mm", *rows]) + "\n")

    def no_stage(name):
        raise AssertionError(f"stage {name!r} ran")

    monkeypatch.setattr(cli, "_stage", no_stage)
    out = tmp_path / "out"
    code = cli.main(["analyze", "--config", str(config), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "bad x0_mm value" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_study_fails_validation_on_an_unknown_component_before_any_stage(
    tmp_path, capsys, monkeypatch
):
    config = _write_workspace(tmp_path)
    insp = tmp_path / "inspections.csv"
    insp.write_text(insp.read_text() + "99,5,11.0\n")

    def no_stage(name):
        raise AssertionError(f"stage {name!r} ran")

    monkeypatch.setattr(cli, "_stage", no_stage)
    out = tmp_path / "out"
    code = cli.main(["simulate-study", "--config", str(config), "--out", str(out), *STUDY_TRUTH])
    assert code == cli.EXIT_FAILURE
    assert "validation: unknown component 99" in capsys.readouterr().err
    assert not out.exists()


def test_component_ids_that_mix_numbers_and_names_exit_with_the_config_code_before_any_stage(
    tmp_path, capsys, monkeypatch
):
    config = _write_workspace(tmp_path)
    for name in ("topology.csv", "inspections.csv"):
        path = tmp_path / name
        header, *rows = path.read_text().splitlines()
        rows = ["P" + row if row.startswith("7,") else row for row in rows]
        path.write_text("\n".join([header, *rows]) + "\n")

    def no_stage(name):
        raise AssertionError(f"stage {name!r} ran")

    monkeypatch.setattr(cli, "_stage", no_stage)
    out = tmp_path / "out"
    code = cli.main(["analyze", "--config", str(config), "--out", str(out)])
    assert code == cli.EXIT_CONFIG
    assert "component ids mix numbers and names" in capsys.readouterr().err
    assert not out.exists()


def test_run_config_reads_the_seed_and_realizations_keys_and_a_flag_overrides_its_key(tmp_path):
    config = _write_workspace(tmp_path)
    text = config.read_text()

    def load(*flags):
        args = cli.build_parser().parse_args(["validate", "--config", str(config), *flags])
        rc = cli.load_run_config(args)
        return rc.n_realizations, rc.seed

    config.write_text(text.replace("seed = 3\n", "").replace("realizations = 200\n", ""))
    assert load() == (1000, 0)
    config.write_text(text + "realizations = 250\nseed = 9\n")  # a later key overrides
    assert load() == (250, 9)
    assert load("--realizations", "40") == (40, 9)
    assert load("--seed", "5") == (250, 5)


def _run_analysis(config, out):
    return cli.main(
        ["analyze", "--config", str(config), "--out", str(out), "--extend-months", "6"]
    )


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_analysis_emits_every_artifact_and_reruns_byte_identically(tmp_path, capsys):
    config = _write_workspace(tmp_path)
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    assert _run_analysis(config, out1) == cli.EXIT_OK
    assert "analysis complete" in capsys.readouterr().out
    produced = sorted(os.listdir(out1))
    assert produced == sorted(ARTIFACTS)  # exactly the documented set, no temp files

    assert _run_analysis(config, out2) == cli.EXIT_OK
    for name in ARTIFACTS:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_analysis_artifacts_have_the_documented_headers(tmp_path):
    config = _write_workspace(tmp_path)
    out = tmp_path / "out"
    assert _run_analysis(config, out) == cli.EXIT_OK
    heads = {
        "h_curve.csv": "sigma_r,adjusted_mu_WX,H,floored",
        "selected_variances.csv": "sigma_r,adjusted_mu_WX,adjusted_var_WX,H,floored",
        "remnant_life.csv": "component,mean_crossing,lower_band_crossing,upper_band_crossing",
    }
    for name, head in heads.items():
        assert (out / name).read_text().splitlines()[0] == head
    meta = (out / "run_metadata.txt").read_text()
    assert "seed = 3" in meta and "selected_sigma_r" in meta
    # 8 components x 4 visits; the exact var(Y) has full rank and needs no
    # finite-ensemble correction
    assert "var_y_rank = 32\n" in meta and "var_y_dim = 32\n" in meta
    assert "finite_sample_factor = 1.0\n" in meta
    assert "observation_moments = exact\n" in meta
    assert "learning_moments = exact\n" in meta
    assert f"band_convention_prior = {cli.PRIOR_BAND_EXACT}\n" in meta
    assert "pinv_rtol = 1e-10\n" in meta
    h_rows = [line.split(",") for line in (out / "h_curve.csv").read_text().splitlines()[1:]]
    assert len(h_rows) == 3
    for _, mu, _, floored in h_rows:
        assert floored == str(int(float(mu) <= 1e-12))
    (selected,) = [
        line.split(",") for line in (out / "selected_variances.csv").read_text().splitlines()[1:]
    ]
    sel_floored = str(int(float(selected[1]) <= 1e-12))
    assert selected[4] == sel_floored
    assert f"selected_floored = {sel_floored}\n" in meta
    final = (out / "final_discrepancy.txt").read_text()
    assert final.startswith("prior_H = ") and "final_H = " in final


def test_analysis_at_30_realizations_scores_exact_moments_without_a_finite_sample_warning(
    tmp_path, recwarn
):
    # 30 realizations would leave n - rank - 2 <= 0 for an ensemble's 32-point
    # var(Y); they now size only the draw of the minimum behind var(Dbar), and
    # final_H is exact
    config = _write_workspace(tmp_path)
    out = tmp_path / "out"
    code = cli.main(
        ["analyze", "--config", str(config), "--out", str(out),
         "--extend-months", "6", "--realizations", "30"]
    )
    assert code == cli.EXIT_OK
    assert not [w for w in recwarn if "finite-sample correction off" in str(w.message)]
    meta = (out / "run_metadata.txt").read_text()
    assert "finite_sample_factor = 1.0\n" in meta and "realizations = 30\n" in meta


def test_finite_sample_factor_warns_when_the_ensemble_is_too_small_for_the_rank():
    with pytest.warns(UserWarning, match="finite-sample correction off"):
        assert linalg.finite_sample_factor(29, 30) == 1.0
    assert linalg.finite_sample_factor(29, 200) == (200 - 29 - 2) / 199
    assert linalg.finite_sample_factor(29, None) == 1.0


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_validate_writes_the_prior_report_of_analyze(tmp_path):
    config = _write_workspace(tmp_path)
    assert _run_analysis(config, tmp_path / "analyze") == cli.EXIT_OK
    code = cli.main(["validate", "--config", str(config), "--out", str(tmp_path / "validate")])
    assert code == cli.EXIT_OK
    name = "prior_discrepancy.csv"
    assert (tmp_path / "validate" / name).read_bytes() == (tmp_path / "analyze" / name).read_bytes()


def _imported_modules(args, prefix):
    """Run the command line in a fresh interpreter; the sorted names of the
    loaded modules under ``prefix``."""
    script = (
        "import sys\n"
        "from corrobayes import cli\n"
        f"code = cli.main({args!r})\n"
        "assert code == 0, code\n"
        f"print(sorted(m for m in sys.modules if (m + '.').startswith({prefix + '.'!r})))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_analysis_imports_no_scipy(tmp_path):
    # importing scipy.special costs about a quarter of a second per run
    config = _write_workspace(tmp_path)
    args = [
        "analyze", "--config", str(config), "--out", str(tmp_path / "out"), "--extend-months", "6",
    ]
    assert _imported_modules(args, "scipy") == "[]"


def test_simulate_study_imports_no_numpy_ma(tmp_path):
    # np.quantile imports numpy.ma on its first call, about 17 ms
    config = _write_workspace(tmp_path, inspections=False)
    args = [
        "simulate-study", "--config", str(config), "--out", str(tmp_path / "study"),
        "--true-wx", "0.01", "--true-sigr", "0.0064", "--replicates", "20", "--realizations", "50",
    ]
    assert _imported_modules(args, "numpy.ma") == "[]"


def _instrumented_analysis(tmp_path, monkeypatch):
    """One analysis run; returns its output directory, the number of its
    simulation passes by kind (``ensemble`` for the blocked engine,
    ``min_part`` for the draw of the minimum behind exact Dbar moments), and
    the comparison with the observed vector it adjusted on."""
    passes, captured = {"ensemble": 0, "min_part": 0}, {}
    compare = cli.compare_with_without_variance_learning

    for kind, name in (("ensemble", "_ensemble"), ("min_part", "_min_blocks")):
        def counted(*args, _kind=kind, _orig=getattr(simulate, name), **kwargs):
            passes[_kind] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(simulate, name, counted)

    def kept(*args, **kwargs):
        captured["observed"] = args[2].values_vector()
        captured["comparison"] = compare(*args, **kwargs)
        return captured["comparison"]

    monkeypatch.setattr(cli, "compare_with_without_variance_learning", kept)
    out = tmp_path / "out"
    assert _run_analysis(_write_workspace(tmp_path), out) == cli.EXIT_OK
    return out, passes, captured["comparison"], captured["observed"]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_analysis_simulates_each_law_once_and_checks_the_prior_on_its_branch(
    tmp_path, monkeypatch
):
    out, passes, comparison, observed = _instrumented_analysis(tmp_path, monkeypatch)
    # no ensemble: every moment is exact but the fourth moments of the
    # minimum in calibration's learning pass, one draw for every candidate;
    # the prior check simulates nothing of its own
    assert passes == {"ensemble": 0, "min_part": 1}
    prior_h = diagnostics.global_discrepancy(observed, comparison.without_learning.moments)
    final = (out / "final_discrepancy.txt").read_text().splitlines()
    assert final[0] == f"prior_H = {fileio.fmt(prior_h)}"
    assert "observation_moments = exact\n" in (out / "run_metadata.txt").read_text()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_student_t_analysis_keeps_the_rescoring_and_adjustment_ensembles(tmp_path, monkeypatch):
    build = fileio.build_prior
    monkeypatch.setattr(
        cli.fileio, "build_prior",
        lambda *a, **k: dataclasses.replace(build(*a, **k), noise_dist="student_t", t_dof=6.0),
    )
    out, passes, comparison, observed = _instrumented_analysis(tmp_path, monkeypatch)
    # the learning and rescoring passes, and one two-law pass for both
    # adjustment branches, whose moments are the ensemble's
    assert passes == {"ensemble": 3, "min_part": 0}
    assert comparison.without_learning.moments.n_realizations == 200
    meta = (out / "run_metadata.txt").read_text()
    assert "observation_moments = ensemble\n" in meta
    assert "learning_moments = ensemble\n" in meta
    assert f"band_convention_prior = {cli.PRIOR_BAND_ENSEMBLE}\n" in meta


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_prior_bands_lie_within_monte_carlo_error_of_ensemble_percentiles(tmp_path, monkeypatch):
    _, _, comparison, _ = _instrumented_analysis(tmp_path, monkeypatch)
    args = cli.build_parser().parse_args(["analyze", "--config", str(tmp_path / "run.cfg")])
    rc = cli.load_run_config(args)
    prior, topology = rc.prior, rc.topology
    rows = list(cli._band_rows(comparison, prior))
    targets = [("zmin", row[0], row[1]) for row in rows]
    assert len(rows) == len(topology.components) * 30
    # the share of a large prior-law ensemble below each exact band edge is
    # 2.5% or 97.5% within 4 binomial standard errors; the engine's targets
    # are minus their prior trend
    comp = np.array([topology.components.index(c) for _, c, _ in targets])
    months = np.array([t for _, _, t in targets])
    trend = prior.x0[comp] + prior.alpha0[comp] * months
    n = 20000
    _, blocks = simulate._run_blocks(
        prior, topology, simulate.forecast_extend(rc.dataset, 6),
        [(prior.sigma_r, prior.hyper.mu_wx)], n, seed=11, targets=targets,
    )
    edges = np.array([[row[2] for row in rows], [row[4] for row in rows]]) - trend
    below = sum((t_b[:, None] < edges).sum(axis=0) for _, _, _, _, t_b in blocks)
    p = np.array([[0.025], [0.975]])
    z = (below / n - p) / np.sqrt(p * (1 - p) / n)
    assert np.abs(z).max() < 4.0, np.abs(z).max()


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "noise_dist, realizations, var_y_rank",
    # an exact var(Y) has full rank; a Student-t ensemble of 20 realizations
    # gives a rank-19 var(Y) of the 32 observations
    [("gaussian", "200", 32), ("student_t", "20", 19)],
)
def test_only_a_rank_deficient_var_y_is_eigendecomposed(
    tmp_path, monkeypatch, noise_dist, realizations, var_y_rank
):
    build = fileio.build_prior
    monkeypatch.setattr(
        cli.fileio, "build_prior",
        lambda *a, **k: dataclasses.replace(build(*a, **k), noise_dist=noise_dist, t_dof=6.0),
    )
    sizes, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        # quadrature rules call eigh too; count the linear algebra module's calls
        if sys._getframe(1).f_globals["__name__"] == linalg.__name__:
            sizes.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    out = tmp_path / "out"
    code = cli.main(
        ["analyze", "--config", str(_write_workspace(tmp_path)), "--out", str(out),
         "--extend-months", "6", "--realizations", realizations]
    )
    assert code == cli.EXIT_OK
    meta = (out / "run_metadata.txt").read_text()
    assert f"var_y_rank = {var_y_rank}\n" in meta and "var_y_dim = 32\n" in meta
    assert (32 in sizes) == (var_y_rank < 32), sizes


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_the_selected_candidates_h_is_final_h_exactly(tmp_path):
    # the rescoring pass and the learned adjustment branch have the same
    # exact var(Y), and every H goes through one route
    out = tmp_path / "out"
    assert _run_analysis(_write_workspace(tmp_path), out) == cli.EXIT_OK
    (selected,) = (out / "selected_variances.csv").read_text().splitlines()[1:]
    sigma_r, _, _, h, _ = selected.split(",")
    (curve_h,) = [
        row.split(",")[2]
        for row in (out / "h_curve.csv").read_text().splitlines()[1:]
        if row.split(",")[0] == sigma_r
    ]
    final = (out / "final_discrepancy.txt").read_text().splitlines()
    assert final[1] == f"final_H = {h}" and curve_h == h


def test_simulate_study_falls_back_to_the_reference_design(tmp_path, capsys):
    config = _write_workspace(tmp_path, inspections=False)
    out = tmp_path / "study"
    code = cli.main(
        [
            "simulate-study", "--config", str(config), "--out", str(out),
            "--true-wx", "0.01", "--true-sigr", "0.0064",
            "--replicates", "3", "--realizations", "150",
        ]
    )
    assert code == cli.EXIT_OK
    assert (out / "estimator_distribution.csv").exists()
    summary = (out / "estimator_summary.csv").read_text().splitlines()
    assert summary[0] == "mean,q05,q95,true_mu_WX,true_sigma_r,replicates,floored"
    estimates = [
        float(line.split(",")[1])
        for line in (out / "estimator_distribution.csv").read_text().splitlines()[1:]
    ]
    assert summary[1].split(",")[-1] == str(sum(e <= 1e-12 for e in estimates))
    assert "estimator over 3 replicates" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["validate", "simulate-study"])
def test_an_unwritable_out_fails_the_emit_stage(tmp_path, capsys, command):
    # --out names a regular file, so its directory cannot be made
    config = _write_workspace(tmp_path)
    out = tmp_path / "taken"
    out.write_text("")
    args = [command, "--config", str(config), "--out", str(out)]
    if command == "simulate-study":
        args += ["--true-wx", "0.01", "--true-sigr", "0.0064",
                 "--replicates", "3", "--realizations", "50"]
    assert cli.main(args) == cli.EXIT_FAILURE
    assert "error: pipeline stage 'emit' failed" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_an_analysis_builds_one_difference_scheme(tmp_path, monkeypatch):
    calls, build = [], varlearn.build_scheme

    def counted(*args, **kwargs):
        calls.append(1)
        return build(*args, **kwargs)

    # every name bound to the builder, in whichever module imported it
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "corrobayes":
            for attr, value in list(vars(module).items()):
                if value is build:
                    monkeypatch.setattr(module, attr, counted)
    assert _run_analysis(_write_workspace(tmp_path), tmp_path / "out") == cli.EXIT_OK
    assert len(calls) == 1
