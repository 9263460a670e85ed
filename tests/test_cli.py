"""Command line driver: exit codes, artifacts, and reproducibility."""

import os

import numpy as np
import pytest

from corrobayes import cli, diagnostics, fileio, simulate

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

    monkeypatch.setattr(cli, "estimate_moments", interrupted)
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
    # 8 components x 4 visits; 200 realizations leave var(Y) full rank
    assert "var_y_rank = 32\n" in meta and "var_y_dim = 32\n" in meta
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


def _instrumented_analysis(tmp_path, monkeypatch):
    """One analysis run; returns its output directory, the number of blocked
    simulation passes it made, and the comparison with its observed vector."""
    passes, captured = [], {}
    run_blocks = simulate._run_blocks
    compare = cli.compare_with_without_variance_learning

    def counted(*args, **kwargs):
        passes.append(1)
        return run_blocks(*args, **kwargs)

    def kept(*args, **kwargs):
        captured["observed"] = args[3]
        captured["comparison"] = compare(*args, **kwargs)
        return captured["comparison"]

    monkeypatch.setattr(simulate, "_run_blocks", counted)
    monkeypatch.setattr(cli, "compare_with_without_variance_learning", kept)
    out = tmp_path / "out"
    assert _run_analysis(_write_workspace(tmp_path), out) == cli.EXIT_OK
    return out, len(passes), captured["comparison"], captured["observed"]


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_analysis_simulates_each_law_once_and_checks_the_prior_on_its_branch(
    tmp_path, monkeypatch
):
    out, passes, comparison, observed = _instrumented_analysis(tmp_path, monkeypatch)
    # calibration's learning and rescoring passes, and one two-law pass for
    # both adjustment branches; the prior check simulates nothing of its own
    assert passes == 3
    prior_h = diagnostics.global_discrepancy(observed, comparison.without_learning.moments)
    final = (out / "final_discrepancy.txt").read_text().splitlines()
    assert final[0] == f"prior_H = {fileio.fmt(prior_h)}"


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_prior_bands_equal_the_per_target_percentiles(tmp_path, monkeypatch):
    _, _, comparison, _ = _instrumented_analysis(tmp_path, monkeypatch)
    samples = comparison.without_learning.moments.target_samples
    expected = [
        tuple(np.percentile(samples[:, j], [2.5, 97.5]))
        for j, r in enumerate(comparison.without_learning.rows)
        if r.kind == "zmin"
    ]
    rows = cli._band_rows(comparison)
    assert len(rows) == len(expected) > 0
    assert [(row[2], row[4]) for row in rows] == expected


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
