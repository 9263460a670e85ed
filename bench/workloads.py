"""Workload definitions of the corrobayes benchmark (pure Python, no numpy).

Every workload runs on one 32-component, 4-circuit system with the test
suite's reference priors; data are drawn at sigma_r = 0.0064 and
mu_WX = 0.01 with the variance scales held fixed.  The sizes are scaled down
from the ROADMAP's reference run (64 components, 83 + 24 months, 1000
realizations, about 166 s per call) so that one ``cli.main`` call takes a few
seconds and a run can take the median of more than ten calls: the
inspection window is 18 months plus 12 forecast months, and ensembles are
smaller.  What distinguishes the two workloads is kept: ``analyze`` runs every
layer with a full-rank var(Y), and the estimator study makes many small
per-replicate calls and bypasses adjustment and diagnostics.
"""

from __future__ import annotations

COMPONENTS = 32
CIRCUITS = 4
HORIZON = 18
EXTEND_MONTHS = 12

PRIORS = {
    "mu_WX": 0.01,
    "sigma_WX": 1e-3,
    "gamma_WX": 5e-4,
    "lambda": 0.02,
    "sigma_y": 0.0256,
    "sigma_r": 0.0064,
    "rho0": 0.2,
    "rhoC": 0.5,
    "rhoD": 0.3,
    "alpha0": -0.01,
    "x0": 12.0,
    "locations_per_component": 10,
    "critical_thickness": 4.0,
}

#: Values the synthetic data are drawn at.
TRUE_SIGMA_R = 0.0064
TRUE_MU_WX = 0.01

#: Calibration grid written into priors.cfg: 12 log-spaced values spanning
#: [mu_WX/25, 25*mu_WX], the package's default grid made explicit so that the
#: benchmark fixes it.
SIGMA_R_GRID = tuple(
    PRIORS["mu_WX"] / 25.0 * 625.0 ** (i / 11.0) for i in range(12)
)

#: The data are drawn with the workload seed itself; the CLI's run seed is
#: derived from it, so the default seed gives the reference pair (7, 3).
DEFAULT_SEED = 7


def run_seed(seed: int) -> int:
    return (int(seed) - 4) % 2**31


#: Inspection design shared by both workloads: ``monitored`` components
#: visited ``visits`` times each, at most ``total`` observations.
DESIGN = {"total": 174, "visits": 6, "monitored": 29}

WORKLOADS = {
    "analyze-ref": {
        "why": (
            "analyze on the 174-obs irregular reference design, 200 realizations "
            "(full-rank var(Y)): 27 simulated ensembles for calibration and "
            "adjustment, and the resolved-variance eigh"
        ),
        "command": "analyze",
        "realizations": 200,
    },
    "study-ref": {
        "why": (
            "simulate-study on the same design: 1000 small draw_dataset "
            "and varlearn calls; no adjustment, diagnostics or large-matrix linalg"
        ),
        "command": "simulate-study",
        "realizations": 400,
        "replicates": 1000,
    },
}


def argv_for(name: str, config: str, out: str) -> list:
    """Arguments of the ``cli.main`` call a workload times."""
    w = WORKLOADS[name]
    argv = [w["command"], "--config", config, "--out", out]
    if w["command"] == "analyze":
        argv += ["--extend-months", str(EXTEND_MONTHS)]
    else:
        argv += [
            "--true-wx", repr(TRUE_MU_WX),
            "--true-sigr", repr(TRUE_SIGMA_R),
            "--replicates", str(w["replicates"]),
        ]
    return argv


def n_observations() -> int:
    d = DESIGN
    return min(d["total"], d["visits"] * min(d["monitored"], COMPONENTS))


def expected_rows(name: str) -> dict:
    """Row counts the output check requires of each artifact."""
    w = WORKLOADS[name]
    if w["command"] != "analyze":
        return {"estimator_distribution.csv": w["replicates"], "estimator_summary.csv": 1}
    months = HORIZON + EXTEND_MONTHS
    return {
        "adjusted_beliefs.csv": COMPONENTS * months + 2 * COMPONENTS,
        "trajectory_bands.csv": COMPONENTS * months,
        "h_curve.csv": len(SIGMA_R_GRID),
        "remnant_life.csv": COMPONENTS,
        "prior_discrepancy.csv": n_observations(),
        "selected_variances.csv": 1,
    }


def describe(name: str, seed: int) -> dict:
    """Workload parameters as recorded with every result."""
    w = WORKLOADS[name]
    return {
        "workload": name,
        "command": w["command"],
        "components": COMPONENTS,
        "circuits": CIRCUITS,
        "horizon": HORIZON,
        "extend_months": EXTEND_MONTHS if w["command"] == "analyze" else 0,
        "design": DESIGN,
        "observations": n_observations(),
        "realizations": w["realizations"],
        "replicates": w.get("replicates"),
        "data_seed": seed,
        "run_seed": run_seed(seed),
        "true_sigma_r": TRUE_SIGMA_R,
        "true_mu_WX": TRUE_MU_WX,
    }

