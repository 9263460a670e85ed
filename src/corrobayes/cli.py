"""End-to-end command line driver.

Subcommands:

* ``analyze`` runs the full procedure on an observed dataset: prior
  consistency checks, local-variance calibration, mean adjustment with and
  without variance learning, remnant-life forecasting, and closing
  diagnostics, emitting plot-ready delimited files.  Its prior check reads
  the moments of the without-learning adjustment branch.
* ``simulate-study`` replicates the variance-learning estimator on synthetic
  systems with known truth and reports its distribution.
* ``validate`` parses the inputs and emits the prior discrepancy report only.

Exit status: 0 on success (diagnostic warning flags do not fail a run),
1 on validation or pipeline failure, 2 on configuration errors.  Among
these, found before any stage runs: a missing key, a malformed value, a
number that is NaN or infinite (a config value, a topology ``x0_mm`` or an
inspection month), a topology whose component ids mix numbers and names,
an unknown ``noise_dist`` or ``w_dist``, a negative seed (``seed`` key or
``--seed``), a negative ``--extend-months`` or ``extend_months`` key, fewer
than 2 realizations (``realizations`` key or ``--realizations``), a
``--true-sigr`` that is negative or not finite, and a ``--true-wx`` that is
not positive or not finite; and, as
validation failures, an inspection value that is NaN or infinite
(``analyze``, ``validate``), and a record for a component the topology
does not list (every command; ``simulate-study`` only when the config
names an ``inspections`` file).  A ``--replicates`` below 1 exits 2 at the
start of the study stage.  An ``--out`` that cannot be written fails the
``emit`` stage of every command, with exit 1.  Output files are written
only after every computing stage has finished, so a failure in one of them
writes nothing.
Each file is then replaced on its own, through a temporary file of its own
name and a rename: no file is left truncated and concurrent runs do not
share a temporary file, but a failure while the files are written can leave
a mix of new and earlier files.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import designs, diagnostics, fileio, linalg
from .adjust import BAND_CONVENTION, ZMIN, band_half_width, compare_with_without_variance_learning
from .calibrate import calibrate, estimator_study
from .errors import ConfigError
from .simulate import (
    TARGET_KINDS, _size_and_seed, forecast_extend, moments_by_law, zmin_quantiles,
)
from .system import validate_dataset

#: ``band_convention_prior`` in run_metadata.txt, by how the moments were made.
PRIOR_BAND_EXACT = "exact 2.5%/97.5% quantiles of the prior marginal"
PRIOR_BAND_ENSEMBLE = "prior mean +/- 1.96*sqrt(prior variance)"

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


@dataclass
class RunConfig:
    """Resolved run inputs (paths parsed, overrides applied)."""

    topology: object
    dataset: object
    prior: object
    extend_months: int
    out_dir: str
    seed: int
    n_realizations: int


@contextlib.contextmanager
def _stage(name: str):
    """Re-raise a failure inside the stage as a RuntimeError naming it;
    ConfigError and interrupts (BaseException only) pass through unchanged."""
    try:
        yield
    except ConfigError:
        raise
    except Exception as exc:
        raise RuntimeError(f"pipeline stage '{name}' failed: {exc}") from exc


def load_run_config(args) -> RunConfig:
    config = fileio.read_keyvalues(args.config)
    if "priors" in config:
        base = os.path.join(os.path.dirname(args.config), config["priors"])
        merged = fileio.read_keyvalues(base)
        merged.update(config)
        config = merged

    def path_of(key):
        if key not in config:
            raise ConfigError(f"missing required config key {key!r}")
        return os.path.join(os.path.dirname(args.config), config[key])

    def flag_or_key(flag, key):
        """A run setting: its flag if given, else its config key, else None."""
        if flag is None and key in config:
            return fileio._get(config, key, int)
        return flag

    topology = fileio.parse_topology(path_of("topology"))
    prior = fileio.build_prior(config, topology)
    origin = fileio._get(config, "origin_month", int, 1)
    horizon = fileio._get(config, "horizon", int)
    # the estimator study falls back to the reference design
    dataset = None
    if args.command != "simulate-study" or "inspections" in config:
        dataset = fileio.parse_inspections(path_of("inspections"), origin, horizon)
    seed = flag_or_key(args.seed, "seed")
    if seed is not None and seed < 0:
        name = "seed" if args.seed is None else "--seed"
        raise ConfigError(f"{name} must be nonnegative, got {seed}")
    n, seed = _size_and_seed(flag_or_key(args.realizations, "realizations"), seed)
    extend = flag_or_key(getattr(args, "extend_months", None), "extend_months") or 0
    if extend < 0:
        raise ConfigError(f"extend_months must be nonnegative, got {extend}")
    return RunConfig(
        topology, dataset, prior, extend, getattr(args, "out", None) or "out", seed, n,
    )


def _report_findings(findings: list) -> list:
    """Print one ``validation:`` line per finding; return the findings."""
    for f in findings:
        print(f"validation: {f}", file=sys.stderr)
    return findings


def _dataset_findings(rc: RunConfig) -> list:
    """``validate_dataset``'s findings, plus one per inspection value that is
    NaN or infinite."""
    return validate_dataset(rc.dataset, rc.topology) + [
        f"value {rec.value} for component {rec.component} at time {rec.time} is not finite"
        for rec in rc.dataset.records
        if not math.isfinite(rec.value)
    ]


def _diag_rows(report):
    return [
        (r.component, r.time, r.value, int(r.flagged), int(r.indeterminate))
        for r in report.rows
    ]


def run_analysis(rc: RunConfig) -> int:
    """Steps: calibration, paired adjustment, forecasts, prior check,
    diagnostics; then emit all artifacts.

    Under Gaussian noise every moment is exact (``simulate.moments_by_law``)
    but one part of var(Dbar) in calibration's learning pass, the fourth
    moments of the minimum, which it simulates from the local walks and
    eps_y alone.  Under Student-t noise calibration's learning and
    rescoring passes and the two-law adjustment pass, at the extended
    horizon, are ensembles.  The prior check reads the without-learning
    branch's moments, which have the prior law.
    """
    if _report_findings(_dataset_findings(rc)):
        return EXIT_FAILURE

    with _stage("calibration"):
        calibration = calibrate(
            rc.prior, rc.topology, rc.dataset, seed=rc.seed, n_realizations=rc.n_realizations,
        )

    with _stage("adjustment"):
        extended = forecast_extend(rc.dataset, rc.extend_months)
        horizon = extended.horizon
        targets = [
            ("zmin", c, t) for c in rc.topology.components for t in range(1, horizon + 1)
        ]
        targets += [("alpha", c, horizon) for c in rc.topology.components]
        targets += [("x", c, horizon) for c in rc.topology.components]
        comparison = compare_with_without_variance_learning(
            rc.prior, rc.topology, extended, targets=targets,
            seed=rc.seed, n_realizations=rc.n_realizations,
            calibration=calibration,
        )

    observed = rc.dataset.values_vector()
    with _stage("prior-consistency"):
        prior_moments = comparison.without_learning.moments
        prior_obs = diagnostics.data_discrepancy(observed, prior_moments, "per-observation")
        prior_comp = diagnostics.data_discrepancy(observed, prior_moments, "per-component")
        prior_h = diagnostics.global_discrepancy(observed, prior_moments)

    with _stage("diagnostics"):
        learned_moments = comparison.with_learning.moments
        var_y_rank = learned_moments.y_moment_pair().factor.rank
        final_h = diagnostics.global_discrepancy(observed, learned_moments)
        adj_diag = diagnostics.adjustment_diagnostics(comparison.with_learning)

    with _stage("emit"):
        out = rc.out_dir
        os.makedirs(out, exist_ok=True)
        fileio.write_csv(
            os.path.join(out, "prior_discrepancy.csv"),
            ["component", "t", "discrepancy", "flagged", "indeterminate"],
            _diag_rows(prior_obs),
        )
        fileio.write_csv(
            os.path.join(out, "prior_discrepancy_components.csv"),
            ["component", "t", "discrepancy", "flagged", "indeterminate"],
            _diag_rows(prior_comp),
        )
        fileio.write_csv(
            os.path.join(out, "h_curve.csv"),
            ["sigma_r", "adjusted_mu_WX", "H", "floored"],
            [(r.sigma_r, r.adjusted_mu_wx, r.h, int(r.floored)) for r in calibration.rows],
        )
        sel = calibration.selected
        fileio.write_csv(
            os.path.join(out, "selected_variances.csv"),
            ["sigma_r", "adjusted_mu_WX", "adjusted_var_WX", "H", "floored"],
            [(sel.sigma_r, sel.adjusted_mu_wx, sel.adjusted_var_wx, sel.h, int(sel.floored))],
        )
        fileio.write_csv(
            os.path.join(out, "adjusted_beliefs.csv"),
            ["quantity", "component", "t", "prior_mean", "adjusted_mean", "prior_var", "adjusted_var"],
            _belief_rows(comparison.with_learning),
        )
        fileio.write_csv(
            os.path.join(out, "trajectory_bands.csv"),
            ["component", "t",
             "prior_lo", "prior_mean", "prior_hi",
             "nolearn_lo", "nolearn_mean", "nolearn_hi",
             "learn_lo", "learn_mean", "learn_hi"],
            _band_rows(comparison, rc.prior),
        )
        life = comparison.life_with
        fileio.write_csv(
            os.path.join(out, "remnant_life.csv"),
            ["component", "mean_crossing", "lower_band_crossing", "upper_band_crossing"],
            [
                (cl.component, cl.mean_crossing, cl.lower_band_crossing, cl.upper_band_crossing)
                for cl in life.per_component
            ],
        )
        fileio.write_csv(
            os.path.join(out, "skipped_components.csv"),
            ["component"],
            [(c,) for c in calibration.scheme.skipped],
        )
        diag_lines = [f"prior_H = {fileio.fmt(prior_h)}", f"final_H = {fileio.fmt(final_h)}"]
        diag_lines += [f"Dis_Y({r.label}) = {fileio.fmt(r.value)}" for r in adj_diag.rows]
        fileio.atomic_write_text(
            os.path.join(out, "final_discrepancy.txt"), "\n".join(diag_lines) + "\n"
        )
        exact = learned_moments.n_realizations is None
        meta = [
            f"seed = {rc.seed}",
            f"realizations = {rc.n_realizations}",
            f"observation_moments = {'exact' if exact else 'ensemble'}",
            # the learning pass is exact exactly when the observation moments are
            f"learning_moments = {'exact' if exact else 'ensemble'}",
            f"extend_months = {rc.extend_months}",
            f"band_convention_adjusted = {BAND_CONVENTION}",
            f"band_convention_prior = {PRIOR_BAND_EXACT if exact else PRIOR_BAND_ENSEMBLE}",
            "discrepancy_grouping = per-observation rows; per-component aggregates",
            f"selected_sigma_r = {fileio.fmt(sel.sigma_r)}",
            f"selected_mu_WX = {fileio.fmt(sel.adjusted_mu_wx)}",
            f"selected_floored = {int(sel.floored)}",
            f"var_y_rank = {var_y_rank}",
            f"finite_sample_factor = "
            f"{fileio.fmt(linalg.finite_sample_factor(var_y_rank, learned_moments.n_realizations))}",
            f"var_y_dim = {len(learned_moments.design_points)}",
            f"pinv_rtol = {fileio.fmt(linalg.DEFAULT_RTOL)}",
        ]
        fileio.atomic_write_text(os.path.join(out, "run_metadata.txt"), "\n".join(meta) + "\n")
    print(f"analysis complete: final H = {final_h:.6g} (artifacts in {out})")
    return EXIT_OK


def _belief_rows(beliefs):
    """adjusted_beliefs.csv rows, read off the belief's arrays."""
    names = [TARGET_KINDS[k] for k in beliefs.kind.tolist()]
    columns = (
        beliefs.component, beliefs.time, beliefs.prior_mean, beliefs.adjusted_mean,
        beliefs.prior_var, beliefs.adjusted_var,
    )
    return zip(names, *(c.tolist() for c in columns))


def _band_rows(comparison, prior):
    """Per zmin target: the prior band and mean, then each branch's adjusted
    band and mean; both branches share one target list, so their rows align.

    With exact moments the prior band is the exact 2.5%/97.5% quantiles of
    the target's prior marginal (``simulate.zmin_quantiles``); with ensemble
    moments (Student-t noise) it is the prior mean +/- 1.96 prior sds."""
    without, learned = comparison.without_learning, comparison.with_learning
    zmin = np.flatnonzero(without.kind == ZMIN)
    prior_mean = without.prior_mean[zmin]
    if without.moments.n_realizations is None:
        lo, hi = zmin_quantiles(prior, without.time[zmin], (0.025, 0.975)).T
    else:
        hi = band_half_width(without.prior_var[zmin])
        lo = -hi
    columns = [prior_mean + lo, prior_mean, prior_mean + hi]
    for branch in (without, learned):
        mean = branch.adjusted_mean[zmin]
        half = band_half_width(branch.adjusted_var[zmin])
        columns += [mean - half, mean, mean + half]
    return zip(
        without.component[zmin].tolist(), without.time[zmin].tolist(),
        *(c.tolist() for c in columns),
    )


def run_validate(rc: RunConfig) -> int:
    if _report_findings(_dataset_findings(rc)):
        return EXIT_FAILURE
    with _stage("prior-consistency"):
        (moments,) = moments_by_law(
            rc.prior, rc.topology, rc.dataset, [(rc.prior.sigma_r, rc.prior.hyper.mu_wx)],
            n_realizations=rc.n_realizations, seed=rc.seed,
        )
        observed = rc.dataset.values_vector()
        report = diagnostics.data_discrepancy(observed, moments, "per-observation")
        prior_h = diagnostics.global_discrepancy(observed, moments)
    with _stage("emit"):
        os.makedirs(rc.out_dir, exist_ok=True)
        fileio.write_csv(
            os.path.join(rc.out_dir, "prior_discrepancy.csv"),
            ["component", "t", "discrepancy", "flagged", "indeterminate"],
            _diag_rows(report),
        )
    print(f"dataset valid; prior H = {prior_h:.6g}; {len(report.flagged())} flagged observations")
    return EXIT_OK


def run_study(rc: RunConfig, args) -> int:
    if not 0.0 <= args.true_sigr < math.inf:
        raise ConfigError(f"--true-sigr must be finite and nonnegative, got {args.true_sigr}")
    if not 0.0 < args.true_wx < math.inf:
        raise ConfigError(f"--true-wx must be finite and positive, got {args.true_wx}")
    design = rc.dataset
    if design is None:
        design = designs.reference_design(rc.topology)
    elif _report_findings(validate_dataset(design, rc.topology)):  # values are not read
        return EXIT_FAILURE
    with _stage("simulation-study"):
        study = estimator_study(
            rc.prior, rc.topology, design,
            true_mu_wx=args.true_wx, true_sigma_r=args.true_sigr,
            replicates=args.replicates, seed=rc.seed, n_realizations=rc.n_realizations,
        )
    with _stage("emit"):
        os.makedirs(rc.out_dir, exist_ok=True)
        fileio.write_csv(
            os.path.join(rc.out_dir, "estimator_distribution.csv"),
            ["replicate", "adjusted_mu_WX"],
            list(enumerate(study.estimates)),
        )
        fileio.write_csv(
            os.path.join(rc.out_dir, "estimator_summary.csv"),
            ["mean", "q05", "q95", "true_mu_WX", "true_sigma_r", "replicates", "floored"],
            [(study.mean, study.q05, study.q95, args.true_wx, args.true_sigr, args.replicates,
              study.floored)],
        )
    print(
        f"estimator over {args.replicates} replicates: mean {study.mean:.6g} "
        f"(sqrt {math.sqrt(study.mean):.4f}), 5% {study.q05:.6g}, 95% {study.q95:.6g}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrobayes",
        description="Bayes linear inference for corroding multi-component systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="key=value run configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--realizations", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory (default: out)")

    p_an = sub.add_parser("analyze", help="full inference run on observed data")
    common(p_an)
    p_an.add_argument("--extend-months", type=int, default=None, dest="extend_months")

    p_st = sub.add_parser("simulate-study", help="replicate the estimator on known truth")
    common(p_st)
    p_st.add_argument("--true-wx", type=float, required=True, dest="true_wx")
    p_st.add_argument("--true-sigr", type=float, required=True, dest="true_sigr")
    p_st.add_argument("--replicates", type=int, required=True)

    p_va = sub.add_parser("validate", help="parse inputs and run the prior check only")
    common(p_va)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        rc = load_run_config(args)
        if args.command == "analyze":
            return run_analysis(rc)
        if args.command == "validate":
            return run_validate(rc)
        return run_study(rc, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
