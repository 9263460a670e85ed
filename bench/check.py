"""Output check of one measured call (pure Python).

``check(name, out_dir)`` returns a list of problems; an empty list means the
artifacts are correct.  A call that exits non-zero or has any problem counts
as failed.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import workloads as wl

ANALYZE_ARTIFACTS = (
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
STUDY_ARTIFACTS = ("estimator_distribution.csv", "estimator_summary.csv")

#: Columns that may be blank: a crossing that never happens, and the time of
#: a per-component aggregate.
BLANK_OK = {
    "remnant_life.csv": {"mean_crossing", "lower_band_crossing", "upper_band_crossing"},
    "prior_discrepancy_components.csv": {"t"},
}
TEXT_COLUMNS = {"adjusted_beliefs.csv": {"quantity"}}

#: The study's estimator mean must lie within this share of the true mu_WX.
STUDY_MEAN_RTOL = 0.10


def artifacts(name):
    return ANALYZE_ARTIFACTS if wl.WORKLOADS[name]["command"] == "analyze" else STUDY_ARTIFACTS


def digests(name, out_dir) -> dict:
    out = {}
    for f in artifacts(name):
        with open(os.path.join(out_dir, f), "rb") as fh:
            out[f] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _numbers(fname, rows, problems):
    """Parse every numeric cell; report non-finite or unparsable ones."""
    blank_ok = BLANK_OK.get(fname, set())
    text = TEXT_COLUMNS.get(fname, set())
    parsed = []
    for i, row in enumerate(rows, start=2):
        vals = {}
        for col, cell in row.items():
            if col in text:
                continue
            if cell == "" and col in blank_ok:
                vals[col] = None
                continue
            try:
                v = float(cell)
            except (TypeError, ValueError):
                problems.append(f"{fname}:{i}: {col} = {cell!r} is not a number")
                continue
            if not math.isfinite(v):
                problems.append(f"{fname}:{i}: {col} = {cell} is not finite")
            vals[col] = v
        parsed.append(vals)
    return parsed


def _key_values(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(" = ")
            if sep:
                out[key] = value
    return out


def _check_analyze(name, out_dir, problems):
    tables = {}
    for fname, count in wl.expected_rows(name).items():
        rows = _read_csv(os.path.join(out_dir, fname))
        if len(rows) != count:
            problems.append(f"{fname}: {len(rows)} rows, expected {count}")
        tables[fname] = _numbers(fname, rows, problems)
    for fname in ("prior_discrepancy_components.csv", "skipped_components.csv"):
        _numbers(fname, _read_csv(os.path.join(out_dir, fname)), problems)

    final = _key_values(os.path.join(out_dir, "final_discrepancy.txt"))
    for key, value in final.items():
        try:
            v = float(value)
        except ValueError:
            problems.append(f"final_discrepancy.txt: {key} = {value!r} is not a number")
            continue
        if not math.isfinite(v):
            problems.append(f"final_discrepancy.txt: {key} = {value} is not finite")
    try:
        if not float(final.get("final_H", "nan")) > 0:
            problems.append("final_discrepancy.txt: final_H is not positive")
    except ValueError:
        pass

    grid = [row["sigma_r"] for row in tables["h_curve.csv"]]
    if grid != list(wl.SIGMA_R_GRID):
        problems.append("h_curve.csv: sigma_r column is not the configured grid")
    for row in tables["selected_variances.csv"]:
        if row.get("sigma_r") not in wl.SIGMA_R_GRID:
            problems.append(f"selected_variances.csv: sigma_r {row.get('sigma_r')} not on the grid")

    last = wl.HORIZON + wl.EXTEND_MONTHS
    for row in tables["remnant_life.csv"]:
        for col in BLANK_OK["remnant_life.csv"]:
            v = row.get(col)
            if v is not None and not 1 <= v <= last:
                problems.append(f"remnant_life.csv: {col} = {v} outside [1, {last}]")

    meta = _key_values(os.path.join(out_dir, "run_metadata.txt"))
    if meta.get("realizations") != str(wl.WORKLOADS[name]["realizations"]):
        problems.append("run_metadata.txt: realizations does not match run.cfg")


def _check_study(name, out_dir, problems):
    dist = _read_csv(os.path.join(out_dir, "estimator_distribution.csv"))
    summary = _read_csv(os.path.join(out_dir, "estimator_summary.csv"))
    for fname, rows in (("estimator_distribution.csv", dist), ("estimator_summary.csv", summary)):
        count = wl.expected_rows(name)[fname]
        if len(rows) != count:
            problems.append(f"{fname}: {len(rows)} rows, expected {count}")
    values = [v["adjusted_mu_WX"] for v in _numbers("estimator_distribution.csv", dist, problems)]
    stats = _numbers("estimator_summary.csv", summary, problems)
    if not values or not stats or "mean" not in stats[0]:
        problems.append("estimator output is empty")
        return
    mean = stats[0]["mean"]
    if abs(mean - sum(values) / len(values)) > 1e-9 * abs(mean):
        problems.append("estimator_summary.csv: mean disagrees with the distribution")
    if not abs(mean - wl.TRUE_MU_WX) <= STUDY_MEAN_RTOL * wl.TRUE_MU_WX:
        problems.append(
            f"estimator mean {mean} is not within {STUDY_MEAN_RTOL:.0%} of {wl.TRUE_MU_WX}"
        )


def check(name, out_dir) -> list:
    if not os.path.isdir(out_dir):
        return [f"no output directory {out_dir}"]
    problems = []
    produced = sorted(os.listdir(out_dir))
    if produced != sorted(artifacts(name)):
        problems.append(f"artifact set {produced} is not {sorted(artifacts(name))}")
        return problems
    try:
        if wl.WORKLOADS[name]["command"] == "analyze":
            _check_analyze(name, out_dir, problems)
        else:
            _check_study(name, out_dir, problems)
    except (OSError, KeyError, csv.Error) as exc:
        problems.append(f"unreadable artifacts: {exc!r}")
    return problems
