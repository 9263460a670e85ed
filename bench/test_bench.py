"""Self-check of the benchmark.

    python3 -m pytest bench -q

It checks that BENCHMARK.json names exactly the metrics the command prints,
that the output check rejects corrupted artifact sets, and that the command
exits non-zero when the program writes a wrong artifact or is missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import check
import tracer
import workloads as wl
from run import END_TO_END

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(root, *args):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=600,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    return proc, last


def _copy_tree(dest, with_src=True):
    shutil.copytree(BENCH, os.path.join(dest, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    if with_src:
        shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def test_benchmark_json_matches_the_benchmark():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w["why"] for w in wl.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in END_TO_END.items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == (
        tracer.metric_specs()
    )


def test_input_generator_matches_the_committed_digests():
    import inputs

    with open(os.path.join(BENCH, "inputs.sha256.json")) as fh:
        assert inputs.canary() == json.load(fh)


@pytest.fixture(scope="module")
def analyze_out(tmp_path_factory):
    """One real analyze-ref artifact set."""
    import inputs

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from corrobayes import cli

    base = tmp_path_factory.mktemp("analyze")
    inputs.write("analyze-ref", wl.DEFAULT_SEED, base / "in")
    out = base / "out"
    argv = wl.argv_for("analyze-ref", str(base / "in" / "run.cfg"), str(out))
    assert cli.main(argv) == 0
    return out


def _corrupt_rows(path, drop=1):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-drop]))


def _replace_cell(path, column, value, row=1):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    cells = lines[row].split(",")
    cells[header.index(column)] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


CORRUPTIONS = {
    "missing artifact": lambda d: (d / "remnant_life.csv").unlink(),
    "extra file": lambda d: (d / "h_curve.csv.tmp").write_text("x\n"),
    "dropped row": lambda d: _corrupt_rows(d / "adjusted_beliefs.csv"),
    "non-finite value": lambda d: _replace_cell(d / "trajectory_bands.csv", "learn_hi", "nan"),
    "unparsable value": lambda d: _replace_cell(d / "prior_discrepancy.csv", "discrepancy", "x"),
    "off-grid sigma_r": lambda d: _replace_cell(d / "selected_variances.csv", "sigma_r", "0.005"),
    "crossing out of range": lambda d: _replace_cell(d / "remnant_life.csv", "mean_crossing", "500"),
    "non-positive final_H": lambda d: (d / "final_discrepancy.txt").write_text(
        (d / "final_discrepancy.txt").read_text().replace("final_H = ", "final_H = -")
    ),
}


def test_output_check_accepts_the_real_artifacts(analyze_out):
    assert check.check("analyze-ref", analyze_out) == []


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_output_check_rejects_a_corrupted_artifact_set(analyze_out, tmp_path, kind):
    out = tmp_path / "out"
    shutil.copytree(analyze_out, out)
    CORRUPTIONS[kind](out)
    assert check.check("analyze-ref", out) != []


def test_command_prints_every_end_to_end_metric():
    proc, last = _run(ROOT, "--workload", "analyze-ref", "--seconds", "0", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(last)
    assert result["correct"] is True and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(m["name"] for m in _spec()["end_to_end"])
    for name in ("wall_s", "peak_rss_mb", "setup_s", "fail_frac"):
        assert f"\n{name} = " in "\n" + proc.stdout


def test_traced_command_prints_every_per_layer_metric():
    proc, last = _run(ROOT, "--workload", "study-ref", "--seconds", "0", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(last)
    assert sorted(result["metrics"]) == sorted(m["name"] for m in _spec()["per_layer"])
    assert result["metrics"]["trace.coverage"]["value"] >= 0.9


def test_command_fails_when_the_program_writes_a_short_artifact(tmp_path):
    root = _copy_tree(tmp_path / "mutant")
    fileio = root / "src" / "corrobayes" / "fileio.py"
    text = fileio.read_text()
    mutated = text.replace("for row in rows)", "for row in list(rows)[:-1])")
    assert mutated != text
    fileio.write_text(mutated)
    proc, last = _run(root, "--workload", "study-ref", "--seconds", "0", "--trace", "0")
    assert proc.returncode != 0
    result = json.loads(last)
    assert result["correct"] is False and result["failed"] >= 1


def test_command_fails_without_the_program(tmp_path):
    root = _copy_tree(tmp_path / "bare", with_src=False)
    proc, last = _run(root, "--workload", "analyze-ref", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert last == ""
