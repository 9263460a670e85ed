"""corrobayes benchmark: time the real CLI entry points on generated inputs.

    python3 bench/run.py --workload analyze-ref --seed 7 --seconds 55 --trace 0

Run from the repository root.  Each measured call is a fresh interpreter
(``child.py``) that imports corrobayes from ``src/``, times one
``cli.main([...])`` call and reports its own peak RSS; calls repeat until
``--seconds`` have passed (at least ``MIN_CALLS``).  Every call's artifacts
are checked (``check.py``) and must be byte-identical across the calls of a
run.  The last line of standard output is one JSON object:

* ``--trace 0``: wall_s, peak_rss_mb and setup_s, the medians over the
  run's calls; ``failed`` / ``attempted`` is the failure fraction.
* ``--trace 1``: after the untraced calls, one more call with every
  public layer function wrapped (``tracer.py``) gives the per-layer metrics;
  trace.overhead_s is its wall time minus the untraced median.

The exit status is 0 only when every call passed the output check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import check
import tracer
import workloads as wl

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

#: BLAS/OpenMP threads of every process the benchmark starts (capped at
#: nproc).  One thread keeps run-to-run spread low on a small shared machine.
THREADS = 1
MIN_CALLS = 3
#: setup_s is the median over at least this many fresh interpreters; cheap
#: setup-only interpreters top up the measured calls.
SETUP_SAMPLES = 9
#: Wall-clock guard for the whole run, below the 180 s a run may take.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def _child_env():
    env = dict(os.environ)
    threads = str(max(1, min(THREADS, os.cpu_count() or 1)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = SRC
    return env


def _tree_digest(top):
    h = hashlib.sha256()
    for d, dirs, files in os.walk(top):
        dirs[:] = sorted(x for x in dirs if x != "__pycache__")
        for f in sorted(files):
            path = os.path.join(d, f)
            with open(path, "rb") as fh:
                h.update(os.path.relpath(path, top).encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_revision():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


class Run:
    """One benchmark run: its work directory, child processes and samples."""

    def __init__(self, name, seed, deadline):
        self.name, self.seed, self.deadline = name, seed, deadline
        self.dir = os.path.join(WORK, f"{name}-s{seed}-p{os.getpid()}")
        self.env = _child_env()
        self.count = 0

    def _python(self, argv, log):
        """Run a benchmark script to completion within the run's deadline."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("run time limit reached")
        with open(log, "w") as fh:
            proc = subprocess.Popen(
                [sys.executable] + argv, cwd=ROOT, env=self.env,
                stdout=fh, stderr=subprocess.STDOUT,
            )
            try:
                return proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise TimeoutError("run time limit reached") from None
            except BaseException:
                proc.kill()
                proc.wait()
                raise

    def generate(self):
        inputs = os.path.join(self.dir, "inputs")
        log = os.path.join(self.dir, "inputs.log")
        code = self._python(
            [os.path.join(BENCH, "inputs.py"), "--workload", self.name,
             "--seed", str(self.seed), "--dir", inputs], log,
        )
        with open(log) as fh:
            text = fh.read()
        if code != 0:
            raise RuntimeError(f"input generation failed:\n{text}")
        self.inputs = inputs
        return json.loads(text.strip().splitlines()[-1])

    def call(self, trace=False, setup_only=False, env_record=False):
        """One fresh interpreter; returns (result dict, out dir)."""
        self.count += 1
        tag = f"call{self.count}"
        out = os.path.join(self.dir, tag)
        result_path = os.path.join(self.dir, tag + ".json")
        spans = os.path.join(self.dir, tag + "-spans.json")
        argv = [
            os.path.join(BENCH, "child.py"), "--workload", self.name,
            "--inputs", self.inputs, "--digest", self.digest, "--out", out,
            "--result", result_path, "--trace", str(int(trace)),
            "--spans", spans,
        ]
        if setup_only:
            argv.append("--setup-only")
        if env_record:
            argv.append("--env")
        log = os.path.join(self.dir, tag + ".log")
        argv += ["--t0", repr(time.monotonic())]
        code = self._python(argv, log)
        if code != 0 or not os.path.exists(result_path):
            with open(log) as fh:
                tail = fh.read()[-2000:]
            return {"error": f"child exited with {code}:\n{tail}"}, out
        with open(result_path) as fh:
            result = json.load(fh)
        if trace:
            result["spans"] = spans
        return result, out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(name, seed, seconds, trace, spans_dest):
    """Run the calls of one benchmark run and return its record; a traced
    run's spans are moved to ``spans_dest``."""
    start = time.monotonic()
    run = Run(name, seed, start + RUN_LIMIT_S)
    os.makedirs(run.dir, exist_ok=True)
    try:
        return _measure(run, start + seconds, trace, spans_dest)
    finally:
        shutil.rmtree(run.dir, ignore_errors=True)


def _measure(run, until, trace, spans_dest):
    name = run.name
    gen = run.generate()
    run.digest = gen["sha256"]
    with open(os.path.join(BENCH, "inputs.sha256.json")) as fh:
        expected_canary = json.load(fh)
    problems = []
    if gen["canary"] != expected_canary:
        problems.append("input generator output differs from inputs.sha256.json")

    # warm-up: compiles bytecode and reports the numpy/BLAS build
    warm, _ = run.call(setup_only=True, env_record=True)
    if "error" in warm:
        raise RuntimeError(warm["error"])

    walls, rss, setups, cpus = [], [], [], []
    attempted = failed = 0
    reference = None
    while attempted < MIN_CALLS or time.monotonic() < until:
        result, out = run.call()
        attempted += 1
        found = result.get("error") or (
            f"exit code {result['exit_code']}" if result["exit_code"] != 0 else None
        )
        faults = [found] if found else check.check(name, out)
        if not faults:
            digests = check.digests(name, out)
            reference = reference or digests
            if digests != reference:
                faults.append("artifacts differ from the first call of this run")
        if faults:
            failed += 1
            problems.extend(f"call {attempted}: {p}" for p in faults)
        if "wall_s" in result:
            walls.append(result["wall_s"])
            cpus.append(result["cpu_s"])
        if "setup_s" in result:
            setups.append(result["setup_s"])
            rss.append(result["maxrss_mb"])
        shutil.rmtree(out, ignore_errors=True)
        if failed:
            break
    while not failed and len(setups) < SETUP_SAMPLES:
        result, _ = run.call(setup_only=True)
        if "error" in result:
            failed += 1
            attempted += 1
            problems.append(result["error"])
            break
        setups.append(result["setup_s"])

    layers = None
    if trace and not failed:
        result, out = run.call(trace=True)
        attempted += 1
        faults = [result["error"]] if "error" in result else check.check(name, out)
        if faults:
            failed += 1
            problems.extend(f"traced call: {p}" for p in faults)
        else:
            layers = result["layers"]
            layers["trace.overhead_s"] = result["wall_s"] - statistics.median(walls)
            shutil.move(result["spans"], spans_dest)

    return {
        "env": {
            "git_revision": _git_revision(),
            "src_sha256": _tree_digest(SRC),
            "corrobayes": warm["corrobayes"],
            "python": platform.python_version(),
            "numpy": warm.get("numpy"),
            "blas": warm.get("blas"),
            "nproc": os.cpu_count(),
            "blas_threads": int(run.env["OPENBLAS_NUM_THREADS"]),
            "inputs_sha256": run.digest,
            "params": wl.describe(name, run.seed),
        },
        "samples": {"wall_s": walls, "peak_rss_mb": rss, "setup_s": setups, "cpu_s": cpus},
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "layers": layers,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "corrobayes", "__init__.py")):
        print(f"error: no corrobayes sources under {SRC}", file=sys.stderr)
        return 2

    record_dir = os.path.join(WORK, "records")
    os.makedirs(record_dir, exist_ok=True)
    stem = os.path.join(record_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace, stem + "-spans.json")
    except (RuntimeError, TimeoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not record["env"]["corrobayes"].startswith(SRC + os.sep):
        print(f"error: imported {record['env']['corrobayes']}, not {SRC}", file=sys.stderr)
        return 2

    samples = record["samples"]
    correct = record["failed"] == 0 and not record["problems"]
    for p in record["problems"]:
        print(f"check failed: {p}", file=sys.stderr)
    if args.trace:
        specs = tracer.metric_specs()
        layers = record["layers"] or {}
        metrics = {
            name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit, _ in specs
        }
    else:
        metrics = {}
        for name, (unit, _) in END_TO_END.items():
            vals = samples[name]
            if vals:
                metrics[name] = {"value": statistics.median(vals), "unit": unit}

    record["seconds"] = args.seconds
    record["metrics"] = metrics
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, (unit, _) in END_TO_END.items():
        vals = samples[name]
        if vals:
            q1, q3 = _quartiles(vals)
            print(
                f"{name} = {statistics.median(vals):.6g} {unit} "
                f"(median of {len(vals)}; quartiles {q1:.6g} .. {q3:.6g})"
            )
    print(
        f"fail_frac = {record['failed'] / max(record['attempted'], 1):.6g} ratio "
        f"({record['failed']} of {record['attempted']} calls failed)"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
