"""One measured call: a fresh interpreter imports corrobayes, checks that its
inputs are in place, times a single ``cli.main`` call and writes a JSON
result.  Started by ``run.py``; not meant to be run by hand.

setup_s runs from ``--t0`` (the parent's CLOCK_MONOTONIC reading just before
it started this process) until corrobayes is imported and the input digest
is verified.  Peak RSS comes from this process's own getrusage.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _timed_call(cli, argv):
    """(exit code, wall seconds, CPU seconds) of one ``cli.main`` call."""
    cpu0, t = _cpu_s(), time.perf_counter()
    code = cli.main(argv)
    return code, time.perf_counter() - t, _cpu_s() - cpu0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--digest", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--spans", default=None)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--env", action="store_true", help="also report the numpy/BLAS build")
    args = ap.parse_args()

    from corrobayes import cli

    import inputs
    import workloads

    found = inputs.digest(args.inputs)
    setup_s = time.monotonic() - args.t0
    result = {"setup_s": setup_s, "corrobayes": os.path.abspath(cli.__file__)}
    if args.env:
        import numpy

        result["numpy"] = numpy.__version__
        try:
            result["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        except (TypeError, KeyError):
            result["blas"] = None
    if found != args.digest:
        result["error"] = f"input digest {found} != {args.digest}"
    elif not args.setup_only:
        argv = workloads.argv_for(args.workload, os.path.join(args.inputs, "run.cfg"), args.out)
        tracer = None
        if args.trace:
            import warnings

            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code, wall_s, cpu_s = _timed_call(cli, argv)
            tracer.counts["varlearn.floor_events"] = sum(
                1 for w in caught if "floored at" in str(w.message)
            )
        else:
            code, wall_s, cpu_s = _timed_call(cli, argv)
        result.update(exit_code=code, wall_s=wall_s, cpu_s=cpu_s)
        if tracer is not None:
            if code == 0:
                tracer.read_final_h(args.out)
            result["layers"] = tracer.summary(wall_s)
            result["layers"]["proc.cpu_s"] = cpu_s
            with open(args.spans, "w") as fh:
                json.dump(tracer.spans, fh)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
