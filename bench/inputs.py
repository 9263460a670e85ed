"""Input generator: topology.csv, inspections.csv, priors.cfg and run.cfg.

The design and the synthetic data come from this file's own numpy forward
draw of the model, not from ``corrobayes.designs`` or
``corrobayes.simulate``, so a change to the program cannot change what the
benchmark feeds it.  The same workload and seed always give the same bytes.

Run as a script it writes the inputs into ``--dir`` and prints their digest
and the default-seed digests of every workload:

    python3 bench/inputs.py --workload analyze-ref --seed 7 --dir /tmp/in
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os

import numpy as np

import workloads as wl

FILES = ("topology.csv", "inspections.csv", "priors.cfg", "run.cfg")


def _components():
    per = wl.COMPONENTS // wl.CIRCUITS
    return [(c, c // per, c % per) for c in range(wl.COMPONENTS)]


def _correlation_factor(comps):
    """A with A A' = Pi, Pi = rho0 + rhoC [same circuit] + rhoD exp(-|ds|)."""
    p = wl.PRIORS
    circ = np.array([k for _, k, _ in comps])
    pos = np.array([q for _, _, q in comps], dtype=float)
    same = circ[:, None] == circ[None, :]
    decay = np.where(same, np.exp(-np.abs(pos[:, None] - pos[None, :])), 0.0)
    pi = p["rho0"] + p["rhoC"] * same + p["rhoD"] * decay
    np.fill_diagonal(pi, 1.0)
    vals, vecs = np.linalg.eigh(pi)
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def design_points(jitter_seed=1):
    """Stride-7 monitored components, each visited at shuffled irregular gaps
    (the shape of ``corrobayes.designs.reference_design``), in sorted order."""
    d = wl.DESIGN
    total, visits, monitored = d["total"], d["visits"], d["monitored"]
    rng = np.random.default_rng(jitter_seed)
    chosen, seen, j = [], set(), 0
    while len(chosen) < min(monitored, wl.COMPONENTS):
        c = (j * 7) % wl.COMPONENTS
        j += 1
        if c not in seen:
            seen.add(c)
            chosen.append(c)
    points = []
    for c in chosen:
        count = min(visits, total - len(points))
        if count < 3:
            break
        gaps = rng.permutation(np.linspace(0.6, 1.4, count - 1))
        pos = np.concatenate([[0.0], np.cumsum(gaps)])
        lo = 1 + int(rng.integers(0, 4))
        hi = wl.HORIZON - int(rng.integers(0, 4))
        times = sorted({int(round(t)) for t in lo + pos / pos[-1] * (hi - lo)})
        if len(times) != count:
            raise ValueError(f"component {c}: {count} visits do not fit {lo}..{hi}")
        points.extend((c, t) for t in times)
    return sorted(points)


def forward_draw(points, seed):
    """Observed minimum thickness at ``points`` from one model realization
    with every evolution variance fixed at the true mu_WX."""
    p = wl.PRIORS
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    comps = _components()
    factor = _correlation_factor(comps)
    n, t_len, locations = len(comps), wl.HORIZON, p["locations_per_component"]
    w_x = wl.TRUE_MU_WX
    w_a = p["lambda"] * w_x
    alpha = p["alpha0"] + np.cumsum(
        (rng.standard_normal((t_len, n)) @ factor.T) * math.sqrt(w_a), axis=0
    )
    eps_x = (rng.standard_normal((t_len, n)) @ factor.T) * math.sqrt(w_x)
    x = p["x0"] + np.cumsum(alpha + eps_x, axis=0)
    r = np.cumsum(
        math.sqrt(wl.TRUE_SIGMA_R) * rng.standard_normal((t_len, locations, n)), axis=0
    )
    noisy = r + math.sqrt(p["sigma_y"]) * rng.standard_normal((t_len, locations, n))
    y = x + noisy.min(axis=1)
    return [float(y[t - 1, c]) for c, t in points]


def render(name, seed):
    """The four input files of a workload, as {file name: text}."""
    w = wl.WORKLOADS[name]
    topo = ["component_id,circuit_id,position_in_circuit"]
    topo += [f"{c},{k},{q}" for c, k, q in _components()]
    points = design_points()
    values = forward_draw(points, seed)
    insp = ["component,month,min_thickness_mm"]
    insp += [f"{c},{t},{v!r}" for (c, t), v in zip(points, values)]
    priors = [f"{k} = {v!r}" for k, v in wl.PRIORS.items()]
    priors.append("sigma_r_candidates = " + ", ".join(repr(v) for v in wl.SIGMA_R_GRID))
    run = [
        "topology = topology.csv",
        "inspections = inspections.csv",
        "priors = priors.cfg",
        f"horizon = {wl.HORIZON}",
        "origin_month = 1",
        f"seed = {wl.run_seed(seed)}",
        f"realizations = {w['realizations']}",
    ]
    texts = [topo, insp, priors, run]
    return {f: "\n".join(lines) + "\n" for f, lines in zip(FILES, texts)}


def _digest(contents) -> str:
    """sha256 over {file name: bytes} in the fixed file order."""
    h = hashlib.sha256()
    for f in FILES:
        data = contents[f]
        h.update(f.encode() + b"\0" + str(len(data)).encode() + b"\0" + data)
    return h.hexdigest()


def digest(directory) -> str:
    """sha256 of the input files in ``directory``."""
    contents = {}
    for f in FILES:
        with open(os.path.join(directory, f), "rb") as fh:
            contents[f] = fh.read()
    return _digest(contents)


def canary() -> dict:
    """Digest of every workload's inputs at the default seed; compared with
    the committed ``inputs.sha256.json`` so that a change in what this
    generator (or numpy's random streams) produces fails the run instead of
    silently feeding two commits different bytes."""
    return {
        name: _digest({f: t.encode() for f, t in render(name, wl.DEFAULT_SEED).items()})
        for name in sorted(wl.WORKLOADS)
    }


def write(name, seed, directory) -> str:
    os.makedirs(directory, exist_ok=True)
    for f, text in render(name, seed).items():
        with open(os.path.join(directory, f), "w") as fh:
            fh.write(text)
    return digest(directory)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    print(json.dumps({"sha256": write(args.workload, args.seed, args.dir), "canary": canary()}))


if __name__ == "__main__":
    main()
