"""Parsing of config, topology, and inspection files, and atomic report
emission.

Config and prior files are flat key=value text whose keys mirror the prior
table's symbol names.  Inspection files are delimited text with header
``component,month,min_thickness_mm``; calendar months are mapped to 1-based
model indices against a configured origin month.  All numeric output is
full-precision decimal text, written via a temporary file of its own name
and a rename, so a failed stage never leaves a truncated report.
"""

from __future__ import annotations

import contextlib
import math
import os
import warnings

import numpy as np

from .errors import ConfigError
from .system import (
    CorrelationParams,
    InspectionDataset,
    InspectionRecord,
    PriorSpecification,
    SystemTopology,
    VarianceHyperprior,
)


def fmt(x) -> str:
    """Full-precision decimal text for a number (a float's ``str`` is its
    shortest round-trip repr); a blank for None."""
    return "" if x is None else str(x)


@contextlib.contextmanager
def _atomic_file(path):
    """A text file that replaces ``path`` by a rename once it is written:
    a temporary file of its own name in the target directory, removed when
    writing fails, so concurrent writers never share one."""
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "x") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def atomic_write_text(path, text: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(text)


def write_csv(path, header, rows) -> None:
    """Comma-separated rows under a header line, streamed row by row."""
    with _atomic_file(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(fmt, row)) + "\n" for row in rows)


def read_keyvalues(path) -> dict:
    """key = value lines; '#' starts a comment; later keys override earlier."""
    out = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                out[key.strip()] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return out


def _component_id(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        return text


def _rows(path, header_error):
    """Yield (line number, cells stripped) for each non-blank line of a
    comma-delimited file, the header line first, once ``header_error`` has
    mapped that line (None for an empty file) to no message; an unreadable
    file or a message raises ConfigError."""
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    message = header_error(lines[0] if lines else None)
    if message:
        raise ConfigError(f"{path}{message}")
    for lineno, line in enumerate(lines, start=1):
        if lineno == 1 or line.strip():
            yield lineno, [p.strip() for p in line.split(",")]


_TOPOLOGY_HEADER = ["component_id", "circuit_id", "position_in_circuit"]


def _topology_header_error(first):
    if first is None:
        return ": empty topology file"
    if [h.strip() for h in first.split(",")][:3] != _TOPOLOGY_HEADER:
        return f":1: unexpected header {first!r}"


def parse_topology(path) -> SystemTopology:
    """Delimited text: component_id,circuit_id,position_in_circuit[,x0_mm].
    Component ids are all numbers or all names, since the pipeline sorts them."""
    comps, circuit_of, position_of, x0_of = [], {}, {}, {}
    rows = _rows(path, _topology_header_error)
    _, header = next(rows)
    has_x0 = header[3:4] == ["x0_mm"]
    for lineno, parts in rows:
        if len(parts) < 3:
            raise ConfigError(f"{path}:{lineno}: expected at least 3 columns")
        comp = _component_id(parts[0])
        try:
            circuit = _component_id(parts[1])
            position = int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        comps.append(comp)
        circuit_of[comp] = circuit
        position_of[comp] = position
        if has_x0:
            try:
                x0_of[comp] = _finite(parts[3])
            except (IndexError, ValueError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad x0_mm value") from exc
    if len({type(c) for c in comps}) > 1:
        raise ConfigError(f"{path}: component ids mix numbers and names")
    return SystemTopology(tuple(comps), circuit_of, position_of, x0_of if has_x0 else None)


INSPECTION_HEADER = "component,month,min_thickness_mm"


def _inspection_header_error(first):
    if (first or "").strip() != INSPECTION_HEADER:
        return f":1: expected header {INSPECTION_HEADER!r}"


def parse_inspections(path, origin_month: int, horizon: int) -> InspectionDataset:
    """Observations with months mapped to indices: t = month - origin + 1."""
    rows = _rows(path, _inspection_header_error)
    next(rows)
    records = []
    seen = set()
    for lineno, parts in rows:
        if len(parts) != 3:
            raise ConfigError(f"{path}:{lineno}: expected 3 columns")
        comp = _component_id(parts[0])
        try:
            month_raw = _finite(parts[1])
            value = float(parts[2])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        month = int(math.floor(month_raw))
        if month != month_raw:
            warnings.warn(f"{path}:{lineno}: month {month_raw} floored to {month}", stacklevel=2)
        t = month - origin_month + 1
        if not 1 <= t <= horizon:
            raise ConfigError(
                f"{path}:{lineno}: month {month} maps to index {t}, outside 1..{horizon}"
            )
        if (comp, t) in seen:
            raise ConfigError(f"{path}:{lineno}: duplicate record for component {comp} at index {t}")
        seen.add((comp, t))
        records.append(InspectionRecord(comp, t, value))
    return InspectionDataset(tuple(records), horizon)


def write_inspections(path, dataset: InspectionDataset, origin_month: int) -> None:
    rows = [
        (r.component, r.time + origin_month - 1, r.value)
        for r in sorted(dataset.records, key=lambda r: (r.component, r.time))
    ]
    write_csv(path, INSPECTION_HEADER.split(","), rows)


def _finite(text: str) -> float:
    """A number that is neither NaN nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


#: Required numeric prior keys.
_PRIOR_KEYS = (
    "mu_WX", "sigma_WX", "gamma_WX", "lambda", "sigma_y", "sigma_r", "rho0", "rhoC", "rhoD",
)

#: Optional keys, each named as the field it sets and read by its parser; a
#: key the config omits leaves the field's default to its dataclass.
_CORRELATION_OPTIONS = {"nu": _finite}
_PRIOR_OPTIONS = {
    "sigma_r_candidates": lambda text: tuple(_finite(v) for v in text.split(",") if v.strip()),
    "locations_per_component": int,
    "critical_thickness": _finite,
    "noise_dist": str,
    "t_dof": _finite,
    "w_dist": str,
}


def _get(config: dict, key: str, conv, default=None):
    if key not in config:
        if default is None:
            raise ConfigError(f"missing required config key {key!r}")
        return default
    try:
        return conv(config[key])
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: {exc}") from exc


def _named(config: dict, options: dict) -> dict:
    """The options the config names, parsed."""
    return {key: _get(config, key, conv) for key, conv in options.items() if key in config}


def build_prior(config: dict, topology: SystemTopology) -> PriorSpecification:
    """Assemble the prior specification from key=value config text."""
    vals = {k: _get(config, k, _finite) for k in _PRIOR_KEYS}
    hyper = VarianceHyperprior(
        vals["mu_WX"], vals["sigma_WX"], vals["gamma_WX"], vals["lambda"]
    )
    corr = CorrelationParams(
        vals["rho0"], vals["rhoC"], vals["rhoD"], **_named(config, _CORRELATION_OPTIONS)
    )
    alpha0 = np.full(topology.component_count, _get(config, "alpha0", _finite))
    x0 = topology.initial_thickness(default=_get(config, "x0", _finite) if "x0" in config else None)
    return PriorSpecification(
        hyper=hyper,
        corr=corr,
        sigma_y=vals["sigma_y"],
        sigma_r=vals["sigma_r"],
        x0=x0,
        alpha0=alpha0,
        **_named(config, _PRIOR_OPTIONS),
    )
