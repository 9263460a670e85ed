"""Config, topology, and inspection file parsing plus atomic report writing."""

import numpy as np
import pytest

from corrobayes import fileio
from corrobayes.errors import ConfigError
from corrobayes.system import InspectionDataset, InspectionRecord


def test_fmt_round_trips_floats_exactly():
    rng = np.random.default_rng(0)
    for x in rng.standard_normal(50) * 10.0**rng.integers(-8, 8, 50):
        assert float(fileio.fmt(float(x))) == x
    assert fileio.fmt(3) == "3"


def test_atomic_write_replaces_and_leaves_no_temp_file(tmp_path):
    target = tmp_path / "report.txt"
    target.write_text("old")
    fileio.atomic_write_text(target, "new contents\n")
    assert target.read_text() == "new contents\n"
    assert list(tmp_path.iterdir()) == [target]


def test_csv_rows_stream_from_a_generator_and_a_failure_keeps_the_old_file(tmp_path):
    target = tmp_path / "table.csv"
    rows = [(1, 0.1, "a"), (2, 1e-300, "b")]
    fileio.write_csv(target, ["i", "x", "s"], (row for row in rows))
    assert target.read_text() == "i,x,s\n1,0.1,a\n2,1e-300,b\n"

    def failing():
        yield rows[0]
        raise RuntimeError("stage failed")

    with pytest.raises(RuntimeError):
        fileio.write_csv(target, ["i", "x", "s"], failing())
    assert target.read_text() == "i,x,s\n1,0.1,a\n2,1e-300,b\n"
    assert list(tmp_path.iterdir()) == [target]


def test_two_writers_of_one_file_use_their_own_temporary_files(tmp_path):
    target = tmp_path / "report.txt"
    with fileio._atomic_file(target) as first, fileio._atomic_file(target) as second:
        assert first.name != second.name
        first.write("first\n")
        second.write("second\n")
    assert target.read_text() == "first\n"
    assert list(tmp_path.iterdir()) == [target]


def test_keyvalues_comments_blanks_and_overrides(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text(
        "# leading comment\n"
        "alpha = 1.5  # trailing comment\n"
        "\n"
        "beta=two words\n"
        "alpha = 2.5\n"
    )
    assert fileio.read_keyvalues(p) == {"alpha": "2.5", "beta": "two words"}


def test_keyvalues_rejects_lines_without_equals_and_missing_files(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        fileio.read_keyvalues(p)
    with pytest.raises(ConfigError, match="cannot read"):
        fileio.read_keyvalues(tmp_path / "missing.cfg")


def test_topology_parses_ids_positions_and_optional_thickness(tmp_path):
    p = tmp_path / "topology.csv"
    p.write_text(
        "component_id,circuit_id,position_in_circuit,x0_mm\n"
        "1,A,1,12.5\n"
        "2,A,2,11.75\n"
        "7,B,1,12.0\n"
    )
    topo = fileio.parse_topology(p)
    assert topo.components == (1, 2, 7)
    assert topo.circuit_of[7] == "B"
    assert topo.position_of[2] == 2
    assert topo.initial_thickness()[1] == 11.75


def test_topology_header_and_column_errors(tmp_path):
    bad_header = tmp_path / "t1.csv"
    bad_header.write_text("id,circuit,pos\n1,A,1\n")
    with pytest.raises(ConfigError, match="unexpected header"):
        fileio.parse_topology(bad_header)
    bad_row = tmp_path / "t2.csv"
    bad_row.write_text("component_id,circuit_id,position_in_circuit\n1,A\n")
    with pytest.raises(ConfigError, match="at least 3 columns"):
        fileio.parse_topology(bad_row)
    bad_pos = tmp_path / "t3.csv"
    bad_pos.write_text("component_id,circuit_id,position_in_circuit\n1,A,first\n")
    with pytest.raises(ConfigError):
        fileio.parse_topology(bad_pos)


def _write_inspections_text(path, body):
    path.write_text(fileio.INSPECTION_HEADER + "\n" + body)


def test_inspections_map_months_to_one_based_indices(tmp_path):
    p = tmp_path / "insp.csv"
    _write_inspections_text(p, "1,101,11.9\n1,105,11.5\n2,103,12.1\n")
    ds = fileio.parse_inspections(p, origin_month=101, horizon=12)
    assert [(r.component, r.time, r.value) for r in ds.records] == [
        (1, 1, 11.9), (1, 5, 11.5), (2, 3, 12.1)
    ]
    assert ds.horizon == 12


def test_inspections_reject_bad_rows(tmp_path):
    p = tmp_path / "h.csv"
    p.write_text("component,month,thickness\n")
    with pytest.raises(ConfigError, match="expected header"):
        fileio.parse_inspections(p, 1, 10)
    dup = tmp_path / "dup.csv"
    _write_inspections_text(dup, "1,3,11.0\n1,3,11.2\n")
    with pytest.raises(ConfigError, match="duplicate"):
        fileio.parse_inspections(dup, 1, 10)
    out = tmp_path / "out.csv"
    _write_inspections_text(out, "1,44,11.0\n")
    with pytest.raises(ConfigError, match="outside"):
        fileio.parse_inspections(out, 1, 10)
    cols = tmp_path / "cols.csv"
    _write_inspections_text(cols, "1,3\n")
    with pytest.raises(ConfigError, match="3 columns"):
        fileio.parse_inspections(cols, 1, 10)


def test_fractional_months_are_floored_with_a_warning(tmp_path):
    p = tmp_path / "frac.csv"
    _write_inspections_text(p, "1,3.6,11.0\n")
    with pytest.warns(UserWarning, match="floored"):
        ds = fileio.parse_inspections(p, 1, 10)
    assert ds.records[0].time == 3


def test_inspection_round_trip_preserves_every_record(tmp_path):
    ds = InspectionDataset(
        (
            InspectionRecord("b", 7, 10.123456789012345),
            InspectionRecord("a", 2, 11.0),
            InspectionRecord("a", 9, 10.5),
        ),
        horizon=12,
    )
    p = tmp_path / "round.csv"
    fileio.write_inspections(p, ds, origin_month=37)
    back = fileio.parse_inspections(p, origin_month=37, horizon=12)
    assert {(r.component, r.time, r.value) for r in back.records} == {
        (r.component, r.time, r.value) for r in ds.records
    }


FULL_CONFIG = {
    "mu_WX": "0.01",
    "sigma_WX": "0.001",
    "gamma_WX": "0.0005",
    "lambda": "0.02",
    "sigma_y": "0.0256",
    "sigma_r": "0.0064",
    "rho0": "0.2",
    "rhoC": "0.5",
    "rhoD": "0.3",
    "alpha0": "-0.01",
    "x0": "12.0",
}


def _topology():
    comps = tuple(range(4))
    return fileio.SystemTopology(comps, {c: 0 for c in comps}, {c: c + 1 for c in comps}, None)


def test_build_prior_reads_required_keys_and_defaults():
    topo = _topology()
    prior = fileio.build_prior(dict(FULL_CONFIG), topo)
    assert prior.hyper.mu_wx == 0.01 and prior.hyper.lam == 0.02
    assert prior.corr.rhoC == 0.5 and prior.corr.nu == 1.0
    assert prior.sigma_r == 0.0064
    assert prior.locations_per_component == 10
    assert prior.ensemble_size == 1000
    assert np.all(prior.x0 == 12.0) and np.all(prior.alpha0 == -0.01)
    assert len(prior.sigma_r_candidates) > 0  # default candidate grid


def test_build_prior_parses_optional_candidate_grid_and_overrides():
    cfg = dict(FULL_CONFIG)
    cfg.update(
        sigma_r_candidates="0.0016, 0.0064, 0.0256",
        realizations="250",
        seed="9",
        nu="2.0",
        noise_dist="student_t",
    )
    prior = fileio.build_prior(cfg, _topology())
    assert prior.sigma_r_candidates == (0.0016, 0.0064, 0.0256)
    assert prior.ensemble_size == 250 and prior.rng_seed == 9
    assert prior.corr.nu == 2.0 and prior.noise_dist == "student_t"


def test_build_prior_reports_the_missing_key():
    cfg = dict(FULL_CONFIG)
    del cfg["gamma_WX"]
    with pytest.raises(ConfigError, match="gamma_WX"):
        fileio.build_prior(cfg, _topology())
    cfg = dict(FULL_CONFIG)
    cfg["sigma_y"] = "not a number"
    with pytest.raises(ConfigError, match="sigma_y"):
        fileio.build_prior(cfg, _topology())
