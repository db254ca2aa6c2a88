import csv
import os
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from kinkband import (ConfigError, MaterialParams, SimulationConfig,
                      StepFailureError, parse_config, run_simulation)
from kinkband.cli import cli_main
from kinkband.config import _TABLE, serialize_config
from kinkband.evolution import initial_state
from kinkband.mesh import INTERIOR, build_dofmap, build_structured_mesh
from kinkband.output import (CSV_HEADER, write_history_csv,
                             write_snapshot_vtk)
from oracles import read_history_csv


# ---------------------------------------------------------------------------
# config parsing


def test_empty_config_gives_reference_defaults():
    config = parse_config("")
    assert config.material.C == 600.0
    assert config.material.D == 200.0
    assert config.material.aniso == 100.0
    assert config.material.beta == 0.02
    assert config.material.eps_grad == 500.0
    assert config.material.sigma == 0.001
    assert config.material.delta == 1e-5
    assert config.T == 100.0
    assert config.speed == 0.18
    assert config.K == 76
    assert config.Lx == 42.0 and config.Ly == 75.0
    assert (config.s1, config.s2) == (0.0, 1.0)
    assert (config.snapshot_stride, config.formats) == (1, "csv,vtk")


def test_penalty_guards_are_constants():
    assert MaterialParams.det_floor == 1e-8
    assert MaterialParams.det_penalty == 1e6
    assert "det_floor" not in {f.name for f in fields(MaterialParams)}
    assert "det_penalty" not in {f.name for f in fields(MaterialParams)}


# the penalty guards were material keys; they are MaterialParams constants
# now.  The slip-plane normal was set by slip.m1 and slip.m2; it is s turned
# clockwise now, as the opposite normal is the same model with gamma negated.
# The optimizer's tolerances were keys; the solver runs at the optimizer's
# module constants now, and the output directory is run's --out alone.  A
# config that sets one of these keys, to any value, names it as unknown
_GUARD_KEYS = ["material.det_penalty", "material.det_floor"]
_NORMAL_KEYS = ["slip.m1", "slip.m2"]
_OPTION_KEYS = ["optimizer.tol_step", "optimizer.tol_fun",
                "optimizer.max_iters", "output.directory"]
_REMOVED_KEYS = _GUARD_KEYS + _NORMAL_KEYS + _OPTION_KEYS


def _assert_unknown_key(tmp_path, capsys, key):
    with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
        parse_config(f"{key} = 1")
    cfg = tmp_path / "removed.cfg"
    cfg.write_text(f"{key} = 1\n")
    assert cli_main(["validate", "--config", str(cfg)]) == 1
    assert f"unknown key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("key", _GUARD_KEYS)
def test_penalty_guard_keys_are_unknown(tmp_path, capsys, key):
    _assert_unknown_key(tmp_path, capsys, key)


@pytest.mark.parametrize("key", _NORMAL_KEYS)
def test_slip_normal_keys_are_unknown(tmp_path, capsys, key):
    _assert_unknown_key(tmp_path, capsys, key)


@pytest.mark.parametrize("key", _OPTION_KEYS)
def test_optimizer_and_output_directory_keys_are_unknown(tmp_path, capsys, key):
    _assert_unknown_key(tmp_path, capsys, key)


def test_invalid_value_names_key():
    with pytest.raises(ConfigError, match="material.C"):
        parse_config("material.C = -1")


# out-of-range values, at least one for every key that MaterialParams
# declares
_BAD_SECTION_VALUES = [
    ("material.C", "-1"), ("material.D", "0"), ("material.aniso", "-100"),
    ("material.beta", "-0.1"), ("material.beta", "nan"),
    ("material.eps_grad", "0"), ("material.sigma", "-1"), ("material.p", "2"),
    ("material.r", "0.5"), ("material.delta", "0"),
]


def test_bad_section_values_cover_every_section_key():
    keys = {f"material.{f.name}" for f in fields(MaterialParams)}
    assert {key for key, _ in _BAD_SECTION_VALUES} == keys


# a value out of a former key's range names the key as unknown
@pytest.mark.parametrize("key, value", _BAD_SECTION_VALUES + [
    ("material.det_penalty", "-1"), ("material.det_floor", "0"),
    ("optimizer.tol_step", "0"), ("optimizer.tol_fun", "-1e-4"),
    ("optimizer.max_iters", "0")])
def test_out_of_range_section_value_names_full_key(key, value):
    with pytest.raises(ConfigError) as info:
        parse_config(f"{key} = {value}")
    if key in _REMOVED_KEYS:
        assert str(info.value) == f"line 1: unknown key '{key}'"
    else:
        assert str(info.value).startswith(f"{key} must ")


_FLOAT_KEYS = [key for key, (_, _, kind) in _TABLE.items() if kind is float]


def test_float_keys_cover_every_section():
    assert {key.split(".")[0] for key in _FLOAT_KEYS} == {
        "geometry", "slip", "load", "material"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", _FLOAT_KEYS + _REMOVED_KEYS)
def test_non_finite_value_rejected(key, value):
    with pytest.raises(ConfigError) as info:
        parse_config(f"{key} = {value}")
    if key in _REMOVED_KEYS:
        assert str(info.value) == f"line 1: unknown key '{key}'"
    else:
        assert str(info.value) == f"{key} must be finite, got {value}"


@pytest.mark.parametrize("command", ["validate", "check-gradient"])
@pytest.mark.parametrize("text", ["material.C = inf", "slip.s1 = nan"])
def test_cli_non_finite_value_exits_1(tmp_path, capsys, command, text):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text + "\n")
    code = cli_main([command, "--config", str(cfg)])
    assert code == 1
    assert f"{text.split()[0]} must be finite" in capsys.readouterr().err


def test_single_override():
    config = parse_config("load.K = 10")
    assert config.K == 10
    assert config.material.C == 600.0


def test_unknown_key_rejected_with_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("load.K = 10\nmaterial.bogus = 1")


def test_repeated_key_is_a_config_error(tmp_path, capsys):
    # the second value does not silently win: exit 1 naming the key and
    # both of its lines
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("load.K = 10\n# again\nload.K = 20\n")
    code = cli_main(["validate", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "line 3: key 'load.K' is already set on line 1" in captured.err


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("this is not a key value pair")


def test_comments_and_blank_lines():
    config = parse_config("# heading\n\nload.K = 3   # trailing comment\n")
    assert config.K == 3


def test_bad_type_rejected():
    with pytest.raises(ConfigError, match="load.K"):
        parse_config("load.K = 2.5")


def test_slip_vector_validation():
    with pytest.raises(ConfigError, match="unit"):
        parse_config("slip.s2 = 2")


@pytest.mark.parametrize("text", ["slip.s2 = 2", "slip.m1 = 0.5",
                                  "slip.m1 = 0\nslip.m2 = 1"])
def test_slip_vector_errors_name_slip(text):
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    if text.startswith("slip.m1"):      # a former normal key, on line 1
        assert str(info.value) == "line 1: unknown key 'slip.m1'"
    else:
        assert str(info.value).startswith("slip: ")


def test_platen_through_floor_rejected():
    with pytest.raises(ConfigError, match="load.speed"):
        parse_config("load.speed = 1.0")


# every element's doubled area, the product of its cell's sides, is 0
# (also far below the sides the gradient check works on)
ZERO_AREA = "geometry.Lx = 1e-200\ngeometry.Ly = 1e-200\nload.speed = 0\n"


@pytest.mark.parametrize("command", ["validate", "check-gradient"])
def test_cli_zero_area_elements_exit_1(tmp_path, capsys, command):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text(ZERO_AREA)
    code = cli_main([command, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ")
    for key in ("geometry.Lx", "geometry.Ly", "mesh.nx", "mesh.ny"):
        assert key in err


# every element's doubled area, the product of its cell's sides, overflows
# (also far above the sides the gradient check works on)
HUGE_AREA = "geometry.Lx = 1e300\ngeometry.Ly = 1e300\n"


@pytest.mark.parametrize("command", ["validate", "check-gradient"])
def test_cli_overflowing_area_elements_exit_1(tmp_path, capsys, command):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(HUGE_AREA)
    with warnings.catch_warnings():
        warnings.simplefilter("error")          # no overflow warning either
        code = cli_main([command, "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ")
    for key in ("geometry.Lx", "geometry.Ly", "mesh.nx", "mesh.ny"):
        assert key in err


@pytest.mark.parametrize("command", ["validate", "check-gradient"])
@pytest.mark.parametrize("side", ["1e100", "1e-100", "1e-150"])
def test_cli_geometry_off_the_gradient_checks_scale_exit_1(tmp_path, capsys,
                                                            command, side):
    # the check's probe and step are fixed lengths in mm: these sides used
    # to fail it with an error of 1.6e102 (1e100) or nan, and exit 2
    cfg = tmp_path / "scale.cfg"
    cfg.write_text(f"geometry.Lx = {side}\ngeometry.Ly = {side}\n"
                   "load.speed = 0\nmesh.nx = 2\nmesh.ny = 2\n")
    code = cli_main([command, "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("config error: ")
    for key in ("geometry.Lx", "geometry.Ly", "mesh.nx", "mesh.ny"):
        assert key in err


@pytest.mark.parametrize("text", [
    "geometry.Lx = 0.99\n",
    "geometry.Ly = 200.5\n",
    "geometry.Lx = 1\nmesh.nx = 1001\n",
])
def test_geometry_just_outside_the_checks_scale_rejected(text):
    with pytest.raises(ConfigError, match="geometry.Lx"):
        parse_config(text + "load.speed = 0\n")


def test_cli_check_gradient_at_the_scale_bounds(tmp_path, capsys):
    # the smallest and the largest accepted sides, and the finest spacing
    for text in ("geometry.Lx = 1\ngeometry.Ly = 1\nload.speed = 0\n",
                 "geometry.Lx = 200\ngeometry.Ly = 200\nload.speed = 0\n",
                 "geometry.Lx = 1\nmesh.nx = 1000\nmesh.ny = 2\n"):
        cfg = tmp_path / "bounds.cfg"
        cfg.write_text(text)
        assert cli_main(["check-gradient", "--config", str(cfg)]) == 0, text
        out = capsys.readouterr().out
        assert float(out.split(":")[1]) < 1e-4


def test_config_roundtrip():
    config = parse_config("mesh.nx = 5\nmaterial.p = 2.7\n"
                          "output.formats = csv")
    again = parse_config(serialize_config(config))
    assert again == config


def test_roundtrip_of_defaults():
    assert parse_config(serialize_config(SimulationConfig())) \
        == SimulationConfig()


def test_serialized_defaults_are_frozen():
    assert serialize_config(SimulationConfig()) == """\
geometry.Lx = 42
geometry.Ly = 75
mesh.nx = 34
mesh.ny = 61
material.C = 600
material.D = 200
material.aniso = 100
material.beta = 0.02
material.eps_grad = 500
material.sigma = 0.001
material.p = 2.2000000000000002
material.r = 2
material.delta = 1.0000000000000001e-05
slip.s1 = 0
slip.s2 = 1
load.speed = 0.17999999999999999
load.T = 100
load.K = 76
output.snapshot_stride = 1
output.formats = csv,vtk
"""


def test_parse_from_file(tmp_path, capsys):
    # parse_config takes text only; the CLI reads the file
    path = tmp_path / "sim.cfg"
    path.write_text("mesh.nx = 3\nmesh.ny = 4\n")
    with pytest.raises(ConfigError, match="line 1: expected 'key = value'"):
        parse_config(str(path))
    assert cli_main(["validate", "--config", str(path)]) == 0
    config = parse_config(capsys.readouterr().out)
    assert (config.nx, config.ny) == (3, 4)


def test_empty_output_directory_rejected(tmp_path, monkeypatch, capsys):
    # it used to pass, solve every step and then fail in os.makedirs('')
    import kinkband.evolution as evolution

    calls = []
    monkeypatch.setattr(evolution, "run_simulation",
                        lambda *args: calls.append(args) or ([], []))
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mesh.nx = 2\nmesh.ny = 2\nload.K = 1\n")
    assert cli_main(["run", "--config", str(cfg), "--out", ""]) == 1
    assert "--out must not be empty" in capsys.readouterr().err
    assert calls == []


# ---------------------------------------------------------------------------
# history CSV


@pytest.fixture(scope="module")
def tiny_run():
    config = SimulationConfig(nx=3, ny=4, K=4)
    records, states = run_simulation(config)
    return config, records, states


def test_csv_header_is_stable(tmp_path, tiny_run):
    config, records, _ = tiny_run
    path = tmp_path / "history.csv"
    write_history_csv(records, path, Lx=config.Lx, Ly=config.Ly,
                      speed=config.speed)
    first = path.read_text().splitlines()[0]
    assert first == CSV_HEADER
    assert first == ("k,time_s,top_displacement_mm,engineering_strain,"
                     "reaction_force_N,nominal_stress_MPa,total_energy_Nmm,"
                     "elastic_Nmm,hardening_Nmm,slip_gradient_Nmm,penalty_Nmm,"
                     "dissipation_increment_Nmm,cumulative_dissipation_Nmm,"
                     "max_abs_gamma,min_det_Fe,optimizer_iterations")


def test_csv_row_count_and_strain_column(tmp_path, tiny_run):
    config, records, _ = tiny_run
    path = tmp_path / "history.csv"
    write_history_csv(records, path, Lx=config.Lx, Ly=config.Ly,
                      speed=config.speed)
    lines = path.read_text().splitlines()
    assert len(lines) == len(records) + 1
    last = lines[-1].split(",")
    cols = CSV_HEADER.split(",")
    strain = float(last[cols.index("engineering_strain")])
    assert strain == pytest.approx(0.18 * 100.0 / 75.0, rel=1e-12)
    assert strain == pytest.approx(0.24, rel=1e-12)
    stress = float(last[cols.index("nominal_stress_MPa")])
    force = float(last[cols.index("reaction_force_N")])
    assert stress == pytest.approx(force / config.Lx, rel=1e-12)


def test_csv_roundtrip_exact(tmp_path, tiny_run):
    config, records, _ = tiny_run
    path = tmp_path / "history.csv"
    write_history_csv(records, path, Lx=config.Lx, Ly=config.Ly,
                      speed=config.speed)
    parsed = read_history_csv(path)
    # dataclass equality: every field, floats exactly
    assert parsed == records


def test_csv_refuses_empty(tmp_path):
    with pytest.raises(ValueError):
        write_history_csv([], tmp_path / "empty.csv", Lx=1, Ly=1, speed=0)


def test_single_record_two_lines(tmp_path):
    config = SimulationConfig(nx=2, ny=2, K=1, speed=0.0, T=1.0)
    records, _ = run_simulation(config)
    path = tmp_path / "one.csv"
    write_history_csv(records, path, Lx=config.Lx, Ly=config.Ly,
                      speed=config.speed)
    assert len(path.read_text().splitlines()) == 2


# ---------------------------------------------------------------------------
# VTK snapshots


def read_vtk_ascii(path):
    """Minimal VTK legacy conformance reader for unstructured grids."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    assert lines[0].startswith("# vtk DataFile Version")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    i = 4
    out = {"points": None, "cells": None, "point_data": {}, "cell_data": {}}

    def parse_scalar_block(i, count):
        name = lines[i].split()[1]
        assert lines[i + 1].startswith("LOOKUP_TABLE")
        vals = np.array([float(lines[j]) for j in range(i + 2, i + 2 + count)])
        return name, vals, i + 2 + count

    n_points = 0
    section = None
    while i < len(lines):
        line = lines[i]
        if not line.strip():
            i += 1
            continue
        tok = line.split()
        if tok[0] == "POINTS":
            n_points = int(tok[1])
            pts = np.array([[float(v) for v in lines[j].split()]
                            for j in range(i + 1, i + 1 + n_points)])
            assert pts.shape == (n_points, 3)
            out["points"] = pts
            i += 1 + n_points
        elif tok[0] == "CELLS":
            n_cells, total = int(tok[1]), int(tok[2])
            cells = []
            for j in range(i + 1, i + 1 + n_cells):
                row = [int(v) for v in lines[j].split()]
                assert row[0] == 3
                cells.append(row[1:])
            assert total == 4 * n_cells
            out["cells"] = np.array(cells)
            i += 1 + n_cells
        elif tok[0] == "CELL_TYPES":
            n_cells = int(tok[1])
            types = [int(lines[j]) for j in range(i + 1, i + 1 + n_cells)]
            assert set(types) == {5}
            i += 1 + n_cells
        elif tok[0] == "POINT_DATA":
            section = "point_data"
            count = int(tok[1])
            assert count == n_points
            i += 1
        elif tok[0] == "CELL_DATA":
            section = "cell_data"
            count = int(tok[1])
            i += 1
        elif tok[0] == "VECTORS":
            name = tok[1]
            vecs = np.array([[float(v) for v in lines[j].split()]
                             for j in range(i + 1, i + 1 + count)])
            out[section][name] = vecs
            i += 1 + count
        elif tok[0] == "SCALARS":
            name, vals, i = parse_scalar_block(i, count)
            out[section][name] = vals
        else:
            raise AssertionError(f"unexpected VTK line: {line!r}")
    return out


def test_vtk_undeformed_snapshot(tmp_path):
    mesh = build_structured_mesh(42, 75, 3, 4)
    st = initial_state(mesh)
    path = tmp_path / "snap.vtk"
    write_snapshot_vtk(st, mesh, path)
    data = read_vtk_ascii(path)
    np.testing.assert_allclose(data["points"][:, :2], mesh.nodes)
    np.testing.assert_allclose(data["point_data"]["displacement"], 0.0)
    np.testing.assert_allclose(data["point_data"]["gamma"], 0.0)
    for name in ("E_11", "E_22", "E_12", "grad_u_11", "grad_u_22"):
        np.testing.assert_allclose(data["cell_data"][name], 0.0, atol=1e-14)
    np.testing.assert_allclose(data["cell_data"]["det_Fe"], 1.0, rtol=1e-13)
    assert (data["cells"] == mesh.corners.T).all()


def test_vtk_uniform_compression_strain(tmp_path):
    mesh = build_structured_mesh(42, 75, 3, 4)
    st = initial_state(mesh)
    st.q[1] = 0.99 * st.a2
    path = tmp_path / "snap.vtk"
    write_snapshot_vtk(st, mesh, path)
    data = read_vtk_ascii(path)
    expected = (0.99 ** 2 - 1.0) / 2.0
    np.testing.assert_allclose(data["cell_data"]["E_22"], expected, rtol=1e-12)
    assert expected == pytest.approx(-0.00995)
    np.testing.assert_allclose(data["cell_data"]["E_11"], 0.0, atol=1e-14)


def test_vtk_post_kink_band_structure(tmp_path, run_10x18_k20):
    config, _, states = run_10x18_k20
    mesh = build_structured_mesh(config.Lx, config.Ly, config.nx, config.ny)
    path = tmp_path / "final.vtk"
    write_snapshot_vtk(states[-1], mesh, path)
    data = read_vtk_ascii(path)
    gamma = data["point_data"]["gamma"]
    # localized band structure, not uniform slip
    assert np.max(np.abs(gamma)) > 0.01
    assert np.std(gamma) > 0.1 * np.max(np.abs(gamma))


# ---------------------------------------------------------------------------
# CLI


def test_cli_validate_echoes_defaults(tmp_path, capsys):
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("")
    code = cli_main(["validate", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert parse_config(out) == SimulationConfig()


def test_cli_validate_bad_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("load.K = 0\n")
    code = cli_main(["validate", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert "load.K" in err


def test_cli_run_k0_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("load.K = 0\n")
    code = cli_main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "load.K" in err


def test_cli_missing_config_file(tmp_path, capsys):
    code = cli_main(["validate", "--config", str(tmp_path / "nope.cfg")])
    assert code == 1
    assert capsys.readouterr().err.startswith("config error: cannot read")


def test_cli_config_directory_is_a_config_error(tmp_path, capsys):
    code = cli_main(["validate", "--config", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ")


def test_cli_config_not_utf8_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"\xff\xfe")
    code = cli_main(["validate", "--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ")


def test_cli_check_gradient(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mesh.nx = 4\nmesh.ny = 6\n")
    code = cli_main(["check-gradient", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    err = float(out.strip().rsplit(" ", 1)[-1])
    assert err < 1e-5


def test_cli_check_gradient_fails_on_nan_gradient(tmp_path, monkeypatch,
                                                  capsys):
    # one NaN coordinate of the analytic gradient must fail the check
    import kinkband.evolution as evolution

    make_objective = evolution._make_objective

    def nan_objective(*args):
        fun_grad = make_objective(*args)

        def nan_fun_grad(x):
            f, g = fun_grad(x)
            g = g.copy()
            g[3] = np.nan
            return f, g
        return nan_fun_grad

    monkeypatch.setattr(evolution, "_make_objective", nan_objective)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mesh.nx = 4\nmesh.ny = 6\n")
    code = cli_main(["check-gradient", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.strip().endswith("nan")
    assert "gradient check FAILED" in captured.err


def test_python_m_kinkband_from_source_checkout():
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([path] if path else [])))
    proc = subprocess.run(
        [sys.executable, "-m", "kinkband", "validate", "--config", os.devnull],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == serialize_config(SimulationConfig())


def test_cli_run_end_to_end(tmp_path, capsys):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mesh.nx = 3\nmesh.ny = 4\nload.K = 3\n"
                   "output.snapshot_stride = 2\n")
    out_dir = tmp_path / "results"
    code = cli_main(["run", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 0
    records = read_history_csv(out_dir / "history.csv")
    assert len(records) == 3
    snaps = sorted(p.name for p in out_dir.glob("snapshot_*.vtk"))
    # stride 2 over states 0..3 plus the forced final snapshot
    assert snaps == ["snapshot_0000.vtk", "snapshot_0002.vtk",
                     "snapshot_0003.vtk"]
    read_vtk_ascii(out_dir / "snapshot_0003.vtk")


@pytest.mark.parametrize("command,flags", [
    ("run", ["--steps", "2"]),
    ("run", ["--mesh", "2", "3"]),
    ("check-gradient", ["--mesh", "4", "6"]),
])
def test_cli_has_no_config_overrides(tmp_path, monkeypatch, capsys, command,
                                     flags):
    # a config is its file: load.K and mesh.nx/ny are set there only
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("")
    code = cli_main([command, "--config", str(cfg)] + flags)
    assert code == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_solves_the_config_validate_prints(tmp_path, monkeypatch,
                                                    capsys):
    import kinkband.evolution as evolution

    seen = []

    def record(config):
        seen.append(config)
        return [], []

    monkeypatch.setattr(evolution, "run_simulation", record)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mesh.nx = 5\nmesh.ny = 7\nload.K = 3\nload.T = 6\n"
                   "output.formats = csv\n")
    assert cli_main(["validate", "--config", str(cfg)]) == 0
    printed = capsys.readouterr().out
    assert cli_main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "o")]) == 0
    assert len(seen) == 1
    assert serialize_config(seen[0]) == printed


def test_cli_run_claims_output_directory_before_solving(tmp_path, monkeypatch,
                                                        capsys):
    # an output path that cannot be made used to cost the whole run
    import kinkband.evolution as evolution

    calls = []
    monkeypatch.setattr(evolution, "run_simulation",
                        lambda *args: calls.append(args) or ([], []))
    blocker = tmp_path / "file"
    blocker.write_text("")
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mesh.nx = 2\nmesh.ny = 2\nload.K = 1\n")
    code = cli_main(["run", "--config", str(cfg),
                     "--out", str(blocker / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("i/o error: ")
    assert calls == []


def test_cli_run_empty_out_is_a_config_error(tmp_path, monkeypatch, capsys):
    # "" is not "absent": it must not fall back to the default, out
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mesh.nx = 2\nmesh.ny = 2\nload.K = 1\n")
    code = cli_main(["run", "--config", str(cfg), "--out", ""])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("config error: ")
    assert "--out" in err
    assert not (tmp_path / "out").exists()


def test_cli_output_dir_ignores_environment(tmp_path, monkeypatch):
    # a run's inputs are its command line and its config file only: without
    # --out it writes to out under the working directory
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mesh.nx = 2\nmesh.ny = 2\nload.K = 1\n"
                   "output.formats = csv\n")
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("KINKBAND_OUT_DIR", str(env_dir))
    code = cli_main(["run", "--config", str(cfg)])
    assert code == 0
    assert (tmp_path / "out" / "history.csv").exists()
    assert not env_dir.exists()


def test_console_main_sets_allocator_thresholds_before_dispatch(monkeypatch):
    import kinkband.cli as cli

    calls = []

    def mallopt(param, value):
        calls.append(("mallopt", param, value))

    monkeypatch.setattr(cli.ctypes, "CDLL",
                        lambda name: SimpleNamespace(mallopt=mallopt))
    monkeypatch.setattr(cli, "cli_main", lambda: calls.append("cli_main") or 0)
    with pytest.raises(SystemExit) as info:
        cli.console_main()
    assert info.value.code == 0
    assert calls == [("mallopt", -3, 32 << 20), ("mallopt", -1, 1 << 30),
                     "cli_main"]


def test_console_main_without_mallopt_skips_it(monkeypatch):
    import kinkband.cli as cli

    monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: object())
    monkeypatch.setattr(cli, "cli_main", lambda: 0)
    with pytest.raises(SystemExit) as info:
        cli.console_main()
    assert info.value.code == 0


def test_cli_run_saves_partial_results_on_step_failure(tmp_path, monkeypatch,
                                                      capsys):
    import kinkband.evolution as evolution

    real_step = evolution.incremental_step

    def fail_at_step_3(*args, **kwargs):
        if kwargs["k"] == 3:
            raise StepFailureError("injected failure")
        return real_step(*args, **kwargs)

    monkeypatch.setattr(evolution, "incremental_step", fail_at_step_3)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mesh.nx = 2\nmesh.ny = 3\nload.K = 4\n")
    out_dir = tmp_path / "o"
    code = cli_main(["run", "--config", str(cfg), "--out", str(out_dir)])
    assert code == 2
    assert "partial results saved" in capsys.readouterr().err
    assert len(read_history_csv(out_dir / "history.csv")) == 2
    assert sorted(p.name for p in out_dir.glob("snapshot_*.vtk")) == [
        "snapshot_0000.vtk", "snapshot_0001.vtk", "snapshot_0002.vtk"]


def _run_with_a_spoiled_step_3(tmp_path, monkeypatch, capsys, spoil):
    """``kinkband run`` on 2x3 K=4 with every minimizer result of step 3
    moved by ``spoil(mesh, dofmap, x)``; returns the exit code, stderr and
    the output directory."""
    import kinkband.evolution as evolution

    real_step, real_minimize = evolution.incremental_step, evolution.minimize
    mesh = build_structured_mesh(42.0, 75.0, 2, 3)
    dofmap = build_dofmap(mesh)
    steps = []

    def tracking(*args, **kwargs):
        steps.append(kwargs["k"])
        return real_step(*args, **kwargs)

    def spoiling(fun_grad, x0, *args, **kwargs):
        res = real_minimize(fun_grad, x0, *args, **kwargs)
        if steps[-1] == 3:
            res = replace(res, x_min=spoil(mesh, dofmap, res.x_min.copy()))
        return res

    monkeypatch.setattr(evolution, "incremental_step", tracking)
    monkeypatch.setattr(evolution, "minimize", spoiling)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mesh.nx = 2\nmesh.ny = 3\nload.K = 4\n")
    out_dir = tmp_path / "o"
    code = cli_main(["run", "--config", str(cfg), "--out", str(out_dir)])
    return code, capsys.readouterr().err, out_dir


def _assert_partial_results_of_two_steps(code, err, out_dir):
    assert code == 2
    assert "step 3 to t=" in err and "partial results saved" in err
    assert len(read_history_csv(out_dir / "history.csv")) == 2
    assert len(list(out_dir.glob("snapshot_*.vtk"))) == 3


def test_cli_run_rejects_an_accepted_state_with_penalty_energy(
        tmp_path, monkeypatch, capsys):
    # the minimizer hands back a state whose middle node is pushed past the
    # right side, which folds the elements around it
    def fold(mesh, dofmap, x):
        node = int(np.flatnonzero(mesh.boundary_tags == INTERIOR)[0])
        x[np.searchsorted(dofmap.free, node)] += 2.0 * mesh.Lx
        return x

    code, err, out_dir = _run_with_a_spoiled_step_3(tmp_path, monkeypatch,
                                                    capsys, fold)
    _assert_partial_results_of_two_steps(code, err, out_dir)
    assert "the accepted state has penalty energy" in err


def test_cli_run_rejects_an_accepted_state_above_the_energy_estimate(
        tmp_path, monkeypatch, capsys):
    # the minimizer hands back an admissible state with 0.5 more slip
    # everywhere (det P = 1, so no penalty point), far above the lift
    def slipped(mesh, dofmap, x):
        x[-mesh.n_nodes:] += 0.5            # the slip is free everywhere
        return x

    code, err, out_dir = _run_with_a_spoiled_step_3(tmp_path, monkeypatch,
                                                    capsys, slipped)
    _assert_partial_results_of_two_steps(code, err, out_dir)
    assert "penalty" not in err
    assert "the accepted state breaks the energy upper estimate" in err


def test_cli_run_fails_on_bad_startup_gradient_check(tmp_path, monkeypatch,
                                                     capsys):
    # a failed start-up check must stop the run, not switch gradients
    import kinkband.evolution as evolution

    monkeypatch.setattr(evolution, "_startup_gradient_check",
                        lambda *args, **kwargs: 1.0)
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("mesh.nx = 2\nmesh.ny = 2\nload.K = 1\n")
    out_dir = tmp_path / "o"
    code = cli_main(["run", "--config", str(cfg), "--out", str(out_dir)])
    err = capsys.readouterr().err
    assert code == 2
    assert "gradient check failed" in err
    assert not (out_dir / "history.csv").exists()


# ---------------------------------------------------------------------------
# agreement across BLAS and SIMD code paths

# The largest |difference| from the default run that each history.csv column
# of the 10x18 K=20 program may show under another code path.  Measured on an
# AVX-512 Xeon (numpy 2.4.6, scipy-openblas 0.3.31 DYNAMIC_ARCH), the worst
# over the three settings below is given with each; the tolerances are five
# times that, and 100 iterations against 42 (a step takes 79 to 200).  The
# columns the config alone sets, and the penalty energy (0 on every path),
# must agree exactly.  The minimizer's stop on a small decrease does not
# bound its distance from the minimizer, so these are that spread, pinned.
CODE_PATH_TOLERANCES = {
    "reaction_force_N": 10.0,            # 1.9 N; the largest |F| is 20,033 N
    "nominal_stress_MPa": 0.25,          # the force over Lx = 42 mm
    "total_energy_Nmm": 1e-2,            # 1.8e-3 N mm
    "elastic_Nmm": 4.0,                  # 0.68 N mm, offset by the next
    "slip_gradient_Nmm": 4.0,            # 0.68 N mm
    "hardening_Nmm": 2e-3,               # 4.1e-4 N mm
    "dissipation_increment_Nmm": 1e-2,   # 1.7e-3 N mm
    "cumulative_dissipation_Nmm": 1e-2,  # 1.7e-3 N mm
    "max_abs_gamma": 1e-3,               # 2.0e-4
    "min_det_Fe": 5e-4,                  # 8.5e-5
    "optimizer_iterations": 100,         # 42
}
CODE_PATH_VARIABLES = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")


def _code_path_skip(setting):
    """The reason to skip a code path here, or None to run it."""
    try:
        build = np.show_config(mode="dicts")
    except TypeError:                   # numpy before 1.26 has no mode
        return "numpy does not report its build as a dict"
    blas = build.get("Build Dependencies", {}).get("blas", {})
    if "DYNAMIC_ARCH" not in blas.get("openblas configuration", ""):
        return ("numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS, so "
                "OPENBLAS_CORETYPE selects no kernel")
    found = build.get("SIMD Extensions", {}).get("found") or []
    if "NPY_DISABLE_CPU_FEATURES" in setting and "X86_V4" not in found:
        return "the CPU or numpy build has no X86_V4 (AVX-512) to disable"
    return None


def _history_under(setting, out_dir):
    """history.csv rows of the 10x18 K=20 CSV program, run by ``python -m
    kinkband`` in ``out_dir`` by a child whose environment adds
    ``setting``."""
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.environ.get("PYTHONPATH")
    env = {k: v for k, v in os.environ.items()
           if k not in CODE_PATH_VARIABLES}
    env.update(setting, PYTHONPATH=os.pathsep.join(
        [str(src)] + ([path] if path else [])))
    cfg = out_dir / "k20.cfg"
    cfg.write_text("mesh.nx = 10\nmesh.ny = 18\nload.K = 20\n"
                   "output.formats = csv\n")
    proc = subprocess.run(
        [sys.executable, "-m", "kinkband", "run", "--config", str(cfg),
         "--out", str(out_dir / "out")],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    with open(out_dir / "out" / "history.csv", encoding="utf-8",
              newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def default_path_history(tmp_path_factory):
    return _history_under({}, tmp_path_factory.mktemp("default_path"))


@pytest.mark.parametrize("setting", [
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Sandybridge"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
], ids=["haswell", "sandybridge", "no_avx512"])
def test_history_agrees_across_code_paths(request, tmp_path, setting):
    # the bytes are the same only on one code path; across paths each column
    # agrees to its tolerance, and slip starts at step 10 on every path
    reason = _code_path_skip(setting)
    if reason is not None:
        pytest.skip(reason)
    default = request.getfixturevalue("default_path_history")
    rows = _history_under(setting, tmp_path)
    assert len(rows) == len(default) == 20
    assert list(rows[0]) == CSV_HEADER.split(",")
    for column in CSV_HEADER.split(","):
        tol = CODE_PATH_TOLERANCES.get(column, 0.0)
        worst = max(abs(float(a[column]) - float(b[column]))
                    for a, b in zip(default, rows))
        assert worst <= tol, (column, worst, tol)
    for history in (default, rows):
        onset = next(int(r["k"]) for r in history
                     if float(r["max_abs_gamma"]) > 0.0)
        assert onset == 10
