"""End-to-end command line runs: exit codes, determinism, file contents."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from lattice_reference import reference_sites
import nvbath.cli
import nvbath.spinsys
from nvbath.cli import _row_format, main, read_decay_csv
from nvbath.decoherence import echo_model, fid_model
from nvbath.errors import ValidationError
from nvbath.lattice import classify_shells, generate_lattice
from nvbath.linewidth import LinewidthPoint, linewidth_curve
from nvbath.pulses import (Register, RegisterState, bell_sequence,
                           parse_sequence)
from nvbath.spinsys import (
    SpinSystemSpec,
    TransitionLine,
    ZeemanField,
    esr_transitions,
    first_shell_tensor,
    third_shell_tensor,
)

HEX12 = re.compile(r"# config: [0-9a-f]{12}$")


def cli_register():
    """Same register the CLI builds for --field 83 --first-shell 0
    --third-shell 1."""
    return Register(SpinSystemSpec(field=ZeemanField(83.0),
                                   hyperfine=(first_shell_tensor(),
                                              third_shell_tensor())))


def read_rows(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(dict(zip(header, line.split(","))))
    return rows


def test_spectrum_outputs_are_byte_identical(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    argv = ["spectrum", "--field", "83", "--first-shell", "0"]
    assert main(argv + ["--out-dir", str(d1)]) == 0
    assert main(argv + ["--out-dir", str(d2)]) == 0
    for name in ("spectrum_lines.csv", "spectrum.csv"):
        b1 = (d1 / name).read_bytes()
        assert b1 == (d2 / name).read_bytes()
    head = (d1 / "spectrum.csv").read_text().splitlines()[:3]
    assert head[0].startswith("# tool: nvbath ")
    assert HEX12.match(head[1])
    assert head[2] == "# seed: 0"


def test_spectrum_window_validation(tmp_path):
    out = ["--out-dir", str(tmp_path)]
    assert main(["spectrum", "--field", "83", "--window", "2400,3400"]
                + out) == 0
    assert main(["spectrum", "--field", "83", "--window", "3400,2400"]
                + out) == 2
    assert main(["spectrum", "--field", "83", "--window", "1,2,3"]
                + out) == 2
    # empty window: no transitions to report
    assert main(["spectrum", "--field", "83", "--window", "10,20"]
                + out) == 2


def test_reversed_window_exits_before_diagonalizing(tmp_path, monkeypatch):
    calls = []
    diagonalize = nvbath.spinsys.diagonalize
    monkeypatch.setattr(nvbath.spinsys, "diagonalize",
                        lambda h: calls.append(h.shape) or diagonalize(h))
    assert main(["spectrum", "--first-shell", "0,120", "--third-shell", "3",
                 "--window", "3400,2400", "--out-dir", str(tmp_path)]) == 2
    assert calls == []
    assert main(["spectrum", "--first-shell", "0", "--window", "2400,3400",
                 "--out-dir", str(tmp_path)]) == 0
    assert calls == [(6, 6)]


def test_config_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"field_gauss": 50.0}))
    d_flag = tmp_path / "flag"
    d_both = tmp_path / "both"
    d_cfg = tmp_path / "cfg"
    assert main(["spectrum", "--field", "83",
                 "--out-dir", str(d_flag)]) == 0
    assert main(["spectrum", "--config", str(cfg), "--field", "83",
                 "--out-dir", str(d_both)]) == 0
    assert main(["spectrum", "--config", str(cfg),
                 "--out-dir", str(d_cfg)]) == 0
    # an explicit flag overrides the config value, reproducing the
    # flag-only run byte for byte; the config-only run differs
    flag_bytes = (d_flag / "spectrum_lines.csv").read_bytes()
    assert (d_both / "spectrum_lines.csv").read_bytes() == flag_bytes
    assert (d_cfg / "spectrum_lines.csv").read_bytes() != flag_bytes


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert main(["spectrum", "--config", str(cfg),
                 "--out-dir", str(tmp_path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


def test_malformed_config_names_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{\n  "field_gauss": oops\n}\n')
    assert main(["spectrum", "--config", str(cfg)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_linewidth_thread_count_does_not_change_output(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    assert main(["linewidth", "--out-dir", str(d1)]) == 0
    assert main(["linewidth", "--threads", "4", "--out-dir", str(d2)]) == 0
    assert (d1 / "linewidth.csv").read_bytes() \
        == (d2 / "linewidth.csv").read_bytes()
    rows = read_rows(d1 / "linewidth.csv")
    assert len(rows) == 25  # default log grid
    assert {"n", "w_contact_mhz", "w_dipolar_mhz", "w_total_mhz",
            "t2star_us"} == set(rows[0])


def test_linewidth_explicit_concentrations(tmp_path):
    out = str(tmp_path)
    assert main(["linewidth", "--concentrations", "0.011,0.05",
                 "--out-dir", out]) == 0
    rows = read_rows(tmp_path / "linewidth.csv")
    assert [float(r["n"]) for r in rows] == [0.011, 0.05]
    assert main(["linewidth", "--concentrations", "1.5",
                 "--out-dir", out]) == 2
    assert main(["linewidth", "--concentrations", "abc",
                 "--out-dir", out]) == 2


def test_linewidth_from_lattice_with_overlay_plot(tmp_path, capsys):
    overlay = tmp_path / "meas.csv"
    overlay.write_text("n,w_mhz\n0.011,0.5\n0.05,2.4\n")
    assert main(["linewidth", "--from-lattice", "16",
                 "--concentrations", "0.001,0.01",
                 "--overlay", str(overlay), "--plot",
                 "--out-dir", str(tmp_path)]) == 0
    assert "lattice coefficient" in capsys.readouterr().out
    assert (tmp_path / "linewidth.svg").exists()
    assert (tmp_path / "linewidth.csv").exists()


def test_linewidth_overlay_header_after_comment(tmp_path, capsys):
    overlay = tmp_path / "meas.csv"
    overlay.write_text("# measured\nn,w_mhz\n0.011,0.5\n")
    argv = ["linewidth", "--concentrations", "0.001,0.01", "--plot",
            "--overlay", str(overlay), "--out-dir", str(tmp_path)]
    assert main(argv) == 0
    assert "measured" in (tmp_path / "linewidth.svg").read_text()
    overlay.write_text("# measured\nn,w_mhz\n0.011,0.5\n0.05,x\n")
    assert main(argv) == 2
    assert "line 4" in capsys.readouterr().err


def test_fit_recovers_parameters(tmp_path):
    t = np.linspace(0.0, 40.0, 80)
    y = fid_model(t, 13.3, 0.9, 0.5, 0.5)
    data = tmp_path / "decay.csv"
    data.write_text("t_us,signal\n" + "".join(
        f"{tt:.12g},{yy:.12g}\n" for tt, yy in zip(t, y)))
    assert main(["fit", "--input", str(data), "--model", "fid",
                 "--out-dir", str(tmp_path)]) == 0
    rows = {r["param"]: float(r["value"])
            for r in read_rows(tmp_path / "fit_fid.csv")}
    assert abs(rows["t2star_us"] - 13.3) <= 1e-5
    assert abs(rows["domega_rad_us"] - 0.9) <= 1e-5


def test_fit_constant_data_is_numerical_failure(tmp_path, capsys):
    data = tmp_path / "flat.csv"
    data.write_text("".join(f"{tt},1.0\n" for tt in range(12)))
    assert main(["fit", "--input", str(data),
                 "--out-dir", str(tmp_path)]) == 3
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("model, why", [("fid", "degenerate fit"),
                                        ("echo", "no convergence")])
def test_degenerate_fit_is_numerical_failure(tmp_path, capsys, model, why):
    # a 1e-90 second sample pins the time-scale guess there: the echo
    # Jacobian turns NaN, and the fid fit ends with a singular covariance
    t = [0.0, 1e-90] + list(range(1, 40))
    data = tmp_path / "degenerate.csv"
    data.write_text("t_us,signal\n" + "".join(
        f"{tt:.17g},{1.0 if k == 0 else 0.5}\n" for k, tt in enumerate(t)))
    assert main(["fit", "--input", str(data), "--model", model,
                 "--out-dir", str(tmp_path)]) == 3
    assert f"numerical failure: {why}" in capsys.readouterr().err
    assert not (tmp_path / f"fit_{model}.csv").exists()


def test_fit_input_errors(tmp_path, capsys):
    assert main(["fit", "--input", str(tmp_path / "missing.csv")]) == 2
    bad = tmp_path / "bad.csv"
    bad.write_text("t,signal\n0,1\n1,2,3,4\n")
    assert main(["fit", "--input", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


def test_read_decay_csv_details(tmp_path):
    p = tmp_path / "c.csv"
    p.write_text("# comment\nt_us,signal,sigma\n0,1.0,0.1\n1,0.5,0.1\n")
    curve = read_decay_csv(p)
    assert curve.sigma is not None and len(curve.t_us) == 2
    p2 = tmp_path / "mixed.csv"
    p2.write_text("0,1.0\n1,0.5,0.1\n")
    with pytest.raises(ValidationError, match="line 2"):
        read_decay_csv(p2)
    p3 = tmp_path / "empty.csv"
    p3.write_text("# nothing\n")
    with pytest.raises(ValidationError, match="no data"):
        read_decay_csv(p3)


def test_bath_sampling_deterministic(tmp_path):
    d1, d2, d3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    argv = ["bath", "--radius", "10", "--concentration", "0.05"]
    assert main(argv + ["--seed", "7", "--out-dir", str(d1)]) == 0
    assert main(argv + ["--seed", "7", "--out-dir", str(d2)]) == 0
    assert main(argv + ["--seed", "8", "--out-dir", str(d3)]) == 0
    assert (d1 / "bath_sites.csv").read_bytes() \
        == (d2 / "bath_sites.csv").read_bytes()
    assert (d1 / "bath_sites.csv").read_bytes() \
        != (d3 / "bath_sites.csv").read_bytes()
    for row in read_rows(d1 / "bath_sites.csv"):
        r = math.sqrt(float(row["x_angstrom"]) ** 2
                      + float(row["y_angstrom"]) ** 2
                      + float(row["z_angstrom"]) ** 2)
        assert r <= 10.0 + 1e-9


def test_bath_rows_match_per_site_reference(tmp_path):
    assert main(["bath", "--radius", "12", "--concentration", "0.05",
                 "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    ref, positions = reference_sites(12.0)
    u = np.random.Generator(np.random.Philox(key=5)).random(len(ref))
    want = [",".join([*(f"{x:.10g}" for x in positions[i]),
                      str(ref[i].shell)])
            for i in np.flatnonzero(u < 0.05)]
    lines = (tmp_path / "bath_sites.csv").read_text().splitlines()
    data = lines[lines.index("x_angstrom,y_angstrom,z_angstrom,shell") + 1:]
    assert len(want) > 20
    assert data == want


def test_bath_without_occupied_sites_writes_only_the_header(tmp_path):
    assert main(["bath", "--radius", "8", "--concentration", "0",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "bath_sites.csv").read_text().splitlines()
    assert len(lines) == 4 and [l[0] for l in lines[:3]] == ["#"] * 3
    assert lines[3] == "x_angstrom,y_angstrom,z_angstrom,shell"


def test_records_unpack_to_their_csv_rows(tmp_path):
    """LatticeSite, TransitionLine and LinewidthPoint are the rows of the
    CSV that each produces, and equal plain tuples of their cells."""
    def cells(row):
        return [f"{x:.10g}" if isinstance(x, float) else str(x) for x in row]

    assert main(["bath", "--radius", "8", "--concentration", "1",
                 "--out-dir", str(tmp_path)]) == 0
    lat = classify_shells(generate_lattice(8.0))
    rows = read_rows(tmp_path / "bath_sites.csv")
    assert len(rows) == len(lat)
    for k, row in enumerate(rows):
        quarter, shell, sublattice = lat[k]
        assert (quarter, shell, sublattice) == (
            tuple(lat.quarter[k].tolist()), int(lat.shell[k]),
            int(lat.sublattice[k]))
        assert list(row.values()) == cells([*lat[k].position, shell])

    assert main(["spectrum", "--field", "83", "--first-shell", "0,120",
                 "--out-dir", str(tmp_path)]) == 0
    lines = esr_transitions(SpinSystemSpec(
        field=ZeemanField(83.0),
        hyperfine=(first_shell_tensor(0.0), first_shell_tensor(120.0))))
    rows = read_rows(tmp_path / "spectrum_lines.csv")
    assert len(rows) == len(lines) > 0
    assert tuple(rows[0]) == TransitionLine._fields
    for k, row in enumerate(rows):
        freq_mhz, intensity, i, j = lines[k]
        assert lines[k] == (freq_mhz, intensity, i, j)
        assert list(row.values()) == cells((freq_mhz, intensity, i, j))

    assert main(["linewidth", "--concentrations", "0.001,0.011,0.2",
                 "--out-dir", str(tmp_path)]) == 0
    points = linewidth_curve([0.001, 0.011, 0.2])
    rows = read_rows(tmp_path / "linewidth.csv")
    assert len(rows) == len(points) == 3
    assert tuple(rows[0]) == LinewidthPoint._fields
    for k, row in enumerate(rows):
        assert list(row.values()) == cells(points[k])


def test_pulse_sequence_file_runs(tmp_path):
    seq = tmp_path / "bell.seq"
    seq.write_text("RF 4 6 1.5707963267948966 3.1415926535897931\n"
                   "RF 6 7 3.1415926535897931 0 control=0:1\n")
    assert parse_sequence(seq.read_text()) \
        == bell_sequence(cli_register(), "phi_plus")
    assert main(["pulse", "--field", "83", "--first-shell", "0",
                 "--third-shell", "1", "--sequence", str(seq),
                 "--init=-1:00", "--out-dir", str(tmp_path)]) == 0
    pops = {(int(r["ms"]), r["bits"]): float(r["population"])
            for r in read_rows(tmp_path / "populations.csv")}
    assert abs(pops[(-1, "00")] - 0.5) <= 1e-9
    assert abs(pops[(-1, "11")] - 0.5) <= 1e-9


def test_pulse_init_validation(tmp_path, capsys):
    seq = tmp_path / "one.seq"
    seq.write_text("WAIT 1.0\n")
    assert main(["pulse", "--field", "83", "--first-shell", "0",
                 "--third-shell", "1", "--sequence", str(seq),
                 "--init=0:0", "--out-dir", str(tmp_path)]) == 2
    assert "names 1 nuclei" in capsys.readouterr().err


@pytest.mark.parametrize("line, field", [("MW 2 4 nan 0", "angle_rad"),
                                         ("WAIT inf", "t_us"),
                                         ("MW 2 4 3.14 0 dur=inf",
                                          "duration_us")])
def test_pulse_sequence_rejects_non_finite_values(tmp_path, capsys, line,
                                                  field):
    seq = tmp_path / "bad.seq"
    seq.write_text(line + "\n")
    assert main(["pulse", "--field", "83", "--first-shell", "0",
                 "--third-shell", "1", "--sequence", str(seq),
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "populations.csv").exists()


def test_init_refuses_a_level_whose_label_fails_the_gates(tmp_path, capsys):
    # two equivalent first-shell nuclei: the m_s = 0 levels with one flipped
    # nucleus are 50/50 hybrids of (0, 01) and (0, 10)
    seq = tmp_path / "one.seq"
    seq.write_text("WAIT 1.0\n")
    register = Register(SpinSystemSpec(field=ZeemanField(83.0), hyperfine=(
        first_shell_tensor(), first_shell_tensor())))
    level = register.level(0, (0, 1))
    assert register.label_contrast[level] < 1.5
    assert main(["pulse", "--field", "83", "--first-shell", "0,0",
                 "--sequence", str(seq), "--init=0:01",
                 "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: level {level} is shared between product labels (overlap "
        f"{register.label_overlap[level]:.2f}, contrast "
        f"{register.label_contrast[level]:.2f}); its label does not "
        "identify a single addressable level"]
    assert not (tmp_path / "populations.csv").exists()


def test_pulse_rabi_sweep(tmp_path, capsys):
    reg = cli_register()
    i, j = reg.level(0, (0, 0)), reg.level(-1, (0, 0))
    assert main(["pulse", "--field", "83", "--first-shell", "0",
                 "--third-shell", "1", "--rabi", "mw", str(i), str(j),
                 "--t-max", "2", "--points", "41",
                 "--out-dir", str(tmp_path)]) == 0
    assert "Rabi frequency 1 MHz" in capsys.readouterr().out
    rows = read_rows(tmp_path / "rabi.csv")
    assert len(rows) == 41
    assert abs(float(rows[0]["population"])) <= 1e-12


@pytest.mark.parametrize("argv, name", [
    (["spectrum", "--fwhm", "inf"], "fwhm"),
    (["spectrum", "--fwhm", "nan"], "fwhm"),
    (["spectrum", "--grid", "2800,nan,0.1"], "grid"),
    (["pulse", "--first-shell", "0", "--rabi", "mw", "0", "3",
      "--power", "nan"], "--power"),
    (["pulse", "--first-shell", "0", "--rabi", "mw", "0", "3",
      "--power", "inf"], "--power"),
    (["pulse", "--first-shell", "0", "--rabi", "mw", "0", "3",
      "--t-max", "inf"], "--t-max")])
def test_non_finite_spectrum_and_rabi_inputs_exit_two(tmp_path, capsys,
                                                      argv, name):
    assert main(argv + ["--field", "83", "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name}")
    assert "finite" in err[0]
    assert not tmp_path.exists() or not any(tmp_path.iterdir())


def test_fwhm_is_checked_before_diagonalizing(tmp_path, monkeypatch):
    calls = []
    diagonalize = nvbath.spinsys.diagonalize
    monkeypatch.setattr(nvbath.spinsys, "diagonalize",
                        lambda h: calls.append(h.shape) or diagonalize(h))
    for fwhm in ("inf", "nan", "0"):
        assert main(["spectrum", "--first-shell", "0,120", "--third-shell",
                     "3", "--fwhm", fwhm, "--out-dir", str(tmp_path)]) == 2
    assert calls == []


@pytest.mark.parametrize("grid, message", [
    ("2800,inf,0.1", "grid values must be finite"),
    ("2900,2800,0.1", "grid must satisfy stop > start"),
    ("2800,2900,1e-7", "grid 2800,2900,1e-07 has 1e+09 points"),
    ("2800,2900", "grid needs exactly three values")])
def test_explicit_grid_is_checked_before_diagonalizing(tmp_path, capsys,
                                                      monkeypatch, grid,
                                                      message):
    calls = []
    diagonalize = nvbath.spinsys.diagonalize
    monkeypatch.setattr(nvbath.spinsys, "diagonalize",
                        lambda h: calls.append(h.shape) or diagonalize(h))
    assert main(["spectrum", "--first-shell", "0,120", "--third-shell", "3",
                 "--grid", grid, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")
    assert calls == []


def test_spectrum_grid_over_the_cap_exits_two(tmp_path, capsys,
                                             monkeypatch):
    monkeypatch.setattr(nvbath.spinsys, "MAX_GRID_POINTS", 1000)
    assert main(["spectrum", "--field", "83", "--grid", "2800,2900,0.1",
                 "--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid") and "1e+03 points" in err
    assert "GB" in err and "cap" in err
    assert not (tmp_path / "spectrum.csv").exists()


def test_spectrum_plot_peak_memory_is_within_the_grid_bound(tmp_path):
    # one nucleus, so the grid (1e5 points) and not the register sets the
    # peak; --plot is the costliest spectrum run
    argv = ["spectrum", "--field", "83", "--first-shell", "0",
            "--grid", "2600,3100,0.005", "--plot", "--out-dir", str(tmp_path)]
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= nvbath.spinsys.BYTES_PER_GRID_POINT * 100_001


# One 6-nucleus register (dim 192) through spectrum, pulse --sequence and
# pulse --rabi. The digests were recorded from the output of the code
# before the register labels became array operations (numpy 2.4,
# OpenBLAS 0.3), which these files must keep byte for byte.
GOLDEN_CONFIG = {"field_gauss": 83.7, "nuclei": [
    {"shell": 1, "azimuth_deg": 37.5}, {"shell": 3},
    {"a_par_mhz": 8.0, "a_perp_mhz": 6.0, "polar_deg": 55.0,
     "azimuth_deg": 20.0},
    {"a_par_mhz": 4.5, "a_perp_mhz": 3.5, "polar_deg": 120.0,
     "azimuth_deg": 200.0},
    {"a_par_mhz": 2.2, "a_perp_mhz": 1.4, "polar_deg": 80.0,
     "azimuth_deg": 310.0},
    {"a_par_mhz": 1.1, "a_perp_mhz": 0.6, "polar_deg": 140.0,
     "azimuth_deg": 95.0}]}
GOLDEN_SEQUENCE = """\
MW 16 112 1.5707963267948966 0.3
WAIT 0.2
MW 16 112 3.141592653589793 1.1
WAIT 0.4
MW 16 112 3.141592653589793 2.0
WAIT 0.2
MW 16 112 1.5707963267948966 0.7
WAIT 0.5
RF 19 24 1.5707963267948966 0.1
WAIT 0.3
RF 19 24 3.141592653589793 0.9 dur=4.5
WAIT 0.6
RF 19 24 3.141592653589793 1.7
WAIT 0.3
RF 19 24 1.5707963267948966 2.4
WAIT 0.25
MW 24 124 3.141592653589793 0.0
"""
GOLDEN_SHA256 = {
    "spectrum_lines.csv":
        "7dca510dfccc5482e42485eb972ea46f43f866fb659c775fb26254b1cf20d15f",
    "spectrum.csv":
        "616afeba2a2343a9a3101c26316f6a63198fc91fb35c78b977bbf9e5b9f64203",
    "populations.csv":
        "480a6fb149fb4980d754ad7ba7431069d330de4e4f6d9f07e120a506af18254e",
    "rabi.csv":
        "99f1f6f247698ebe8423f9cccb84e6180b2e8b0867fddb93194c4bb054ff29e8",
}


def test_register_commands_write_golden_bytes(tmp_path):
    cfg, seq = tmp_path / "register.json", tmp_path / "seq.txt"
    cfg.write_text(json.dumps(GOLDEN_CONFIG))
    seq.write_text(GOLDEN_SEQUENCE)
    out = ["--config", str(cfg), "--out-dir", str(tmp_path)]
    assert main(["spectrum"] + out) == 0
    assert main(["pulse", "--sequence", str(seq)] + out) == 0
    assert main(["pulse", "--rabi", "rf", "19", "24", "--t-max", "8",
                 "--points", "101", "--power", "1.3"] + out) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in GOLDEN_SHA256} == GOLDEN_SHA256


REGISTER_COMMANDS = {
    "spectrum": ["spectrum"],
    "sequence": ["pulse", "--sequence", "{seq}"],
    "rabi": ["pulse", "--rabi", "rf", "19", "24", "--t-max", "8",
             "--points", "101", "--power", "1.3"],
}


def register_command_outputs(tmp_path, inputs, order, clear):
    """stdout and files of the REGISTER_COMMANDS in the given order on the
    golden config, each in its own output directory; with clear, the
    eigensystem memo is emptied before each command."""
    outputs = {}
    for key in order:
        if clear:
            nvbath.spinsys._EIGEN_MEMO.clear()
        out = tmp_path / key
        argv = [a.format(seq=inputs / "seq.txt")
                for a in REGISTER_COMMANDS[key]]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv + ["--config", str(inputs / "register.json"),
                                "--out-dir", str(out)]) == 0
        outputs[f"{key}/stdout"] = stdout.getvalue().replace(str(out), "OUT")
        outputs.update((f"{key}/{p.name}", p.read_bytes())
                       for p in out.glob("*"))
    return outputs


def test_register_commands_agree_in_any_order(tmp_path, monkeypatch,
                                              fresh_eigensystem):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "register.json").write_text(json.dumps(GOLDEN_CONFIG))
    (inputs / "seq.txt").write_text(GOLDEN_SEQUENCE)
    calls = []
    diagonalize = nvbath.spinsys.diagonalize
    monkeypatch.setattr(nvbath.spinsys, "diagonalize",
                        lambda h: calls.append(h.shape) or diagonalize(h))
    runs = {}
    for name, order, clear in (
            ("forward", ("spectrum", "sequence", "rabi"), False),
            ("backward", ("rabi", "sequence", "spectrum"), False),
            ("cleared", ("spectrum", "sequence", "rabi"), True)):
        calls.clear()
        fresh_eigensystem.clear()  # each run starts cold
        runs[name] = register_command_outputs(tmp_path / name, inputs,
                                              order, clear)
        solves = calls.count((192, 192))
        assert solves == (3 if clear else 1), name
    assert len(runs["forward"]) == 7  # 3 stdouts and 4 files
    assert runs["backward"] == runs["forward"]
    assert runs["cleared"] == runs["forward"]


# Every other subcommand, run once each. The digests of each command's
# files and of its stdout (with the output directory replaced by OUT) were
# recorded from the code before the bath draw lost its dense p = 1 branch
# (numpy 2.4, OpenBLAS 0.3).
GOLDEN_COMMANDS = {
    "spectrum": ["spectrum", "--field", "83", "--first-shell", "0,120",
                 "--window", "2400,3300", "--plot"],
    "linewidth-lattice": ["linewidth", "--from-lattice", "16", "--plot",
                          "--overlay", "{overlay}"],
    "linewidth-max": ["linewidth", "--concentrations", "0.001,0.011,0.2,1",
                      "--regime", "max"],
    "fit-fid": ["fit", "--model", "fid", "--plot", "--input", "{fid}"],
    "fit-echo": ["fit", "--model", "echo", "--input", "{echo}"],
    "bath": ["bath", "--radius", "12", "--concentration", "0.05",
             "--seed", "5"],
    "bell": ["pulse", "--first-shell", "0", "--third-shell", "1",
             "--bell", "psi_minus", "--detune", "0.2,-0.1"],
    "endor": ["pulse", "--first-shell", "0", "--third-shell", "1",
              "--endor", "1"],
    "rabi": ["pulse", "--first-shell", "0", "--third-shell", "1",
             "--rabi", "rf", "4", "6", "--power", "4"],
}
GOLDEN_COMMAND_SHA256 = {
    "bath/bath_sites.csv":
        "2a8cbb0e270db2a15304fd858a784671859e825e40813a29034c4973373c9109",
    "bath/stdout":
        "bf8e8e75648ee09bc5d4970cc4764062e8234ebf0d3460c28d6d350482bd40f7",
    "bell/bell_dephasing.csv":
        "376bc62804fca064fd51bef930b7399bd13f371c981c0ebdbeba4a1942869aa7",
    "bell/stdout":
        "c2c0122789df2cde511c6b47f767dd495e329403f900a1bad22a83dec22dcea5",
    "endor/stdout":
        "47dc5f13075fac8a464adb1078e1e6ef415e0e28fcb3ea75356757abf37d44b5",
    "fit-echo/fit_echo.csv":
        "564e96d2d7657bc988367af7075dd5988b47223bf4de95f6d75afd64be01d403",
    "fit-echo/stdout":
        "ac216a20c35821775ba3ab68abc4829d94adc647703a1c8d13b26ca698ffdfe2",
    "fit-fid/fit_fid.csv":
        "f6f3c358ccb0f60eeb4f1dd4bce9f82566b1b46410548d12133db68ebb9bd3cb",
    "fit-fid/fit_fid.svg":
        "f274429e0275e927a42172f73ebbf54967b6a959e3217ee4f49b0cfd3a03cc6e",
    "fit-fid/stdout":
        "8ef51714527cf4e286816e1a48714058e84989ede9ed912b491789a186cffaa0",
    "linewidth-lattice/linewidth.csv":
        "6ca548f6df2e21793b878a67e3231cf472122086fe83e8142372949a91c5d1ed",
    "linewidth-lattice/linewidth.svg":
        "09e38b2e6a6bfc013af159ec0ffc3919916ab8f782bbd4c8d4ecce72033fd1b5",
    "linewidth-lattice/stdout":
        "174d973340b1324586d61a09411d0f8d598f37fa6c40d750a57f72d766799d76",
    "linewidth-max/linewidth.csv":
        "777869d5d4c387bd7583891146b4477858049d73a82fbfdb433fd21ee25757ff",
    "linewidth-max/stdout":
        "26f53545d374e6a4e884674fb8d6c2f9432ea3a54d504b7f9d56e267d5ceac57",
    "rabi/rabi.csv":
        "ca0ea21daeae51427757a15c9f2e4334e493e51901783960d4a3a7a8f92f6dc3",
    "rabi/stdout":
        "8deb858294053f09a50db71fbf5a718c81ab7db293ac3bf358795cf4fa0199d2",
    "spectrum/spectrum.csv":
        "c936c5673856408574bd19ec48508df3c0cdc865ce085525c3bbf1b9be5693d6",
    "spectrum/spectrum.svg":
        "b81280527bdf2f9fadd8fdb16feac9b97af31db94952e9c85ebbef70440eb67b",
    "spectrum/spectrum_lines.csv":
        "bcf97b33830cf30796b8073febf80f4932be67c14f69eca2bbe29c93f751a3ad",
    "spectrum/stdout":
        "a0a38ea53de7df1e5acfc5dd8d7e3269a159b740e5123e071d9d9f57bc44a76d",
}


def golden_command_digests(tmp_path):
    """SHA-256 of each GOLDEN_COMMANDS run's stdout and files, keyed
    'command/stdout' and 'command/file'."""
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "overlay.csv").write_text("n,w_mhz\n0.011,0.3\n0.1,2.5\n")
    noise = np.random.default_rng(11).normal(0.0, 0.01, (2, 90))
    t = np.linspace(0.0, 30.0, 90)
    for name, y in (("fid", fid_model(t, 9.0, 0.8, 0.6, 0.3) + noise[0]),
                    ("echo", 0.1 + 0.7 * np.exp(-(t / 12.0) ** 3)
                     + noise[1])):
        (inputs / f"{name}.csv").write_text("".join(
            f"{tt:.17g},{yy:.17g}\n" for tt, yy in zip(t, y)))
    digests = {}
    for key, argv in GOLDEN_COMMANDS.items():
        out = tmp_path / key
        argv = [a.format(**{n: inputs / f"{n}.csv"
                            for n in ("overlay", "fid", "echo")})
                for a in argv]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            assert main(argv + ["--out-dir", str(out)]) == 0
        files = {"stdout": stdout.getvalue().replace(str(out), "OUT")
                 .encode()}
        files.update((p.name, p.read_bytes()) for p in out.glob("*"))
        digests.update((f"{key}/{name}", hashlib.sha256(data).hexdigest())
                       for name, data in files.items())
    return digests


def test_every_subcommand_writes_golden_bytes(tmp_path):
    assert golden_command_digests(tmp_path) == GOLDEN_COMMAND_SHA256


def test_pulse_rabi_thread_count_does_not_change_output(tmp_path):
    reg = cli_register()
    i, j = reg.level(-1, (0, 0)), reg.level(-1, (1, 0))
    outs = []
    for threads in ("1", "2"):
        d = tmp_path / threads
        assert main(["pulse", "--field", "83", "--first-shell", "0",
                     "--third-shell", "1", "--rabi", "rf", str(i), str(j),
                     "--t-max", "3", "--points", "77", "--power", "1.7",
                     "--threads", threads, "--out-dir", str(d)]) == 0
        outs.append((d / "rabi.csv").read_bytes())
    assert outs[0] == outs[1]


def test_row_format_matches_format_spec():
    floats = [0.0, -0.0, math.inf, -math.inf, math.nan, 2.964393875e-323,
              5e-324, -3.458459521e-323, 2.2250738585072014e-308, 1e-300,
              1.2345678901234567e-7, 0.1, 1.0 / 3.0, -2.5, 123456789.0,
              12345678901.0, 1e22, 1.7976931348623157e308]
    cells = floats + [np.float64(x) for x in floats] \
        + [np.float32(0.1), np.float32(-0.0)]
    for x in cells:
        assert _row_format((type(x),)) % (x,) == f"{float(x):.10g}", x
    ints = [0, -7, 2 ** 70, np.int64(-3), np.int32(12), np.uint8(255),
            True]
    for k in ints:
        assert _row_format((type(k),)) % (k,) == str(int(k)), k
    row = (np.float64(2.5), np.int64(4), "11", -1)
    assert _row_format(tuple(map(type, row))) % row == "2.5,4,11,-1"


def test_negative_zero_population_prints_zero():
    reg = cli_register()
    rho = np.zeros((reg.dim, reg.dim), dtype=complex)
    rho[0, 0] = 1.0
    rho[1, 1] = complex(-0.0, 0.0)
    pops = RegisterState(reg, rho).populations()
    cells = [_row_format((type(p),)) % (p,) for p in pops.values()]
    assert cells[:2] == ["1", "0"] and "-0" not in cells


def test_pulse_bell_and_endor(tmp_path, capsys):
    base = ["pulse", "--field", "83", "--first-shell", "0",
            "--third-shell", "1", "--out-dir", str(tmp_path)]
    assert main(base + ["--bell", "phi_plus", "--detune", "0.2,0.1",
                        "--t-max", "4", "--points", "21"]) == 0
    out = capsys.readouterr().out
    assert "preparation fidelity 1.000000000" in out
    assert len(read_rows(tmp_path / "bell_dephasing.csv")) == 21
    assert main(base + ["--endor"]) == 0
    assert "transfer 1.000000000" in capsys.readouterr().out
    assert main(base + ["--bell", "nope"]) == 2


@pytest.mark.parametrize("argv, config, key", [
    (["pulse", "--rabi", "rf", "4", "6", "--points", "-1"], None, "--points"),
    (["pulse", "--bell", "phi_plus", "--detune", "0.2,0.1", "--points", "-3"],
     None, "--points"),
    (["linewidth"], {"n_min": 0}, "n_min"),
    (["spectrum"], {"field_gauss": "abc"}, "field_gauss"),
    (["spectrum"], {"window_mhz": ["a", "b"]}, "window_mhz[0]"),
    (["spectrum"], {"field_direction": ["a", 1, 1]}, "field_direction[0]"),
    (["linewidth"], {"concentrations": 0.1}, "concentrations"),
    (["linewidth"], {"concentrations": ["a"]}, "concentrations[0]"),
    (["bath", "--radius", "nan"], None, "radius"),
    (["linewidth", "--from-lattice", "nan"], None, "radius"),
    (["spectrum", "--field", "nan", "--first-shell", "0"], None, "gauss"),
    (["spectrum"], {"field_direction": [math.nan, 1, 1]}, "field direction"),
    (["bath", "--radius", "6", "--seed", "-1"], None, "seed"),
    (["bath", "--radius", "6", "--seed", str(2 ** 128)], None, "seed"),
    (["pulse", "--endor", "5"], None, "nucleus 5"),
    (["pulse", "--bell", "phi_plus", "--detune", "nan,0"], None, "finite"),
    (["pulse", "--bell", "phi_plus", "--detune", "0.2,0.1", "--t-max", "nan"],
     None, "finite"),
], ids=["rabi-points", "bell-points", "linewidth-n_min", "spectrum-field",
        "spectrum-window-list", "spectrum-direction-list",
        "linewidth-concentrations-scalar", "linewidth-concentrations-list",
        "bath-radius-nan", "linewidth-from-lattice-nan", "spectrum-field-nan",
        "spectrum-direction-nan", "bath-seed-negative", "bath-seed-2**128",
        "endor-nucleus-range", "bell-detune-nan", "bell-t-max-nan"])
def test_malformed_numbers_exit_two(tmp_path, capsys, argv, config, key):
    if argv[0] == "pulse":
        argv = argv + ["--field", "83", "--first-shell", "0",
                       "--third-shell", "1"]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv + ["--out-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("argv, config, message", [
    (["linewidth"], {"coeff_cm6": -1},
     "dipolar coefficient must be positive and finite, got -1"),
    (["linewidth"], {"coeff_cm6": 0},
     "dipolar coefficient must be positive and finite, got 0"),
    (["linewidth"], {"coeff_cm6": "nan"},
     "dipolar coefficient must be positive and finite, got nan"),
    (["linewidth"], {"coeff_cm6": "inf"},
     "dipolar coefficient must be positive and finite, got inf"),
    (["pulse", "--first-shell", "0", "--third-shell", "-2", "--endor", "0"],
     None, "--third-shell must be nonnegative, got -2"),
    (["spectrum", "--third-shell", "-1"], None,
     "--third-shell must be nonnegative, got -1"),
    (["spectrum"], {"zfs_mhz": math.nan}, "ZFS d_mhz must be finite, got nan"),
    (["pulse", "--endor", "0"], {"zfs_mhz": math.nan},
     "ZFS d_mhz must be finite, got nan"),
    (["spectrum"], {"nuclei": [{"a_par_mhz": math.inf, "a_perp_mhz": 1}]},
     "hyperfine a_par_mhz must be finite, got inf"),
    (["pulse", "--endor", "0"],
     {"nuclei": [{"a_par_mhz": math.inf, "a_perp_mhz": 1}]},
     "hyperfine a_par_mhz must be finite, got inf"),
    (["spectrum"], {"nuclei": [{"shell": 1, "azimuth_deg": math.nan}]},
     "hyperfine azimuth_deg must be finite, got nan"),
    (["pulse", "--endor", "0"],
     {"nuclei": [{"shell": 1, "azimuth_deg": math.nan}]},
     "hyperfine azimuth_deg must be finite, got nan"),
    (["spectrum", "--field", "83", "--first-shell", "0"],
     {"intensity_floor": 2}, "intensity_floor must be finite and in [0, 1], "
     "got 2"),
    (["spectrum", "--field", "83", "--first-shell", "0"],
     {"intensity_floor": math.nan},
     "intensity_floor must be finite and in [0, 1], got nan"),
    (["fit", "--model", "echo", "--input", "sigma=nan"], None,
     "sigma must be positive and finite, same length as t"),
    (["fit", "--model", "echo", "--input", "sigma=inf"], None,
     "sigma must be positive and finite, same length as t"),
], ids=["coeff-negative", "coeff-zero", "coeff-nan", "coeff-inf",
        "pulse-third-shell", "spectrum-third-shell", "spectrum-zfs-nan",
        "endor-zfs-nan", "spectrum-a-par-inf", "endor-a-par-inf",
        "spectrum-azimuth-nan", "endor-azimuth-nan", "spectrum-floor-2",
        "spectrum-floor-nan", "fit-sigma-nan", "fit-sigma-inf"])
def test_numbers_the_models_cannot_take_exit_two(tmp_path, capsys, argv,
                                                 config, message):
    # "sigma=X": a 60-row echo CSV whose row 17 has sigma X, the rest 0.01
    for k, arg in enumerate(argv):
        if arg.startswith("sigma="):
            t = np.linspace(0.0, 2.0, 60)
            sigma = ["0.01"] * 60
            sigma[17] = arg[len("sigma="):]
            path = tmp_path / "echo.csv"
            path.write_text("t_us,signal,sigma\n" + "".join(
                f"{tt:.12g},{yy:.12g},{ss}\n" for tt, yy, ss
                in zip(t, echo_model(t, 0.7, 0.5, 0.5), sigma)))
            argv = argv[:k] + [str(path)] + argv[k + 1:]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out-dir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("argv, config, written", [
    (["pulse", "--first-shell", "0", "--third-shell", "1", "--rabi", "mw",
      "2", "4"], None, "rabi.csv"),
    (["pulse", "--first-shell", "0", "--third-shell", "1", "--bell",
      "psi_minus", "--detune", "0.2,-0.1"], None, "bell_dephasing.csv"),
    (["linewidth"], {}, "linewidth.csv")], ids=["rabi", "bell", "linewidth"])
def test_sweep_points_over_the_cap_exit_two(tmp_path, capsys, monkeypatch,
                                            argv, config, written):
    built = []
    register = nvbath.cli.Register
    monkeypatch.setattr(nvbath.cli, "Register",
                        lambda spec: built.append(spec.dim) or register(spec))
    monkeypatch.setattr(nvbath.cli, "MAX_SWEEP_POINTS", 1000)
    path = tmp_path / "cfg.json"
    for points in (1001, 1000):
        if config is None:
            extra = ["--points", str(points)]
        else:
            path.write_text(json.dumps({"n_points": points}))
            extra = ["--config", str(path)]
        code = main(argv + extra + ["--out-dir", str(tmp_path)])
        if points == 1001:
            assert code == 2 and built == []
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert "1001 needs ~" in err and "GB (cap 1e+03 points)" in err
            assert not (tmp_path / written).exists()
    assert code == 0
    assert len(read_rows(tmp_path / written)) == 1000


def test_bell_needs_two_nuclei_before_any_state(tmp_path, capsys):
    assert main(["pulse", "--first-shell", "0", "--bell", "phi_plus",
                 "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err \
        == "error: Bell circuits need exactly 2 nuclear qubits\n"


@pytest.mark.filterwarnings("ignore:outermost shell lies at the radius")
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.one_of(st.integers(-2, 2),
                     st.integers(2 ** 128 - 2, 2 ** 128 + 1),
                     st.integers(-2 ** 130, 2 ** 130)),
       radius=st.floats(2.0, 6.0), n=st.floats(0.0, 1.0))
def test_bath_exits_zero_or_two_for_any_seed(tmp_path, capsys, seed, radius,
                                             n):
    rc = main(["bath", "--radius", str(radius), "--concentration", str(n),
               "--seed", str(seed), "--out-dir", str(tmp_path)])
    assert rc == (0 if 0 <= seed < 2 ** 128 else 2)
    if rc == 2:
        assert capsys.readouterr().err.startswith("error: seed must be ")


def test_spectrum_explicit_tensor_nuclei(tmp_path, capsys):
    # the explicit tensor of a first-shell nucleus at azimuth 120 deg gives
    # the lines of --first-shell 120
    tensor = first_shell_tensor(120.0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nuclei": [
        {"a_par_mhz": tensor.a_par_mhz, "a_perp_mhz": tensor.a_perp_mhz,
         "polar_deg": tensor.polar_deg, "azimuth_deg": tensor.azimuth_deg}]}))
    d_cfg, d_flag = tmp_path / "cfg", tmp_path / "flag"
    assert main(["spectrum", "--config", str(cfg),
                 "--out-dir", str(d_cfg)]) == 0
    assert main(["spectrum", "--first-shell", "120",
                 "--out-dir", str(d_flag)]) == 0
    for name in ("spectrum_lines.csv", "spectrum.csv"):
        assert read_rows(d_cfg / name) == read_rows(d_flag / name)
    assert len(read_rows(d_cfg / "spectrum_lines.csv")) > 10
    capsys.readouterr()
    cfg.write_text(json.dumps({"nuclei": [{"a_par_mhz": 14.0}]}))
    assert main(["spectrum", "--config", str(cfg),
                 "--out-dir", str(tmp_path / "bad")]) == 2
    assert capsys.readouterr().err == "error: nuclei[0]: missing a_perp_mhz\n"


_REGISTER_FLAGS = ["--field", "83", "--first-shell", "0", "--third-shell", "1"]


@pytest.mark.parametrize("argv, written, title", [
    (["spectrum", "--field", "83", "--first-shell", "0", "--plot"],
     ["spectrum_lines.csv", "spectrum.csv", "spectrum.svg"], "ESR spectrum"),
    (["linewidth", "--concentrations", "0.001,0.01", "--plot"],
     ["linewidth.csv", "linewidth.svg"], "inhomogeneous linewidth"),
    (["fit", "--input", "{fid}", "--plot"], ["fit_fid.csv", "fit_fid.svg"],
     "fid fit"),
    (["fit", "--input", "{fid}", "--model", "echo", "--plot"],
     ["fit_echo.csv", "fit_echo.svg"], "echo fit"),
    (["bath", "--radius", "8", "--concentration", "0.1", "--seed", "3"],
     ["bath_sites.csv"], None),
    (["pulse", *_REGISTER_FLAGS, "--sequence", "{seq}"], ["populations.csv"],
     None),
    (["pulse", *_REGISTER_FLAGS, "--rabi", "mw", "2", "4", "--t-max", "2",
      "--points", "41", "--plot"], ["rabi.csv", "rabi.svg"],
     "Rabi oscillation"),
    (["pulse", *_REGISTER_FLAGS, "--bell", "psi_minus", "--detune",
      "0.2,0.1"], ["bell_dephasing.csv"], None),
    (["pulse", *_REGISTER_FLAGS, "--endor", "1"], [], None),
], ids=["spectrum", "linewidth", "fit-fid", "fit-echo", "bath",
        "pulse-sequence", "pulse-rabi", "pulse-bell", "pulse-endor"])
def test_outputs_carry_provenance_and_are_announced_once(
        tmp_path, capsys, argv, written, title):
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    t = np.linspace(0.0, 40.0, 80)
    (inputs / "fid.csv").write_text("".join(
        f"{tt:.12g},{yy:.12g}\n"
        for tt, yy in zip(t, fid_model(t, 13.3, 0.9, 0.5, 0.5))))
    (inputs / "seq.seq").write_text("MW 2 4 3.141592653589793 0 dur=0.5\n"
                                    "WAIT 0.7\n")
    argv = [a.format(fid=inputs / "fid.csv", seq=inputs / "seq.seq")
            for a in argv]
    out = tmp_path / "out"
    assert main(argv + ["--seed", "3", "--out-dir", str(out)]) == 0
    paths = [str(out / name) for name in written]
    stdout = capsys.readouterr().out
    # the summary comes first, then one line per file in write order
    assert stdout.splitlines()[len(stdout.splitlines()) - len(paths):] \
        == [f"wrote {p}" for p in paths]
    assert all(stdout.count(p) == 1 for p in paths)
    assert sorted(p.name for p in out.glob("*")) == sorted(written)
    for name in written:
        text = (out / name).read_text()
        if name.endswith(".csv"):
            head = text.splitlines()[:3]
            assert head[0] == "# tool: nvbath 0.1.0"
            assert HEX12.match(head[1])
            assert head[2] == "# seed: 3"
        else:
            assert text.startswith("<svg ") and text.endswith("</svg>\n")
            assert f">{title}</text>" in text


def test_pulse_mode_exclusivity(tmp_path, capsys):
    base = ["pulse", "--field", "83", "--out-dir", str(tmp_path)]
    assert main(base) == 2
    assert "exactly one" in capsys.readouterr().err
    assert main(base + ["--endor", "--bell", "phi_plus"]) == 2


def test_pulse_mode_is_checked_before_the_register_is_built(tmp_path,
                                                            monkeypatch):
    built = []
    register = nvbath.cli.Register
    monkeypatch.setattr(nvbath.cli, "Register",
                        lambda spec: built.append(spec.dim) or register(spec))
    base = ["pulse", "--first-shell", "0,120", "--third-shell", "4",
            "--out-dir", str(tmp_path)]
    assert main(base) == 2
    assert main(base + ["--endor", "--bell", "phi_plus"]) == 2
    assert built == []
    assert main(["pulse", "--first-shell", "0", "--endor",
                 "--out-dir", str(tmp_path)]) == 0
    assert built == [6]


def test_out_dir_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("NVBATH_OUT_DIR", str(tmp_path / "env"))
    assert main(["bath", "--radius", "6"]) == 0
    assert (tmp_path / "env" / "bath_sites.csv").exists()


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["fit"])  # --input is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize("unbuffered", [True, False],
                         ids=["unbuffered", "buffered"])
def test_closed_stdout_still_writes_the_files(tmp_path, unbuffered):
    # stdout is a pipe whose read end is already closed, so the first write
    # that reaches it fails with EPIPE
    argv = ["spectrum", "--field", "83", "--first-shell", "0,120,240"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(nvbath.cli.__file__))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    r, w = os.pipe()
    os.close(r)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "nvbath.cli", *argv, "--out-dir",
             str(tmp_path / "piped")],
            stdout=w, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(w)
    assert proc.returncode == 0
    assert proc.stderr == b""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out-dir", str(tmp_path / "direct")]) == 0
    for name in ("spectrum_lines.csv", "spectrum.csv"):
        assert (tmp_path / "piped" / name).read_bytes() \
            == (tmp_path / "direct" / name).read_bytes()
