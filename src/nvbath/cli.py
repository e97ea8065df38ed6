"""Command line interface.

Subcommands: spectrum, linewidth, fit, bath, pulse. Options can come from a
JSON config file (--config); explicit flags override config values. Every
CSV written starts with three comment lines (tool version, a 12-hex digest
of the effective configuration, the seed) and contains no timestamps, so
reruns with equal inputs are byte-identical.

Exit codes: 0 success, 2 invalid usage or malformed input (messages name the
offending line where there is one), 3 numerical failure (non-convergent or
degenerate fits); a closed stdout drops the report, not the exit code.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .decoherence import DecayCurve, fit_decay, MODELS
from .errors import FitError, ResourceLimitError, ValidationError
from .lattice import (classify_shells, generate_lattice, sample_bath,
                      shell_summary)
from .linewidth import (DIPOLAR_COEFF_CM6, dipolar_second_moment_sum,
                        linewidth_curve)
from .pulses import (BELL_VARIANTS, Register, bell_dephasing_fidelity,
                     bell_prepare_and_fidelity, endor_transfer,
                     parse_sequence, rabi_simulate, run_sequence)
from .spinsys import (HyperfineTensor, SpinSystemSpec, ZeemanField,
                      ZfsParams, check_fwhm, check_grid, esr_transitions,
                      first_shell_tensor, synth_spectrum, third_shell_tensor)
from . import svgplot

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# tracemalloc peak per point: --rabi, --bell 260-341 B, linewidth 459-679 B
MAX_SWEEP_POINTS = 700_000
BYTES_PER_SWEEP_POINT = 700


# ----- shared plumbing ----------------------------------------------------


def _say(line: str = None):
    """Print line on stdout, or flush stdout when line is None. A closed
    stdout is sent to os.devnull: the rest of the report is dropped."""
    try:
        if line is None:
            sys.stdout.flush()
        else:
            print(line)
    except BrokenPipeError:
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: line {exc.lineno}: {exc.msg}") \
            from None
    if not isinstance(cfg, dict):
        raise ValidationError(f"{path}: top level must be a JSON object")
    return cfg


def _effective(args, defaults: dict, overrides: dict):
    """(config, output) of a command: the defaults updated by the --config
    file and then by the flags that were given, and the _Output that records
    that config's digest."""
    config = _load_config(args.config)
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ValidationError(
            f"unknown config keys for {args.command}: {', '.join(unknown)}")
    cfg = dict(defaults)
    cfg.update(config)
    cfg.update({k: v for k, v in overrides.items() if v is not None})
    cfg["command"] = args.command
    return cfg, _Output(args, cfg)


def _row_format(types) -> str:
    """printf format of a CSV row from its cell types: integers as %d,
    floats as %.10g (the same text as f"{x:.10g}"), anything else as %s."""
    return ",".join("%d" if issubclass(t, (int, np.integer))
                    else "%.10g" if issubclass(t, (float, np.floating))
                    else "%s" for t in types)


class _Output:
    """The files of one command run. Each goes into the output directory
    (--out-dir, else NVBATH_OUT_DIR, else '.') and is announced on stdout as
    'wrote <path>'; each CSV starts with the tool version, the 12-hex digest
    of the effective config and the seed."""

    def __init__(self, args, cfg: dict):
        blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"),
                          default=str)
        digest = hashlib.sha256(blob.encode()).hexdigest()[:12]
        self.head = [f"# tool: nvbath {__version__}", f"# config: {digest}",
                     f"# seed: {args.seed}"]
        self.dir = args.out_dir or os.environ.get("NVBATH_OUT_DIR") or "."

    def _write(self, name: str, text: str):
        os.makedirs(self.dir, exist_ok=True)
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        _say(f"wrote {path}")

    def csv(self, name, columns, rows, comments=()):
        """Write tuple rows under the header; every column holds one cell
        type, so the first row's types give the format of all."""
        lines = self.head + [f"# {c}" for c in comments] + [",".join(columns)]
        rows = list(rows)
        if rows:
            fmt = _row_format(tuple(map(type, rows[0])))
            lines += [fmt % row for row in rows]
        self._write(name, "\n".join(lines) + "\n")

    def svg(self, name, series, **kwargs):
        self._write(name, svgplot.render_plot(series, **kwargs))


def _number(value, name: str, kind=float):
    """A config value converted by kind; one that does not convert is a
    usage error naming its key."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"config value {name} is not numeric: {value!r}") from None


def _numbers(value, name: str, size=None):
    """A config list of numbers (of the given size, if any) as floats; any
    other value is a usage error naming its key."""
    if not isinstance(value, (list, tuple)) or size not in (None, len(value)):
        count = "" if size is None else f"{size} "
        raise ValidationError(f"config value {name} must be a list of "
                              f"{count}numbers, got {value!r}")
    return [_number(v, f"{name}[{k}]") for k, v in enumerate(value)]


def _check_sweep(points: int, what: str):
    if points > MAX_SWEEP_POINTS:
        raise ResourceLimitError(
            f"{what} {points} needs ~{points * BYTES_PER_SWEEP_POINT / 1e9:.2g}"
            f" GB (cap {MAX_SWEEP_POINTS:.0e} points)")


def _parse_floats(text: str, what: str):
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValidationError(f"{what} must be comma-separated numbers, "
                              f"got {text!r}") from None
    if not vals:
        raise ValidationError(f"{what} is empty")
    return vals


def _read_csv_rows(path, widths):
    """Numeric rows of a comma-separated file, each with one of the column
    counts in widths (all rows alike). Blank lines, '#' comments and header
    rows before the first data row are skipped; bad rows are reported with
    their line number."""
    rows = []
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    with fh:
        for ln, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if len(parts) not in widths:
                raise ValidationError(
                    f"{path}: line {ln}: expected "
                    f"{' or '.join(map(str, widths))} columns, "
                    f"got {len(parts)}")
            try:
                vals = [float(p) for p in parts]
            except ValueError:
                if not rows:
                    continue  # header row
                raise ValidationError(
                    f"{path}: line {ln}: non-numeric value in {line!r}") \
                    from None
            if rows and len(vals) != len(rows[0]):
                raise ValidationError(
                    f"{path}: line {ln}: expected {len(rows[0])} columns, "
                    f"got {len(vals)}")
            rows.append(vals)
    if not rows:
        raise ValidationError(f"{path}: no data rows")
    return rows


def read_decay_csv(path) -> DecayCurve:
    """Parse t_us,signal[,sigma] rows; header rows before the data and '#'
    comments are skipped. Bad rows are reported with their line number.
    """
    cols = np.array(_read_csv_rows(path, (2, 3))).T
    return DecayCurve(t_us=cols[0], signal=cols[1],
                      sigma=cols[2] if len(cols) == 3 else None)


# ----- system construction ------------------------------------------------

_SYSTEM_DEFAULTS = {
    "field_gauss": 83.0,
    "field_direction": [1.0, 1.0, 1.0],
    "zfs_mhz": 2870.0,
    "zfs_axis": [1.0, 1.0, 1.0],
    "nuclei": [],
}


def _system_from_config(cfg) -> SpinSystemSpec:
    zfs = ZfsParams.along(_numbers(cfg["zfs_axis"], "zfs_axis", 3),
                          _number(cfg["zfs_mhz"], "zfs_mhz"))
    fld = ZeemanField.along(_numbers(cfg["field_direction"],
                                     "field_direction", 3),
                            _number(cfg["field_gauss"], "field_gauss"))
    nuclei = []
    for k, item in enumerate(cfg.get("nuclei") or []):
        if not isinstance(item, dict):
            raise ValidationError(f"nuclei[{k}] must be a JSON object")
        if "shell" in item:
            shell = item["shell"]
            if shell == 1:
                nuclei.append(first_shell_tensor(_number(
                    item.get("azimuth_deg", 0.0), f"nuclei[{k}].azimuth_deg")))
            elif shell == 3:
                nuclei.append(third_shell_tensor())
            else:
                raise ValidationError(
                    f"nuclei[{k}]: no built-in tensor for shell {shell}; "
                    "give a_par_mhz and a_perp_mhz instead")
        else:
            missing = [key for key in ("a_par_mhz", "a_perp_mhz")
                       if key not in item]
            if missing:
                raise ValidationError(
                    f"nuclei[{k}]: missing {', '.join(missing)}")
            nuclei.append(HyperfineTensor(**{
                key: _number(item.get(key, 0.0), f"nuclei[{k}].{key}")
                for key in ("a_par_mhz", "a_perp_mhz", "polar_deg",
                            "azimuth_deg")}))
    return SpinSystemSpec(zfs=zfs, field=fld, hyperfine=tuple(nuclei))


def _nuclei_from_flags(args):
    third = args.third_shell or 0
    if third < 0:
        raise ValidationError(f"--third-shell must be nonnegative, got {third}")
    if args.first_shell is None and not third:
        return None
    first = (_parse_floats(args.first_shell, "--first-shell")
             if args.first_shell is not None else [])
    return ([{"shell": 1, "azimuth_deg": az} for az in first]
            + [{"shell": 3} for _ in range(third)])


def _add_system_flags(sp):
    sp.add_argument("--field", type=float, default=None, metavar="GAUSS",
                    help="field magnitude in Gauss")
    sp.add_argument("--first-shell", default=None, metavar="AZ[,AZ...]",
                    help="add nearest-neighbor nuclei at these azimuths (deg)")
    sp.add_argument("--third-shell", type=int, default=None, metavar="K",
                    help="add K nuclei of the 14 MHz isotropic class")


# ----- spectrum -----------------------------------------------------------

_SPECTRUM_DEFAULTS = dict(_SYSTEM_DEFAULTS, window_mhz=None, grid_mhz=None,
                          fwhm_mhz=1.0, intensity_floor=1e-4)


def cmd_spectrum(args) -> int:
    overrides = {
        "field_gauss": args.field,
        "nuclei": _nuclei_from_flags(args),
        "window_mhz": (_parse_floats(args.window, "--window")
                       if args.window else None),
        "grid_mhz": (_parse_floats(args.grid, "--grid")
                     if args.grid else None),
        "fwhm_mhz": args.fwhm,
    }
    cfg, out = _effective(args, _SPECTRUM_DEFAULTS, overrides)
    window = cfg["window_mhz"]
    if window is not None:
        window = _numbers(window, "window_mhz")
        if len(window) != 2:
            raise ValidationError("window needs exactly two values: lo,hi")
    spec = _system_from_config(cfg)
    floor = _number(cfg["intensity_floor"], "intensity_floor")
    if not 0.0 <= floor <= 1.0:
        raise ValidationError(
            f"intensity_floor must be finite and in [0, 1], got {floor:g}")
    fwhm = check_fwhm(_number(cfg["fwhm_mhz"], "fwhm_mhz"))
    grid = cfg["grid_mhz"]
    if grid is not None:
        check_grid(_numbers(grid, "grid_mhz"))
    lines = esr_transitions(spec, window=window, floor=floor)
    if not lines:
        raise ValidationError("no transitions in the requested window")
    if grid is None:
        lo = min(l.freq_mhz for l in lines) - 5.0 * fwhm
        hi = max(l.freq_mhz for l in lines) + 5.0 * fwhm
        grid = (lo, hi, fwhm / 10.0)
    spectrum = synth_spectrum(lines, grid, fwhm)
    _say(f"{len(lines)} lines; strongest "
         f"{max(lines, key=lambda l: l.intensity).freq_mhz:.4f} MHz")
    out.csv("spectrum_lines.csv", ("freq_mhz", "intensity", "i", "j"), lines)
    out.csv("spectrum.csv", ("frequency_mhz", "intensity"),
            zip(spectrum.freq_mhz.tolist(), spectrum.intensity.tolist()))
    if args.plot:
        out.svg("spectrum.svg",
                [{"x": spectrum.freq_mhz, "y": spectrum.intensity}],
                xlabel="frequency (MHz)", ylabel="intensity",
                title="ESR spectrum")
    return EXIT_OK


# ----- linewidth ----------------------------------------------------------

_LINEWIDTH_DEFAULTS = {
    "concentrations": None,
    "n_min": 1e-4,
    "n_max": 1.0,
    "n_points": 25,
    "regime": "auto",
    "coeff_cm6": DIPOLAR_COEFF_CM6,
    "lattice_radius_angstrom": None,
}


def cmd_linewidth(args) -> int:
    overrides = {
        "concentrations": (_parse_floats(args.concentrations,
                                         "--concentrations")
                           if args.concentrations else None),
        "regime": args.regime,
        "lattice_radius_angstrom": args.from_lattice,
    }
    cfg, out = _effective(args, _LINEWIDTH_DEFAULTS, overrides)
    if cfg["concentrations"] is not None:
        n_values = np.asarray(_numbers(cfg["concentrations"],
                                       "concentrations"))
    else:
        n_min = _number(cfg["n_min"], "n_min")
        n_max = _number(cfg["n_max"], "n_max")
        n_points = _number(cfg["n_points"], "n_points", int)
        if not (0.0 < n_min <= 1.0 and 0.0 < n_max <= 1.0 and n_points >= 1):
            raise ValidationError(
                "need n_min and n_max in (0, 1] and n_points >= 1")
        _check_sweep(n_points, "n_points")
        n_values = np.geomspace(n_min, n_max, n_points)
    if np.any(n_values <= 0.0) or np.any(n_values > 1.0):
        raise ValidationError("concentrations must lie in (0, 1]")
    coeff = _number(cfg["coeff_cm6"], "coeff_cm6")
    if cfg["lattice_radius_angstrom"] is not None:
        sites = classify_shells(generate_lattice(_number(
            cfg["lattice_radius_angstrom"], "lattice_radius_angstrom")))
        coeff = dipolar_second_moment_sum(sites)
        _say(f"lattice coefficient {coeff:.4e} cm^-6 "
             f"(reference {DIPOLAR_COEFF_CM6:.4e})")
    points = linewidth_curve(n_values, regime=cfg["regime"], coeff_cm6=coeff)
    out.csv("linewidth.csv",
            ("n", "w_contact_mhz", "w_dipolar_mhz", "w_total_mhz",
             "t2star_us"), points)
    if args.plot:
        series = [{"x": n_values, "y": [p.w_contact_mhz for p in points],
                   "label": "contact"},
                  {"x": n_values, "y": [p.w_dipolar_mhz for p in points],
                   "label": "dipolar"}]
        if args.overlay:
            pts = _read_csv_rows(args.overlay, (2,))  # n, w_mhz
            series.append({"x": [p[0] for p in pts],
                           "y": [p[1] for p in pts],
                           "label": "measured", "points": True})
        out.svg("linewidth.svg", series, xlabel="13C fraction",
                ylabel="FWHM (MHz)", title="inhomogeneous linewidth",
                logx=True, logy=True)
    return EXIT_OK


# ----- fit ----------------------------------------------------------------


def cmd_fit(args) -> int:
    cfg, out = _effective(args, {"model": "fid"}, {"model": args.model})
    model = cfg["model"]
    if model not in MODELS:
        raise ValidationError(f"model must be one of {sorted(MODELS)}")
    curve = read_decay_csv(args.input)
    fit = fit_decay(curve, model=model)
    rows = [(name, fit.params[name], fit.sigmas[name])
            for name in MODELS[model]["names"]]
    _say(f"model: {model}")
    for name, value, sigma in rows:
        _say(f"{name} = {value:.6g} +- {sigma:.3g}")
    _say(f"residual norm = {math.sqrt(fit.ssr):.6g} "
         f"after {fit.n_iter} iterations")
    out.csv(f"fit_{model}.csv", ("param", "value", "sigma"), rows,
            comments=(f"model: {model}",
                      f"residual_norm: {math.sqrt(fit.ssr):.10g}"))
    if args.plot:
        tt = np.linspace(float(curve.t_us[0]), float(curve.t_us[-1]), 400)
        yy = MODELS[model]["fn"](tt, [fit.params[n]
                                      for n in MODELS[model]["names"]])
        out.svg(f"fit_{model}.svg",
                [{"x": curve.t_us, "y": curve.signal, "label": "data",
                  "points": True},
                 {"x": tt, "y": yy, "label": model}],
                xlabel="t (us)", ylabel="signal", title=f"{model} fit")
    return EXIT_OK


# ----- bath ---------------------------------------------------------------

_BATH_DEFAULTS = {
    "radius_angstrom": 16.0,
    "concentration": 0.011,
}


def cmd_bath(args) -> int:
    overrides = {
        "radius_angstrom": args.radius,
        "concentration": args.concentration,
    }
    cfg, out = _effective(args, _BATH_DEFAULTS, overrides)
    radius = _number(cfg["radius_angstrom"], "radius_angstrom")
    n = _number(cfg["concentration"], "concentration")
    sites = classify_shells(generate_lattice(radius), radius_angstrom=radius)
    sample = sample_bath(sites, n, args.seed)
    summary = shell_summary(sites)
    inner = ", ".join(f"shell {s}: {mult} @ {dist:.3f} A" for s, (mult, dist)
                      in sorted(summary.items())[:4])
    _say(f"{len(sites)} sites within {cfg['radius_angstrom']} Angstrom "
         f"({inner}, ...)")
    _say(f"occupied {sample.count} sites at n = {n:g} (seed {args.seed})")
    try:
        coeff = dipolar_second_moment_sum(sites)
        _say(f"second-moment coefficient {coeff:.4e} cm^-6 = "
             f"{coeff / DIPOLAR_COEFF_CM6:.3f} x reference "
             f"{DIPOLAR_COEFF_CM6:.3e}")
    except ValidationError as exc:
        _say(f"second-moment coefficient skipped: {exc}")
    out.csv("bath_sites.csv",
            ("x_angstrom", "y_angstrom", "z_angstrom", "shell"),
            [(x, y, z, shell) for (x, y, z), shell in
             zip(sample.positions.tolist(),
                 sites.shell[sample.site_indices].tolist())])
    return EXIT_OK


# ----- pulse --------------------------------------------------------------


def _parse_init(register, text):
    if text is None:
        return register.mixed_nuclei_state(ms=0)
    try:
        ms_part, bits_part = text.split(":")
        ms = int(ms_part)
        bits = tuple(int(b) for b in bits_part) if bits_part else ()
    except ValueError:
        raise ValidationError(
            f"--init must look like 'ms:bits', e.g. '0:00', got {text!r}") \
            from None
    if len(bits) != register.n_nuclei:
        raise ValidationError(
            f"--init names {len(bits)} nuclei; register has "
            f"{register.n_nuclei}")
    register.check_label_gates(register.level(ms, bits))
    return register.pure_state(ms, bits)


def cmd_pulse(args) -> int:
    if args.points < 1:
        raise ValidationError("--points must be at least 1")
    _check_sweep(args.points, "--points")
    for flag, value in (("--t-max", args.t_max), ("--power", args.power)):
        if not math.isfinite(value):
            raise ValidationError(f"{flag} must be finite, got {value:g}")
    modes = [m for m in ("sequence", "rabi", "bell", "endor")
             if getattr(args, m) is not None]
    if len(modes) != 1:
        raise ValidationError(
            "pick exactly one of --sequence, --rabi, --bell, --endor")
    mode = modes[0]
    overrides = {
        "field_gauss": args.field,
        "nuclei": _nuclei_from_flags(args),
    }
    cfg, out = _effective(args, _SYSTEM_DEFAULTS, overrides)
    register = Register(_system_from_config(cfg))

    if mode == "sequence":
        try:
            with open(args.sequence, encoding="utf-8") as fh:
                items = parse_sequence(fh.read())
        except OSError as exc:
            raise ValidationError(f"cannot read {args.sequence}: {exc}") \
                from None
        state = run_sequence(_parse_init(register, args.init), items)
        rows = [(ms, "".join(str(b) for b in bits) or "-", pop)
                for (ms, bits), pop in state.populations().items()]
        for ms, bits, pop in rows:
            if pop > 1e-9:
                _say(f"ms={ms:+d} bits={bits} population={pop:.6f}")
        out.csv("populations.csv", ("ms", "bits", "population"), rows)
        return EXIT_OK

    if mode == "rabi":
        channel, si, sj = args.rabi
        try:
            i, j = int(si), int(sj)
        except ValueError:
            raise ValidationError("--rabi takes CHANNEL I J with integer "
                                  "level indices") from None
        t = np.linspace(0.0, args.t_max, args.points)
        curve, omega = rabi_simulate(register, channel.lower(), i, j, t,
                                     power=args.power)
        _say(f"Rabi frequency {omega:.6g} MHz at power {args.power:g}")
        out.csv("rabi.csv", ("t_us", "population"),
                zip(t.tolist(), curve.signal.tolist()))
        if args.plot:
            out.svg("rabi.svg", [{"x": t, "y": curve.signal}],
                    xlabel="t (us)", ylabel="transfer probability",
                    title="Rabi oscillation")
        return EXIT_OK

    if mode == "bell":
        variant = args.bell
        rows = None
        if args.detune:  # checked and computed before any state is built
            d = _parse_floats(args.detune, "--detune")
            if len(d) != 2:
                raise ValidationError("--detune takes two values: d1,d2 MHz")
            t = np.linspace(0.0, args.t_max, args.points)
            rows = zip(t.tolist(), bell_dephasing_fidelity(
                register, variant, t, d[0], d[1]).tolist())
        _, fid, p00 = bell_prepare_and_fidelity(register, variant)
        _say(f"{variant}: preparation fidelity {fid:.9f}, "
             f"round-trip detection {p00:.9f}")
        if rows is not None:
            out.csv("bell_dephasing.csv", ("t_us", "fidelity"), rows)
        return EXIT_OK

    transfer = endor_transfer(register, nucleus=args.endor)
    _say(f"nuclear polarization transfer {transfer:.9f}")
    return EXIT_OK


# ----- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nvbath",
        description="Electron-nuclear spin bath simulator: ESR spectra, "
                    "concentration-dependent linewidths, coherence decay "
                    "fits, pulse sequences.")
    p.add_argument("--version", action="version",
                   version=f"nvbath {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=None, metavar="FILE",
                        help="JSON config; flags override its values")
    common.add_argument("--out-dir", default=None, metavar="DIR",
                        help="output directory (default: NVBATH_OUT_DIR "
                             "or '.')")
    common.add_argument("--seed", type=int, default=0,
                        help="seed recorded in outputs and used for "
                             "sampling (default 0)")
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; nvbath "
                             "starts no threads of its own")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", parents=[common],
                        help="exact-diagonalization ESR line list and "
                             "broadened spectrum")
    _add_system_flags(sp)
    sp.add_argument("--window", default=None, metavar="LO,HI",
                    help="report lines inside this frequency window (MHz)")
    sp.add_argument("--grid", default=None, metavar="START,STOP,STEP",
                    help="spectrum grid (MHz)")
    sp.add_argument("--fwhm", type=float, default=None,
                    help="Gaussian broadening FWHM in MHz (default 1.0)")
    sp.add_argument("--plot", action="store_true", help="also write SVG")
    sp.set_defaults(func=cmd_spectrum)

    lw = sub.add_parser("linewidth", parents=[common],
                        help="contact/dipolar linewidth versus 13C fraction")
    lw.add_argument("--concentrations", default=None, metavar="N1,N2,...",
                    help="explicit 13C fractions (default: log grid)")
    lw.add_argument("--regime", default=None,
                    choices=("auto", "max", "contact", "dipolar"),
                    help="rule for the reported total (default auto)")
    lw.add_argument("--from-lattice", type=float, default=None,
                    metavar="RADIUS",
                    help="compute the dipolar coefficient from a lattice "
                         "sum within RADIUS Angstrom")
    lw.add_argument("--overlay", default=None, metavar="FILE",
                    help="n,w_mhz points drawn onto the plot")
    lw.add_argument("--plot", action="store_true", help="also write SVG")
    lw.set_defaults(func=cmd_linewidth)

    ft = sub.add_parser("fit", parents=[common],
                        help="fit a decay model to a t_us,signal[,sigma] "
                             "CSV")
    ft.add_argument("--input", required=True, metavar="FILE")
    ft.add_argument("--model", default=None, choices=tuple(MODELS),
                    help="decay model (default fid)")
    ft.add_argument("--plot", action="store_true", help="also write SVG")
    ft.set_defaults(func=cmd_fit)

    ba = sub.add_parser("bath", parents=[common],
                        help="generate lattice sites and a random 13C "
                             "occupation")
    ba.add_argument("--radius", type=float, default=None, metavar="ANGSTROM")
    ba.add_argument("--concentration", type=float, default=None, metavar="N")
    ba.set_defaults(func=cmd_bath)

    pu = sub.add_parser("pulse", parents=[common],
                        help="pulse-sequence simulation on the labeled "
                             "eigenbasis")
    _add_system_flags(pu)
    pu.add_argument("--sequence", default=None, metavar="FILE",
                    help="run a sequence file (MW/RF/WAIT grammar)")
    pu.add_argument("--init", default=None, metavar="MS:BITS",
                    help="initial pure state for --sequence, e.g. '0:00' "
                         "(default: ms=0, mixed nuclei)")
    pu.add_argument("--rabi", default=None, nargs=3,
                    metavar=("CHANNEL", "I", "J"),
                    help="sweep a resonant drive on levels I,J")
    pu.add_argument("--bell", default=None, metavar="VARIANT",
                    help="prepare a Bell state "
                         f"({', '.join(BELL_VARIANTS)})")
    pu.add_argument("--detune", default=None, metavar="D1,D2",
                    help="with --bell: free-evolution detunings in MHz")
    pu.add_argument("--endor", default=None, type=int, nargs="?", const=0,
                    metavar="NUCLEUS",
                    help="polarization-transfer sequence on one nucleus")
    pu.add_argument("--power", type=float, default=1.0,
                    help="relative drive power for --rabi (default 1)")
    pu.add_argument("--t-max", type=float, default=10.0,
                    help="sweep end time in us (default 10)")
    pu.add_argument("--points", type=int, default=201,
                    help="sweep points (default 201)")
    pu.add_argument("--plot", action="store_true", help="also write SVG")
    pu.set_defaults(func=cmd_pulse)
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, ResourceLimitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FitError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    finally:
        _say()


if __name__ == "__main__":
    sys.exit(main())
