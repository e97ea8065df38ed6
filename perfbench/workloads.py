"""The benchmark's three workloads: seeded inputs, the timed steps, checks.

Each workload has
  make(rng)            -> one iteration's inputs (JSON-able), drawn from rng;
  setup_pins           -> input sizes fixed at mid-range in setup iterations,
                          so that setup_s does not follow the drawn size;
  prepare(inp, d)      -> writes the input files the program reads into d;
  run(inp, d)          -> the timed steps; returns {step: output or Failure};
  check(inp, d, out)   -> {step: None if correct, else a message}.

CLI steps call nvbath.cli.main(argv) in-process with a fresh --out-dir and
--threads equal to the CPU count. Library steps call nvbath through module
attributes, so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

import nvbath.cli
from nvbath import decoherence, lattice, pulses, spinsys
from nvbath.errors import ValidationError

import reference as ref

THREADS = len(os.sched_getaffinity(0))

# A Monte Carlo mean may sit at most this many standard errors from the
# exact ensemble envelope at any time point.
Z_MAX = 6.0
# Register populations: the reference propagates the same sequence with
# independently built eigenvalues; the measured disagreement is below 1e-11.
POP_TOL = 1e-9


class Failure:
    """A step that raised or exited non-zero."""

    def __init__(self, message):
        self.message = message

    def __repr__(self):
        return f"Failure({self.message!r})"


def cli_step(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = nvbath.cli.main(argv + ["--threads", str(THREADS)])
    if rc != 0:
        return Failure(f"exit {rc}: {err.getvalue().strip()}")
    return out.getvalue()


def _step(outputs, name, fn):
    try:
        outputs[name] = fn()
    except Exception as exc:  # a raising step is a failed step, not a crash
        outputs[name] = Failure(f"{type(exc).__name__}: {exc}")


def read_rows(path):
    """Data rows of a CSV written by the program (comments and header
    skipped)."""
    with open(path, encoding="utf-8") as fh:
        rows = [r for r in csv.reader(fh) if r and not r[0].startswith("#")]
    return rows[1:]


def _close(a, b, rel, abs_=0.0):
    return abs(a - b) <= rel * abs(b) + abs_


def _run_checks(steps, outputs, checks):
    """Apply checks[step]() to every step whose output is not a Failure."""
    verdict = {}
    for name in steps:
        got = outputs.get(name)
        if got is None or isinstance(got, Failure):
            verdict[name] = repr(got)
            continue
        try:
            verdict[name] = checks[name]()
        except Exception as exc:  # malformed output: the step failed
            verdict[name] = f"unreadable output: {type(exc).__name__}: {exc}"
    return verdict


# ----- lattice ---------------------------------------------------------------

class Lattice:
    """linewidth --from-lattice R, then bath --radius R on a ~20k-site
    lattice: the Python-object lattice path at its large size."""

    name = "lattice"
    steps = ("linewidth", "bath")
    setup_pins = {"radius": 30.0}

    def __init__(self):
        self._coeff = None

    def make(self, rng):
        return {"radius": round(float(rng.uniform(28.0, 32.0)), 3),
                "concentration": round(float(rng.uniform(0.005, 0.03)), 5),
                "seed": int(rng.integers(2 ** 31))}

    def prepare(self, inp, d):
        pass

    def run(self, inp, d):
        r = str(inp["radius"])
        out = {}
        _step(out, "linewidth", lambda: cli_step(
            ["linewidth", "--from-lattice", r, "--out-dir", d]))
        _step(out, "bath", lambda: cli_step(
            ["bath", "--radius", r, "--concentration",
             str(inp["concentration"]), "--seed", str(inp["seed"]),
             "--out-dir", d]))
        return out

    def reference_coefficient(self):
        if self._coeff is None:
            self._coeff = ref.lattice_coefficient()
        return self._coeff

    def check(self, inp, d, out):
        return _run_checks(self.steps, out, {
            "linewidth": lambda: self._check_linewidth(d),
            "bath": lambda: self._check_bath(inp, d, out["bath"]),
        })

    def _check_linewidth(self, d):
        rows = [[float(c) for c in r]
                for r in read_rows(os.path.join(d, "linewidth.csv"))]
        grid = np.geomspace(1e-4, 1.0, 25)
        if len(rows) != len(grid):
            return f"{len(rows)} linewidth rows, expected {len(grid)}"
        coeffs = []
        for (n, wc, wd, wt, t2), n_ref in zip(rows, grid):
            if not _close(n, n_ref, 1e-9):
                return f"concentration {n} != {n_ref}"
            if not _close(wc, ref.contact_fwhm_mhz(n), 1e-8):
                return f"contact width {wc} at n={n}"
            coeffs.append((wd * 1e6 / ref.DIPOLAR_PREFACTOR_CM3_HZ) ** 2 / n)
            want = wd if n <= 0.011 else wc
            if not _close(wt, want, 1e-9):
                return f"total width {wt} at n={n} is not the regime's"
            if not _close(t2, ref.t2star_us(wt), 1e-8):
                return f"T2* {t2} at n={n}"
        c = float(np.median(coeffs))
        if max(abs(x / c - 1.0) for x in coeffs) > 1e-7:
            return "rows imply different dipolar coefficients"
        c_ref = self.reference_coefficient()
        if not _close(c, c_ref, 0.01):
            return (f"coefficient {c:.5e} is {c / c_ref - 1:+.2%} from the "
                    f"converged {c_ref:.5e}")
        return None

    def _check_bath(self, inp, d, stdout):
        q, d2 = ref.lattice_quarters(inp["radius"])
        head = stdout.split()
        if int(head[0]) != len(q):
            return f"{head[0]} sites reported, enumeration gives {len(q)}"
        u = np.random.Generator(np.random.Philox(key=inp["seed"])).random(
            len(q))
        occ = np.flatnonzero(u < inp["concentration"])
        rows = read_rows(os.path.join(d, "bath_sites.csv"))
        if len(rows) != len(occ):
            return f"{len(rows)} occupied sites, expected {len(occ)}"
        got = np.array([[float(c) for c in r[:3]] for r in rows])
        want = q[occ] * (ref.LATTICE_A / 4.0)
        if len(occ) and np.max(np.abs(got - want)) > 1e-8:
            return "occupied site positions differ from the Philox draw"
        shells = ref.shell_numbers(q, d2)[occ]
        if [int(r[3]) for r in rows] != shells.tolist():
            return "shell indices differ from the distance classes"
        coeff = float(stdout.split("second-moment coefficient ")[1].split()[0])
        c_ref = self.reference_coefficient()
        if not _close(coeff, c_ref, 0.01):
            return f"bath coefficient {coeff:.4e} vs converged {c_ref:.4e}"
        return None


# ----- register --------------------------------------------------------------

# four distinct anisotropic tensors (A_par, A_perp in MHz)
_WEAK_TENSORS = ((8.0, 6.0), (4.5, 3.5), (2.2, 1.4), (1.1, 0.6))
# two MW and two RF transitions, each driven by one CPMG-2 block of seven
# items; blocks are separated by a wait (31 items). The first refocusing
# pulse of the two RF blocks has a finite duration.
BLOCK_CHANNELS = ("mw", "mw", "rf", "rf")


def _addressable_pairs(reg):
    """{channel: [(i, j)]} of transitions whose two levels pass the label
    gates and whose frequency no other same-channel transition shares."""
    ok = (reg.label_overlap >= pulses.MIN_LABEL_OVERLAP) \
        & (reg.label_contrast >= pulses.MIN_LABEL_CONTRAST)
    ms = np.array([lab[0] for lab in reg.labels])
    bits = np.array([lab[1] for lab in reg.labels])
    i, j = np.triu_indices(reg.dim, 1)
    flips = (bits[i] != bits[j]).sum(axis=1)
    freq = np.abs(reg.eig.values[j] - reg.eig.values[i])
    out = {}
    for ch, allowed in (("mw", (np.abs(ms[i] - ms[j]) == 1) & (flips == 0)),
                        ("rf", (ms[i] == ms[j]) & (flips == 1))):
        f = freq[allowed]
        order = np.argsort(f)
        near = np.diff(f[order]) < pulses.DEGENERACY_TOL_MHZ
        clash = np.zeros(len(f), bool)
        clash[order[1:]] |= near
        clash[order[:-1]] |= near
        good = ok[i[allowed]] & ok[j[allowed]] & ~clash \
            & (f >= pulses.DEGENERACY_TOL_MHZ)
        out[ch] = list(zip(i[allowed][good].tolist(),
                           j[allowed][good].tolist()))
    return out


def parse_items(text):
    """Sequence file -> reference tuples (independent of parse_sequence)."""
    items = []
    for line in text.splitlines():
        tok = line.split()
        if tok[0] == "WAIT":
            items.append(("wait", float(tok[1])))
            continue
        dur = None
        if tok[-1].startswith("dur="):
            dur = float(tok.pop()[4:])
        items.append((tok[0].lower(), int(tok[1]), int(tok[2]),
                      float(tok[3]), float(tok[4]), dur))
    return items


class Register:
    """A 6-nucleus register (dim 192): spectrum, a 31-item pulse sequence
    and a Rabi sweep through the dense register path."""

    name = "register"
    steps = ("spectrum", "pulse", "rabi")
    setup_pins = {}

    def make(self, rng):
        nuclei = [{"shell": 1,
                   "azimuth_deg": round(float(rng.uniform(0, 360)), 4)},
                  {"shell": 3}]
        for a_par, a_perp in _WEAK_TENSORS:
            nuclei.append({"a_par_mhz": a_par, "a_perp_mhz": a_perp,
                           "polar_deg": round(float(rng.uniform(20, 160)), 4),
                           "azimuth_deg": round(float(rng.uniform(0, 360)),
                                                4)})
        config = {"field_gauss": round(float(rng.uniform(80.0, 86.0)), 4),
                  "nuclei": nuclei}
        reg = pulses.Register(self.spec(config))
        pairs = _addressable_pairs(reg)
        chosen = []
        while len(chosen) < len(BLOCK_CHANNELS):
            ch = BLOCK_CHANNELS[len(chosen)]
            i, j = pairs[ch].pop(int(rng.integers(len(pairs[ch]))))
            try:  # untimed confirmation through the public API
                pulses.pulse_unitary(reg, pulses.Pulse(ch, i, j, math.pi))
            except ValidationError:
                continue
            chosen.append((ch, i, j))
        lines = []
        for ch, i, j in chosen:
            ph = rng.uniform(0, 2 * math.pi, 4)
            tau = rng.uniform(0.1, 0.5)
            head = f"{ch.upper()} {i} {j}"
            first = f"{head} {math.pi:.17g} {ph[1]:.17g}"
            if ch == "rf":
                first += f" dur={rng.uniform(2.0, 10.0):.17g}"
            if lines:
                lines.append(f"WAIT {rng.uniform(0.1, 1.0):.17g}")
            lines += [f"{head} {math.pi / 2:.17g} {ph[0]:.17g}",
                      f"WAIT {tau:.17g}", first, f"WAIT {2 * tau:.17g}",
                      f"{head} {math.pi:.17g} {ph[2]:.17g}",
                      f"WAIT {tau:.17g}",
                      f"{head} {math.pi / 2:.17g} {ph[3]:.17g}"]
        ch, i, j = chosen[int(rng.integers(len(chosen)))]
        flipped = [q for q, (a, b) in enumerate(zip(reg.labels[i][1],
                                                    reg.labels[j][1]))
                   if a != b]
        rabi = {"channel": ch, "i": i, "j": j,
                "nucleus": flipped[0] if flipped else None,
                "t_max": round(float(rng.uniform(5.0, 15.0)), 4),
                "power": round(float(rng.uniform(0.5, 2.0)), 4),
                "points": 201}
        return {"config": config, "sequence": "\n".join(lines) + "\n",
                "rabi": rabi}

    @staticmethod
    def spec(config):
        tensors = [spinsys.first_shell_tensor(config["nuclei"][0]
                                              ["azimuth_deg"]),
                   spinsys.third_shell_tensor()]
        tensors += [spinsys.HyperfineTensor(n["a_par_mhz"], n["a_perp_mhz"],
                                            n["polar_deg"], n["azimuth_deg"])
                    for n in config["nuclei"][2:]]
        return spinsys.SpinSystemSpec(
            zfs=spinsys.ZfsParams.along((1, 1, 1), ref.ZFS_D_MHZ),
            field=spinsys.ZeemanField.along((1, 1, 1),
                                            config["field_gauss"]),
            hyperfine=tuple(tensors))

    def prepare(self, inp, d):
        with open(os.path.join(d, "register.json"), "w") as fh:
            json.dump(inp["config"], fh)
        with open(os.path.join(d, "seq.txt"), "w") as fh:
            fh.write(inp["sequence"])

    def run(self, inp, d):
        cfg = os.path.join(d, "register.json")
        r = inp["rabi"]
        out = {}
        _step(out, "spectrum", lambda: cli_step(
            ["spectrum", "--config", cfg, "--out-dir", d]))
        _step(out, "pulse", lambda: cli_step(
            ["pulse", "--config", cfg, "--sequence",
             os.path.join(d, "seq.txt"), "--out-dir", d]))
        _step(out, "rabi", lambda: cli_step(
            ["pulse", "--config", cfg, "--rabi", r["channel"], str(r["i"]),
             str(r["j"]), "--t-max", str(r["t_max"]), "--points",
             str(r["points"]), "--power", str(r["power"]), "--out-dir", d]))
        return out

    def check(self, inp, d, out):
        cfg = inp["config"]
        vals, i, j, freq, inten = ref.esr_lines(cfg["field_gauss"], (1, 1, 1),
                                                cfg["nuclei"])
        return _run_checks(self.steps, out, {
            "spectrum": lambda: self._check_spectrum(d, i, j, freq, inten),
            "pulse": lambda: self._check_pulse(inp, d, vals),
            "rabi": lambda: self._check_rabi(inp, d),
        })

    @staticmethod
    def _check_spectrum(d, i, j, freq, inten, floor=1e-4, fwhm=1.0):
        rows = read_rows(os.path.join(d, "spectrum_lines.csv"))
        got = {(int(r[2]), int(r[3])): (float(r[0]), float(r[1]))
               for r in rows}
        for a, b, f, w in zip(i, j, freq, inten):
            line = got.pop((int(a), int(b)), None)
            if line is None:
                if w >= floor * (1 + 1e-9):
                    return f"line {a}->{b} ({w:.3e}) is missing"
                continue
            if w < floor * (1 - 1e-9):
                return f"line {a}->{b} below the floor is listed"
            if not (_close(line[0], f, 0.0, 2e-6)
                    and _close(line[1], w, 1e-7, 1e-13)):
                return f"line {a}->{b}: {line} vs ({f:.10g}, {w:.10g})"
        if got:
            return f"{len(got)} listed lines have no reference"
        # broadened profile on every 37th grid point
        kept = inten >= floor
        sigma = fwhm / (2 * math.sqrt(2 * math.log(2)))
        prof = np.array([[float(c) for c in r]
                         for r in read_rows(os.path.join(d, "spectrum.csv"))])
        f0 = freq[kept].min() - 5 * fwhm
        if not (_close(prof[0, 0], f0, 0, 1e-5)
                and prof[-1, 0] >= freq[kept].max() + 5 * fwhm - 0.1 * fwhm):
            return "spectrum grid does not span the lines"
        pick = prof[::37]
        z = (pick[:, 0][:, None] - freq[kept][None, :]) / sigma
        want = (np.exp(-0.5 * z * z) @ inten[kept]) \
            / (sigma * math.sqrt(2 * math.pi))
        if np.max(np.abs(pick[:, 1] - want)) > 1e-6 * want.max():
            return "broadened spectrum differs from the line sum"
        return None

    @staticmethod
    def _check_pulse(inp, d, vals):
        rows = read_rows(os.path.join(d, "populations.csv"))
        pops = np.array([float(r[2]) for r in rows])
        n = len(inp["config"]["nuclei"])
        if len(pops) != len(vals):
            return f"{len(pops)} populations for {len(vals)} levels"
        low = set(np.argsort(vals)[:2 ** n].tolist())
        if {k for k, r in enumerate(rows) if int(r[0]) == 0} != low:
            return "ms = 0 labels are not the lowest manifold"
        if abs(pops.sum() - 1.0) > 1e-8:
            return f"populations sum to {pops.sum():.12f}"
        want = ref.propagate_populations(vals, n, parse_items(inp["sequence"]))
        err = float(np.max(np.abs(pops - want)))
        if err > POP_TOL:
            return f"populations differ from the reference by {err:.2e}"
        return None

    @staticmethod
    def _check_rabi(inp, d):
        r = inp["rabi"]
        rows = np.array([[float(c) for c in x]
                         for x in read_rows(os.path.join(d, "rabi.csv"))])
        t = np.linspace(0.0, r["t_max"], r["points"])
        if r["channel"] == "mw":
            omega = math.sqrt(r["power"])
        else:
            item = inp["config"]["nuclei"][r["nucleus"]]
            omega = 1e-3 * ref.secular_magnitude(item) * math.sqrt(r["power"])
        want = np.sin(math.pi * omega * t) ** 2
        if rows.shape != (len(t), 2) or np.max(np.abs(rows[:, 0] - t)) > 1e-8:
            return "Rabi time grid differs"
        if np.max(np.abs(rows[:, 1] - want)) > 1e-9:
            return "Rabi populations differ from sin^2(pi Omega t)"
        return None


# ----- decay -----------------------------------------------------------------

KINDS = ("sq1", "sq2", "phi", "psi")
_WEIGHTS = {"sq1": (1, 0), "sq2": (0, 1), "phi": (1, 1), "psi": (1, -1)}
# the bath radius is drawn per iteration, so that the lattice, the shells
# and the couplings differ between iterations (about 2.8k-3.3k sites)
BATH_RADII = (15.5, 16.5)
NEAR_RADIUS = 10.0
# (mu0/4pi) (g_n mu_N)^2 / h in kHz Angstrom^3
NN_DIPOLAR = (ref.MU0 / (4 * math.pi)) * (ref.G_N * ref.NUCLEAR_MAGNETON) ** 2 \
    / ref.PLANCK_H * 1e27


class Decay:
    """The coherence workflow: a 2-nucleus register, Monte Carlo bath
    envelopes on a ~16 A lattice, envelope rates and decay fits."""

    name = "decay"
    steps = ("register", "bath", "rates", "fit_fid", "fit_echo")
    setup_pins = {"n_samples": 1500, "bath_radius": 16.0}

    def make(self, rng):
        t_fid = np.linspace(0.0, 40.0, 80)
        fid = [float(rng.uniform(10, 16)), float(rng.uniform(0.6, 1.2)),
               0.5, 0.5]
        t2e = float(rng.uniform(0.5, 0.8))
        t_echo = np.linspace(0.0, 2.5 * t2e, 60)
        echo = [t2e, 0.5, 0.5]
        return {
            "field_gauss": round(float(rng.uniform(80.0, 86.0)), 4),
            "azimuth_deg": round(float(rng.uniform(0, 360)), 4),
            "detunings": [round(float(x), 5) for x in rng.uniform(-0.5, 0.5,
                                                                  2)],
            "bath_radius": round(float(rng.uniform(*BATH_RADII)), 3),
            "first": int(rng.integers(3)), "third": int(rng.integers(9)),
            "n_samples": int(rng.integers(1000, 2001)),
            "occupancy": round(float(rng.uniform(0.011, 0.03)), 5),
            "mc_seed": int(rng.integers(2 ** 31)),
            "fid": {"truth": fid, "t": t_fid.tolist(),
                    "y": (ref.fid(t_fid, fid)
                          + 0.01 * rng.standard_normal(80)).tolist()},
            "echo": {"truth": echo, "t": t_echo.tolist(),
                     "y": (ref.echo(t_echo, echo)
                           + 0.01 * rng.standard_normal(60)).tolist()},
        }

    def prepare(self, inp, d):
        for model in ("fid", "echo"):
            with open(os.path.join(d, f"{model}.csv"), "w") as fh:
                fh.write("t_us,signal\n")
                for t, y in zip(inp[model]["t"], inp[model]["y"]):
                    fh.write(f"{t:.17g},{y:.17g}\n")

    def run(self, inp, d):
        out = {}
        _step(out, "register", lambda: self._register(inp))
        _step(out, "bath", lambda: self._bath(inp))
        bath = out["bath"]
        _step(out, "rates", lambda: self._rates(bath))
        for model in ("fid", "echo"):
            _step(out, f"fit_{model}", lambda: cli_step(
                ["fit", "--input", os.path.join(d, f"{model}.csv"),
                 "--model", model, "--out-dir", d]))
        return out

    @staticmethod
    def _register(inp):
        spec = spinsys.SpinSystemSpec(
            field=spinsys.ZeemanField.along((1, 1, 1), inp["field_gauss"]),
            hyperfine=(spinsys.first_shell_tensor(inp["azimuth_deg"]),
                       spinsys.third_shell_tensor()))
        reg = pulses.Register(spec)
        t = np.linspace(0.0, 10.0, 101)
        d1, d2 = inp["detunings"]
        return {
            "bell": [pulses.bell_prepare_and_fidelity(reg, v)[1:]
                     for v in pulses.BELL_VARIANTS],
            "endor": [pulses.endor_transfer(reg, q, ms)
                      for q in (0, 1) for ms in (-1, 1)],
            "dephasing": [pulses.bell_dephasing_fidelity(reg, v, t, d1, d2)
                          for v in pulses.BELL_VARIANTS],
        }

    @staticmethod
    def _bath(inp):
        sites = lattice.classify_shells(
            lattice.generate_lattice(inp["bath_radius"]))
        pos = np.array([s.position for s in sites])
        shells = np.array([s.shell for s in sites])
        k1 = int(np.flatnonzero(shells == 1)[inp["first"]])
        k3 = int(np.flatnonzero(shells == 3)[inp["third"]])
        cpl = decoherence.pair_couplings(np.delete(pos, [k1, k3], axis=0),
                                         pos[k1], pos[k3], NEAR_RADIUS)
        t = np.linspace(0.0, 4000.0, 161)
        env = {kind: decoherence.simulate_bath_fid(
                   cpl, kind, t, n_samples=inp["n_samples"],
                   seed=inp["mc_seed"], occupancy=inp["occupancy"])
               for kind in KINDS}
        same = decoherence.PairCouplings(cpl.c1_khz, cpl.c1_khz, NEAR_RADIUS)
        env["psi_correlated"] = decoherence.simulate_bath_fid(
            same, "psi", t, n_samples=inp["n_samples"], seed=inp["mc_seed"],
            occupancy=inp["occupancy"])
        return env

    @staticmethod
    def _rates(env):
        rates = {k: decoherence.fit_envelope_rate(env[k]) for k in KINDS}
        bell = decoherence.bell_t2star_from_sq(1 / rates["sq1"],
                                               1 / rates["sq2"])
        return {"rates": rates, "bell": bell}

    def check(self, inp, d, out):
        return _run_checks(self.steps, out, {
            "register": lambda: self._check_register(inp, out["register"]),
            "bath": lambda: self._check_bath(inp, out["bath"]),
            "rates": lambda: self._check_rates(out["bath"], out["rates"]),
            "fit_fid": lambda: self._check_fit(inp, d, "fid"),
            "fit_echo": lambda: self._check_fit(inp, d, "echo"),
        })

    @staticmethod
    def _check_register(inp, got):
        worst = min(min(f, p) for f, p in got["bell"])
        if worst < 1 - 1e-10:
            return f"Bell fidelity {worst:.12f}"
        if min(got["endor"]) < 1 - 1e-10:
            return f"ENDOR transfer {min(got['endor']):.12f}"
        t = np.linspace(0.0, 10.0, 101)
        d1, d2 = inp["detunings"]
        for v, f in zip(pulses.BELL_VARIANTS, got["dephasing"]):
            beat = d1 + d2 if v.startswith("phi") else d1 - d2
            want = 0.5 + 0.5 * np.cos(2 * math.pi * beat * t)
            if np.max(np.abs(f - want)) > 1e-12:
                return f"{v} dephasing differs from (1 + cos) / 2"
        return None

    @staticmethod
    def couplings(inp):
        q, d2 = ref.lattice_quarters(inp["bath_radius"])
        shells = ref.shell_numbers(q, d2)
        pos = q * (ref.LATTICE_A / 4.0)
        k1 = np.flatnonzero(shells == 1)[inp["first"]]
        k3 = np.flatnonzero(shells == 3)[inp["third"]]
        bath = np.delete(pos, [k1, k3], axis=0)
        out = []
        for k in (k1, k3):
            r = np.linalg.norm(bath - pos[k], axis=1)
            out.append(np.where(r <= NEAR_RADIUS, NN_DIPOLAR / r ** 3, 0.0))
        return out

    def _check_bath(self, inp, env):
        c1, c2 = self.couplings(inp)
        for kind in KINDS:
            w1, w2 = _WEIGHTS[kind]
            omega = 2e-3 * math.pi * (w1 * c1 + w2 * c2)
            curve = env[kind]
            z, _ = ref.envelope_zscores(curve.signal, omega,
                                        inp["occupancy"], curve.t_us,
                                        inp["n_samples"])
            if np.max(np.abs(z)) > Z_MAX:
                return (f"{kind} envelope is {np.max(np.abs(z)):.1f} "
                        "standard errors from the exact envelope")
        dev = np.max(np.abs(env["psi_correlated"].signal - 1.0))
        if dev > 1e-9:
            return f"correlated psi envelope departs from 1 by {dev:.1e}"
        return None

    @staticmethod
    def _check_rates(env, got):
        rates = got["rates"]
        for kind in KINDS:
            t, y, r = env[kind].t_us, env[kind].signal, rates[kind]
            f = np.exp(-r * t)
            step = (-t * f) @ (y - f) / ((t * f) @ (t * f))
            if not (r > 0 and abs(step) <= 1e-8 * r):
                return f"{kind} rate {r} is not a least-squares optimum"
        bell = got["bell"]
        r1, r2 = rates["sq1"], rates["sq2"]
        if not _close(bell.t_phi_us, 1 / (r1 + r2), 1e-12):
            return f"T_phi {bell.t_phi_us} != 1/(r1 + r2)"
        if not _close(bell.t_psi_us, 1 / abs(r1 - r2), 1e-9):
            return f"T_psi {bell.t_psi_us} != 1/|r1 - r2|"
        return None

    @staticmethod
    def _check_fit(inp, d, model):
        names = ref.MODELS[model][1]
        path = os.path.join(d, f"fit_{model}.csv")
        got = {r[0]: (float(r[1]), float(r[2])) for r in read_rows(path)}
        with open(path, encoding="utf-8") as fh:
            resid = float(fh.read().split("residual_norm: ")[1].split()[0])
        t, y = np.array(inp[model]["t"]), np.array(inp[model]["y"])
        p = np.array([got[n][0] for n in names])
        ssr = float(np.sum((ref.MODELS[model][0](t, p) - y) ** 2))
        _, ssr_ref, _ = ref.least_squares(model, t, y, inp[model]["truth"])
        if not _close(ssr, ssr_ref, 1e-6):
            return f"{model} SSR {ssr:.8g} vs the optimum {ssr_ref:.8g}"
        if not _close(resid, math.sqrt(ssr), 1e-7):
            return f"{model} residual norm {resid} != sqrt(SSR)"
        sig = ref.fit_sigmas(model, t, y, p)
        for n, s in zip(names, sig):
            if not _close(got[n][1], s, 1e-3):
                return f"{model} sigma of {n}: {got[n][1]} vs {s}"
        return None


WORKLOADS = {w.name: w for w in (Lattice(), Register(), Decay())}
