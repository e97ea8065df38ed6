"""The output checks pass on real outputs and fail on corrupted ones.

Run from the repository root: python3 -m pytest perfbench/test_checks.py
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402
from nvbath.decoherence import DecayCurve  # noqa: E402


def _iteration(name, tmp_path_factory):
    work = workloads.WORKLOADS[name]
    inp = work.make(np.random.default_rng([20261017, 9, 0]))
    d = str(tmp_path_factory.mktemp(name))
    work.prepare(inp, d)
    return work, inp, d, work.run(inp, d)


def _failures(verdict):
    return {step: msg for step, msg in verdict.items() if msg is not None}


def _rewrite(path, edit):
    with open(path) as fh:
        lines = fh.read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


@pytest.fixture(scope="module")
def lattice_run(tmp_path_factory):
    return _iteration("lattice", tmp_path_factory)


@pytest.fixture(scope="module")
def register_run(tmp_path_factory):
    return _iteration("register", tmp_path_factory)


@pytest.fixture(scope="module")
def decay_run(tmp_path_factory):
    return _iteration("decay", tmp_path_factory)


@pytest.mark.parametrize("name", ["lattice_run", "register_run", "decay_run"])
def test_real_outputs_pass(name, request):
    work, inp, d, out = request.getfixturevalue(name)
    assert _failures(work.check(inp, d, out)) == {}


def test_lattice_site_dropped_from_count(lattice_run):
    work, inp, d, out = lattice_run
    count, rest = out["bath"].split(" ", 1)
    bad = dict(out, bath=f"{int(count) - 1} {rest}")
    assert "bath" in _failures(work.check(inp, d, bad))


def test_lattice_site_dropped_from_sample(lattice_run, tmp_path):
    work, inp, d, out = lattice_run
    for f in os.listdir(d):
        with open(os.path.join(d, f)) as src:
            (tmp_path / f).write_text(src.read())
    _rewrite(str(tmp_path / "bath_sites.csv"), lambda lines: lines[:-1])
    assert "bath" in _failures(work.check(inp, str(tmp_path), out))


def test_decay_envelope_shifted_by_ten_standard_errors(decay_run):
    work, inp, d, out = decay_run
    c1, c2 = work.couplings(inp)
    curve = out["bath"]["sq1"]
    omega = 2e-3 * math.pi * c1
    _, se = ref.envelope_zscores(curve.signal, omega, inp["occupancy"],
                                 curve.t_us, inp["n_samples"])
    shifted = DecayCurve(t_us=curve.t_us, signal=curve.signal + 10 * se)
    bad = dict(out, bath=dict(out["bath"], sq1=shifted))
    assert "bath" in _failures(work.check(inp, d, bad))


@pytest.mark.parametrize("moved", [(1e-6,), (1e-6, -1e-6)])
def test_register_population_off_by_1e_6(register_run, tmp_path, moved):
    work, inp, d, out = register_run
    for f in os.listdir(d):
        with open(os.path.join(d, f)) as src:
            (tmp_path / f).write_text(src.read())

    def edit(lines):
        rows = [k for k, line in enumerate(lines) if line[0] in "-+0123456789"]
        for k, delta in zip(rows[-len(moved):], moved):
            ms, bits, pop = lines[k].split(",")
            lines[k] = f"{ms},{bits},{float(pop) + delta:.10g}"
        return lines

    _rewrite(str(tmp_path / "populations.csv"), edit)
    assert "pulse" in _failures(work.check(inp, str(tmp_path), out))
