"""Hamiltonian construction, diagonalization and ESR line extraction.

The reference Hamiltonian below is built with an independent Kronecker
construction (explicit spin matrices, operator-by-operator loop) so the
production builder is checked against a second derivation, not itself.
"""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvbath.constants import (BOHR_MAGNETON, G_ELECTRON_NV, G_NUCLEAR_C13,
                              NUCLEAR_MAGNETON, PLANCK_H)
import nvbath.spinsys as spinsys
from nvbath.errors import ResourceLimitError, ValidationError
from nvbath.pulses import Register
from nvbath.spinsys import (
    EigenSystem,
    HyperfineTensor,
    SpinSystemSpec,
    ZeemanField,
    ZfsParams,
    build_hamiltonian,
    diagonalize,
    eigensystem,
    esr_transitions,
    first_shell_tensor,
    single_nucleus_hamiltonians,
    synth_spectrum,
    third_shell_tensor,
)

GAMMA_E = G_ELECTRON_NV * BOHR_MAGNETON / PLANCK_H * 1e-10    # MHz/G
GAMMA_N = G_NUCLEAR_C13 * NUCLEAR_MAGNETON / PLANCK_H * 1e-10  # MHz/G

SX = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)
SY = np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]],
              dtype=complex) / math.sqrt(2)
SZ = np.diag([1.0, 0.0, -1.0]).astype(complex)
PX = np.array([[0, 1], [1, 0]], dtype=complex) / 2
PY = np.array([[0, -1j], [1j, 0]], dtype=complex) / 2
PZ = np.diag([0.5, -0.5]).astype(complex)


def reference_hamiltonian(spec):
    """Independent oracle: same physics, different construction."""
    n = len(spec.hyperfine)
    dim = 3 * 2 ** n
    axis = np.asarray(spec.zfs.axis)
    bvec = spec.field.gauss * np.asarray(spec.field.direction)

    def embed(e_op, site, n_op):
        ops = [e_op] + [np.eye(2, dtype=complex)] * n
        if site is not None:
            ops[1 + site] = n_op
        out = ops[0]
        for o in ops[1:]:
            out = np.kron(out, o)
        return out

    svec = [embed(o, None, None) for o in (SX, SY, SZ)]
    s_ax = sum(a * s for a, s in zip(axis, svec))
    h = spec.zfs.d_mhz * (s_ax @ s_ax)
    h = h + GAMMA_E * sum(b * s for b, s in zip(bvec, svec))
    for q, hf in enumerate(spec.hyperfine):
        a = hf.tensor(axis)
        ivec = [embed(np.eye(3, dtype=complex), q, o) for o in (PX, PY, PZ)]
        for r in range(3):
            for c in range(3):
                h = h + a[r, c] * (svec[r] @ ivec[c])
        h = h - GAMMA_N * sum(b * i for b, i in zip(bvec, ivec))
    assert h.shape == (dim, dim)
    return h


FIELD_83 = ZeemanField(83.0)


def test_matches_independent_construction():
    specs = [
        SpinSystemSpec(field=FIELD_83),
        SpinSystemSpec(field=FIELD_83, hyperfine=(first_shell_tensor(),)),
        SpinSystemSpec(field=ZeemanField(45.0, (0.0, 0.0, 1.0)),
                       zfs=ZfsParams.along((1.0, 1.0, 1.0)),
                       hyperfine=(first_shell_tensor(30.0),
                                  third_shell_tensor())),
        SpinSystemSpec(hyperfine=(HyperfineTensor(10.0, 4.0, 75.0, 210.0),)),
    ]
    for spec in specs:
        assert np.array_equal(build_hamiltonian(spec),
                              reference_hamiltonian(spec))


_unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: np.linalg.norm(v) > 0.1)
_tensors = st.builds(HyperfineTensor, st.floats(-200.0, 200.0),
                     st.floats(-200.0, 200.0), st.floats(0.0, 180.0),
                     st.floats(0.0, 360.0))


@settings(max_examples=40, deadline=None)
@given(hyperfine=st.lists(_tensors, max_size=6), zfs_axis=_unit_vectors,
       direction=_unit_vectors, gauss=st.floats(0.0, 2000.0),
       d_mhz=st.floats(0.0, 3000.0))
def test_block_hamiltonian_equals_dense_sum(hyperfine, zfs_axis, direction,
                                            gauss, d_mhz):
    spec = SpinSystemSpec(zfs=ZfsParams.along(zfs_axis, d_mhz),
                          field=ZeemanField.along(direction, gauss),
                          hyperfine=tuple(hyperfine))
    h = build_hamiltonian(spec)
    assert np.array_equal(h, reference_hamiltonian(spec))
    assert np.max(np.abs(h - h.conj().T)) <= 1e-15 * np.max(np.abs(h))


@settings(max_examples=40, deadline=None)
@given(hyperfine=st.lists(_tensors, max_size=6), zfs_axis=_unit_vectors,
       direction=_unit_vectors, gauss=st.floats(0.0, 2000.0))
def test_single_nucleus_stack_is_each_one_nucleus_hamiltonian(
        hyperfine, zfs_axis, direction, gauss):
    spec = SpinSystemSpec(zfs=ZfsParams.along(zfs_axis),
                          field=ZeemanField.along(direction, gauss),
                          hyperfine=tuple(hyperfine))
    stack = single_nucleus_hamiltonians(spec)
    assert stack.shape == (len(hyperfine), 6, 6)
    eig = diagonalize(stack)
    for q, tens in enumerate(hyperfine):
        one = SpinSystemSpec(zfs=spec.zfs, field=spec.field,
                             hyperfine=(tens,))
        assert np.array_equal(stack[q], build_hamiltonian(one))
        alone = diagonalize(stack[q])
        assert np.array_equal(eig.values[q], alone.values)
        assert np.array_equal(eig.vectors[q], alone.vectors)


def test_stacked_diagonalize_checks_every_matrix():
    spec = SpinSystemSpec(field=FIELD_83, hyperfine=(first_shell_tensor(),
                                                     third_shell_tensor()))
    stack = single_nucleus_hamiltonians(spec).copy()
    stack[1, 0, 1] += 1e-3  # the second matrix is not Hermitian
    with pytest.raises(ValidationError, match="not Hermitian"):
        diagonalize(stack)
    with pytest.raises(ValidationError, match="square"):
        diagonalize(np.zeros((2, 6, 5)))


def test_hamiltonian_is_hermitian():
    spec = SpinSystemSpec(field=FIELD_83, hyperfine=(first_shell_tensor(),
                                                     third_shell_tensor()))
    h = build_hamiltonian(spec)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-10


def test_trace_invariant_under_field_rotation():
    directions = [(1, 1, 1), (0, 0, 1), (1, 0, 0), (0.3, -0.4, 0.86)]
    traces = []
    for d in directions:
        spec = SpinSystemSpec(field=ZeemanField.along(d, 83.0),
                              hyperfine=(first_shell_tensor(),))
        traces.append(float(np.real(np.trace(build_hamiltonian(spec)))))
    assert max(traces) - min(traces) <= 1e-8


def test_zero_field_manifold_degeneracy():
    eig = diagonalize(build_hamiltonian(SpinSystemSpec()))
    # bare NV at B=0: ms=+-1 degenerate at D
    assert abs(eig.values[2] - eig.values[1]) <= 1e-10
    assert abs(eig.values[1] - 2870.0) <= 1e-10


def test_eigen_reconstruction():
    spec = SpinSystemSpec(field=FIELD_83, hyperfine=(first_shell_tensor(),
                                                     third_shell_tensor()))
    h = build_hamiltonian(spec)
    eig = diagonalize(h)
    rebuilt = eig.vectors @ np.diag(eig.values) @ eig.vectors.conj().T
    assert np.max(np.abs(h - rebuilt)) <= 1e-8
    assert np.all(np.diff(eig.values) >= 0)


def _register_spec(gauss=83.0, a_par=None):
    """Field along [111] and three nuclei; a_par replaces the last one's
    A_par."""
    last = third_shell_tensor()
    if a_par is not None:
        last = HyperfineTensor(a_par, last.a_perp_mhz)
    return SpinSystemSpec(field=ZeemanField.along((1, 1, 1), gauss),
                          hyperfine=(first_shell_tensor(30.0),
                                     first_shell_tensor(150.0), last))


def test_eigensystem_is_the_diagonalized_hamiltonian():
    spec = _register_spec()
    eig = eigensystem(spec)
    want = diagonalize(build_hamiltonian(spec))
    assert eig.values.tobytes() == want.values.tobytes()
    assert eig.vectors.tobytes() == want.vectors.tobytes()
    for arr in (eig.values, eig.vectors):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0
    assert want.values.flags.writeable  # diagonalize itself is unchanged


def test_eigensystem_solves_each_spec_once_in_a_row(monkeypatch):
    calls = []
    solve = spinsys.diagonalize
    monkeypatch.setattr(spinsys, "diagonalize",
                        lambda h: calls.append(h.shape) or solve(h))
    spec = _register_spec()
    eig = eigensystem(spec)
    assert eigensystem(_register_spec()) is eig  # equal, built separately
    assert calls == [(24, 24)]
    a_par = third_shell_tensor().a_par_mhz
    for other in (_register_spec(gauss=math.nextafter(83.0, math.inf)),
                  _register_spec(a_par=math.nextafter(a_par, math.inf))):
        assert other != spec
        again = eigensystem(other)
        assert again is not eig and eigensystem(other) is again
    assert calls == [(24, 24)] * 3
    # one entry: going back to the first spec solves it again
    assert eigensystem(spec) is not eig
    assert calls == [(24, 24)] * 4
    # equal specs whose bytes differ (-0.0 == 0.0) are not one key
    zero = SpinSystemSpec(field=ZeemanField(0.0))
    minus_zero = SpinSystemSpec(field=ZeemanField(-0.0))
    assert zero == minus_zero
    assert eigensystem(zero) is not eigensystem(minus_zero)
    assert calls[4:] == [(3, 3)] * 2


def test_register_after_a_spectrum_has_the_fresh_labels(fresh_eigensystem):
    spec = _register_spec()
    fresh = Register(spec)
    fresh_eigensystem.clear()
    esr_transitions(_register_spec())
    shared = Register(spec)
    assert shared.eig is eigensystem(spec)
    for name in ("label_codes", "label_overlap", "label_contrast"):
        got, want = getattr(shared, name), getattr(fresh, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_bare_lines_at_83_gauss():
    lines = esr_transitions(SpinSystemSpec(field=FIELD_83))
    assert len(lines) == 2
    zeeman = GAMMA_E * 83.0
    np.testing.assert_allclose(
        [l.freq_mhz for l in lines], [2870.0 - zeeman, 2870.0 + zeeman],
        rtol=1e-9)
    # regression anchors
    assert abs(lines[0].freq_mhz - 2637.3371) <= 2e-3
    assert abs(lines[1].freq_mhz - 3102.6629) <= 2e-3
    for l in lines:
        assert abs(l.intensity - 0.5) <= 1e-9


def test_first_shell_strong_lines_frozen():
    spec = SpinSystemSpec(field=FIELD_83, hyperfine=(first_shell_tensor(),))
    lines = esr_transitions(spec, floor=0.05)
    freqs = sorted(l.freq_mhz for l in lines)
    expected = [2581.3360, 2708.5052, 3046.6398, 3173.0521]
    assert len(freqs) == 4
    np.testing.assert_allclose(freqs, expected, rtol=0, atol=2e-3)
    assert abs((freqs[1] - freqs[0]) - 127.1692) <= 2e-3


def test_secular_magnitude_frozen():
    axis = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    a = first_shell_tensor().tensor(axis)
    assert abs(np.linalg.norm(axis @ a) - 131.0437) <= 2e-4


def test_axial_tensor_splitting_is_a_par():
    # hyperfine axis parallel to the NV axis: splitting -> a_par
    hf = HyperfineTensor(150.0, 60.0, 0.0, 0.0)
    axis = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    spec = SpinSystemSpec(zfs=ZfsParams(axis=tuple(axis)), field=FIELD_83,
                          hyperfine=(hf,))
    lines = esr_transitions(spec, floor=0.05)
    low = sorted(l.freq_mhz for l in lines)[:2]
    assert abs((low[1] - low[0]) - 150.0) / 150.0 <= 0.01


def test_intensities_sum_to_one_without_floor():
    spec = SpinSystemSpec(field=FIELD_83, hyperfine=(first_shell_tensor(),
                                                     third_shell_tensor()))
    lines = esr_transitions(spec, floor=0.0)
    assert abs(sum(l.intensity for l in lines) - 1.0) <= 1e-9


def test_window_and_floor_filtering():
    spec = SpinSystemSpec(field=FIELD_83, hyperfine=(first_shell_tensor(),))
    win = (2500.0, 2750.0)
    lines = esr_transitions(spec, window=win, floor=0.0)
    assert lines and all(win[0] <= l.freq_mhz <= win[1] for l in lines)
    # normalization is over the window, so the windowed lines sum to 1
    assert abs(sum(l.intensity for l in lines) - 1.0) <= 1e-9
    with pytest.raises(ValidationError):
        esr_transitions(spec, window=(2750.0, 2500.0))


def test_synth_spectrum_area_matches_line_sum():
    spec = SpinSystemSpec(field=FIELD_83, hyperfine=(first_shell_tensor(),))
    lines = esr_transitions(spec, window=(2400.0, 3400.0), floor=0.0)
    fwhm = 6.0
    spectrum = synth_spectrum(lines, (2300.0, 3500.0, 0.05), fwhm)
    area = np.trapezoid(spectrum.intensity, spectrum.freq_mhz)
    assert abs(area - sum(l.intensity for l in lines)) <= 1e-6
    assert spectrum.intensity.min() >= 0.0


@pytest.mark.parametrize("fwhm, grid, match", [
    (math.inf, (2800.0, 2900.0, 0.1), "fwhm must be finite"),
    (math.nan, (2800.0, 2900.0, 0.1), "fwhm must be finite"),
    (0.0, (2800.0, 2900.0, 0.1), "fwhm must be positive"),
    (1.0, (2800.0, math.nan, 0.1), "grid values must be finite"),
    (1.0, (-math.inf, 2900.0, 0.1), "grid values must be finite"),
    (1.0, (2900.0, 2800.0, 0.1), "stop > start")])
def test_synth_spectrum_rejects_bad_broadening_and_grid(fwhm, grid, match):
    lines = esr_transitions(SpinSystemSpec(field=FIELD_83))
    with pytest.raises(ValidationError, match=match):
        synth_spectrum(lines, grid, fwhm)


def test_spectrum_grid_cap_trips_before_allocating(monkeypatch):
    lines = esr_transitions(SpinSystemSpec(field=FIELD_83))
    # one point over the cap first, which is cheap even if the cap failed
    over = (2800.0, 2900.0, 100.0 / spinsys.MAX_GRID_POINTS)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="2e\\+06 points"):
            synth_spectrum(lines, over, 1.0)
        with pytest.raises(ResourceLimitError, match="1e\\+09 points"):
            synth_spectrum(lines, (2800.0, 2900.0, 1e-7), 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    with pytest.raises(ResourceLimitError, match="inf points"):
        synth_spectrum(lines, (2800.0, 2900.0, 1e-310), 1.0)
    # the cap counts points exactly: 10 steps are 11 points
    monkeypatch.setattr(spinsys, "MAX_GRID_POINTS", 11)
    assert len(synth_spectrum(lines, (0.0, 1.0, 0.1), 1.0).freq_mhz) == 11
    with pytest.raises(ResourceLimitError):
        synth_spectrum(lines, (0.0, 1.1, 0.1), 1.0)


@pytest.mark.parametrize("gauss", [math.nan, math.inf, -math.inf])
def test_field_rejects_non_finite_magnitude(gauss):
    with pytest.raises(ValidationError, match="gauss must be finite"):
        ZeemanField(gauss)
    with pytest.raises(ValidationError, match="gauss must be finite"):
        ZeemanField.along((0.0, 0.0, 1.0), gauss)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_zfs_and_hyperfine_reject_non_finite_values(bad):
    for make in (lambda: ZfsParams(d_mhz=bad),
                 lambda: ZfsParams.along((0.0, 0.0, 1.0), bad)):
        with pytest.raises(ValidationError, match="ZFS d_mhz must be finite"):
            make()
    for name in ("a_par_mhz", "a_perp_mhz", "azimuth_deg"):
        kwargs = {"a_par_mhz": 5.0, "a_perp_mhz": 1.0, name: bad}
        with pytest.raises(ValidationError,
                           match=f"hyperfine {name} must be finite"):
            HyperfineTensor(**kwargs)
    with pytest.raises(ValidationError, match="azimuth_deg must be finite"):
        first_shell_tensor(bad)


@pytest.mark.parametrize("bad", [(math.nan, 1.0, 1.0), (math.inf, 0.0, 0.0),
                                 (0.0, -math.inf, 1.0)])
def test_directions_reject_non_finite_components(bad):
    for make, what in ((lambda v: ZeemanField(83.0, v), "field direction"),
                       (lambda v: ZeemanField.along(v, 83.0),
                        "field direction"),
                       (lambda v: ZfsParams(axis=v), "ZFS axis"),
                       (ZfsParams.along, "ZFS axis")):
        with pytest.raises(ValidationError, match=f"{what} must be finite"):
            make(bad)


def test_max_nuclei_enforced():
    with pytest.raises(ValidationError):
        SpinSystemSpec(field=FIELD_83,
                       hyperfine=tuple(third_shell_tensor()
                                       for _ in range(7)))


def test_diagonalization_speed_n4():
    spec = SpinSystemSpec(
        field=FIELD_83,
        hyperfine=(first_shell_tensor(0.0), first_shell_tensor(120.0),
                   third_shell_tensor(), third_shell_tensor()))
    t0 = time.perf_counter()
    esr_transitions(spec)
    assert time.perf_counter() - t0 < 1.0
