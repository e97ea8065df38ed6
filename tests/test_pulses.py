"""Eigenstate registers, selective pulses and the canned experiments."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import nvbath.pulses as pulses_mod
from register_reference import (reference_evolve, reference_labels,
                                reference_spinors, reference_validate)
from nvbath.errors import AmbiguousTransitionError, ValidationError
from nvbath.pulses import (
    BELL_VARIANTS,
    Pulse,
    Register,
    RegisterState,
    Wait,
    bell_dephasing_fidelity,
    bell_prepare_and_fidelity,
    bell_sequence,
    bell_target_vector,
    endor_sequence,
    endor_transfer,
    format_sequence,
    free_unitary,
    hahn_echo_sequence,
    parse_sequence,
    pulse_unitary,
    rabi_frequency_mhz,
    rabi_simulate,
    run_sequence,
)
from nvbath.spinsys import (
    HyperfineTensor,
    SpinSystemSpec,
    ZeemanField,
    ZfsParams,
    first_shell_tensor,
    third_shell_tensor,
)

FIELD_83 = ZeemanField(83.0)


def make_register():
    return Register(SpinSystemSpec(field=FIELD_83,
                                   hyperfine=(first_shell_tensor(),
                                              third_shell_tensor())))


def make_bare():
    return Register(SpinSystemSpec(field=FIELD_83))


def test_register_labels_cover_all_levels():
    reg = make_register()
    assert reg.dim == 12
    assert len(set(reg.labels)) == 12
    ms_values = {m for m, _ in reg.labels}
    assert ms_values == {1, 0, -1}
    # every level of the two-nucleus register stays uniquely assigned
    assert min(reg.label_contrast) > 1.5
    one = Register(SpinSystemSpec(field=FIELD_83,
                                  hyperfine=(first_shell_tensor(),)))
    assert min(one.label_overlap) > 0.99


def test_level_lookup_round_trip():
    reg = make_register()
    for k, (ms, bits) in enumerate(reg.labels):
        assert reg.level(ms, bits) == k
    with pytest.raises(ValidationError):
        reg.level(2, (0, 0))


def test_equivalent_nuclei_are_ambiguous():
    eq = Register(SpinSystemSpec(field=FIELD_83,
                                 hyperfine=(first_shell_tensor(),
                                            first_shell_tensor())))
    # symmetric/antisymmetric hybrids sit near 50/50 between two labels
    assert min(eq.label_contrast) < 1.1
    lv = [k for k, (m, b) in enumerate(eq.labels)
          if m == -1 and b in ((0, 1), (1, 0))]
    with pytest.raises(AmbiguousTransitionError):
        pulse_unitary(eq, Pulse("rf", eq.level(-1, (0, 0)), lv[0], math.pi))


def test_ideal_pulse_matrix_oracle():
    reg = make_bare()
    i, j = reg.level(0, ()), reg.level(-1, ())
    th, ph = 1.1, 0.7
    u = pulse_unitary(reg, Pulse("mw", i, j, th, ph))
    c, s = math.cos(th / 2), math.sin(th / 2)
    expect = np.eye(3, dtype=complex)
    expect[i, i] = c
    expect[j, j] = c
    expect[i, j] = -1j * s * np.exp(-1j * ph)
    expect[j, i] = -1j * s * np.exp(1j * ph)
    np.testing.assert_allclose(u, expect, atol=1e-15)
    np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-12)


def test_pulse_composition_and_identity():
    reg = make_register()
    i, j = reg.level(0, (0, 0)), reg.level(-1, (0, 0))
    half = pulse_unitary(reg, Pulse("mw", i, j, math.pi / 2, 0.3))
    full = pulse_unitary(reg, Pulse("mw", i, j, math.pi, 0.3))
    np.testing.assert_allclose(half @ half, full, atol=1e-12)
    # a 2 pi rotation leaves any density matrix unchanged
    two_pi = pulse_unitary(reg, Pulse("mw", i, j, 2.0 * math.pi, 0.0))
    state = reg.mixed_nuclei_state(0)
    evolved = state.evolved(two_pi)
    np.testing.assert_allclose(evolved.rho, state.rho, atol=1e-12)


def test_pi_pulse_moves_population():
    reg = make_register()
    state = reg.pure_state(-1, (0, 0))
    rf = Pulse("rf", reg.level(-1, (0, 0)), reg.level(-1, (0, 1)), math.pi)
    out = state.evolved(pulse_unitary(reg, rf))
    assert abs(out.population(-1, (0, 1)) - 1.0) <= 1e-12
    assert out.population(-1, (0, 0)) <= 1e-12


def test_trace_and_purity_conserved():
    reg = make_register()
    state = reg.mixed_nuclei_state(0)
    seq = [Pulse("mw", reg.level(0, (0, 0)), reg.level(1, (0, 0)), 0.77, 0.1),
           Wait(1.3),
           Pulse("rf", reg.level(1, (0, 0)), reg.level(1, (1, 0)), 2.0)]
    out = run_sequence(state, seq)
    assert abs(float(np.real(np.trace(out.rho))) - 1.0) <= 1e-10
    assert abs(out.purity() - state.purity()) <= 1e-10


def test_channel_selection_rules():
    reg = make_register()
    with pytest.raises(ValidationError, match="MW"):
        pulse_unitary(reg, Pulse("mw", reg.level(0, (0, 0)),
                                 reg.level(-1, (0, 1)), math.pi))
    with pytest.raises(ValidationError, match="RF"):
        pulse_unitary(reg, Pulse("rf", reg.level(0, (0, 0)),
                                 reg.level(-1, (0, 0)), math.pi))
    with pytest.raises(ValidationError, match="RF"):
        pulse_unitary(reg, Pulse("rf", reg.level(0, (0, 0)),
                                 reg.level(0, (1, 1)), math.pi))


def test_control_annotation_checked():
    reg = make_register()
    i, j = reg.level(-1, (1, 0)), reg.level(-1, (1, 1))
    pulse_unitary(reg, Pulse("rf", i, j, math.pi, control=(0, 1)))  # ok
    with pytest.raises(ValidationError, match="control"):
        pulse_unitary(reg, Pulse("rf", i, j, math.pi, control=(0, 0)))
    with pytest.raises(ValidationError):
        Pulse("rf", i, j, math.pi, control=(0, 2))


def test_frequency_collision_detected(monkeypatch):
    reg = make_register()
    # the nearest same-channel neighbor sits one third-shell flip away
    # (~13.5 MHz); a 20 MHz tolerance must flag it
    monkeypatch.setattr(pulses_mod, "DEGENERACY_TOL_MHZ", 20.0)
    with pytest.raises(AmbiguousTransitionError, match="collides"):
        pulse_unitary(reg, Pulse("mw", reg.level(0, (0, 0)),
                                 reg.level(-1, (0, 0)), math.pi))


def test_finite_duration_pi_pulse_resonant():
    reg = make_register()
    i, j = reg.level(0, (0, 0)), reg.level(-1, (0, 0))
    state = reg.pure_state(0, (0, 0))
    out = state.evolved(pulse_unitary(
        reg, Pulse("mw", i, j, math.pi, duration_us=2.0)))
    assert abs(out.population(-1, (0, 0)) - 1.0) <= 1e-9
    # spectator populations untouched
    spect = reg.pure_state(1, (1, 1))
    after = spect.evolved(pulse_unitary(
        reg, Pulse("mw", i, j, math.pi, duration_us=2.0)))
    assert abs(after.population(1, (1, 1)) - 1.0) <= 1e-12


def test_free_evolution_phases():
    reg = make_register()
    t = 0.73
    u = free_unitary(reg, t)
    lam = reg.eig.values
    np.testing.assert_allclose(np.diag(u),
                               np.exp(-2j * math.pi * lam * t), atol=1e-12)


def test_state_validation():
    reg = make_bare()
    good = np.diag([0.5, 0.5, 0.0]).astype(complex)
    RegisterState(reg, good)
    with pytest.raises(ValidationError, match="dimension"):
        RegisterState(reg, np.eye(2) / 2.0)
    bad_trace = np.diag([0.6, 0.5, 0.0]).astype(complex)
    with pytest.raises(ValidationError, match="trace"):
        RegisterState(reg, bad_trace)
    herm = good.copy()
    herm[0, 1] = 0.3
    with pytest.raises(ValidationError, match="Hermitian"):
        RegisterState(reg, herm)
    neg = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(ValidationError, match="positive"):
        RegisterState(reg, neg)


def test_bell_preparation_all_variants():
    reg = make_register()
    for variant in BELL_VARIANTS:
        state, fid, p00 = bell_prepare_and_fidelity(reg, variant)
        assert fid >= 1.0 - 1e-10, variant
        assert p00 >= 1.0 - 1e-10, variant


def test_bell_needs_two_nuclei():
    one = Register(SpinSystemSpec(field=FIELD_83,
                                  hyperfine=(first_shell_tensor(),)))
    with pytest.raises(ValidationError):
        bell_sequence(one, "phi_plus")
    with pytest.raises(ValidationError):
        bell_sequence(make_register(), "chi_plus")
    # the register is checked before any state or level is looked up
    for call in (lambda: bell_prepare_and_fidelity(one, "phi_plus"),
                 lambda: bell_target_vector(one, "phi_plus"),
                 lambda: bell_dephasing_fidelity(one, "phi_plus", [0.0, 1.0],
                                                 0.1, 0.2)):
        with pytest.raises(ValidationError, match="exactly 2 nuclear qubits"):
            call()


@pytest.mark.parametrize("t, d1, d2", [([0.0, math.nan], 0.1, 0.2),
                                       ([0.0, 1.0], math.nan, 0.2),
                                       ([0.0, 1.0], 0.1, math.inf)])
def test_bell_dephasing_rejects_non_finite_inputs(t, d1, d2):
    with pytest.raises(ValidationError, match="must be finite"):
        bell_dephasing_fidelity(make_register(), "phi_plus", t, d1, d2)


def test_label_swap_negates_psi_minus():
    reg = make_register()
    target = bell_target_vector(reg, "psi_minus")
    swapped = np.zeros_like(target)
    for k, (ms, bits) in enumerate(reg.labels):
        swapped[reg.level(ms, bits[::-1])] = target[k]
    np.testing.assert_allclose(swapped, -target, atol=1e-15)
    state, _, _ = bell_prepare_and_fidelity(reg, "psi_minus")
    assert abs(state.fidelity(target) - state.fidelity(swapped)) <= 1e-12


def test_dephasing_dichotomy():
    reg = make_register()
    t = np.linspace(0.0, 5.0, 41)
    d1, d2 = 0.21, 0.13
    f_phi = bell_dephasing_fidelity(reg, "phi_plus", t, d1, d2)
    f_psi = bell_dephasing_fidelity(reg, "psi_plus", t, d1, d2)
    np.testing.assert_allclose(f_phi, np.cos(math.pi * (d1 + d2) * t) ** 2,
                               atol=1e-9)
    np.testing.assert_allclose(f_psi, np.cos(math.pi * (d1 - d2) * t) ** 2,
                               atol=1e-9)
    # common-mode detuning leaves every psi variant stationary
    f_eq = bell_dephasing_fidelity(reg, "psi_minus", t, 0.4, 0.4)
    np.testing.assert_allclose(f_eq, 1.0, rtol=0, atol=1e-9)


def test_endor_transfer_is_unity():
    reg = make_register()
    for nucleus in (0, 1):
        for ms in (1, -1):
            assert abs(endor_transfer(reg, nucleus, ms) - 1.0) <= 1e-10


@pytest.mark.parametrize("nucleus", [-1, 2, 5])
def test_endor_nucleus_out_of_range(nucleus):
    reg = make_register()
    for call in (endor_sequence, endor_transfer):
        with pytest.raises(ValidationError, match=f"nucleus {nucleus} "):
            call(reg, nucleus)


def test_hahn_echo_full_revival():
    reg = make_bare()
    i, j = reg.level(0, ()), reg.level(-1, ())
    for tau in (0.0, 0.21, 3.7):
        seq = hahn_echo_sequence(reg, i, j, tau)
        out = run_sequence(reg.pure_state(0, ()), seq)
        assert abs(out.population(0, ()) - 1.0) <= 1e-10


def test_rabi_curve_shape_and_power_scaling():
    reg = make_register()
    i, j = reg.level(0, (0, 0)), reg.level(-1, (0, 0))
    t = np.linspace(0.0, 2.0, 81)
    curve, omega = rabi_simulate(reg, "mw", i, j, t, power=1.0)
    assert curve.signal[0] == 0.0
    np.testing.assert_allclose(curve.signal,
                               np.sin(math.pi * omega * t) ** 2, atol=1e-12)
    assert abs(curve.signal.max() - 1.0) <= 1e-6  # unit contrast
    # Omega scales as sqrt(power)
    _, om4 = rabi_simulate(reg, "mw", i, j, t, power=4.0)
    assert abs(om4 - 2.0 * omega) <= 1e-12
    # RF: ten times weaker coupling needs exactly 100x the power
    a, b = reg.level(-1, (0, 0)), reg.level(-1, (1, 0))
    om_rf = rabi_frequency_mhz(reg, "rf", a, b, power=1.0)
    base = first_shell_tensor()
    weak = HyperfineTensor(0.1 * base.a_par_mhz, 0.1 * base.a_perp_mhz,
                           base.polar_deg, base.azimuth_deg)
    scaled = Register(SpinSystemSpec(
        field=FIELD_83, hyperfine=(weak, third_shell_tensor())))
    a2, b2 = scaled.level(-1, (0, 0)), scaled.level(-1, (1, 0))
    om_weak = rabi_frequency_mhz(scaled, "rf", a2, b2, power=100.0)
    assert abs(om_weak / om_rf - 1.0) <= 1e-9


@pytest.mark.parametrize("power, t_max, match", [
    (math.nan, 2.0, "power must be finite"),
    (math.inf, 2.0, "power must be finite"),
    (1.0, math.inf, "times must be finite")])
def test_rabi_rejects_non_finite_power_and_times(power, t_max, match):
    reg = make_register()
    i, j = reg.level(0, (0, 0)), reg.level(-1, (0, 0))
    with pytest.raises(ValidationError, match=match):
        rabi_simulate(reg, "mw", i, j, [0.0, 1.0, t_max], power)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dim=st.integers(1, 12), levels=st.integers(1, 4))
def test_mutual_maxima_assign_as_the_ordered_greedy(data, dim, levels):
    """On matrices with many exact ties, each column gets the row that the
    greedy gives it when it visits entries in (value descending, row,
    column) order."""
    values = data.draw(st.lists(st.integers(0, levels - 1),
                                min_size=dim * dim, max_size=dim * dim))
    overlap = np.array(values, dtype=float).reshape(dim, dim) / levels
    expect = np.full(dim, -1)
    used = set()
    for flat in sorted(range(dim * dim),
                       key=lambda f: (-overlap.flat[f], f)):
        p, k = divmod(flat, dim)
        if expect[k] < 0 and p not in used:
            expect[k] = p
            used.add(p)
    assert pulses_mod._assign_by_mutual_maxima(overlap).tolist() \
        == expect.tolist()


def test_label_codes_name_the_labels():
    reg = make_register()
    n = reg.n_nuclei
    for code, (ms, bits) in zip(reg.label_codes.tolist(), reg.labels):
        assert ms == 1 - code // 2 ** n
        assert bits == tuple((code % 2 ** n) >> (n - 1 - q) & 1
                             for q in range(n))
    assert sorted(reg.label_codes.tolist()) == list(range(reg.dim))


def test_sequence_grammar_round_trip():
    reg = make_register()
    seq = (bell_sequence(reg, "psi_plus")
           + [Wait(0.5),
              Pulse("mw", reg.level(0, (0, 0)), reg.level(1, (0, 0)),
                    math.pi / 3, 0.25, duration_us=1.5)])
    text = format_sequence(seq)
    assert parse_sequence(text) == seq
    parsed = parse_sequence("# comment line\n\nWAIT 2.5\nMW 2 8 3.14 0\n")
    assert parsed == [Wait(2.5), Pulse("mw", 2, 8, 3.14, 0.0)]


def test_sequence_grammar_errors():
    cases = ["MW 0 1", "XX 0 1 1 0", "WAIT", "WAIT -2",
             "MW 0 0 1 0", "MW 0 1 1 0 foo=1", "MW 0 1 1 0 control=0:7"]
    for text in cases:
        with pytest.raises(ValidationError, match="line 1"):
            parse_sequence(text + "\n")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_pulse_values_are_rejected(bad):
    for field in ("angle_rad", "phase_rad", "duration_us"):
        kwargs = {"angle_rad": math.pi, field: bad}
        with pytest.raises(ValidationError, match=field):
            Pulse("mw", 2, 4, **kwargs)
    with pytest.raises(ValidationError, match="t_us"):
        Wait(bad)


def test_run_sequence_rejects_foreign_items():
    reg = make_bare()
    with pytest.raises(ValidationError):
        run_sequence(reg.pure_state(0, ()), ["not a pulse"])


# ----- properties against the per-level reference (register_reference) ----

_tensors = st.one_of(
    st.builds(first_shell_tensor, st.sampled_from([0.0, 120.0, 240.0])),
    st.just(third_shell_tensor()),
    st.builds(HyperfineTensor, st.floats(0.3, 20.0), st.floats(0.3, 20.0),
              st.floats(0.0, 180.0), st.floats(0.0, 360.0)))


@st.composite
def registers(draw, max_nuclei=4, min_nuclei=0):
    """Registers of min_nuclei to max_nuclei nuclei; some repeat a tensor,
    which makes equivalent nuclei with symmetry-mixed, unaddressable
    levels."""
    hyperfine = draw(st.lists(_tensors, min_size=min_nuclei,
                              max_size=max_nuclei))
    if len(hyperfine) >= 2 and draw(st.booleans()):
        hyperfine[1] = hyperfine[0]
    direction = draw(st.sampled_from([(1.0, 1.0, 1.0), (0.0, 0.0, 1.0),
                                      (1.0, -0.3, 0.2)]))
    spec = SpinSystemSpec(zfs=ZfsParams.along((1.0, 1.0, 1.0)),
                          field=ZeemanField.along(direction,
                                                  draw(st.floats(0.0, 300.0))),
                          hyperfine=tuple(hyperfine))
    return Register(spec)


def _allowed_pairs(reg, channel):
    """Pairs the channel's selection rule allows, by the labels alone."""
    return [(i, j) for i in range(reg.dim) for j in range(reg.dim)
            if i != j and (reg.labels[i][0] == reg.labels[j][0]
                           if channel == "rf"
                           else abs(reg.labels[i][0] - reg.labels[j][0]) == 1)
            and sum(a != b for a, b in zip(reg.labels[i][1],
                                           reg.labels[j][1]))
            == (1 if channel == "rf" else 0)]


@st.composite
def pulses_on(draw, reg):
    """A pulse on reg: often on a pair the selection rules allow, sometimes
    on any pair or out of range; with or without a control."""
    channel = draw(st.sampled_from(pulses_mod.CHANNELS))
    allowed = _allowed_pairs(reg, channel)
    if allowed and draw(st.integers(0, 3)):
        i, j = draw(st.sampled_from(allowed))
    else:
        i = draw(st.integers(0, reg.dim))
        j = draw(st.integers(0, reg.dim).filter(lambda x: x != i))
    control = draw(st.one_of(st.none(), st.tuples(
        st.integers(0, reg.n_nuclei), st.integers(0, 1))))
    duration = draw(st.one_of(st.none(), st.floats(0.5, 5.0)))
    return Pulse(channel, i, j, draw(st.floats(-7.0, 7.0)),
                 draw(st.floats(0.0, 6.3)), duration, control)


def _outcome(fn, *args):
    try:
        fn(*args)
    except ValidationError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=40, deadline=None)
@given(reg=registers())
def test_labels_match_reference(reg):
    labels, overlap, contrast = reference_labels(reg)
    assert reg.labels == labels
    assert np.array_equal(reg.label_overlap, overlap)
    assert np.array_equal(reg.label_contrast, contrast)


def _projector(v):
    return np.outer(v, v.conj())


@settings(max_examples=40, deadline=None)
@given(reg=registers())
def test_spinors_match_per_nucleus_reference(reg):
    """The stacked single-nucleus solve gives each nucleus the spinors of
    its own build_hamiltonian + diagonalize, up to phase."""
    spinors = reg._nuclear_spinors(reg._electron_states())
    assert spinors.shape == (reg.n_nuclei, 3, 2, 2)
    for q, by_ms in enumerate(reference_spinors(reg.spec)):
        for m, ms in enumerate((1, 0, -1)):
            for b in (0, 1):
                np.testing.assert_allclose(
                    _projector(spinors[q, m, :, b]), _projector(by_ms[ms][b]),
                    rtol=0, atol=1e-12)


def test_exact_label_ties_go_to_the_lower_comparison_state():
    """At zero field, three equal first-shell nuclei give levels whose
    overlaps with two comparison states are exactly equal; the labels take
    such ties in (overlap descending, comparison state, level) order, and
    the reversed tie order would label this register differently."""
    reg = Register(SpinSystemSpec(
        zfs=ZfsParams.along((1.0, 1.0, 1.0)),
        field=ZeemanField.along((0.0, 0.0, 1.0), 0.0),
        hyperfine=(first_shell_tensor(120.0),) * 3 + (first_shell_tensor(),)))
    labels, overlap, contrast = reference_labels(reg)
    assert reg.labels == labels
    assert np.array_equal(reg.label_overlap, overlap)
    assert np.array_equal(reg.label_contrast, contrast)
    assert reference_labels(reg, reverse_ties=True)[0] != labels


@settings(max_examples=60, deadline=None)
@given(data=st.data(), reg=registers(max_nuclei=3),
       tol=st.sampled_from([None, 1e-3, 0.3, 3.0, 20.0]))
def test_validation_matches_reference(data, reg, tol):
    with pytest.MonkeyPatch.context() as mp:
        if tol is not None:
            mp.setattr(pulses_mod, "DEGENERACY_TOL_MHZ", tol)
        for _ in range(5):
            pulse = data.draw(pulses_on(reg))
            assert _outcome(pulses_mod._validate_target, reg, pulse) \
                == _outcome(reference_validate, reg, pulse)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), reg=registers(max_nuclei=3))
def test_pulses_unitary_and_state_stays_physical(data, reg):
    state = reg.mixed_nuclei_state(0)
    for _ in range(6):
        pulse = data.draw(pulses_on(reg))
        if _outcome(reference_validate, reg, pulse) is not None:
            with pytest.raises(ValidationError):
                pulse_unitary(reg, pulse)
            continue
        u = pulse_unitary(reg, pulse)
        assert np.max(np.abs(u @ u.conj().T - np.eye(reg.dim))) <= 1e-12
        state = run_sequence(state, [pulse, Wait(data.draw(
            st.floats(0.0, 3.0)))])
        rho = state.rho
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-12


@st.composite
def sequences(draw, reg):
    """Ideal and finite MW/RF pulses on pairs the reference lets through,
    and waits that include Wait(0)."""
    usable = [(ch, i, j) for ch in pulses_mod.CHANNELS
              for i, j in _allowed_pairs(reg, ch)
              if _outcome(reference_validate, reg, Pulse(ch, i, j, 1.0))
              is None]
    waits = st.builds(Wait, st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    if not usable:
        return draw(st.lists(waits, max_size=4))
    pulses = st.builds(
        lambda target, th, ph, dur: Pulse(*target, th, ph, dur),
        st.sampled_from(usable), st.floats(-7.0, 7.0), st.floats(0.0, 6.3),
        st.one_of(st.none(), st.floats(0.5, 5.0)))
    return draw(st.lists(st.one_of(pulses, waits), max_size=10))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), reg=registers(min_nuclei=1),
       seed=st.integers(0, 2 ** 32 - 1))
def test_run_sequence_matches_dense_reference(data, reg, seed):
    items = data.draw(sequences(reg))
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(reg.dim, reg.dim)) \
        + 1j * rng.normal(size=(reg.dim, reg.dim))
    rho = a @ a.conj().T
    state = RegisterState(reg, rho / np.trace(rho))
    before = state.rho.copy()
    out = run_sequence(state, items).rho
    assert np.array_equal(state.rho, before)
    assert np.max(np.abs(out - reference_evolve(reg, before, items))) \
        <= 1e-12
    # the dense public unitaries embed the same per-item update
    for item in items:
        state = state.evolved(free_unitary(reg, item.t_us)
                              if isinstance(item, Wait)
                              else pulse_unitary(reg, item))
    assert np.max(np.abs(state.rho - out)) <= 1e-12
    assert abs(np.trace(out) - 1.0) <= 1e-12
    assert np.max(np.abs(out - out.conj().T)) <= 1e-12
    assert abs(np.trace(out @ out) - np.trace(before @ before)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(data=st.data(), reg=registers(max_nuclei=3))
def test_register_built_states_are_density_matrices(data, reg):
    ms = data.draw(st.sampled_from((1, 0, -1)))
    bits = data.draw(st.tuples(*[st.integers(0, 1)] * reg.n_nuclei))
    for state in (reg.pure_state(ms, bits), reg.mixed_nuclei_state(ms)):
        rho = state.rho
        assert np.array_equal(rho, rho.conj().T)
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.min(np.linalg.eigvalsh(rho)) >= 0.0
        RegisterState(reg, rho)  # passes every check of a supplied rho
