"""Decay models, the LM fitter, Bell dephasing rules and bath ensembles."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nvbath.constants import NN_DIPOLAR_KHZ_A3
from nvbath.decoherence import (
    BATH_CHUNK_SAMPLES,
    MIN_BATH_SAMPLES,
    MIN_FIT_POINTS,
    MODELS,
    REFERENCE_T2_SCALING_POINTS,
    DecayCurve,
    PairCouplings,
    _occupied_cells,
    bell_t2star_from_sq,
    echo_model,
    fid_model,
    fit_decay,
    fit_envelope_rate,
    fit_t2_scaling,
    pair_couplings,
    simulate_bath_fid,
)
from nvbath.errors import FitError, ValidationError
from nvbath.lattice import classify_shells, generate_lattice


def test_model_values_oracle():
    t = np.array([0.0, 13.3, 26.6])
    y = fid_model(t, 13.3, 0.0, 0.7, 0.25)
    assert abs(y[0] - 0.95) <= 1e-15
    assert abs(y[1] - (0.25 + 0.7 / math.e)) <= 1e-12
    assert abs(y[2] - (0.25 + 0.7 * math.exp(-4.0))) <= 1e-12
    # oscillation: cos factor at the detuning period
    dom = 2.0 * math.pi / 5.0
    yo = fid_model(np.array([5.0]), 1e9, dom, 1.0, 0.0)
    assert abs(yo[0] - 1.0) <= 1e-9
    e = echo_model(np.array([0.0, 0.65]), 0.65, 0.5, 0.5)
    assert abs(e[0] - 1.0) <= 1e-15
    assert abs(e[1] - (0.5 + 0.5 / math.e)) <= 1e-12


def test_noiseless_fid_recovery():
    t = np.linspace(0.0, 40.0, 160)
    true = (13.3, 2.0 * math.pi * 0.37, 0.8, 0.12)
    curve = DecayCurve(t_us=t, signal=fid_model(t, *true))
    fit = fit_decay(curve, "fid")
    names = ("t2star_us", "domega_rad_us", "amplitude", "offset")
    for name, want in zip(names, true):
        assert abs(fit.params[name] - want) <= 1e-6 * abs(want)
    assert fit.model == "fid"
    assert fit.gradient_norm <= 1e-10


def test_noiseless_echo_recovery():
    t = np.linspace(0.0, 2.0, 80)
    true = (0.65, 0.45, 0.5)
    curve = DecayCurve(t_us=t, signal=echo_model(t, *true))
    fit = fit_decay(curve, "echo")
    for name, want in zip(("t2_us", "amplitude", "offset"), true):
        assert abs(fit.params[name] - want) <= 1e-6 * abs(want)


def test_jacobian_matches_finite_differences():
    t = np.linspace(0.05, 30.0, 23)
    for model, params in (("fid", (11.0, 0.9, 0.8, 0.1)),
                          ("echo", (0.9, 0.6, 0.35))):
        spec = MODELS[model]
        jac = spec["jac"](t, np.array(params))
        eps = 1e-7
        for k in range(len(params)):
            up = np.array(params, dtype=float)
            dn = up.copy()
            up[k] += eps * max(abs(up[k]), 1.0)
            dn[k] -= eps * max(abs(dn[k]), 1.0)
            fd = (spec["fn"](t, up) - spec["fn"](t, dn)) \
                / (up[k] - dn[k])
            np.testing.assert_allclose(jac[:, k], fd, rtol=2e-6, atol=2e-6)


def test_fit_sigma_brackets_noise():
    gen = np.random.Generator(np.random.Philox(key=5))
    t = np.linspace(0.0, 40.0, 200)
    clean = fid_model(t, 13.3, 0.0, 0.8, 0.1)
    curve = DecayCurve(t_us=t, signal=clean + gen.normal(0.0, 0.01, t.shape))
    fit = fit_decay(curve, "fid")
    t2 = fit.params["t2star_us"]
    s = fit.sigmas["t2star_us"]
    assert abs(t2 - 13.3) <= 4.0 * max(s, 1e-12)
    assert s > 0
    assert fit.covariance.shape == (4, 4)


def test_fit_needs_enough_points():
    t = np.linspace(0.0, 5.0, MIN_FIT_POINTS - 1)
    with pytest.raises(ValidationError):
        fit_decay(DecayCurve(t_us=t, signal=np.ones_like(t)), "fid")
    with pytest.raises(ValidationError):
        fit_decay(DecayCurve(t_us=np.linspace(0, 1, 12),
                             signal=np.zeros(12)), "nonesuch")


def test_constant_data_raises_fit_error():
    t = np.linspace(0.0, 10.0, 40)
    curve = DecayCurve(t_us=t, signal=np.full_like(t, 0.5))
    # FlatSignalError is a FitError, so callers mapping FitError to a
    # numeric-failure exit code cover the degenerate input too
    with pytest.raises(FitError):
        fit_decay(curve, "echo")


def test_decay_curve_validation():
    with pytest.raises(ValidationError):
        DecayCurve(t_us=np.array([0.0, 1.0, 1.0]),
                   signal=np.array([1.0, 0.5, 0.2]))
    with pytest.raises(ValidationError):
        DecayCurve(t_us=np.array([0.0, 1.0]), signal=np.array([1.0]))


def test_bell_rules_linear():
    res = bell_t2star_from_sq(41.1, 15.8)
    assert abs(res.t_phi_us - 11.4127) <= 5e-4
    assert abs(res.t_psi_us - 25.6672) <= 5e-4
    # ordering: T_phi < min(T1, T2) < T_psi
    assert res.t_phi_us < 15.8 < res.t_psi_us
    # exact rate algebra
    r_phi, r_psi = 1.0 / res.t_phi_us, 1.0 / res.t_psi_us
    assert abs((r_phi + r_psi) - 2.0 / 15.8) <= 1e-12
    assert abs((r_phi - r_psi) - 2.0 / 41.1) <= 1e-12


def test_bell_rules_equal_inputs():
    res = bell_t2star_from_sq(22.0, 22.0)
    assert res.t_psi_us is None
    assert abs(res.t_phi_us - 11.0) <= 1e-12


def test_bell_rules_validation():
    for bad in (-1.0, 0.0, math.nan, math.inf):
        for args in ((bad, 5.0), (5.0, bad)):
            with pytest.raises(ValidationError, match="positive and finite"):
                bell_t2star_from_sq(*args)


def test_scaling_fit_exact_and_doubling():
    c_true = 0.0071
    ns = np.array([0.002, 0.0035, 0.011, 0.02])
    t2 = c_true / ns
    model = fit_t2_scaling(ns, t2)
    assert abs(model.c - c_true) <= 1e-12
    doubled = fit_t2_scaling(ns, 2.0 * t2)
    assert abs(doubled.c - 2.0 * c_true) <= 1e-12


def test_scaling_fit_reference_points():
    (n1, t1), (n2, t2) = REFERENCE_T2_SCALING_POINTS
    model = fit_t2_scaling([n1, n2], [t1, t2])
    assert abs(model.c - 0.0067115) <= 1e-6
    for n, t in REFERENCE_T2_SCALING_POINTS:
        assert abs(model.predict(n) - t) / t <= 0.35


def test_scaling_fit_validation():
    with pytest.raises(ValidationError):
        fit_t2_scaling([0.01], [1.0])
    with pytest.raises(ValidationError):
        fit_t2_scaling([0.01, -0.02], [1.0, 2.0])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="positive and finite"):
            fit_t2_scaling([0.01, bad], [1.0, 2.0])
        with pytest.raises(ValidationError, match="positive and finite"):
            fit_t2_scaling([0.01, 0.02], [1.0, bad])


def test_envelope_rate_fit():
    t = np.linspace(0.0, 6.0, 120)
    r_true = 0.8
    curve = DecayCurve(t_us=t, signal=np.exp(-r_true * t))
    assert abs(fit_envelope_rate(curve) - r_true) <= 1e-9
    with pytest.raises(ValidationError):
        fit_envelope_rate(DecayCurve(t_us=t, signal=np.full_like(t, 1e-4)))


def _two_site_couplings(c1, c2):
    return PairCouplings(c1_khz=np.asarray(c1, dtype=float),
                         c2_khz=np.asarray(c2, dtype=float),
                         near_radius_angstrom=10.0)


def test_bath_envelope_product_oracle():
    # independent-spin average: env(t) = prod_k cos(omega_k t / 2)
    c1 = np.array([3.0, 7.0])
    couplings = _two_site_couplings(c1, np.zeros_like(c1))
    t = np.linspace(0.0, 0.4, 9) * 1e3  # us; couplings in kHz
    env = simulate_bath_fid(couplings, "sq1", t, n_samples=60000, seed=4)
    omega = 2.0e-3 * math.pi * c1  # rad/us
    expect = np.prod(np.cos(np.outer(omega, t) / 2.0), axis=0)
    assert abs(env.signal[0] - 1.0) <= 1e-12
    np.testing.assert_allclose(env.signal, expect, atol=0.02)


def test_bath_envelope_occupancy_oracle():
    # Bernoulli occupation p: env(t) = prod_k (1 - p + p cos(omega_k t / 2))
    c1 = np.array([5.0, 11.0])
    couplings = _two_site_couplings(c1, np.zeros_like(c1))
    t = np.linspace(0.0, 0.3, 7) * 1e3
    p = 0.4
    env = simulate_bath_fid(couplings, "sq1", t, n_samples=60000, seed=9,
                            occupancy=p)
    omega = 2.0e-3 * math.pi * c1
    expect = np.prod(1.0 - p + p * np.cos(np.outer(omega, t) / 2.0), axis=0)
    np.testing.assert_allclose(env.signal, expect, atol=0.02)


def test_psi_immune_to_correlated_couplings():
    c = np.array([4.0, 9.0, 1.5])
    couplings = _two_site_couplings(c, c.copy())
    t = np.linspace(0.0, 2.0, 11) * 1e3
    env = simulate_bath_fid(couplings, "psi", t, n_samples=200, seed=1)
    np.testing.assert_allclose(env.signal, 1.0, rtol=0, atol=1e-9)
    # while phi dephases twice as fast as either single-quantum coherence
    phi = simulate_bath_fid(couplings, "phi", t, n_samples=200, seed=1)
    assert phi.signal.min() < 0.9


def test_bath_simulation_validation(monkeypatch):
    # every input is checked before the random stream is opened
    def no_draw(*args, **kwargs):
        raise AssertionError("random stream opened before validation")

    monkeypatch.setattr(np.random, "Philox", no_draw)
    couplings = _two_site_couplings([1.0, 2.0], [0.0, 3.0])
    t = np.linspace(0.0, 1.0, 5)
    for kwargs in ({"kind": "dq"}, {"n_samples": 10}, {"t_us": t[::-1]},
                   {"occupancy": 1.5}, {"occupancy": math.nan},
                   {"n_samples": 150.5}, {"seed": -1}, {"seed": 2 ** 128},
                   {"seed": 2.5},
                   {"t_us": [0.0, math.inf]},
                   {"couplings": _two_site_couplings([1.0, math.nan],
                                                     [0.0, 3.0])}):
        args = {"couplings": couplings, "kind": "phi", "t_us": t, **kwargs}
        with pytest.raises(ValidationError):
            simulate_bath_fid(**args)


_WEIGHTS = {"sq1": (1, 0), "sq2": (0, 1), "phi": (1, 1), "psi": (1, -1)}


def test_uncoupled_sites_do_not_change_the_draw():
    c1 = np.array([3.0, 0.0, 7.0, 1.5])
    c2 = np.array([0.5, 2.0, 0.0, 4.0])
    t = np.linspace(0.0, 2.0, 21) * 1e3
    padded = _two_site_couplings(np.insert(c1, [0, 2, 2, 4], 0.0),
                                 np.insert(c2, [0, 2, 2, 4], 0.0))
    for kind in _WEIGHTS:
        for occ in (None, 0.3):
            want = simulate_bath_fid(_two_site_couplings(c1, c2), kind, t,
                                     n_samples=300, seed=5, occupancy=occ)
            got = simulate_bath_fid(padded, kind, t, n_samples=300, seed=5,
                                    occupancy=occ)
            assert np.array_equal(got.signal, want.signal)


def _reference_spins(seed, n_samples, n_sites, p):
    # the draw rebuilt from its contract: per chunk of BATH_CHUNK_SAMPLES
    # samples, geometric gaps 1 + floor(log1p(-u) / log1p(-p)) over the flat
    # (sample, site) grid, drawn in batches of int(mu + 3 sqrt(mu)) + 1
    # until they pass the last cell, then one uniform per occupied cell in
    # cell order: +1/2 below 1/2, -1/2 otherwise
    gen = np.random.Generator(np.random.Philox(key=seed))
    chunks = []
    for start in range(0, n_samples, BATH_CHUNK_SAMPLES):
        cells = min(BATH_CHUNK_SAMPLES, n_samples - start) * n_sites
        occupied, edge = [], 0
        while edge < cells:
            mu = p * (cells - edge)
            u = gen.random(int(mu + 3 * math.sqrt(mu)) + 1)
            for gap in np.floor(np.log1p(-u) / math.log1p(-p)) + 1:
                edge += int(gap)
                if edge <= cells:
                    occupied.append(edge - 1)
        chunk = np.zeros(cells)
        chunk[occupied] = np.where(gen.random(len(occupied)) < 0.5, 0.5, -0.5)
        chunks.append(chunk.reshape(-1, n_sites))
    return np.vstack(chunks)


def test_draw_is_gaps_then_signs_chunk_by_chunk():
    c1 = np.array([3.0, 0.0, 7.0, 1.5, 0.2])
    c2 = np.array([0.5, 2.0, 0.0, 4.0, 0.0])
    t = np.linspace(0.0, 3.0, 31) * 1e3
    n, p, seed = 2 * BATH_CHUNK_SAMPLES + 37, 0.4, 13
    # every site is coupled to a nucleus, so every kind draws all five
    spins = _reference_spins(seed, n, 5, p)
    for kind, (w1, w2) in _WEIGHTS.items():
        env = simulate_bath_fid(_two_site_couplings(c1, c2), kind, t,
                                n_samples=n, seed=seed, occupancy=p)
        theta = spins @ (2.0e-3 * math.pi * (w1 * c1 + w2 * c2))
        dense = np.cos(np.outer(theta, t)).mean(axis=0)
        np.testing.assert_allclose(env.signal, dense, rtol=0, atol=1e-12)
        assert env.signal[0] == 1.0


def test_draw_memory_follows_the_occupied_cells():
    # 256 samples x 20,000 coupled sites: a dense (sample, site) chunk
    # alone would take 41 MB; at p = 0.01 about 51k cells are occupied
    c1 = np.random.Generator(np.random.Philox(key=8)).uniform(0.1, 5.0, 20000)
    couplings = _two_site_couplings(c1, np.zeros_like(c1))
    t = np.linspace(0.0, 4000.0, 161)
    tracemalloc.start()
    try:
        simulate_bath_fid(couplings, "sq1", t, n_samples=BATH_CHUNK_SAMPLES,
                          seed=3, occupancy=0.01)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


def test_occupied_cell_count_is_binomial():
    cells, p, draws = 1000, 0.05, 10000
    gen = np.random.Generator(np.random.Philox(key=3))
    counts = np.empty(draws)
    for k in range(draws):
        occ = _occupied_cells(gen, cells, p)
        assert occ[0] >= 0 and occ[-1] < cells and np.all(np.diff(occ) > 0)
        counts[k] = occ.size
    mean, var = cells * p, cells * p * (1 - p)
    assert abs(counts.mean() - mean) <= 5 * math.sqrt(var / draws)
    assert abs(counts.var(ddof=1) / var - 1) <= 5 * math.sqrt(2 / draws)


def test_occupied_cells_top_up_until_every_cell_is_passed():
    class Zeros:
        # u = 0 makes every gap 1, so each batch fills as many cells as it
        # has gaps and the batches must top up to reach the last cell
        def random(self, k):
            return np.zeros(k)

    assert np.array_equal(_occupied_cells(Zeros(), 1000, 0.05),
                          np.arange(1000))


def test_full_and_empty_bath_edges():
    t = np.linspace(0.0, 3.0, 31) * 1e3
    one_site = _two_site_couplings([7.3], [0.0])
    omega = 2.0e-3 * math.pi * 7.3
    for occ in (None, 1.0):
        # every sample holds the spin at +-1/2, so each one is cos(omega t/2);
        # only the rounding of the sample sum is left
        env = simulate_bath_fid(one_site, "sq1", t, n_samples=300, seed=2,
                                occupancy=occ)
        np.testing.assert_allclose(env.signal, np.cos(0.5 * omega * t),
                                   rtol=0, atol=1e-14)
    empty = simulate_bath_fid(_two_site_couplings([3.0, 7.0], [0.5, 0.0]),
                              "phi", t, n_samples=300, seed=2, occupancy=0.0)
    assert np.all(empty.signal == 1.0)


def test_bath_without_coupled_sites_is_exactly_one():
    t = np.linspace(0.0, 3.0, 31) * 1e3
    for couplings in (_two_site_couplings([], []),
                      _two_site_couplings([0.0, 0.0], [0.0, 0.0])):
        for occ in (None, 1.0, 0.0, 0.011, 0.3, 0.6):
            for kind in _WEIGHTS:
                env = simulate_bath_fid(couplings, kind, t, n_samples=300,
                                        seed=5, occupancy=occ)
                assert np.all(env.signal == 1.0)


def test_full_occupancy_draws_no_gaps():
    class NoDraws:
        def random(self, k):
            raise AssertionError("p = 1 needs no gaps")

    assert np.array_equal(_occupied_cells(NoDraws(), 7, 1.0), np.arange(7))


@settings(max_examples=60, deadline=None)
@given(p=st.floats(0.0, 1.0), kind=st.sampled_from(sorted(_WEIGHTS)),
       seed=st.integers(0, 2 ** 128 - 1))
def test_envelope_starts_at_one_and_stays_bounded(p, kind, seed):
    couplings = _two_site_couplings([3.0, 0.0, 7.0, 1.5], [0.5, 2.0, 0.0, 4.0])
    t = np.linspace(0.0, 3.0, 31) * 1e3
    env = simulate_bath_fid(couplings, kind, t, n_samples=MIN_BATH_SAMPLES,
                            seed=seed, occupancy=p)
    assert env.signal[0] == 1.0
    assert np.all(np.abs(env.signal) <= 1.0)


def test_bath_envelope_within_standard_errors_of_exact_product():
    # independent sites, each +-1/2 with probability p/2: the ensemble mean
    # of cos(theta t) is E(t) = prod_k [(1 - p) + p cos(omega_k t / 2)],
    # and the variance of one sample is (1 + E(2t)) / 2 - E(t)^2
    sites = classify_shells(generate_lattice(10.0))
    pos = np.array([s.position for s in sites])
    shells = np.array([s.shell for s in sites])
    i1 = int(np.flatnonzero(shells == 1)[0])
    i3 = int(np.flatnonzero(shells == 3)[0])
    cpl = pair_couplings(np.delete(pos, [i1, i3], axis=0), pos[i1], pos[i3],
                         near_radius_angstrom=10.0)
    t = np.linspace(0.0, 4000.0, 161)
    p, n = 0.03, 1000

    def exact(omega, times):
        return np.prod((1 - p) + p * np.cos(np.outer(times, omega) / 2),
                       axis=1)

    for kind, (w1, w2) in _WEIGHTS.items():
        omega = 2.0e-3 * math.pi * (w1 * cpl.c1_khz + w2 * cpl.c2_khz)
        e1, e2 = exact(omega, t), exact(omega, 2 * t)
        se = np.sqrt(np.maximum((1 + e2) / 2 - e1 * e1, 0.0) / n)
        env = simulate_bath_fid(cpl, kind, t, n_samples=n, seed=11,
                                occupancy=p)
        assert env.signal[0] == 1.0
        assert np.all(np.abs(env.signal - e1) <= 6 * se + 1e-12), kind


def test_pair_couplings_geometry():
    positions = np.array([[1.0, 0.0, 0.0], [0.0, 5.0, 0.0],
                          [30.0, 0.0, 0.0]])
    pc = pair_couplings(positions, (0.0, 0.0, 0.0), (0.0, 4.0, 0.0),
                        near_radius_angstrom=10.0)
    k = NN_DIPOLAR_KHZ_A3
    assert abs(pc.c1_khz[0] - k) <= 1e-12 * k
    assert pc.c1_khz[2] == 0.0  # beyond the near radius
    assert abs(pc.c2_khz[1] - k) <= 1e-12 * k
    assert len(pc) == 3
    with pytest.raises(ValidationError):
        pair_couplings(positions, (1.0, 0.0, 0.0), (0.0, 4.0, 0.0))
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="near radius"):
            pair_couplings(positions, (0.0, 0.0, 0.0), (0.0, 4.0, 0.0),
                           near_radius_angstrom=radius)
    nan_site = positions.copy()
    nan_site[2, 1] = math.nan
    for args in ((nan_site, (0.0, 0.0, 0.0), (0.0, 4.0, 0.0)),
                 (positions, (0.0, math.nan, 0.0), (0.0, 4.0, 0.0)),
                 (positions, (0.0, 0.0, 0.0), (math.inf, 4.0, 0.0))):
        with pytest.raises(ValidationError, match="must be finite"):
            pair_couplings(*args)
