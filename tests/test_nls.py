"""One-particle cubic solver: exact solutions, conservation, hierarchy."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from boselab import nls
from boselab.grid import Grid1D, GridError
from boselab.nls import (
    BlowupDetected,
    NLSProblem,
    evolve_nls,
    mass,
    nls_energy,
    nls_residual,
    soliton,
    trap_ground_state,
)
from boselab.potentials import lens_damping


def test_problem_validation():
    g = Grid1D(16, 4.0)
    with pytest.raises(GridError):
        NLSProblem(g, b0=-1.0)
    with pytest.raises(GridError):
        NLSProblem(g, b0=1.0, omega=-1.0)
    with pytest.raises(GridError):
        NLSProblem(g, b0=1.0, side="chair")


def test_kinetic_symbol_convention():
    g = Grid1D(16, 4.0)
    assert np.allclose(NLSProblem(g, 1.0).kinetic_symbol(), 0.5 * g.k ** 2)
    assert np.allclose(
        NLSProblem(g, 1.0, half_kinetic=False).kinetic_symbol(), g.k ** 2)
    # trap multiplies only on the trapped side
    assert np.allclose(NLSProblem(g, 1.0, omega=2.0).trap_values(),
                       2.0 * g.x ** 2)
    assert np.allclose(
        NLSProblem(g, 1.0, omega=2.0, side="lens").trap_values(), 0.0)


def test_coupling_integral_closed_form():
    g = Grid1D(16, 4.0)
    lensed = NLSProblem(g, b0=1.0, omega=1.3, side="lens")
    ref, err = quad(lambda t: lens_damping(1.3, t), 0.2, 1.7)
    assert err < 1e-12
    assert lensed.coupling_integral(0.2, 1.7) == pytest.approx(ref, rel=1e-12)
    # trapped side integrates the constant weight
    trapped = NLSProblem(g, b0=1.0, omega=1.3)
    assert trapped.coupling_integral(0.2, 1.7) == pytest.approx(1.5)


def test_soliton_profile_and_validation():
    g = Grid1D(256, 16.0)
    phi = soliton(g, b0=2.0)
    assert mass(g, phi) == pytest.approx(1.0, rel=1e-10)
    amp = math.sqrt(2.0) / 2.0
    assert np.max(np.abs(phi)) == pytest.approx(amp, rel=1e-12)
    with pytest.raises(GridError):
        soliton(g, 0.0)


def test_soliton_evolution_matches_analytic_solution():
    # the soliton is an exact orbit: only its phase rotates
    g = Grid1D(256, 16.0)
    problem = NLSProblem(g, b0=2.0)
    traj = evolve_nls(problem, soliton(g, 2.0, 0.0), 1e-3, 1000,
                      store_every=100)
    err = float(np.max(np.abs(traj.fields[-1] - soliton(g, 2.0, 1.0))))
    assert err < 1e-6
    assert traj.max_mass_drift() < 1e-12
    assert traj.max_energy_drift() < 1e-8
    assert traj.fields.shape == (11, 256)
    assert np.allclose(np.diff(traj.times), 0.1)


def test_plane_wave_exact_solution():
    # A e^{i(k0 x - mu t)} with mu = k0^2/2 - b0 A^2 solves the equation
    g = Grid1D(64, 8.0)
    k0 = g.k[1]
    amp, b0 = 0.3, 1.5
    problem = NLSProblem(g, b0=b0)
    phi0 = amp * np.exp(1j * k0 * g.x)
    traj = evolve_nls(problem, phi0, 1e-3, 200, store_every=1)
    mu = 0.5 * k0 ** 2 - b0 * amp ** 2
    exact = amp * np.exp(1j * (k0 * g.x - mu * 0.2))
    assert np.max(np.abs(traj.fields[-1] - exact)) < 1e-12
    assert nls_residual(traj) < 1e-9


def test_residual_is_second_order_in_dt():
    g = Grid1D(256, 16.0)
    problem = NLSProblem(g, b0=2.0)
    res = []
    for dt in (2e-3, 1e-3):
        traj = evolve_nls(problem, soliton(g, 2.0, 0.0), dt,
                          int(round(0.04 / dt)), store_every=1)
        res.append(nls_residual(traj))
    assert 3.5 <= res[0] / res[1] <= 4.5


def test_residual_index_validation():
    g = Grid1D(64, 8.0)
    problem = NLSProblem(g, b0=1.0)
    short = evolve_nls(problem, soliton(g, 1.0), 1e-3, 2, store_every=2)
    with pytest.raises(GridError):
        nls_residual(short)


def test_trap_ground_state_energy_and_stationarity():
    g = Grid1D(64, 8.0)
    for omega in (1.0, 2.0):
        phi, energy = trap_ground_state(g, omega)
        assert energy == pytest.approx(omega / 2.0, abs=1e-12)
        assert mass(g, phi) == pytest.approx(1.0, rel=1e-12)
        # phase fixed: the peak value is real positive
        peak = phi[int(np.argmax(np.abs(phi)))]
        assert abs(peak.imag) < 1e-14 and peak.real > 0
    phi, _ = trap_ground_state(g, 1.0)
    problem = NLSProblem(g, b0=0.0, omega=1.0)
    traj = evolve_nls(problem, phi, 1e-3, 500, store_every=500)
    overlap = abs(g.h * np.sum(np.conj(traj.fields[-1]) * phi))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_blowup_guard_triggers(monkeypatch):
    g = Grid1D(256, 16.0)
    problem = NLSProblem(g, b0=2.0)
    # soliton peak density is b0/4 = 0.5; a ceiling below that trips
    monkeypatch.setattr(nls, "DENSITY_CEILING", 0.1)
    with pytest.raises(BlowupDetected, match="ceiling"):
        evolve_nls(problem, soliton(g, 2.0), 1e-3, 10)


def test_blowup_guard_catches_nan_orbital():
    # NaN fails every comparison with the ceiling, so it needs its own test
    g = Grid1D(64, 8.0)
    phi = soliton(g, 1.0)
    phi[10] = np.nan
    with pytest.raises(BlowupDetected, match="nan"):
        evolve_nls(NLSProblem(g, b0=1.0), phi, 1e-3, 5)


def test_evolve_validation():
    g = Grid1D(64, 8.0)
    problem = NLSProblem(g, b0=1.0)
    with pytest.raises(GridError):
        evolve_nls(problem, np.ones(32, dtype=complex), 1e-3, 2)
    with pytest.raises(GridError):
        evolve_nls(problem, soliton(g, 1.0), -1e-3, 2)
    with pytest.raises(GridError):
        evolve_nls(problem, soliton(g, 1.0), 1e-3, 0)


def test_energy_functional_signs():
    g = Grid1D(256, 16.0)
    problem = NLSProblem(g, b0=2.0)
    phi = soliton(g, 2.0)
    e = nls_energy(problem, phi)
    dphi = np.fft.ifft(1j * g.k * np.fft.fft(phi))
    kin = 0.5 * g.h * float(np.sum(np.abs(dphi) ** 2))
    quart = -0.5 * 2.0 * g.h * float(np.sum(np.abs(phi) ** 4))
    assert e == pytest.approx(kin + quart, rel=1e-12)
    assert quart < 0  # focusing sign
