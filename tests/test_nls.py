"""One-particle cubic solver: exact solutions, conservation, hierarchy."""

import dataclasses
import math

import numpy as np
import pytest

from boselab import nls
from boselab.grid import Grid1D, GridError, kinetic_symbol, trap_potential
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


def test_problem_validation():
    g = Grid1D(16, 4.0)
    with pytest.raises(GridError):
        NLSProblem(g, b0=-1.0)
    with pytest.raises(GridError):
        NLSProblem(g, b0=1.0, omega=-1.0)
    # the trapped cubic equation only: no lens side, no kinetic switch
    assert [f.name for f in dataclasses.fields(NLSProblem)] == [
        "grid", "b0", "omega"]


def test_kinetic_symbol_convention():
    # the solver's one-particle operator is -d^2/2 + omega^2 x^2/2
    g = Grid1D(16, 4.0)
    assert np.allclose(kinetic_symbol(g), 0.5 * g.k ** 2)
    assert np.allclose(trap_potential(g, 2.0), 2.0 * g.x ** 2)
    assert np.all(trap_potential(g, 0.0) == 0.0)


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
