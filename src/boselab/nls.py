"""Focusing cubic NLS solver for the trapped target equation

    i d/dt phi = (-d^2/2 + omega^2 x^2 / 2) phi - b0 |phi|^2 phi,

whose conserved energy is E[phi] = int |phi'|^2/2 + omega^2 x^2 |phi|^2 / 2
- (b0/2) |phi|^4 dx.  The kinetic symbol k^2/2 and the trap are those of
grid (kinetic_symbol, trap_potential).  The flat lens-side flow is this
equation at omega = 0, and at b0 = 0 it is the free flow that the lens
suite maps onto the trapped linear flow (boselab.lens).

The solver is Strang splitting from time 0.  The nonlinear/potential
phase is exact within each substep because the modulus is invariant
under a pure phase multiplication.

For omega = 0 the equation is i d/dt phi = -phi''/2 - b0 |phi|^2 phi,
with the normalized soliton

    phi(t, x) = A sech(sqrt(b0) A x) exp(i b0 A^2 t / 2),  A = sqrt(b0)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (Grid1D, GridError, apply_symbol, dense_operator,
                   kinetic_symbol, trap_potential)


class BlowupDetected(RuntimeError):
    """Peak density crossed the collapse ceiling DENSITY_CEILING."""


# evolve_nls halts once max |phi|^2 exceeds this: the focusing equation
# can concentrate, and the ceiling marks where the grid stops resolving it.
DENSITY_CEILING = 1e3


@dataclass(frozen=True)
class NLSProblem:
    """The trapped cubic problem: coupling b0 and trap frequency omega."""

    grid: Grid1D
    b0: float
    omega: float = 0.0

    def __post_init__(self):
        if not 0 <= self.b0 < math.inf:
            raise GridError("focusing coupling b0 must be finite and "
                            "nonnegative")
        if not 0 <= self.omega < math.inf:
            raise GridError("trap frequency must be finite and nonnegative")


def mass(grid: Grid1D, phi: np.ndarray) -> float:
    return float(grid.h * np.sum(np.abs(phi) ** 2))


def nls_energy(problem: NLSProblem, phi: np.ndarray) -> float:
    """The conserved energy functional E[phi]."""
    grid = problem.grid
    dphi = apply_symbol(phi, 1j * grid.k, 0)
    kin = 0.5 * grid.h * float(np.sum(np.abs(dphi) ** 2))
    trap = trap_potential(grid, problem.omega)
    pot = grid.h * float(np.sum(trap * np.abs(phi) ** 2))
    quart = -0.5 * problem.b0 * grid.h * float(np.sum(np.abs(phi) ** 4))
    return kin + pot + quart


@dataclass
class NLSTrajectory:
    problem: NLSProblem
    dt: float
    store_every: int
    times: np.ndarray
    fields: np.ndarray  # shape (n_stored, n)
    masses: np.ndarray
    energies: np.ndarray

    @property
    def store_dt(self) -> float:
        return self.dt * self.store_every

    def max_mass_drift(self) -> float:
        return float(np.max(np.abs(self.masses - self.masses[0])))

    def max_energy_drift(self) -> float:
        scale = max(abs(self.energies[0]), 1e-30)
        return float(np.max(np.abs(self.energies - self.energies[0])) / scale)


def evolve_nls(problem: NLSProblem, phi0: np.ndarray, dt: float, n_steps: int,
               store_every: int = 1) -> NLSTrajectory:
    """Strang propagation from time 0 over n_steps of size dt.

    Propagation halts with BlowupDetected when max |phi|^2 crosses
    DENSITY_CEILING or is not finite.
    """
    grid = problem.grid
    phi = np.asarray(phi0, dtype=np.complex128).copy()
    if phi.shape != (grid.n,):
        raise GridError("phi0 must be a one-particle grid function")
    if dt <= 0 or n_steps < 1 or store_every < 1:
        raise GridError("dt, n_steps, store_every must be positive")

    kin_phase = np.exp(-1j * dt * kinetic_symbol(grid))
    trap = trap_potential(grid, problem.omega)

    times = [0.0]
    fields = [phi.copy()]
    masses = [mass(grid, phi)]
    energies = [nls_energy(problem, phi)]

    t = 0.0
    for step in range(n_steps):
        # the coupling lengths of the two half steps, rounded as the
        # differences of the step's times; the frozen output digests pin
        # these bits, which a plain 0.5 * dt moves
        first = (t + 0.5 * dt) - t
        phi = np.exp(-1j * (0.5 * dt * trap - problem.b0 * first * np.abs(phi) ** 2)) * phi
        phi = apply_symbol(phi, kin_phase, 0)
        second = (t + dt) - (t + 0.5 * dt)
        phi = np.exp(-1j * (0.5 * dt * trap - problem.b0 * second * np.abs(phi) ** 2)) * phi
        t = (step + 1) * dt

        peak = float(np.max(np.abs(phi) ** 2))
        if not math.isfinite(peak):
            raise BlowupDetected(f"peak density is {peak} at t = {t:.6f}")
        if peak > DENSITY_CEILING:
            raise BlowupDetected(
                f"peak density {peak:.3e} exceeded ceiling {DENSITY_CEILING:.3e} "
                f"at t = {t:.6f}"
            )
        if (step + 1) % store_every == 0:
            times.append(t)
            fields.append(phi.copy())
            masses.append(mass(grid, phi))
            energies.append(nls_energy(problem, phi))

    return NLSTrajectory(problem, dt, store_every, np.asarray(times),
                         np.asarray(fields), np.asarray(masses),
                         np.asarray(energies))


def nls_residual(traj: NLSTrajectory) -> float:
    """Max-abs residual of the equation by central time differences, over
    every stored field with stored neighbours on both sides."""
    if len(traj.times) < 3:
        raise GridError("need at least three stored fields")
    problem = traj.problem
    grid = problem.grid
    sym = kinetic_symbol(grid)
    trap = trap_potential(grid, problem.omega)
    worst = 0.0
    for m in range(1, len(traj.times) - 1):
        phi = traj.fields[m]
        dphi_dt = (traj.fields[m + 1] - traj.fields[m - 1]) / (2.0 * traj.store_dt)
        kin = apply_symbol(phi, sym, 0)
        rhs = kin + trap * phi - problem.b0 * np.abs(phi) ** 2 * phi
        worst = max(worst, float(np.max(np.abs(1j * dphi_dt - rhs))))
    return worst


def soliton(grid: Grid1D, b0: float, t: float = 0.0) -> np.ndarray:
    """Unit-mass soliton of the flat focusing equation at time t."""
    if b0 <= 0:
        raise GridError("soliton needs a positive coupling")
    amp = math.sqrt(b0) / 2.0
    profile = amp / np.cosh(math.sqrt(b0) * amp * grid.x)
    return profile * np.exp(0.5j * b0 * amp ** 2 * t)


def trap_ground_state(grid: Grid1D, omega: float) -> tuple[np.ndarray, float]:
    """Lowest eigenpair of the discrete -d^2/2 + omega^2 x^2/2."""
    h1 = dense_operator(grid, kinetic_symbol(grid), trap_potential(grid, omega))
    evals, evecs = np.linalg.eigh(h1)
    phi = evecs[:, 0]
    phi = phi / math.sqrt(grid.h * float(np.sum(np.abs(phi) ** 2)))
    # fix the global phase so the state is mostly real positive
    j = int(np.argmax(np.abs(phi)))
    phi = phi * (abs(phi[j]) / phi[j])
    return phi.astype(np.complex128), float(evals[0])
