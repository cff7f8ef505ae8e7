"""Exact N-boson dynamics under the mean-field Hamiltonian with a trap.

The Hamiltonian on the periodic grid is

    H_N = sum_j (-d^2/dx_j^2 / 2 + omega^2 x_j^2 / 2)
          + (1/N) sum_{i<j} V_N(x_i - x_j),     V_N(x) = N^beta V(N^beta x),

with the time convention i d/dt psi = H_N psi, i.e. psi(t) = exp(-i t H_N)
psi(0).  Propagation is Strang splitting: half potential phase, full
kinetic phase in Fourier space, half potential phase.  The kinetic phase
exp(-i dt sum_j k_j^2 / 2) is precomputed once as one (n,)*N tensor and
every factor is applied in place on a single buffer.  Each factor is
exactly unitary, so the discrete norm is conserved to rounding; the
energy expectation oscillates within O(dt^2) without secular drift.

Also here: the dense Hamiltonian for small tensor grids (oracle and
spectral-cutoff backend), the smooth spectral cutoff used to regularize
rough initial data, and the residual of the trapped BBGKY hierarchy
evaluated on stored trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .grid import Grid1D, GridError, TensorState, apply_symbol, symmetry_residual
from .marginals import partial_trace
from .potentials import PotentialSpec, scaled_potential

DENSE_DIM_CAP = 4096


class NumericalAbort(RuntimeError):
    """Raised when an invariant check fails during propagation."""


@dataclass(frozen=True)
class NBodySystem:
    """Grid, particle number, pair potential, and trap frequency."""

    grid: Grid1D
    n_particles: int
    potential: PotentialSpec | None = None
    omega: float = 0.0

    def __post_init__(self):
        if self.n_particles < 1:
            raise GridError("need at least one particle")
        if self.omega < 0:
            raise GridError("trap frequency must be nonnegative")

    @property
    def dim(self) -> int:
        return self.grid.n ** self.n_particles

    def pair_potential_values(self) -> np.ndarray:
        """V_N on the (x_i - x_j) difference grid, shape (n, n)."""
        x = self.grid.x
        diff = x[:, None] - x[None, :]
        if self.potential is None:
            return np.zeros_like(diff)
        return scaled_potential(self.potential, self.n_particles, diff)

    def potential_diagonal(self) -> np.ndarray:
        """Trap plus interaction as a diagonal tensor of shape (n,)*N."""
        n, nn = self.grid.n, self.n_particles
        out = _axis_sum(0.5 * self.omega ** 2 * self.grid.x ** 2, nn)
        if self.potential is not None and nn >= 2:
            vpair = self.pair_potential_values() / nn
            for i in range(nn):
                for j in range(i + 1, nn):
                    shape = [1] * nn
                    shape[i] = n
                    shape[j] = n
                    out = out + vpair.reshape(shape)
        return out

    def kinetic_symbol(self) -> np.ndarray:
        return 0.5 * self.grid.k ** 2

    def total_kinetic_symbol(self) -> np.ndarray:
        """sum_j k_j^2 / 2 as a Fourier-space tensor of shape (n,)*N."""
        return _axis_sum(self.kinetic_symbol(), self.n_particles)

    def suggest_dt(self, budget: float = 0.1) -> float:
        """Step with N^beta ||V||_inf * dt below the stability budget."""
        if self.potential is None:
            return budget
        return budget / max(self.potential.phase_rate(self.n_particles), 1e-12)


def _axis_sum(values: np.ndarray, ndim: int) -> np.ndarray:
    """sum_j values[i_j] as a tensor of shape (n,)*ndim."""
    n = values.size
    out = np.zeros((n,) * ndim)
    for ax in range(ndim):
        shape = [1] * ndim
        shape[ax] = n
        out = out + values.reshape(shape)
    return out


def apply_hamiltonian(system: NBodySystem, amplitudes: np.ndarray,
                      potential_diag: np.ndarray | None = None) -> np.ndarray:
    """Matrix-free H_N action on an amplitude tensor."""
    if potential_diag is None:
        potential_diag = system.potential_diagonal()
    kin = scipy.fft.fftn(amplitudes)
    kin *= system.total_kinetic_symbol()
    return potential_diag * amplitudes + scipy.fft.ifftn(kin, overwrite_x=True)


def energy_expectation(system: NBodySystem, state: TensorState,
                       potential_diag: np.ndarray | None = None) -> float:
    """<psi, H_N psi> with the h^N quadrature weight (real by Hermiticity)."""
    h_psi = apply_hamiltonian(system, state.amplitudes, potential_diag)
    w = system.grid.h ** state.n_particles
    return float((w * np.vdot(state.amplitudes, h_psi)).real)


def energy_moment(system: NBodySystem, state: TensorState, k: int = 1) -> float:
    """<psi, H_N^k psi> by repeated matrix-free application."""
    if k < 1:
        raise GridError("moment order must be >= 1")
    pot = system.potential_diagonal()
    vec = state.amplitudes
    for _ in range(k):
        vec = apply_hamiltonian(system, vec, pot)
    w = system.grid.h ** state.n_particles
    return float((w * np.vdot(state.amplitudes, vec)).real)


@dataclass
class Trajectory:
    """Stored snapshots of an N-body propagation."""

    system: NBodySystem
    dt: float
    store_every: int
    times: np.ndarray
    states: list
    norms: np.ndarray
    energies: np.ndarray
    # largest |norm - norm at step 0| over every step, stored or not
    norm_drift: float | None = None

    @property
    def store_dt(self) -> float:
        return self.dt * self.store_every

    def max_norm_drift(self) -> float:
        if self.norm_drift is not None:
            return float(self.norm_drift)
        return float(np.max(np.abs(self.norms - self.norms[0])))

    def max_energy_drift(self) -> float:
        e0 = self.energies[0]
        scale = max(abs(e0), 1e-30)
        return float(np.max(np.abs(self.energies - e0)) / scale)


def evolve(system: NBodySystem, state: TensorState, dt: float, n_steps: int,
           store_every: int = 1, norm_tol: float = 1e-10,
           check_symmetry: bool = False, symmetry_tol: float = 1e-9) -> Trajectory:
    """Strang-splitting propagation of psi(t) = exp(-i t H_N) psi(0).

    The norm change per step and since step 0 are both checked against
    norm_tol (the splitting is exactly unitary, so violations indicate
    numerical trouble, and the step-0 check catches slow drift that no
    single step shows), and a non-finite norm aborts at once.  The largest
    drift since step 0 over every step is kept as the trajectory's
    norm_drift.  Snapshots are stored every store_every steps, including
    the initial state; each is a copy, since the propagation overwrites
    one buffer in place.
    """
    if state.n_particles != system.n_particles:
        raise GridError("state does not match the system's particle number")
    if dt <= 0 or n_steps < 1 or store_every < 1:
        raise GridError("dt, n_steps, store_every must be positive")

    pot = system.potential_diagonal()
    half = np.exp(-0.5j * dt * pot)
    kin_phase = np.exp(-1j * dt * system.total_kinetic_symbol())
    nn = system.n_particles
    weight = system.grid.h ** nn

    def snapshot(amplitudes):
        return TensorState(system.grid, amplitudes.copy(), system.omega)

    psi = state.amplitudes.copy()
    norm_prev = norm_start = math.sqrt(weight * np.vdot(psi, psi).real)
    drift = 0.0

    times = [0.0]
    states = [snapshot(psi)]
    norms = [norm_prev]
    energies = [energy_expectation(system, states[0], pot)]

    for step in range(1, n_steps + 1):
        psi *= half
        psi = scipy.fft.fftn(psi, overwrite_x=True)
        psi *= kin_phase
        psi = scipy.fft.ifftn(psi, overwrite_x=True)
        psi *= half

        norm_now = math.sqrt(weight * np.vdot(psi, psi).real)
        if not math.isfinite(norm_now):
            raise NumericalAbort(f"norm is {norm_now} at step {step}")
        if abs(norm_now - norm_prev) > norm_tol:
            raise NumericalAbort(
                f"norm drifted by {abs(norm_now - norm_prev):.3e} at step {step}"
            )
        since_start = abs(norm_now - norm_start)
        if since_start > norm_tol:
            raise NumericalAbort(
                f"norm drifted by {since_start:.3e} since step 0 at step {step}"
            )
        norm_prev = norm_now
        drift = max(drift, since_start)

        if step % store_every == 0:
            snap = snapshot(psi)
            if check_symmetry and nn > 1:
                res = symmetry_residual(snap)
                if res > symmetry_tol:
                    raise NumericalAbort(
                        f"bosonic symmetry residual {res:.3e} at step {step}"
                    )
            times.append(step * dt)
            states.append(snap)
            norms.append(norm_now)
            energies.append(energy_expectation(system, snap, pot))

    return Trajectory(system, dt, store_every, np.asarray(times), states,
                      np.asarray(norms), np.asarray(energies), drift)


# -- dense Hamiltonian and spectral cutoff ----------------------------------

def dense_one_particle(system: NBodySystem) -> np.ndarray:
    """Dense kinetic-plus-trap one-particle matrix (Hermitized)."""
    grid = system.grid
    # numpy's DFT matrices keep the dense oracle off the scipy.fft route
    # that apply_hamiltonian and evolve take
    f = np.fft.fft(np.eye(grid.n), axis=0)
    finv = np.fft.ifft(np.eye(grid.n), axis=0)
    k1 = finv @ (system.kinetic_symbol()[:, None] * f)
    k1 = k1 + np.diag(0.5 * system.omega ** 2 * grid.x ** 2)
    return 0.5 * (k1 + k1.conj().T)


def dense_hamiltonian(system: NBodySystem) -> np.ndarray:
    """Full H_N as an (n^N, n^N) Hermitian matrix; capped at 4096."""
    if system.dim > DENSE_DIM_CAP:
        raise GridError(
            f"dense Hamiltonian dimension {system.dim} exceeds cap {DENSE_DIM_CAP}"
        )
    n, nn = system.grid.n, system.n_particles
    h1 = dense_one_particle(NBodySystem(system.grid, 1, None, system.omega))
    ham = np.zeros((system.dim, system.dim), dtype=np.complex128)
    for j in range(nn):
        op = np.eye(1)
        for ax in range(nn):
            op = np.kron(op, h1 if ax == j else np.eye(n))
        ham += op
    diag = system.potential_diagonal() - _trap_only_diagonal(system)
    ham += np.diag(diag.reshape(-1))
    return 0.5 * (ham + ham.conj().T)


def _trap_only_diagonal(system: NBodySystem) -> np.ndarray:
    bare = NBodySystem(system.grid, system.n_particles, None, system.omega)
    return bare.potential_diagonal()


def cutoff_chi(s) -> np.ndarray:
    """Smooth cutoff: 1 for s <= 1, 0 for s >= 2, C-infinity in between."""
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    out[s <= 1.0] = 1.0
    mid = (s > 1.0) & (s < 2.0)
    if np.any(mid):
        t = s[mid]
        up = np.exp(-1.0 / (2.0 - t))
        down = np.exp(-1.0 / (t - 1.0))
        out[mid] = up / (up + down)
    return out


_EIG_CACHE: dict = {}


def _system_key(system: NBodySystem):
    pot = system.potential
    pot_key = None if pot is None else (pot.shape, pot.a, pot.s, pot.r, pot.beta)
    return (system.grid.n, system.grid.length, system.n_particles,
            system.omega, pot_key)


def dense_spectrum(system: NBodySystem):
    """Eigendecomposition of the dense Hamiltonian, cached for the last system."""
    key = _system_key(system)
    if key not in _EIG_CACHE:
        # one entry only: an n^N = 4096 decomposition holds 268 MB, so the
        # previous system's is freed before the next eigh allocates
        _EIG_CACHE.clear()
        ham = dense_hamiltonian(system)
        _EIG_CACHE[key] = np.linalg.eigh(ham)
    return _EIG_CACHE[key]


def spectral_cutoff(system: NBodySystem, state: TensorState, kappa: float,
                    chi=cutoff_chi) -> TensorState:
    """Regularized state chi(kappa H_N / N) psi, renormalized.

    chi is 1 below s = 1 and 0 above s = 2 (and 1 for negative arguments),
    so the result has energy moments <H^k> <= (2N/kappa)^k while staying
    kappa^(1/2)-close to psi when psi has bounded energy per particle.
    """
    if kappa <= 0:
        raise GridError("cutoff parameter kappa must be positive")
    evals, evecs = dense_spectrum(system)
    w = system.grid.h ** state.n_particles
    # eigenvectors are Euclidean-unitary, so plain coefficients suffice
    coeffs = evecs.conj().T @ state.amplitudes.reshape(-1)
    factors = chi(kappa * evals / system.n_particles)
    vec = evecs @ (factors * coeffs)
    nrm2 = float(np.vdot(vec, vec).real) * w
    if nrm2 <= 1e-28:
        raise NumericalAbort("spectral cutoff annihilated the state")
    vec = vec / math.sqrt(nrm2)
    return TensorState(system.grid, vec.reshape(state.amplitudes.shape), system.omega)


# -- BBGKY residual ----------------------------------------------------------

def _commutator_one_body(marg_tensor: np.ndarray, grid: Grid1D, k: int,
                         sym: np.ndarray, pot_diag: np.ndarray) -> np.ndarray:
    """[sum_j A_j, gamma] for A = Fourier symbol + diagonal potential.

    Unprimed axes are 0..k-1, primed axes k..2k-1; A has a symmetric
    kernel, so gamma A is A applied along the primed axes.
    """
    out = np.zeros_like(marg_tensor)
    n = grid.n
    # the symbol operator has a symmetric real kernel, so gamma A is
    # the same apply_symbol call routed along the primed axis
    for ax in range(k):
        shape = [1] * (2 * k)
        shape[ax] = n
        out += apply_symbol(marg_tensor, sym, ax) + pot_diag.reshape(shape) * marg_tensor
    for ax in range(k, 2 * k):
        shape = [1] * (2 * k)
        shape[ax] = n
        out -= apply_symbol(marg_tensor, sym, ax) + pot_diag.reshape(shape) * marg_tensor
    return out


def _collision_term(state: TensorState, k: int, vpair: np.ndarray) -> np.ndarray:
    """sum_{j<=k} Tr_{k+1} [V(x_j - x_{k+1}), gamma^(k+1)] without
    materializing gamma^(k+1); returns an (n^k, n^k) kernel."""
    n = state.grid.n
    nn = state.n_particles
    a = state.amplitudes.reshape(n ** k, n, n ** (nn - k - 1))
    weight = state.grid.h ** (nn - k)
    block_shape = (n,) * k
    out = np.zeros((n ** k, n ** k), dtype=np.complex128)
    for j in range(k):
        shape = [1] * k
        shape[j] = n
        # V(x_j - x_{k+1}) as an (n^k, n) array over (kept block, traced)
        wj = np.broadcast_to(
            vpair.reshape(tuple(shape) + (n,)), block_shape + (n,)
        ).reshape(n ** k, n)
        d = np.einsum("acr,bcr->ab", wj[:, :, None] * a, a.conj()) * weight
        out += d - d.conj().T
    return out


def bbgky_residual(traj: Trajectory, k: int, index: int | None = None) -> dict:
    """Central-difference residual of the trapped BBGKY hierarchy at level k.

    Checks i d/dt gamma^(k) against the one-body commutator, the in-block
    pair term, and the (N-k)/N weighted collision contraction of
    gamma^(k+1), all built from the same discrete operators that generated
    the trajectory.  The residual is O(dt^2): central differencing and
    Strang splitting both contribute at second order.
    """
    system = traj.system
    nn = system.n_particles
    if not 1 <= k < nn:
        raise GridError(f"hierarchy level k={k} needs k+1 <= N={nn}")
    if len(traj.states) < 3:
        raise GridError("need at least three stored snapshots")
    if index is None:
        index = len(traj.states) // 2
    if not 1 <= index <= len(traj.states) - 2:
        raise GridError("index must have stored neighbors on both sides")

    n = system.grid.n
    grid = system.grid
    dt_s = traj.store_dt
    gm = partial_trace(traj.states[index - 1], k)
    g0 = partial_trace(traj.states[index], k)
    gp = partial_trace(traj.states[index + 1], k)

    lhs = 1j * (gp.kernel - gm.kernel) / (2.0 * dt_s)

    tens = g0.tensor()
    sym = system.kinetic_symbol()
    trap = 0.5 * system.omega ** 2 * grid.x ** 2
    rhs = _commutator_one_body(tens, grid, k, sym, trap).reshape(n ** k, n ** k)

    vpair = system.pair_potential_values()
    if k >= 2 and system.potential is not None:
        block = np.zeros((n,) * (2 * k), dtype=np.complex128)
        for i in range(k):
            for j in range(i + 1, k):
                shape = [1] * (2 * k)
                shape[i] = n
                shape[j] = n
                unprimed = np.broadcast_to(
                    vpair.reshape([n if ax in (i, j) else 1 for ax in range(2 * k)]),
                    (n,) * (2 * k),
                )
                shape_p = [n if ax in (k + i, k + j) else 1 for ax in range(2 * k)]
                primed = np.broadcast_to(vpair.reshape(shape_p), (n,) * (2 * k))
                block = block + (unprimed - primed) * tens
        rhs += (block / nn).reshape(n ** k, n ** k)

    if system.potential is not None:
        coll = _collision_term(traj.states[index], k, vpair)
        rhs += ((nn - k) / nn) * coll

    residual = lhs - rhs
    hs = grid.h ** k * float(np.linalg.norm(residual))
    return {
        "kernel": residual,
        "hs_norm": hs,
        "max_abs": float(np.max(np.abs(residual))),
        "time": float(traj.times[index]),
        "k": k,
        "dt": traj.dt,
    }
