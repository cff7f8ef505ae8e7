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

Threading: every N-body transform here runs on the process's thread
pool, sized once at import from OMP_NUM_THREADS (which ``--threads``
sets) or else from the CPUs the process may run on.  Tensors below
THREAD_FLOOR = 2^16 amplitudes keep one worker, since below that the
threads cost more than they save (on a 2-vCPU host a 16^3 transform takes
57 us on one worker and 149 us on two; a 32^4 one 36 ms and 17.5 ms).
pocketfft hands whole 1-D lines to each worker, so the result is
bit-identical for any pool size.  The three in-place phase products of a
Strang step share a pool of the same size and floor: each thread
multiplies a block of leading-axis rows, so they too are bit-identical
for any pool size.  The phases themselves are built once per call from
the cosine and sine of their real angle, without complex exp.  The step
loop makes no BLAS call: its per-step norm is an einsum, because a BLAS
call there wakes OpenBLAS's own threads, which then spin on the cores
the transforms need.

Also here: the dense Hamiltonian for small tensor grids (oracle and
spectral-cutoff backend), the smooth spectral cutoff used to regularize
rough initial data, and the residual of the trapped BBGKY hierarchy
evaluated on stored trajectories.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.fft

from .grid import (Grid1D, GridError, TensorState, apply_symbol,
                   dense_operator, on_axes, symmetry_residual,
                   trap_potential)
from .marginals import partial_trace
from .potentials import PotentialSpec, scaled_potential

DENSE_DIM_CAP = 4096
# tensors with fewer amplitudes transform on one thread
THREAD_FLOOR = 2 ** 16


def _pool_size() -> int:
    """OMP_NUM_THREADS when it is a positive integer, else the CPU count."""
    try:
        size = int(os.environ.get("OMP_NUM_THREADS", ""))
    except ValueError:
        size = 0
    if size >= 1:
        return size
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_POOL_SIZE = _pool_size()


# the threads that share the in-place phase products of evolve
_PRODUCT_POOL = ThreadPoolExecutor(max_workers=_POOL_SIZE)


def _workers(a: np.ndarray) -> int:
    """scipy.fft workers for a transform of the tensor a."""
    return _POOL_SIZE if a.size >= THREAD_FLOOR else 1


def _multiply(a: np.ndarray, b: np.ndarray) -> None:
    """a *= b for two tensors of one shape, split over the pool.

    Each worker takes a block of leading-axis rows; the product is
    elementwise, so the result does not depend on the split.
    """
    parts = min(_workers(a), a.shape[0])
    if parts == 1:
        a *= b
        return
    rows = [slice(a.shape[0] * i // parts, a.shape[0] * (i + 1) // parts)
            for i in range(parts)]
    jobs = [_PRODUCT_POOL.submit(np.multiply, a[r], b[r], out=a[r])
            for r in rows[1:]]
    first = rows[0]  # the calling thread's block
    np.multiply(a[first], b[first], out=a[first])
    for job in jobs:
        job.result()


def _phase(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) from the cosine and sine of Re theta, without complex exp.

    A complex theta (a potential with an imaginary part) adds the real
    factor exp(-Im theta).
    """
    out = np.empty(theta.shape, dtype=np.complex128)
    np.cos(theta.real, out=out.real)
    np.sin(theta.real, out=out.imag)
    if np.iscomplexobj(theta):
        out *= np.exp(-theta.imag)
    return out


def _norm_sq(a: np.ndarray) -> float:
    """Euclidean sum |a|^2 without BLAS."""
    # np.vdot would wake OpenBLAS's threads, which spin on the FFT cores
    flat = a.reshape(-1).view(np.float64)
    return float(np.einsum("i,i->", flat, flat))


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
        nn = self.n_particles
        out = _axis_sum(trap_potential(self.grid, self.omega), nn)
        if self.potential is not None and nn >= 2:
            vpair = self.pair_potential_values() / nn
            for i in range(nn):
                for j in range(i + 1, nn):
                    out = out + on_axes(vpair, nn, i, j)
        return out

    def kinetic_symbol(self) -> np.ndarray:
        return 0.5 * self.grid.k ** 2

    def total_kinetic_symbol(self) -> np.ndarray:
        """sum_j k_j^2 / 2 as a Fourier-space tensor of shape (n,)*N."""
        return _axis_sum(self.kinetic_symbol(), self.n_particles)


def _axis_sum(values: np.ndarray, ndim: int) -> np.ndarray:
    """sum_j values[i_j] as a tensor of shape (n,)*ndim."""
    out = np.zeros((values.size,) * ndim)
    for ax in range(ndim):
        out = out + on_axes(values, ndim, ax)
    return out


def apply_hamiltonian(system: NBodySystem, amplitudes: np.ndarray,
                      potential_diag: np.ndarray | None = None) -> np.ndarray:
    """Matrix-free H_N action on an amplitude tensor."""
    if potential_diag is None:
        potential_diag = system.potential_diagonal()
    workers = _workers(amplitudes)
    kin = scipy.fft.fftn(amplitudes, workers=workers)
    kin *= system.total_kinetic_symbol()
    return potential_diag * amplitudes + scipy.fft.ifftn(
        kin, overwrite_x=True, workers=workers)


def energy_expectation(system: NBodySystem, state: TensorState,
                       potential_diag: np.ndarray | None = None) -> float:
    """<psi, H_N psi> with the h^N quadrature weight.

    The kinetic part is Parseval's sum (h^N / n^N) sum_j sum_m T(k_m)
    rho_j(m), rho_j the marginal of |psi_hat|^2 on axis j, from one
    forward transform: no inverse transform and no (n,)^N symbol.  The
    potential part is h^N sum V |psi|^2.
    """
    if potential_diag is None:
        potential_diag = system.potential_diagonal()
    amps = state.amplitudes
    nn = state.n_particles
    spec = np.abs(scipy.fft.fftn(amps, workers=_workers(amps))) ** 2
    symbol = system.kinetic_symbol()
    axes = range(nn)
    kin = sum(symbol @ spec.sum(axis=tuple(o for o in axes if o != ax))
              for ax in axes) / amps.size
    # an einsum, not np.vdot, for the reason _norm_sq gives
    pot = np.einsum("i,i->", (np.abs(amps) ** 2).reshape(-1),
                    potential_diag.reshape(-1))
    # a complex diagonal (an absorbing potential) adds an imaginary part,
    # the rate of norm loss, which is not energy; .real is a no-op otherwise
    return float(system.grid.h ** nn * (kin + pot.real))


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
    norm_drift: float

    @property
    def store_dt(self) -> float:
        return self.dt * self.store_every

    def max_norm_drift(self) -> float:
        return float(self.norm_drift)

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
    half = _phase((-0.5 * dt) * pot)
    kin_phase = _phase(-dt * system.total_kinetic_symbol())
    nn = system.n_particles
    weight = system.grid.h ** nn

    def snapshot(amplitudes):
        return TensorState(system.grid, amplitudes.copy(), system.omega)

    psi = state.amplitudes.copy()
    workers = _workers(psi)
    norm_prev = norm_start = math.sqrt(weight * _norm_sq(psi))
    drift = 0.0

    times = [0.0]
    states = [snapshot(psi)]
    norms = [norm_prev]
    energies = [energy_expectation(system, states[0], pot)]

    for step in range(1, n_steps + 1):
        _multiply(psi, half)
        psi = scipy.fft.fftn(psi, overwrite_x=True, workers=workers)
        _multiply(psi, kin_phase)
        psi = scipy.fft.ifftn(psi, overwrite_x=True, workers=workers)
        _multiply(psi, half)

        norm_now = math.sqrt(weight * _norm_sq(psi))
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

def dense_hamiltonian(system: NBodySystem) -> np.ndarray:
    """Full H_N as an (n^N, n^N) Hermitian matrix; capped at 4096."""
    if system.dim > DENSE_DIM_CAP:
        raise GridError(
            f"dense Hamiltonian dimension {system.dim} exceeds cap {DENSE_DIM_CAP}"
        )
    grid, nn = system.grid, system.n_particles
    # dense_operator builds numpy's DFT matrices, which keeps the dense
    # oracle off the scipy.fft route that apply_hamiltonian and evolve take
    h1 = dense_operator(grid, system.kinetic_symbol(),
                        trap_potential(grid, system.omega))
    ham = np.zeros((system.dim, system.dim), dtype=np.complex128)
    for j in range(nn):
        op = np.eye(1)
        for ax in range(nn):
            op = np.kron(op, h1 if ax == j else np.eye(grid.n))
        ham += op
    # the pair part alone: the same system without its trap
    pair = replace(system, omega=0.0).potential_diagonal()
    ham += np.diag(pair.reshape(-1))
    return 0.5 * (ham + ham.conj().T)


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


# keyed by the frozen NBodySystem itself
_EIG_CACHE: dict = {}


def dense_spectrum(system: NBodySystem):
    """Eigendecomposition of the dense Hamiltonian, cached for the last system."""
    if system not in _EIG_CACHE:
        # one entry only: an n^N = 4096 decomposition holds 268 MB, so the
        # previous system's is freed before the next eigh allocates
        _EIG_CACHE.clear()
        _EIG_CACHE[system] = np.linalg.eigh(dense_hamiltonian(system))
    return _EIG_CACHE[system]


def spectral_cutoff(system: NBodySystem, state: TensorState,
                    kappa: float) -> TensorState:
    """Regularized state chi(kappa H_N / N) psi, renormalized.

    chi = cutoff_chi is 1 below s = 1 and 0 above s = 2 (and 1 for negative arguments),
    so the result has energy moments <H^k> <= (2N/kappa)^k while staying
    kappa^(1/2)-close to psi when psi has bounded energy per particle.
    """
    if kappa <= 0:
        raise GridError("cutoff parameter kappa must be positive")
    evals, evecs = dense_spectrum(system)
    w = system.grid.h ** state.n_particles
    # eigenvectors are Euclidean-unitary, so plain coefficients suffice
    coeffs = evecs.conj().T @ state.amplitudes.reshape(-1)
    factors = cutoff_chi(kappa * evals / system.n_particles)
    vec = evecs @ (factors * coeffs)
    nrm2 = float(np.vdot(vec, vec).real) * w
    if nrm2 <= 1e-28:
        raise NumericalAbort("spectral cutoff annihilated the state")
    vec = vec / math.sqrt(nrm2)
    return TensorState(system.grid, vec.reshape(state.amplitudes.shape), system.omega)


# -- BBGKY residual ----------------------------------------------------------

def _commutator_one_body(marg_tensor: np.ndarray, k: int, sym: np.ndarray,
                         pot_diag: np.ndarray) -> np.ndarray:
    """[sum_j A_j, gamma] for A = Fourier symbol + diagonal potential.

    Unprimed axes are 0..k-1, primed axes k..2k-1; A has a symmetric
    kernel, so gamma A is A applied along the primed axes.
    """
    out = np.zeros_like(marg_tensor)
    # the symbol operator has a symmetric real kernel, so gamma A is
    # the same apply_symbol call routed along the primed axis
    for ax in range(k):
        out += (apply_symbol(marg_tensor, sym, ax)
                + on_axes(pot_diag, 2 * k, ax) * marg_tensor)
    for ax in range(k, 2 * k):
        out -= (apply_symbol(marg_tensor, sym, ax)
                + on_axes(pot_diag, 2 * k, ax) * marg_tensor)
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
        # V(x_j - x_{k+1}) as an (n^k, n) array over (kept block, traced)
        wj = np.broadcast_to(on_axes(vpair, k + 1, j, k),
                             block_shape + (n,)).reshape(n ** k, n)
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
    rhs = _commutator_one_body(tens, k, system.kinetic_symbol(),
                               trap_potential(grid, system.omega))
    rhs = rhs.reshape(n ** k, n ** k)

    vpair = system.pair_potential_values()
    if k >= 2 and system.potential is not None:
        block = np.zeros((n,) * (2 * k), dtype=np.complex128)
        for i in range(k):
            for j in range(i + 1, k):
                unprimed = on_axes(vpair, 2 * k, i, j)
                primed = on_axes(vpair, 2 * k, k + i, k + j)
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
