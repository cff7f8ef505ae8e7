"""Reference computations that only tests use.

Each function here is an independent (slow, dense or literal) route to a
quantity the package computes another way, kept next to the tests that
compare the two.  None is reached by a runner, so none lives in
src/boselab (tests/test_src_references.py enforces that).
"""

from dataclasses import replace

import numpy as np
from scipy.sparse import csr_matrix

from boselab import collapse, energy_checks, marginals, nbody
from boselab.grid import (DENSE_SIDE_CAP, Grid1D, GridError, dense_operator,
                          dense_weight_squared, kinetic_symbol, on_axes,
                          pair_differences, sector_tables, symmetrize,
                          trap_potential)
from boselab.marginals import MarginalDensity
from boselab.nbody import NBodySystem, NumericalAbort, cutoff_chi
from boselab.potentials import PotentialSpec


def theta_hat_quadrature(xi, order: int = 400) -> np.ndarray:
    """Independent evaluation of theta-hat by Gauss-Legendre quadrature.

    Accurate while the oscillation e^{i xi tau} is resolved by the rule
    (|xi| up to roughly 1.5x the order); the oracle of collapse's FFT
    table.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    nodes, weights = collapse._gauss_legendre(order)
    vals = collapse.bump(nodes) * weights
    return np.cos(np.outer(xi, nodes)) @ vals


def _pair_cap(grid: Grid1D):
    if grid.n ** 2 > DENSE_SIDE_CAP:
        raise GridError(f"two-particle dense form {grid.n}^2 exceeds the cap "
                        f"{DENSE_SIDE_CAP}")


def dense_pair_block(spec: PotentialSpec, n_particles: int, omega: float,
                     grid: Grid1D, alpha_scale: float = 1.0) -> np.ndarray:
    """Dense matrix of (S_1^2+S_2^2)/2 + (1-1/N)V_N + 2 alpha on the pair
    grid, the form whose nonnegativity is the pair positivity statement
    (energy_checks.check_pair_positivity solves it matrix-free)."""
    _pair_cap(grid)
    s2 = dense_weight_squared(grid, "S", omega)
    eye = np.eye(grid.n)
    diag = (energy_checks._pair_diagonal(spec, n_particles, grid)
            + 2.0 * spec.alpha() * alpha_scale)
    mat = 0.5 * (np.kron(s2, eye) + np.kron(eye, s2)) + np.diag(diag.ravel())
    mat = 0.5 * (mat + mat.conj().T)
    return np.ascontiguousarray(energy_checks._real_part(mat, "pair block"))


def symmetry_residual(a: np.ndarray) -> float:
    """Max-abs deviation of a tensor from bosonic symmetry over all
    transpositions of its axes."""
    ndim = a.ndim
    worst = 0.0
    for i in range(ndim):
        for j in range(i + 1, ndim):
            perm = list(range(ndim))
            perm[i], perm[j] = perm[j], perm[i]
            diff = a - np.transpose(a, perm)
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def _product_vector(grid: Grid1D, phi: np.ndarray, k: int) -> np.ndarray:
    """phi^(tensor k) flattened to length n^k, for a unit-norm grid orbital."""
    vec = phi = marginals._orbital(grid, phi)
    for _ in range(k - 1):
        vec = np.multiply.outer(vec, phi)
    return vec.reshape(-1)


def product_projector(grid: Grid1D, phi: np.ndarray, k: int) -> MarginalDensity:
    """Kernel of |phi><phi|^(tensor k) for a unit-norm one-particle phi."""
    vec = _product_vector(grid, phi, k)
    return MarginalDensity(grid, k, np.multiply.outer(vec, vec.conj()))


def trace_distance(a: MarginalDensity, b: MarginalDensity) -> float:
    """Tr|a - b| of two marginals on the same grid and particle count, by
    a dense eigensolve of the n^k x n^k difference."""
    if a.k != b.k or a.grid != b.grid:
        raise marginals.MarginalError("marginals are not comparable")
    scale = max(float(np.max(np.abs(a.kernel))),
                float(np.max(np.abs(b.kernel))))
    return marginals._hermitian_trace_norm(a.kernel - b.kernel, a.weight,
                                           scale)


def matrix(marginal: MarginalDensity) -> np.ndarray:
    """Weighted matrix h^k * kernel: unit trace, occupation eigenvalues."""
    return marginal.weight * marginal.kernel


def eigenvalues(marginal: MarginalDensity) -> np.ndarray:
    """Occupation spectrum, ascending (Hermitian part of the kernel),
    behind the package's dense side cap."""
    marginals._check_side(marginal.kernel.shape[0])
    return np.linalg.eigvalsh(matrix(marginal))


# a uniform Riemann sum over [-R, R] with R = 30 max(s, 1): the shapes
# decay like exp(-x^2/s^2), so it is exact to far below 1e-10
_QUAD_POINTS = 2 ** 14
_QUAD_RADIUS_SCALES = 30.0


def integral_quadrature(spec: PotentialSpec) -> float:
    """Signed integral of V by uniform quadrature, the oracle of the
    closed form PotentialSpec.integral."""
    r = _QUAD_RADIUS_SCALES * max(spec.s, 1.0)
    x = np.linspace(-r, r, _QUAD_POINTS, endpoint=False)
    return float(np.sum(spec(x)) * (2.0 * r / _QUAD_POINTS))


def dense_sobolev_sigma(spec: PotentialSpec, grid: Grid1D) -> float:
    """Largest singular value of L1^-1 L2^-1 V(x1-x2) L1^-1 L2^-1 as the
    dense (n^2, n^2) matrix (L^-1 x L^-1) diag(V) (L^-1 x L^-1), L^-1 the
    inverse square root of the dense L^2 = 1 - d^2 by its eigenpairs; the
    oracle of energy_checks.check_sobolev_operator_bound, which applies
    the operator by FFTs and finds its extreme eigenvalue matrix-free."""
    _pair_cap(grid)
    evals, evecs = np.linalg.eigh(dense_weight_squared(grid, "L", 0.0))
    inv = (evecs / np.sqrt(evals)) @ evecs.conj().T
    pair = np.kron(inv, inv)
    mat = pair @ (spec(pair_differences(grid)).reshape(-1)[:, None] * pair)
    return float(np.linalg.svd(mat, compute_uv=False)[0])


def potential_diagonal(system: NBodySystem) -> np.ndarray:
    """Trap plus interaction as a diagonal tensor of shape (n,)*N: the
    system's potential_at on every index tuple."""
    axis = np.arange(system.grid.n)
    return system.potential_at(np.ix_(*(axis,) * system.n_particles))


def dense_hamiltonian(system: NBodySystem) -> np.ndarray:
    """Full H_N as an (n^N, n^N) Hermitian matrix: the dense one-particle
    h on each axis (h_j = I x h x I), added in place along the block
    diagonals, plus the pair diagonal; capped at DENSE_SIDE_CAP.  h is
    exactly Hermitian (grid.dense_operator), so the sum is too.  The
    oracle of nbody.hamiltonian; at side 4096 it holds one 268 MB
    matrix."""
    if system.dim > DENSE_SIDE_CAP:
        raise GridError(f"dense Hamiltonian dimension {system.dim} exceeds "
                        f"cap {DENSE_SIDE_CAP}")
    grid, nn = system.grid, system.n_particles
    n = grid.n
    h1 = dense_operator(grid, kinetic_symbol(grid),
                        trap_potential(grid, system.omega))
    ham = np.zeros((system.dim, system.dim), dtype=np.complex128)
    for j in range(nn):
        # rows (a, i, b) and columns (a', i', b'), a over the axes before
        # j and b after: h_j[(a, i, b), (a', i', b')] = h[i, i'] at a = a',
        # b = b', written through a view of those entries
        before, after = n ** j, n ** (nn - j - 1)
        row, col = ham.strides
        block = np.lib.stride_tricks.as_strided(
            ham, shape=(before, n, after, n),
            strides=(n * after * (row + col), after * row, row + col,
                     after * col))
        block += h1[None, :, None, :]
    # the pair part alone: the same system without its trap
    pair = potential_diagonal(replace(system, omega=0.0))
    ham.reshape(-1)[::system.dim + 1] += pair.reshape(-1)
    return ham


def energy_moment(system: NBodySystem, state, k: int = 1,
                  shift: float = 0.0) -> float:
    """<psi, (H_N + shift)^k psi> with a fresh H_N, through the state guard
    of the N-body routes: nbody's moment sum for one state, where the
    energy checks build H_N once for all of theirs."""
    nbody._check_grid(system, state)
    if k < 1:
        raise GridError("moment order must be >= 1")
    return nbody._moment(system, nbody.hamiltonian(system), state, k, shift)


def energy_drift(traj) -> float:
    """Largest |E(t) - E(0)| / |E(0)| over a trajectory's stored states,
    E = energy_moment (the scale floored at 1e-30)."""
    energies = np.array([energy_moment(traj.system, s) for s in traj.states])
    return float(np.max(np.abs(energies - energies[0]))
                 / max(abs(energies[0]), 1e-30))


def dense_cutoff(system: NBodySystem, state, kappa: float):
    """chi(kappa H_N / N) psi on the n^N tensor, the oracle of
    nbody.spectral_cutoff.

    dense_hamiltonian is restricted to the bosonic sector by the isometry
    P of normalized orbit sums in tensor space (n^N x C(n+N-1, N)), so
    eigh works at the sector side; the state's tensor is filtered in that
    eigenbasis and mapped back through P and grid.symmetrize.
    """
    n, nn = system.grid.n, system.n_particles
    tables, expand = sector_tables(n, nn)
    mult = tables[-1][2]
    rank = tables[-1][1][expand].reshape(-1)
    # P^T, sparse: one entry 1/sqrt(mult) per tensor index, in its row
    iso_t = csr_matrix((1.0 / np.sqrt(mult[rank]),
                        (rank, np.arange(system.dim))),
                       shape=(len(mult), system.dim))
    sub = (iso_t @ (iso_t @ dense_hamiltonian(system)).T).T
    evals, evecs = np.linalg.eigh(sub)
    coeffs = evecs.conj().T @ (iso_t @ state.amplitudes.reshape(-1))
    vec = iso_t.T @ (evecs @ (cutoff_chi(kappa * evals / nn) * coeffs))
    if float(np.vdot(vec, vec).real) * system.grid.h ** nn <= 1e-28:
        raise NumericalAbort("spectral cutoff annihilated the state")
    return symmetrize(system.grid, vec.reshape(state.amplitudes.shape))


def tensor_partial_trace(state, k: int) -> MarginalDensity:
    """gamma^(k) by contracting the state's n^N tensor, reshaped to
    (n^k, n^(N-k)), with weight h^(N-k); the oracle of
    marginals.partial_trace."""
    n, nn = state.grid.n, state.n_particles
    a = state.amplitudes.reshape(n ** k, n ** (nn - k))
    return MarginalDensity(state.grid, k,
                           (a @ a.conj().T) * state.grid.h ** (nn - k))


def tensor_collision_term(state, k: int, vpair: np.ndarray) -> np.ndarray:
    """sum_{j<=k} Tr_{k+1} [V(x_j - x_{k+1}), gamma^(k+1)] from the state's
    n^N tensor; the oracle of nbody._collision_term."""
    n, nn = state.grid.n, state.n_particles
    a = state.amplitudes.reshape(n ** k, n, n ** (nn - k - 1))
    weight = state.grid.h ** (nn - k)
    out = np.zeros((n ** k, n ** k), dtype=np.complex128)
    for j in range(k):
        wj = np.broadcast_to(on_axes(vpair, k + 1, j, k),
                             (n,) * k + (n,)).reshape(n ** k, n)
        d = np.einsum("acr,bcr->ab", wj[:, :, None] * a, a.conj()) * weight
        out += d - d.conj().T
    return out
