"""Operator inequalities and identities behind the energy estimates.

The mean-field Hamiltonian splits exactly over ordered particle pairs,

    H_N/N + 1 + alpha = (1/(2N(N-1))) sum_{i != j} H_{+ij},
    H_{+ij} = S_i^2 + S_j^2 + (1 - 1/N) V_N(x_i - x_j) + 2 alpha,

with alpha = ||V||_{L1}^2 and S^2 = 1 - d^2/2 + omega^2 x^2/2.  Everything
here verifies this split and the positivity facts that power it:

  * each pair block dominates half its Sobolev part,
    H_{+12} >= (S_1^2 + S_2^2)/2, equivalently
    (S_1^2 + S_2^2)/2 + (1 - 1/N)V_N + 2 alpha >= 0;
  * the one-dimensional kernel inequality -d^2/2 + (1 - 1/N)V_N + 2 alpha >= 0;
  * the moment bound < (H_N + N alpha + N)^k > >= 2^{-k} N^k ||S_1...S_k psi||^2;
  * the smoothing bound ||L_1^{-1}L_2^{-1} V(x_1 - x_2) L_1^{-1}L_2^{-1}|| <=
    ||V||_{L1} with L^2 = 1 - d^2.

The trap frequency is the system's (or, for the pair block, an argument):
states carry none, and the S weights are built at system.omega.
One-particle checks are dense eigensolves.  The pair block and the
smoothing bound are solved matrix-free by grid.lanczos_min from a
fixed start vector, so neither forms an n^2 x n^2 matrix and reruns
give the same bytes.  The N-body identity and the moment bound apply
H_N matrix-free to BosonicState sector values (nbody.hamiltonian); the
moment bound reads its right side off them too, through the one-body
power sums sum_j S_j^2 and sum_j S_j^4 (nbody.one_body_sum).  The
identity's right side acts on the state's n^N tensor
(BosonicState.amplitudes), the package's only tensor route on an N-body
state, kept as an independent second route.  Each check returns a dict
of margins (the moment bound one per state) so callers can assert or
just log.  The negative controls that show the inequalities are not
vacuously loose (the pair block without its 2 alpha, the K inequality
at the alpha of a weaker potential) live in the tests: each shifts the
reported minimum eigenvalue by a multiple of the identity.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import grid as _grid
from .grid import (BosonicState, Grid1D, GridError, apply_symbol,
                   apply_weight_squared, bracket_squared, dense_operator,
                   dense_weight_squared, kinetic_symbol, on_axes,
                   pair_differences)
from .nbody import (NBodySystem, _check_grid, _moment, hamiltonian,
                    one_body_sum)
from .potentials import PotentialSpec, scaled_potential


def _pair_diagonal(spec: PotentialSpec, n_particles: int,
                   grid: Grid1D) -> np.ndarray:
    """(1-1/N)V_N on the pair grid: the multiplication part of the pair
    block less its constant 2 alpha."""
    vpair = scaled_potential(spec, n_particles, pair_differences(grid))
    return (1.0 - 1.0 / n_particles) * vpair


def _real_part(mat: np.ndarray, name: str) -> np.ndarray:
    # an even real symbol plus real diagonals gives a real symmetric matrix
    if np.max(np.abs(mat.imag)) > 1e-10 * max(np.max(np.abs(mat.real)), 1.0):
        raise GridError(f"{name} unexpectedly non-real")
    return mat.real


def check_pair_positivity(spec: PotentialSpec, n_particles: int,
                          omega: float, grid: Grid1D) -> dict:
    """Minimum eigenvalue of (S_1^2+S_2^2)/2 + (1-1/N)V_N + 2 alpha.

    grid.lanczos_min on the n x n pair slice X, flattened, with
    X -> (S^2 X + X S^2)/2 + D o X for the real one-particle S^2 and
    D = (1-1/N)V_N (norm bound: S^2's largest absolute row sum plus
    max |D|).  2 alpha is added after: as a shift it only adds rounding
    (a deep well's took 3248 steps at n = 256, against 464).  The steps
    grow like n, so cli caps n.  The start vector is fixed, so reruns
    give the same bytes.
    """
    n = grid.n
    s2 = _real_part(dense_weight_squared(grid, "S", omega), "S^2")
    diag = _pair_diagonal(spec, n_particles, grid)

    def apply(vec: np.ndarray) -> np.ndarray:
        a = vec.reshape(n, n)
        return (0.5 * (s2 @ a + a @ s2.T) + diag * a).ravel()

    scale = float(np.abs(s2).sum(1).max() + np.abs(diag).max())
    lam = _grid.lanczos_min(apply, np.ones(n * n), scale) + 2.0 * spec.alpha()
    return {"min_eigenvalue": lam, "alpha": spec.alpha(),
            "passes": lam >= -1e-6}


def check_K_inequality(spec: PotentialSpec, n_particles: int,
                       grid: Grid1D) -> dict:
    """Minimum eigenvalue of -d^2/2 + (1 - 1/N)V_N + 2 alpha on one particle."""
    alpha = spec.alpha()
    vline = (1.0 - 1.0 / n_particles) * scaled_potential(
        spec, n_particles, grid.x)
    mat = dense_operator(grid, kinetic_symbol(grid), vline)
    mat = mat + (2.0 * alpha) * np.eye(grid.n)
    lam = float(np.linalg.eigvalsh(mat)[0])
    return {"min_eigenvalue": lam, "alpha": alpha, "passes": lam >= -1e-6}


def check_decomposition_identity(system: NBodySystem, state: BosonicState) -> float:
    """Max-abs defect of the pair decomposition applied to one state.

    Left side: H_N psi / N + (1 + alpha) psi, via the evolution module's
    matrix-free Hamiltonian on the sector values.  Right side: the literal
    sum over ordered pairs of H_{+ij} psi / (2N(N-1)), assembled from
    per-axis Sobolev weights and pair-potential multiplications on the
    n^N tensor and read at the sorted tuples.  The two routes share no
    code (a kinetic matrix on the left, FFT round trips on the right), so
    agreement is a genuine identity check.  A state that is not a
    BosonicState of the system's grid and particle number raises
    GridError.
    """
    _check_grid(system, state)
    nn = system.n_particles
    if nn < 2:
        raise GridError("the decomposition needs at least two particles")
    alpha = system.potential.alpha() if system.potential is not None else 0.0
    values = state.values
    lhs = hamiltonian(system)(values) / nn + (1.0 + alpha) * values

    psi = state.amplitudes
    vpair = system.pair_potential_values()
    s2 = [apply_weight_squared(system.grid, psi, [j], "S", system.omega)
          for j in range(nn)]
    rhs = np.zeros_like(psi)
    for i, j in itertools.permutations(range(nn), 2):
        term = s2[i] + s2[j] + (2.0 * alpha) * psi
        if system.potential is not None:
            term = term + (1.0 - 1.0 / nn) * on_axes(vpair, nn, i, j) * psi
        rhs = rhs + term
    rhs = rhs / (2.0 * nn * (nn - 1))
    tuples = _grid.sector_tables(system.grid.n, nn)[0][-1][0]
    return float(np.max(np.abs(lhs - rhs[tuple(tuples.T)])))


def check_energy_estimate(system: NBodySystem, states: list, k: int) -> list:
    """Moment bound <(H_N + N alpha + N)^k> >= 2^{-k} N^k ||S_1...S_k psi||^2:
    one dict of lhs, rhs and margin = lhs - rhs per BosonicState in states.

    lhs is the moment at shift N(1 + alpha); rhs is read off the sector
    values through the power sums p_m = sum_j S_j^{2m} (one_body_sum),
    N ||S_1 psi||^2 = <psi, p_1 psi> and N(N-1) ||S_1 S_2 psi||^2 =
    ||p_1 psi||^2 - <psi, p_2 psi>, as multiplicity-weighted einsums.  H_N
    and the power sums are built once for all the states.  k = 1 holds
    for every N >= 2; the k = 2 margin, with an unquantified
    particle-number threshold, is a measurement.
    """
    if k < 1 or k > 2:
        raise GridError("moment order limited to k in {1, 2}")
    nn = system.n_particles
    if k >= nn:
        raise GridError("need k < N so that S_1..S_k acts on distinct particles")
    for state in states:
        _check_grid(system, state)
    alpha = system.potential.alpha() if system.potential is not None else 0.0
    ham = hamiltonian(system)
    s2 = dense_weight_squared(system.grid, "S", system.omega)
    sums = [one_body_sum(system, mat) for mat in (s2, s2 @ s2)[:k]]
    results = []
    for state in states:
        values, mult = state.values, state.multiplicity

        def inner(a, b):
            return float(np.einsum("i,i->", mult * a.conj(), b).real)

        p1psi, *p2psi = [p(values, np.zeros_like(values)) for p in sums]
        if k == 1:
            rhs = inner(values, p1psi) / 2.0
        else:
            rhs = nn * (inner(p1psi, p1psi) - inner(values, p2psi[0])) / (
                4.0 * (nn - 1))
        rhs *= system.grid.h ** nn
        lhs = _moment(system, ham, state, k, nn * (1.0 + alpha))
        results.append({"lhs": lhs, "rhs": rhs, "margin": lhs - rhs})
    return results


def _smoothed_pair_action(grid: Grid1D, vdiag: np.ndarray):
    """Closure applying L1^-1 L2^-1 V(x1-x2) L1^-1 L2^-1 to flat vectors."""
    n = grid.n
    inv_sym = 1.0 / np.sqrt(bracket_squared(grid))

    def apply(vec: np.ndarray) -> np.ndarray:
        a = vec.reshape(n, n)
        a = apply_symbol(apply_symbol(a, inv_sym, 0), inv_sym, 1)
        a = vdiag * a
        a = apply_symbol(apply_symbol(a, inv_sym, 0), inv_sym, 1)
        return a.ravel()

    return apply


def check_sobolev_operator_bound(spec: PotentialSpec, grid: Grid1D) -> dict:
    """Largest singular value of A = L1^-1 L2^-1 V(x1-x2) L1^-1 L2^-1.

    The potential is unscaled; the mean-field rescaling preserves the L1
    norm, hence the bound.  A is Hermitian, so sigma_max =
    sqrt(lambda_max(A^dagger A)) = sqrt(-lambda_min(-A^2)), found by
    grid.lanczos_min with the norm bound max |V|^2.
    """
    vdiag = spec(pair_differences(grid))
    apply = _smoothed_pair_action(grid, vdiag)
    lam = _grid.lanczos_min(lambda v: -apply(apply(v)), np.ones(grid.n ** 2),
                            float(np.max(np.abs(vdiag))) ** 2)
    sigma = float(np.sqrt(-lam))
    bound = spec.l1_norm()
    return {"sigma_max": sigma, "bound": bound,
            "passes": sigma <= bound + 1e-4}
