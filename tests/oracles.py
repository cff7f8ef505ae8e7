"""Reference computations that only tests use.

Each function here is an independent (slow, dense or literal) route to a
quantity the package computes another way, kept next to the tests that
compare the two.  None is reached by a runner, so none lives in
src/boselab (tests/test_src_references.py enforces that).
"""

import numpy as np

from boselab import collapse, energy_checks, marginals
from boselab.grid import Grid1D, dense_weight_squared
from boselab.marginals import MarginalDensity
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


def dense_pair_block(spec: PotentialSpec, n_particles: int, omega: float,
                     grid: Grid1D, alpha_scale: float = 1.0) -> np.ndarray:
    """Dense matrix of (S_1^2+S_2^2)/2 + (1-1/N)V_N + 2 alpha on the pair
    grid, the form whose nonnegativity is the pair positivity statement
    (energy_checks.check_pair_positivity solves it matrix-free)."""
    energy_checks._pair_cap(grid)
    s2 = dense_weight_squared(grid, "S", omega)
    eye = np.eye(grid.n)
    mat = 0.5 * (np.kron(s2, eye) + np.kron(eye, s2)) + np.diag(
        energy_checks._pair_diagonal(spec, n_particles, grid,
                                     alpha_scale).ravel())
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
