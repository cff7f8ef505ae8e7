"""Reduced density matrices of tensor states and distances between them.

The k-particle marginal of an N-particle wavefunction is the kernel

    gamma^(k)(x_1..x_k; x'_1..x'_k)
        = integral psi(x_k, z) conj(psi(x'_k, z)) dz,

realized on the grid by contracting the traced axes with quadrature
weight h^(N-k).  Kernels are stored as continuum samples; the weighted
matrix h^k * kernel is the object whose plain trace is 1 and whose
eigenvalues are occupation probabilities.  Hermiticity and positivity
are structural (gamma = A A^dagger) and checked, not enforced.

The delta interaction of the limiting hierarchy is realized as diagonal
pairing with weight 1/h, which is the convention under which the
mollifier consistency test below converges as the mollifier width
shrinks (while staying above the grid resolution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D, GridError, TensorState, SobolevWeight, apply_symbol


class MarginalError(ValueError):
    """Raised for inconsistent marginal constructions or kernel sizes."""


# Dense eigendecompositions of kernels (occupation spectra and the
# Hermitian eigenvalue route of trace_norm) are capped at this matrix side.
KERNEL_SIDE_CAP = 4096

# trace_norm reads one triangle of its input, so it rejects kernels whose
# anti-Hermitian part exceeds this share of the largest entry.
HERMITIAN_RTOL = 1e-12


@dataclass
class MarginalDensity:
    """k-particle reduced density with kernel of shape (n^k, n^k)."""

    grid: Grid1D
    k: int
    kernel: np.ndarray
    omega: float = 0.0

    def __post_init__(self):
        side = self.grid.n ** self.k
        kern = np.asarray(self.kernel, dtype=np.complex128)
        if kern.shape != (side, side):
            raise MarginalError(
                f"kernel shape {kern.shape} does not match (n^k, n^k) = {(side, side)}"
            )
        self.kernel = kern

    @property
    def weight(self) -> float:
        return self.grid.h ** self.k

    def matrix(self) -> np.ndarray:
        """Weighted matrix h^k * kernel: unit trace, occupation eigenvalues."""
        return self.weight * self.kernel

    def trace(self) -> complex:
        return self.weight * complex(np.trace(self.kernel))

    def hermiticity_defect(self) -> float:
        """max |kernel - kernel^dagger|; NaN if the kernel holds NaN.

        Taken over blocks of rows so that the transposed reads stay in
        cache; one full conjugate transpose costs more than the rest.
        """
        kern = self.kernel
        block = 64
        return float(np.max([
            np.max(np.abs(kern[i:i + block] - kern[:, i:i + block].conj().T))
            for i in range(0, kern.shape[0], block)]))

    def eigenvalues(self) -> np.ndarray:
        """Occupation spectrum, ascending (Hermitian part of the kernel)."""
        self._check_side()
        return np.linalg.eigvalsh(self.matrix())

    def tensor(self) -> np.ndarray:
        """Kernel reshaped to (n,)*2k: unprimed axes first, then primed."""
        n = self.grid.n
        return self.kernel.reshape((n,) * (2 * self.k))

    def reduce(self, target_k: int) -> "MarginalDensity":
        """Trace out the last k - target_k particles (tower property)."""
        if not 1 <= target_k <= self.k:
            raise MarginalError(f"cannot reduce k={self.k} marginal to k={target_k}")
        out = self.tensor()
        h = self.grid.h
        for kk in range(self.k, target_k, -1):
            # pair last unprimed axis (kk-1) with last primed axis (2kk-1)
            out = np.trace(out, axis1=kk - 1, axis2=2 * kk - 1) * h
        side = self.grid.n ** target_k
        return MarginalDensity(self.grid, target_k, out.reshape(side, side), self.omega)

    def _check_side(self):
        if self.kernel.shape[0] > KERNEL_SIDE_CAP:
            raise MarginalError(
                f"dense spectral operation beyond kernel cap {KERNEL_SIDE_CAP}"
            )


def partial_trace(state: TensorState, k: int) -> MarginalDensity:
    """Marginal of the first k particles of a tensor state."""
    n_particles = state.n_particles
    if not 1 <= k <= n_particles:
        raise MarginalError(f"k={k} out of range for N={n_particles}")
    n = state.grid.n
    a = state.amplitudes.reshape(n ** k, n ** (n_particles - k))
    kern = (a @ a.conj().T) * state.grid.h ** (n_particles - k)
    return MarginalDensity(state.grid, k, kern, state.omega)


def product_projector(grid: Grid1D, phi: np.ndarray, k: int,
                      omega: float = 0.0) -> MarginalDensity:
    """Kernel of |phi><phi|^(tensor k) for a unit-norm one-particle phi."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (grid.n,):
        raise MarginalError("phi must be a one-particle grid function")
    nrm2 = grid.h * float(np.sum(np.abs(phi) ** 2))
    if abs(nrm2 - 1.0) > 1e-8:
        raise MarginalError(f"phi must be normalized, got ||phi||^2 = {nrm2}")
    vec = phi
    for _ in range(k - 1):
        vec = np.multiply.outer(vec, phi)
    vec = vec.reshape(-1)
    return MarginalDensity(grid, k, np.multiply.outer(vec, vec.conj()), omega)


def trace_norm(marginal: MarginalDensity) -> float:
    """Tr|.| of the weighted matrix as the sum of |eigenvalues|.

    Every kernel here is a density or a difference of densities, so the
    singular values are the absolute eigenvalues and the Hermitian solver
    applies.  It reads one triangle only, so a kernel that is not Hermitian
    to HERMITIAN_RTOL of its largest entry (or holds NaN) is rejected.
    """
    marginal._check_side()
    defect = marginal.hermiticity_defect()
    scale = float(np.max(np.abs(marginal.kernel)))
    if not defect <= HERMITIAN_RTOL * scale:
        raise MarginalError(
            f"trace_norm needs a Hermitian kernel; anti-Hermitian part "
            f"{defect:.3e} against largest entry {scale:.3e}")
    evals = np.linalg.eigvalsh(marginal.kernel)
    return marginal.weight * float(np.sum(np.abs(evals)))


def trace_distance(a: MarginalDensity, b: MarginalDensity) -> float:
    if a.k != b.k or a.grid != b.grid:
        raise MarginalError("marginals are not comparable")
    diff = MarginalDensity(a.grid, a.k, a.kernel - b.kernel, a.omega)
    return trace_norm(diff)


def chaos_distance(state: TensorState, k: int, phi: np.ndarray) -> float:
    """Tr | gamma^(k) - |phi><phi|^k |, the k-particle chaos defect."""
    gam = partial_trace(state, k)
    proj = product_projector(state.grid, phi, k, state.omega)
    return trace_distance(gam, proj)


def weighted_trace(marginal: MarginalDensity, kind: str = "S") -> float:
    """Tr prod_j W_j gamma W_j for W in {S, L}; computed as Tr(W^2 gamma).

    Both routes agree by cyclicity; this one needs no eigendecomposition.
    The value is >= trace(gamma) since both squared weights are >= 1.
    """
    weight = SobolevWeight(kind, marginal.omega if kind == "S" else 0.0)
    sym = weight.squared_symbol(marginal.grid)
    pot = weight.squared_potential(marginal.grid)
    n = marginal.grid.n
    out = marginal.tensor()
    for ax in range(marginal.k):
        shape = [1] * out.ndim
        shape[ax] = n
        out = apply_symbol(out, sym, ax) + pot.reshape(shape) * out
    side = n ** marginal.k
    value = marginal.weight * complex(np.trace(out.reshape(side, side)))
    return float(value.real)


def delta_pairing_diagonal(grid: Grid1D) -> np.ndarray:
    """Multiplication samples of delta(x1 - x2): Kronecker diagonal / h."""
    d = np.zeros((grid.n, grid.n))
    np.fill_diagonal(d, 1.0 / grid.h)
    return d


def mollifier_delta_test(gamma2: MarginalDensity, j_op, rho, alphas,
                         kappa: float = 0.5) -> dict:
    """Convergence of Tr J (rho_alpha(x1-x2) - delta(x1-x2)) gamma^(2).

    rho is a unit-mass mollifier shape; rho_alpha(x) = rho(x/alpha)/alpha.
    j_op is a bounded one-particle observable on particle 1, given either
    as a vector of multiplication samples or an (n, n) matrix.  Returns
    the sampled values and the fitted log-log exponent of |value| against
    alpha, to be compared with the requested kappa in (0, 1).

    Widths below twice the grid spacing are not resolvable and widths
    beyond L/4 wrap around the periodic box; both are rejected.
    """
    if gamma2.k != 2:
        raise MarginalError("mollifier test needs a two-particle marginal")
    grid = gamma2.grid
    if not 0.0 < kappa < 1.0:
        raise MarginalError(f"kappa must lie in (0, 1), got {kappa}")
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if np.any(alphas < 2.0 * grid.h):
        raise MarginalError("mollifier width below grid resolution")
    if np.any(alphas > grid.length / 4.0):
        raise MarginalError("mollifier width would wrap the periodic box")

    n = grid.n
    j_op = np.asarray(j_op, dtype=np.complex128)
    if j_op.ndim == 1:
        j_mat = None
        j_diag = j_op
    elif j_op.shape == (n, n):
        j_mat = j_op
        j_diag = None
    else:
        raise MarginalError("j_op must be a vector or an (n, n) matrix")

    g4 = gamma2.weight * gamma2.tensor()  # plain-matrix convention
    x = grid.x
    diff = x[:, None] - x[None, :]
    d_delta = delta_pairing_diagonal(grid)

    def pairing(dvals: np.ndarray) -> complex:
        if j_mat is None:
            diag = np.einsum("abab->ab", g4)
            return complex(np.sum(j_diag[:, None] * dvals * diag))
        m = np.einsum("pb,pbxb->px", dvals, g4)
        return complex(np.trace(j_mat @ m))

    base = pairing(d_delta)
    values = []
    for alpha in alphas:
        rho_a = rho(diff / alpha) / alpha
        values.append(pairing(rho_a) - base)
    values = np.asarray(values)

    mags = np.abs(values)
    slope = float("nan")
    if len(alphas) >= 2 and np.all(mags > 0):
        slope = float(np.polyfit(np.log(alphas), np.log(mags), 1)[0])
    return {
        "alphas": alphas,
        "values": values,
        "slope": slope,
        "kappa": kappa,
        "passes": bool(slope >= kappa - 0.1) if math.isfinite(slope) else False,
    }
