"""Reduced density matrices of tensor states and distances between them.

The k-particle marginal of an N-particle wavefunction is the kernel

    gamma^(k)(x_1..x_k; x'_1..x'_k)
        = integral psi(x_k, z) conj(psi(x'_k, z)) dz,

realized on the grid by contracting the traced axes with quadrature
weight h^(N-k).  Kernels are stored as continuum samples; the weighted
matrix h^k * kernel is the object whose plain trace is 1 and whose
eigenvalues are occupation probabilities.  Hermiticity and positivity
are structural (gamma = A A^dagger) and checked, not enforced.

Chaos distances Tr|gamma^(k) - |phi><phi|^(tensor k)| of bosonic states
are taken on the symmetric subspace Sym^k, of dimension C(n+k-1, k)
(528 against n^2 = 1024 at n = 32, k = 2): both operators vanish off it,
so their difference has the same nonzero spectrum there.  A state that
is not symmetric in its first k particles to SECTOR_RTOL is rejected.
On the sector the difference is B W B^dagger, with B = [A, v] the sector
coordinates of the amplitude matrix and of phi^(tensor k), and W =
diag(h^(N-k), ..., h^(N-k), -1); its rank is at most n^(N-k) + 1.  When B
has more rows than columns it is replaced by the R factor of its QR
decomposition, and R W R^dagger, of that smaller side (2 at N = 2 and 33
at N = 3 for n = 32, k = 2), has the same nonzero spectrum.

The delta interaction of the limiting hierarchy is realized as diagonal
pairing with weight 1/h, which is the convention under which the
mollifier consistency test below converges as the mollifier width
shrinks (while staying above the grid resolution).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .grid import Grid1D, TensorState, symmetrize_leading


class MarginalError(ValueError):
    """Raised for inconsistent marginal constructions or kernel sizes."""


# Dense eigendecompositions (occupation spectra, and the Hermitian
# eigenvalue route of trace_norm and chaos_distance) are capped at this
# side of the matrix actually decomposed: n^k for a marginal, the sector
# dimension C(n+k-1, k) for chaos_distance.
KERNEL_SIDE_CAP = 4096

# The Hermitian eigensolver reads one triangle of its input, so kernels
# whose anti-Hermitian part exceeds this share of the largest entry of the
# operands they were formed from are rejected.
HERMITIAN_RTOL = 1e-12

# chaos_distance rejects states with ||psi - S_k psi|| / ||psi|| above this,
# S_k the symmetrizer of the first k particles.
SECTOR_RTOL = 1e-12


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

    def eigenvalues(self) -> np.ndarray:
        """Occupation spectrum, ascending (Hermitian part of the kernel)."""
        _check_side(self.kernel.shape[0])
        return np.linalg.eigvalsh(self.matrix())

    def tensor(self) -> np.ndarray:
        """Kernel reshaped to (n,)*2k: unprimed axes first, then primed."""
        n = self.grid.n
        return self.kernel.reshape((n,) * (2 * self.k))


def _check_side(side: int):
    if side > KERNEL_SIDE_CAP:
        raise MarginalError(
            f"dense spectral operation of side {side} beyond kernel cap "
            f"{KERNEL_SIDE_CAP}")


def _hermiticity_defect(kern: np.ndarray) -> float:
    """max |kern - kern^dagger|; NaN if kern holds NaN.

    Taken over blocks of rows so that the transposed reads stay in cache;
    one full conjugate transpose costs more than the rest.
    """
    block = 64
    return float(np.max([
        np.max(np.abs(kern[i:i + block] - kern[:, i:i + block].conj().T))
        for i in range(0, kern.shape[0], block)]))


def _hermitian_trace_norm(kern: np.ndarray, weight: float,
                          scale: float | None = None) -> float:
    """weight * sum |eigvalsh(kern)|, behind the side cap and Hermitian guard.

    The solver reads one triangle only, so a kernel whose anti-Hermitian
    part exceeds HERMITIAN_RTOL * scale (or that holds NaN) is rejected.
    scale is the largest entry of the operands kern was formed from; the
    default is kern's own.  A difference of two densities passes theirs,
    since its rounding follows the operands, not the (possibly tiny)
    difference.
    """
    _check_side(kern.shape[0])
    defect = _hermiticity_defect(kern)
    if scale is None:
        scale = float(np.max(np.abs(kern)))
    if not defect <= HERMITIAN_RTOL * scale:
        raise MarginalError(
            f"trace norm needs a Hermitian kernel; anti-Hermitian part "
            f"{defect:.3e} against largest entry {scale:.3e}")
    return weight * float(np.sum(np.abs(np.linalg.eigvalsh(kern))))


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
    vec = _product_vector(grid, phi, k)
    return MarginalDensity(grid, k, np.multiply.outer(vec, vec.conj()), omega)


def _product_vector(grid: Grid1D, phi: np.ndarray, k: int) -> np.ndarray:
    """phi^(tensor k) flattened to length n^k, for a unit-norm grid orbital."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (grid.n,):
        raise MarginalError("phi must be a one-particle grid function")
    nrm2 = grid.h * float(np.sum(np.abs(phi) ** 2))
    if abs(nrm2 - 1.0) > 1e-8:
        raise MarginalError(f"phi must be normalized, got ||phi||^2 = {nrm2}")
    vec = phi
    for _ in range(k - 1):
        vec = np.multiply.outer(vec, phi)
    return vec.reshape(-1)


def trace_norm(marginal: MarginalDensity) -> float:
    """Tr|.| of the weighted matrix as the sum of |eigenvalues|.

    Every kernel here is a density or a difference of densities, so the
    singular values are the absolute eigenvalues and the Hermitian solver
    applies.  It reads one triangle only, so a kernel that is not Hermitian
    to HERMITIAN_RTOL of its largest entry (or holds NaN) is rejected.
    """
    return _hermitian_trace_norm(marginal.kernel, marginal.weight)


def trace_distance(a: MarginalDensity, b: MarginalDensity) -> float:
    """Tr|a - b| of two marginals on the same grid and particle count."""
    if a.k != b.k or a.grid != b.grid:
        raise MarginalError("marginals are not comparable")
    scale = max(float(np.max(np.abs(a.kernel))),
                float(np.max(np.abs(b.kernel))))
    return _hermitian_trace_norm(a.kernel - b.kernel, a.weight, scale)


def _sector_basis(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted multi-indices i_1 <= ... <= i_k of Sym^k on n sites.

    Returns their flat indices into C^(n^k) and sqrt(multiplicity), the
    multiplicity being the number of distinct orderings of the index.
    For a symmetric vector v the sector coordinates sqrt(mult) * v[flat]
    are those in the orthonormal basis of normalized orbit sums.
    """
    idx = np.array(list(itertools.combinations_with_replacement(range(n), k)),
                   dtype=np.intp)
    flat = np.ravel_multi_index(idx.T, (n,) * k)
    mult = [math.factorial(k) // math.prod(map(math.factorial,
                                                Counter(row).values()))
            for row in idx.tolist()]
    return flat, np.sqrt(np.asarray(mult, dtype=float))


def chaos_distance(state: TensorState, k: int, phi: np.ndarray) -> float:
    """Tr | gamma^(k) - |phi><phi|^k |, the k-particle chaos defect.

    Evaluated on the symmetric sector Sym^k of dimension C(n+k-1, k): the
    columns of the amplitude matrix (first k axes by the rest) and
    phi^(tensor k) are mapped to sector coordinates, and the trace norm is
    h^k * sum |eigvalsh| of h^(N-k) A A^dagger - v v^dagger on that side,
    or, when [A, v] has more rows than columns, of the same form in the
    columns of its R factor.
    This equals the trace distance of partial_trace(state, k) to
    product_projector(phi, k) whenever the state is symmetric in its first
    k particles, so a state with ||psi - S_k psi|| / ||psi|| above
    SECTOR_RTOL (or holding NaN) raises MarginalError.  At k = 1 the
    sector is the whole one-particle space and every state is accepted.
    """
    n_particles = state.n_particles
    if not 1 <= k <= n_particles:
        raise MarginalError(f"k={k} out of range for N={n_particles}")
    grid = state.grid
    n, h = grid.n, grid.h
    _check_side(math.comb(n + k - 1, k))
    vec = _product_vector(grid, phi, k)
    amps = state.amplitudes
    coords = amps.reshape(n ** k, -1)
    if k > 1:  # at k = 1 the sector map is the identity
        sym = symmetrize_leading(amps, k)
        defect = float(np.linalg.norm(amps - sym) / np.linalg.norm(amps))
        if not defect <= SECTOR_RTOL:
            raise MarginalError(
                f"state is off the bosonic sector of its first {k} particles: "
                f"||psi - S_k psi|| / ||psi|| = {defect:.3e} > {SECTOR_RTOL}")
        flat, root_mult = _sector_basis(n, k)
        coords = sym.reshape(n ** k, -1)[flat]
        coords *= root_mult[:, None]
        vec = vec[flat] * root_mult
    if coords.shape[0] > coords.shape[1] + 1:
        # the kernel is B W B^dagger with B = [coords, vec]; B = QR leaves
        # R W R^dagger, whose nonzero spectrum is the same
        r = np.linalg.qr(np.column_stack((coords, vec)), mode="r")
        coords, vec = r[:, :-1], r[:, -1]
    kern = (coords @ coords.conj().T) * h ** (n_particles - k)
    scale = max(float(np.max(np.abs(kern))), float(np.max(np.abs(vec))) ** 2)
    kern -= np.multiply.outer(vec, vec.conj())
    return _hermitian_trace_norm(kern, h ** k, scale)


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
