"""Reduced density matrices of bosonic states and distances between them.

The k-particle marginal of an N-particle wavefunction is the kernel

    gamma^(k)(x_1..x_k; x'_1..x'_k)
        = integral psi(x_k, z) conj(psi(x'_k, z)) dz,

realized on the grid by contracting the traced axes with quadrature
weight h^(N-k).  Kernels are stored as continuum samples; the weighted
matrix h^k * kernel is the object whose plain trace is 1 and whose
eigenvalues are occupation probabilities.  Hermiticity and positivity
are structural (gamma = A A^dagger) and checked, not enforced.  Like a
state, a marginal carries no trap frequency; the operators that need one
(the lens map, the S weight) take it.

Chaos distances Tr|gamma^(k) - |phi><phi|^(tensor k)| of bosonic states
are taken on the symmetric subspace Sym^k, of dimension C(n+k-1, k)
(528 against n^2 = 1024 at n = 32, k = 2): both operators vanish off it,
so their difference has the same nonzero spectrum there.
sector_marginal(state, k) gives gamma^(k) there as its factor A, with
gamma^(k) = h^(N-k) A A^dagger, read off a BosonicState's sector values
by one cached gather (no n^N tensor).  partial_trace gives the full
n^k x n^k kernel as h^(N-k) F F^dagger, F the same fold with a row for
every k-index tuple (_full_fold), so it forms no n^N tensor either; the
BBGKY collision term (nbody) reads F at k + 1.  All of them take a
BosonicState, the package's one N-particle state (a tensor becomes one
through grid.symmetrize).  On the sector the
difference is D = h^(N-k) A A^dagger - v v^dagger, with v the sector
coordinates of phi^(tensor k), sqrt(mult) times grid.sector_product.
At k = 1 (side n) D is formed and its eigenvalues
summed.  For k >= 2 D is a positive operator minus a rank-one
projector, so it has at most one negative eigenvalue and
Tr|D| = Tr D - 2 min(lambda_min, 0): Tr D comes from the norms of A and
v, and lambda_min from grid.lanczos_min applied matrix-free, x ->
h^(N-k) A (A^dagger x) - v (v^dagger x), started from v.  No kernel of
the sector side is formed.

The delta interaction of the limiting hierarchy is realized as diagonal
pairing with weight 1/h, which is the convention under which the
mollifier consistency test below converges as the mollifier width
shrinks (while staying above the grid resolution).  The test pairs a
multiplication observable with gamma^(2), so it reads only the pair
density, the diagonal of gamma^(2), as row sums of |F|^2 for the fold
F at k = 2; it forms no n^2 x n^2 kernel.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import grid as _grid
from .grid import BosonicState, Grid1D, pair_differences, sector_product


class MarginalError(ValueError):
    """Raised for inconsistent marginal constructions or kernel sizes."""


# The Hermitian eigensolver reads one triangle of its input, so kernels
# whose anti-Hermitian part exceeds this share of the largest entry of the
# operands they were formed from are rejected.
HERMITIAN_RTOL = 1e-12


@dataclass
class MarginalDensity:
    """k-particle reduced density with kernel of shape (n^k, n^k)."""

    grid: Grid1D
    k: int
    kernel: np.ndarray

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

    def tensor(self) -> np.ndarray:
        """Kernel reshaped to (n,)*2k: unprimed axes first, then primed."""
        n = self.grid.n
        return self.kernel.reshape((n,) * (2 * self.k))


def _check_side(side: int):
    """Dense spectral work is capped at the side of the matrix it
    decomposes: n^k for the eigendecomposition of a marginal
    (trace_norm) and n for chaos_distance's k = 1 kernel.  Its k >= 2
    route applies the sector operator matrix-free and forms no matrix,
    so it takes no cap."""
    if side > _grid.DENSE_SIDE_CAP:
        raise MarginalError(
            f"dense spectral operation of side {side} beyond kernel cap "
            f"{_grid.DENSE_SIDE_CAP}")


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


def _check_bosonic(state) -> None:
    """MarginalError unless state is a BosonicState."""
    if not isinstance(state, BosonicState):
        raise MarginalError(f"marginals need a BosonicState, not a "
                            f"{type(state).__name__}; symmetrize it first")


def partial_trace(state: BosonicState, k: int) -> MarginalDensity:
    """Marginal of the first k particles of a bosonic state,
    h^(N-k) F F^dagger for F = _full_fold(state, k), so no n^N tensor is
    formed; MarginalError for anything but a BosonicState."""
    _check_bosonic(state)
    n_particles = state.n_particles
    if not 1 <= k <= n_particles:
        raise MarginalError(f"k={k} out of range for N={n_particles}")
    a = _full_fold(state, k)
    kern = (a @ a.conj().T) * state.grid.h ** (n_particles - k)
    return MarginalDensity(state.grid, k, kern)


def _orbital(grid: Grid1D, phi: np.ndarray) -> np.ndarray:
    """phi as a complex array, checked to be a unit-norm grid orbital."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (grid.n,):
        raise MarginalError("phi must be a one-particle grid function")
    nrm2 = grid.h * float(np.sum(np.abs(phi) ** 2))
    if not abs(nrm2 - 1.0) <= 1e-8:  # NaN fails closed
        raise MarginalError(f"phi must be normalized, got ||phi||^2 = {nrm2}")
    return phi


def trace_norm(marginal: MarginalDensity) -> float:
    """Tr|.| of the weighted matrix as the sum of |eigenvalues|.

    Every kernel here is a density or a difference of densities, so the
    singular values are the absolute eigenvalues and the Hermitian solver
    applies.  It reads one triangle only, so a kernel that is not Hermitian
    to HERMITIAN_RTOL of its largest entry (or holds NaN) is rejected.
    """
    return _hermitian_trace_norm(marginal.kernel, marginal.weight)


@functools.lru_cache(maxsize=8)
def _sector_fold(n: int, nn: int, k: int) -> tuple[np.ndarray, tuple]:
    """(table, roots) that read sector_marginal's factor A off the
    sector values of an nn-boson state (grid.sector_tables).

    table[a, c] is the rank of the sorted nn-tuple made of the sorted
    k-tuple of rank a and the sorted (nn-k)-tuple of rank c: the rank of
    c (the empty tuple has rank 0) with a's k indices added one at a time
    through the ranks of widths nn-k+1..nn.  roots holds sqrt(mult(a)) as
    a column and sqrt(mult(c)) as a row, so that A = values[table] times
    both.  The last 8 (n, nn, k) triples are cached, read-only: 2.2 MB
    at n = 32, nn = 4, k = 2.
    """
    tables, _ = _grid.sector_tables(n, nn)
    kept, _, mult_kept = tables[k - 1]
    if k == nn:
        rank, mult_rest = np.zeros(1, dtype=np.intp), np.ones(1)
    else:
        rank = np.arange(len(tables[nn - k - 1][0]))
        mult_rest = tables[nn - k - 1][2]
    table = np.broadcast_to(rank, (len(kept), len(rank)))
    for p in range(k):
        table = tables[nn - k + p][1][table, kept[:, p, None]]
    roots = (np.sqrt(mult_kept)[:, None], np.sqrt(mult_rest))
    for arr in (table, *roots):
        arr.flags.writeable = False
    return table, roots


def _full_fold(state: BosonicState, k: int) -> np.ndarray:
    """F[i, c] = psi(sort(i + c)) sqrt(mult(c)), of shape
    (n^k, C(n+N-k-1, N-k)): a row per k-index tuple i, in C order, and a
    column per sorted (N-k)-tuple c of the traced particles, so that
    F F^dagger sums psi(i, z) conj(psi(i', z)) over every traced tuple z.
    The rows are _sector_fold's table at the rank of each i's sorted
    tuple; no n^N tensor is formed.  The caller checks state and k."""
    n = state.grid.n
    table, roots = _sector_fold(n, state.n_particles, k)
    tables, expand = _grid.sector_tables(n, k)
    rows = np.take(table, tables[-1][1][expand].reshape(-1), axis=0)
    fold = np.take(state.values, rows)
    fold *= roots[1]
    return fold


def sector_marginal(state: BosonicState, k: int) -> np.ndarray:
    """The Sym^k factor A of the k-particle marginal of a bosonic state.

    h^(N-k) A A^dagger is the kernel of gamma^(k) on Sym^k, in the
    orthonormal basis of normalized orbit sums of the sorted k-tuples
    (grid.sorted_tuples); at k = 1 that is the grid basis itself.  A has
    shape (C(n+k-1, k), C(n+N-k-1, N-k)), one row per sorted k-tuple and
    one column per sorted (N-k)-tuple c of the traced particles: one
    gather of the state's values through a cached rank table, times
    sqrt(mult(row) mult(c)) (_sector_fold).  No n^N tensor is formed.
    Raises MarginalError for a state that is not a BosonicState (a bare
    tensor, symmetric or not) or whose ||psi|| is not finite and nonzero.
    """
    _check_bosonic(state)
    nn = state.n_particles
    if not 1 <= k <= nn:
        raise MarginalError(f"k={k} out of range for N={nn}")
    norm = float(np.linalg.norm(state.values))  # no warning on NaN or inf
    if not 0.0 < norm < math.inf:
        raise MarginalError(f"state has ||psi|| = {norm} on the grid")
    table, roots = _sector_fold(state.grid.n, nn, k)
    coords = np.take(state.values, table)
    for root in roots:
        coords *= root
    return coords


def chaos_distance(state: BosonicState, k: int, phi: np.ndarray) -> float:
    """Tr | gamma^(k) - |phi><phi|^k |, the k-particle chaos defect.

    Evaluated on the symmetric sector Sym^k of dimension C(n+k-1, k):
    A = sector_marginal(state, k) and the sector coordinates
    v = sqrt(mult) * sector_product(phi, k) of phi^(tensor k) give the
    trace norm as h^k Tr|D| for D = h^(N-k) A A^dagger - v v^dagger.  At
    k = 1 it is h sum |eigvalsh(D)|.  For k >= 2 it is
    h^k max(Tr D - 2 min(lambda_min, 0), |Tr D|), with Tr D from the
    norms of A and v and lambda_min from grid.lanczos_min started at v
    (which is not orthogonal to the negative eigenvector u, since
    u^dagger D u < 0 <= u^dagger (h^(N-k) A A^dagger) u); the |Tr D|
    floor keeps rounding from taking the value below that lower bound.
    This equals the trace distance of partial_trace(state, k) to the
    projector |phi><phi|^(tensor k).  The state must be a BosonicState
    (MarginalError otherwise).
    """
    _check_bosonic(state)
    n_particles = state.n_particles
    if not 1 <= k <= n_particles:
        raise MarginalError(f"k={k} out of range for N={n_particles}")
    grid = state.grid
    n, h = grid.n, grid.h
    vec = sector_product(_orbital(grid, phi), k)
    coords = sector_marginal(state, k)
    weight = h ** (n_particles - k)
    if k == 1:
        _check_side(n)  # before the n x n kernel is formed
        kern = (coords @ coords.conj().T) * weight
        scale = max(float(np.max(np.abs(kern))),
                    float(np.max(np.abs(vec))) ** 2)
        kern -= np.multiply.outer(vec, vec.conj())
        return _hermitian_trace_norm(kern, h, scale)
    vec *= np.sqrt(_grid.sector_tables(n, k)[0][-1][2])
    trace_gamma = weight * _sum_sq(coords)
    norm_v = _sum_sq(vec)

    def apply(x):
        # x^dagger A is conj(A^dagger x), so A is read in place, untransposed
        out = coords @ (x.conj() @ coords).conj()
        out *= weight
        out -= vec * np.vdot(vec, x)
        return out

    lam = _grid.lanczos_min(apply, vec, trace_gamma + norm_v)
    trace_d = trace_gamma - norm_v
    return h ** k * max(trace_d - 2.0 * min(lam, 0.0), abs(trace_d))


def _sum_sq(a: np.ndarray) -> float:
    """sum |a|^2 by numpy's pairwise sum, whose rounding stays near one
    ulp; a BLAS dot sums the 540k squares of an N = 4, k = 2 factor in
    an order whose error reached 1e-13 of the total."""
    flat = np.ascontiguousarray(a).reshape(-1).view(np.float64)
    return float(np.sum(flat * flat))


def delta_pairing_diagonal(grid: Grid1D) -> np.ndarray:
    """Multiplication samples of delta(x1 - x2): Kronecker diagonal / h."""
    d = np.zeros((grid.n, grid.n))
    np.fill_diagonal(d, 1.0 / grid.h)
    return d


def mollifier_delta_test(state: BosonicState, j_diag, rho, alphas) -> dict:
    """Convergence of Tr J (rho_alpha(x1-x2) - delta(x1-x2)) gamma^(2).

    rho is a unit-mass mollifier shape; rho_alpha(x) = rho(x/alpha)/alpha.
    j_diag is a bounded multiplication observable on particle 1, given by
    its n real samples.  A multiplication observable pairs gamma^(2) only
    on its diagonal, the pair density
    rho_2(x1, x2) = h^(N-2) sum_c |F[(x1, x2), c]|^2 of the fold
    F = _full_fold(state, 2), so no n^2 x n^2 kernel is formed; h^2 rho_2
    is the diagonal of the weighted matrix, and each pairing sums
    j(x1) d(x1, x2) h^2 rho_2(x1, x2) over the pair grid.  Returns the
    widths, the real values and the fitted log-log exponent of |value|
    against alpha.

    The state must be a BosonicState of two or more particles.  Widths
    below twice the grid spacing are not resolvable and widths beyond L/4
    wrap around the periodic box; both are rejected.
    """
    _check_bosonic(state)
    if state.n_particles < 2:
        raise MarginalError(f"mollifier test needs a two-particle pair "
                            f"density, got N = {state.n_particles}")
    grid = state.grid
    alphas = np.atleast_1d(np.asarray(alphas, dtype=float))
    if np.any(alphas < 2.0 * grid.h):
        raise MarginalError("mollifier width below grid resolution")
    if np.any(alphas > grid.length / 4.0):
        raise MarginalError("mollifier width would wrap the periodic box")
    n = grid.n
    j_diag = np.asarray(j_diag, dtype=float)
    if j_diag.shape != (n,):
        raise MarginalError(f"j_diag must hold {n} samples, got shape "
                            f"{j_diag.shape}")

    fold = _full_fold(state, 2)
    density = np.sum(fold.real ** 2 + fold.imag ** 2, axis=1).reshape(n, n)
    density *= grid.h ** state.n_particles  # h^2 rho_2
    diff = pair_differences(grid)

    def pairing(dvals: np.ndarray) -> float:
        return float(np.sum(j_diag[:, None] * dvals * density))

    base = pairing(delta_pairing_diagonal(grid))
    values = np.array([pairing(rho(diff / alpha) / alpha) - base
                       for alpha in alphas])

    mags = np.abs(values)
    slope = float("nan")
    if len(alphas) >= 2 and np.all(mags > 0):
        slope = float(np.polyfit(np.log(alphas), np.log(mags), 1)[0])
    return {"alphas": alphas, "values": values, "slope": slope}
