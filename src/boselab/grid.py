"""Periodic grid, discrete Fourier conventions, and weighted Sobolev norms.

All wavefunctions live on the uniform periodic grid

    x_j = -L + j*h,   j = 0..n-1,   h = 2L/n,

with wavenumbers k_m = pi*m/L for m in {-n/2, ..., n/2-1} (standard DFT
layout).  The discrete L^2 inner product carries the quadrature weight h^N
for an N-particle state, so continuum formulas transfer literally:

    <psi, phi> = h^N * sum conj(psi) * phi.

Diagonal Fourier multipliers (kinetic phases, Sobolev symbols) are applied
with raw fft/ifft pairs since the normalization cancels.  Dense n x n
forms (fourier_matrix, F^-1 diag(symbol) F, and the lens transform's
trigonometric interpolant) are applied along one axis by apply_matrix.

The one-particle pieces are defined here once.  The operator
h = -d^2/2 + omega^2 x^2/2, in which every energy estimate is written
(S^2 = 1 + h), has the kinetic symbol kinetic_symbol (k^2/2) and the trap
multiplier trap_potential; dense_operator builds the Hermitized dense
form "Fourier symbol + multiplier" of h, S^2 and their relatives.  The
trap frequency omega is a parameter of these operators, not of a state:
the weight helpers (apply_weight_squared, weighted_norm_squared,
dense_weight_squared) take it as an argument, as the system and the lens
map do.  The bracket <k>^2 = 1 + k^2 (bracket_squared) weights the flat
Sobolev norms and the collapsing estimate; pair_differences is the
x_i - x_j grid on which pair potentials are sampled; gaussian_packet is
the normalized Gaussian orbital.  DENSE_SIDE_CAP is the one cap on the
side of a dense matrix that is built or decomposed.  sorted_tuples
enumerates the sorted index tuples that span the bosonic sector, with
their ranks and multiplicities, and sector_tables caches them for every
width up to N.  An N-particle state is a BosonicState, its
C(n+N-1, N) values at the sorted N-tuples, the only state nbody
propagates and marginals reduces; as_tensor checks a general (n,)*N
array against the grid, symmetrize projects it onto the sector, and
sector_product gives the values of a product state phi^(tensor k).
One-particle orbitals, and the tensors the weight helpers and the lens
map act on, are plain complex arrays passed with their Grid1D, as nls
passes its fields.  A BosonicState forms its full tensor on each read
of amplitudes and keeps none; in the package only the right side of
energy_checks' decomposition identity reads it.  lanczos_min is the
one Krylov solver, for the chaos distances, the pair block and the
smoothing bound: the smallest eigenvalue of a matrix-free Hermitian
operator by a three-term Lanczos recurrence.

The package has one thread pool, defined here: its size is read once at
import from OMP_NUM_THREADS (which ``--threads`` sets) or else from the
CPUs the process may run on.  collapse's kernel_H blocks run on it;
nbody's flow runs on the calling thread.  _in_blocks splits range(n) into
contiguous blocks, keeps the first block on the calling thread and
hands the others to the pool; called from one of the pool's own tasks
it runs inline, so no pooled task ever waits on the pool.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np


class GridError(ValueError):
    """Raised for inconsistent grid parameters or state payloads."""


class ConvergenceError(ArithmeticError):
    """Raised when an iterative solver stops without a converged value."""


# The largest side of a dense matrix built or decomposed anywhere: the
# sector N-body Hamiltonian of the spectral cutoff, marginal and sector
# kernels, and the trap ground state's eigensolve.
DENSE_SIDE_CAP = 4096

# lanczos_min stops once its smallest Ritz pair's residual is at most
# LANCZOS_RTOL times the caller's operator-norm bound, and raises
# ConvergenceError after LANCZOS_MAX_ITER steps (energy's pair block: ~4n)
LANCZOS_RTOL = 1e-14
LANCZOS_MAX_ITER = 2048
_RITZ_EVERY = 16


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
_POOL = ThreadPoolExecutor(max_workers=_POOL_SIZE)
# set on a thread while it runs one of _in_blocks' pooled blocks
_IN_POOL = threading.local()


def _pooled(fn, lo: int, hi: int) -> None:
    _IN_POOL.active = True
    try:
        fn(lo, hi)
    finally:
        _IN_POOL.active = False


def _in_blocks(fn, n: int) -> None:
    """fn(lo, hi) on min(pool size, n) contiguous blocks of range(n).

    The calling thread takes the first block and the pool the others.
    The blocks must write disjoint outputs; then the result does not
    depend on the split.  Inside a pooled block it runs all of range(n)
    inline.
    """
    parts = min(_POOL_SIZE, n)
    if parts <= 1 or getattr(_IN_POOL, "active", False):
        fn(0, n)
        return
    bounds = [n * i // parts for i in range(parts + 1)]
    jobs = [_POOL.submit(_pooled, fn, lo, hi)
            for lo, hi in zip(bounds[1:-1], bounds[2:])]
    try:
        fn(bounds[0], bounds[1])
    finally:
        for job in jobs:
            job.result()


def _is_power_of_two(n: int) -> bool:
    return n >= 2 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid1D:
    """One-dimensional periodic grid on [-L, L) with n points.

    n must be a power of two (keeps FFT lengths predictable).
    """

    n: int
    length: float  # the half-width L

    def __post_init__(self):
        if not _is_power_of_two(self.n):
            raise GridError(f"grid size must be a power of two, got {self.n}")
        if not 0 < self.length < math.inf:
            raise GridError(f"grid half-width must be finite and positive, "
                            f"got {self.length}")

    @property
    def h(self) -> float:
        return 2.0 * self.length / self.n

    @property
    def x(self) -> np.ndarray:
        return -self.length + self.h * np.arange(self.n)

    @property
    def k(self) -> np.ndarray:
        """Wavenumbers k_m = pi*m/L in FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)


def trap_potential(grid: Grid1D, omega: float) -> np.ndarray:
    """The trap multiplier omega^2 x^2 / 2 on the grid points; with the
    kinetic symbol k^2 / 2 it makes the one-particle operator
    h = -d^2/2 + omega^2 x^2/2, and S^2 = 1 + h."""
    return 0.5 * omega ** 2 * grid.x ** 2


def kinetic_symbol(grid: Grid1D) -> np.ndarray:
    """The kinetic symbol k^2 / 2 of h, in FFT ordering."""
    return 0.5 * grid.k ** 2


def bracket_squared(grid: Grid1D) -> np.ndarray:
    """The bracket <k>^2 = 1 + k^2, the symbol of L^2 = 1 - d^2."""
    return 1.0 + grid.k ** 2


def pair_differences(grid: Grid1D) -> np.ndarray:
    """x_i - x_j on the pair grid, shape (n, n)."""
    x = grid.x
    return x[:, None] - x[None, :]


def gaussian_packet(grid: Grid1D, width: float) -> np.ndarray:
    """exp(-x^2 / (2 width^2)) normalized to unit L^2 norm on the grid."""
    prof = np.exp(-grid.x ** 2 / (2.0 * width ** 2)).astype(np.complex128)
    return prof / math.sqrt(grid.h * float(np.sum(np.abs(prof) ** 2)))


def on_axes(values: np.ndarray, ndim: int, *axes: int) -> np.ndarray:
    """values viewed against an ndim tensor: its dimensions on the given
    axes (in ascending order), size 1 on every other axis."""
    return np.expand_dims(values, tuple(ax for ax in range(ndim)
                                        if ax not in axes))


def apply_symbol(a: np.ndarray, symbol: np.ndarray, axis: int) -> np.ndarray:
    """Apply a Fourier-diagonal operator along one axis (raw fft round trip)."""
    sym = on_axes(symbol, a.ndim, axis)
    return np.fft.ifft(sym * np.fft.fft(a, axis=axis), axis=axis)


def apply_matrix(a: np.ndarray, mat: np.ndarray, axis: int) -> np.ndarray:
    """Apply an n x n matrix along one axis as one matrix product: the
    rows of a times mat^T on the last axis, else mat times the (before,
    n, after) view of a, batched; no axis is moved or copied."""
    n = a.shape[axis]
    if axis == a.ndim - 1:
        out = a.reshape(-1, n) @ mat.T
    else:
        out = np.matmul(mat, a.reshape(math.prod(a.shape[:axis]), n, -1))
    return out.reshape(a.shape)


def as_tensor(grid: Grid1D, a) -> np.ndarray:
    """a as a contiguous complex (n,)*N array on the grid, N >= 1;
    GridError for any other shape."""
    a = np.ascontiguousarray(a, dtype=np.complex128)
    if any(s != grid.n for s in a.shape):
        raise GridError(
            f"amplitudes of shape {a.shape} do not match grid size {grid.n}")
    return a


def _weight_parts(grid: Grid1D, kind: str,
                  omega: float) -> tuple[np.ndarray, np.ndarray]:
    """(Fourier symbol, multiplier) of the squared weight S^2 =
    1 - d^2/2 + omega^2 x^2/2 (kind 'S') or L^2 = 1 - d^2 (kind 'L',
    which ignores omega)."""
    if kind == "L":
        return bracket_squared(grid), np.zeros(grid.n)
    if kind != "S":
        raise GridError(f"unknown weight kind {kind!r}")
    if not 0 <= omega < math.inf:
        raise GridError("trap frequency must be finite and nonnegative")
    return 1.0 + kinetic_symbol(grid), trap_potential(grid, omega)


def apply_weight_squared(grid: Grid1D, a: np.ndarray, axes, kind: str,
                         omega: float) -> np.ndarray:
    """Apply the product of squared Sobolev weights over the given axes
    of a tensor a on the grid.

    kind 'S' is 1 + h at trap frequency omega; kind 'L' is the flat-space
    weight 1 - d^2 (callers pass omega = 0.0).  The squared operator is
    exactly Fourier-kinetic plus position multiplication, so repeated
    application realizes integer powers of S^2 without any
    eigendecomposition.
    """
    out = as_tensor(grid, a)
    axes = _normalize_axes(axes, out.ndim)
    sym, pot = _weight_parts(grid, kind, omega)
    for ax in axes:
        kin = apply_symbol(out, sym, ax)
        out = kin + on_axes(pot, out.ndim, ax) * out
    return out


def weighted_norm_squared(grid: Grid1D, a: np.ndarray, axes, kind: str,
                          omega: float) -> float:
    """<psi, prod_j W_j^2 psi> over the given axes of a tensor psi; real
    and >= ||psi||^2 for kind 'S' or 'L' since both squared weights are
    >= 1.  The real part of the inner product is summed over float views
    without BLAS, as _norm_sq sums, so it does not depend on the BLAS
    thread count."""
    a = as_tensor(grid, a)
    weighted = apply_weight_squared(grid, a, axes, kind, omega)
    flat = a.reshape(-1).view(np.float64)
    return grid.h ** a.ndim * float(np.einsum(
        "i,i->", flat, weighted.reshape(-1).view(np.float64)))


def _normalize_axes(axes, ndim: int):
    if isinstance(axes, (int, np.integer)):
        axes = [int(axes)]
    axes = [int(a) for a in axes]
    for a in axes:
        if a < 0 or a >= ndim:
            raise GridError(f"axis {a} out of range for {ndim} particles")
    if len(set(axes)) != len(axes):
        raise GridError("repeated axes in weight application")
    return axes


def sorted_tuples(n: int, k: int) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
    """The sorted index tuples i_1 <= ... <= i_k on n sites, the basis of
    the bosonic sector Sym^k, as (tuples, ranks, multiplicity).

    tuples, shape (C(n+k-1, k), k), lists them in lexicographic order,
    that of itertools.combinations_with_replacement; a tuple's rank is
    its row.  ranks, shape (C(n+k-2, k-1), n), holds at [r, j] the rank
    of the sorted k-tuple made of the (k-1)-tuple of rank r and the index
    j (the empty tuple has rank 0), so the rank of any index tuple, in
    any order, follows by adding its indices one at a time.
    multiplicity is the number of distinct orderings of each tuple, as
    floats.  Each width m = 1..k is built from the one before with a few
    array passes, no Python loop over tuples: 6 ms at n = 32, k = 4.
    """
    if n < 1 or k < 1:
        raise GridError(f"need n, k >= 1 for sorted tuples, got {n}, {k}")
    j = np.arange(n)
    tuples, ranks, prefix = j[:, None], j[None, :], np.zeros(n, np.intp)
    for _ in range(k - 1):
        # lexicographic order lists the m-tuples by their (m-1)-prefix,
        # then by a last index from the prefix's last up to n - 1
        last = tuples[:, -1]
        counts = n - last
        first = np.cumsum(counts) - counts
        row = np.repeat(np.arange(len(tuples)), counts)
        # sorted, b with j added is b's prefix with j, then b's last (if
        # j < last), or else b, then j: the (m-1)-tuple head, then the
        # larger of j and b's last, which sits in head's run of m-tuples
        head = np.where(j >= last[:, None], np.arange(len(tuples))[:, None],
                        ranks[prefix])
        ranks = first[head] + np.maximum(j, last[:, None]) - last[head]
        tuples = np.column_stack(
            (tuples[row], np.arange(len(row)) - first[row] + last[row]))
        prefix = row
    # multiplicity k! / prod(run lengths!), from each entry's position in
    # its run of equal indices
    run = np.ones(len(tuples), dtype=np.intp)
    repeats = np.ones(len(tuples), dtype=np.intp)
    for p in range(1, k):
        run = np.where(tuples[:, p] == tuples[:, p - 1], run + 1, 1)
        repeats *= run
    return tuples, ranks, (math.factorial(k) // repeats).astype(float)


@functools.lru_cache(maxsize=8)
def sector_tables(n: int, nn: int) -> tuple[tuple, np.ndarray]:
    """(tables, expand) of the bosonic sector of nn particles on n sites.

    tables[m - 1] is sorted_tuples(n, m) for m = 1..nn.  expand, shape
    (n,)*(nn-1), is the rank of every (nn-1)-index tuple (one gather per
    index through the ranks of tables[:-1]), so tables[-1][1][expand] is
    the rank of every nn-index tuple, and a sector vector's full tensor
    is its gather there.  The last 8 (n, nn) pairs are cached, read-only:
    4.2 MB at n = 32, nn = 4.
    """
    tables = tuple(sorted_tuples(n, m) for m in range(1, nn + 1))
    expand = np.zeros((), dtype=np.intp)
    for t in tables[:-1]:
        expand = t[1][expand]
    for arr in (expand, *(a for t in tables for a in t)):
        arr.flags.writeable = False
    return tables, expand


@dataclass(eq=False)
class BosonicState:
    """N-boson state as its values at the sorted index tuples.

    values[r] is the amplitude at the sorted N-tuple of rank r
    (sorted_tuples(grid.n, N)) and at each of its orderings, so the state
    takes C(n+N-1, N) numbers (52,360 at N = 4, n = 32, against
    n^N = 1,048,576).  values is a read-only copy of the given array.
    The full (n,)*N tensor is formed, read-only, on every read of
    amplitudes, one gather through sector_tables (about 1 ms at N = 4,
    n = 32), and not kept, so stored snapshots hold no n^N tensors.  The
    norm weights each value by its multiplicity.  A state carries no trap
    frequency: omega belongs to the operators (the system, the lens map,
    the S weight) and is passed to them.
    """

    grid: Grid1D
    n_particles: int
    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.complex128)
        size = (math.comb(self.grid.n + self.n_particles - 1,
                          self.n_particles) if self.n_particles >= 1 else 0)
        if size == 0 or v.shape != (size,):
            raise GridError(
                f"{v.shape} values do not match the {size} sorted "
                f"{self.n_particles}-tuples on {self.grid.n} sites")
        v.flags.writeable = False
        self.values = v

    @property
    def multiplicity(self) -> np.ndarray:
        """The number of orderings of each sorted tuple, as floats."""
        return sector_tables(self.grid.n, self.n_particles)[0][-1][2]

    @property
    def amplitudes(self) -> np.ndarray:
        tables, expand = sector_tables(self.grid.n, self.n_particles)
        full = np.take(np.take(self.values, tables[-1][1]), expand, axis=0)
        full.flags.writeable = False
        return full

    def norm(self) -> float:
        return math.sqrt(self.grid.h ** self.n_particles
                         * _norm_sq(self.values, self.multiplicity))

    def normalized(self) -> "BosonicState":
        nrm = self.norm()
        if not 0 < nrm < math.inf:  # NaN fails closed
            raise GridError(f"cannot normalize a state of norm {nrm} (the "
                            f"zero state or a non-finite value)")
        return BosonicState(self.grid, self.n_particles, self.values / nrm)


def _norm_sq(a: np.ndarray, weights: np.ndarray | None = None) -> float:
    """Euclidean sum |a|^2, or sum weights |a|^2, without BLAS."""
    # a threaded BLAS dot (np.vdot) splits its sum over OpenBLAS's
    # threads, so its last bits would depend on the thread count
    if weights is None:
        flat = a.reshape(-1).view(np.float64)
        return float(np.einsum("i,i->", flat, flat))
    sq = np.square(a.real)
    sq += np.square(a.imag)
    return float(np.einsum("i,i->", weights, sq))


def sector_product(phi: np.ndarray, k: int) -> np.ndarray:
    """phi's product over each sorted k-tuple (sector_tables), in rank
    order: the sector values of phi^(tensor k), unnormalized.  Each is
    phi[i_1] * ... * phi[i_k], multiplied left to right, so the value
    at a tuple is the entry of the full outer product at that tuple."""
    tuples = sector_tables(len(phi), k)[0][-1][0]
    return functools.reduce(np.multiply, [phi[i] for i in tuples.T])


def symmetrize(grid: Grid1D, tensor) -> BosonicState:
    """Project an (n,)*N tensor onto the bosonic (permutation-symmetric)
    sector, normalized.

    The sector value at a sorted tuple is the mean of the tensor over the
    tuple's orbit of index permutations, taken as the value at the sorted
    tuple plus the orbit's mean deviation from it, so a symmetric tensor
    (a BosonicState's amplitudes) gives back its values bit for bit before
    the normalization.  A non-finite value or squared norm is an error
    before the projection, and so is a projection that annihilates the
    state (a norm at most 1e-12 of the input's).
    """
    tensor = as_tensor(grid, tensor)
    norm_sq = _norm_sq(tensor)
    if not math.isfinite(norm_sq):
        raise GridError(f"cannot symmetrize a tensor with a non-finite "
                        f"value or norm (squared norm {norm_sq})")
    nn = tensor.ndim
    tables, expand = sector_tables(grid.n, nn)
    tuples, ranks, multiplicity = tables[-1]
    rank = ranks[expand].reshape(-1)
    values = tensor.reshape(-1)
    rep = values[np.ravel_multi_index(tuples.T, tensor.shape)]
    off = np.take(rep, rank)
    np.subtract(values, off, out=off)
    mean = np.empty(len(rep), dtype=np.complex128)
    mean.real = np.bincount(rank, off.real, len(rep))
    mean.imag = np.bincount(rank, off.imag, len(rep))
    mean /= multiplicity
    mean += rep
    nrm = math.sqrt(grid.h ** nn * _norm_sq(mean, multiplicity))
    if not nrm > 1e-12 * math.sqrt(grid.h ** nn * norm_sq):
        raise GridError(f"symmetrization annihilated the state (norm {nrm})")
    mean /= nrm
    return BosonicState(grid, nn, mean)


def lanczos_min(apply, start: np.ndarray, scale: float) -> float:
    """Smallest eigenvalue of a Hermitian operator, by Lanczos from start.

    apply(x) is the operator's action on a vector shaped like start, and
    scale bounds its norm.  The three-term recurrence holds three vectors
    and no basis, so it returns the smallest eigenvalue of the operator on
    the Krylov space of start, which is the operator's own whenever start
    is not orthogonal to that eigenvector.  After each step m below
    _RITZ_EVERY, at its multiples, at a breakdown and at the last step,
    np.linalg.eigh of the m x m tridiagonal gives the Ritz pairs; it
    stops when the residual beta_m |s_m| of the smallest (s its Ritz
    vector) is at most LANCZOS_RTOL * scale, as at a breakdown (the
    Krylov space is invariant and the Ritz value exact).  A Ritz value
    lies within that residual of an eigenvalue.  Raises ConvergenceError
    on a non-finite coefficient or after LANCZOS_MAX_ITER steps, never
    returning an unconverged value.
    """
    bound = LANCZOS_RTOL * scale
    q = start / math.sqrt(float(np.vdot(start, start).real))
    q_prev = np.zeros_like(q)
    alphas, betas = [], []
    beta = 0.0
    for m in range(1, LANCZOS_MAX_ITER + 1):
        w = apply(q)
        w -= beta * q_prev
        alpha = float(np.vdot(q, w).real)
        w -= alpha * q
        beta = math.sqrt(float(np.vdot(w, w).real))
        if not (math.isfinite(alpha) and math.isfinite(beta)):
            raise ConvergenceError(
                f"Lanczos coefficients alpha = {alpha}, beta = {beta}")
        alphas.append(alpha)
        if (m < _RITZ_EVERY or m % _RITZ_EVERY == 0 or beta <= bound
                or m == LANCZOS_MAX_ITER):
            theta, ritz = np.linalg.eigh(
                np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
            if beta * abs(ritz[-1, 0]) <= bound:
                return float(theta[0])
        betas.append(beta)
        q_prev, q = q, w / beta
    raise ConvergenceError(
        f"Lanczos did not reach a residual of {bound:.3e} in "
        f"{LANCZOS_MAX_ITER} steps")


def _dft_matrix(grid: Grid1D, inverse: bool = False) -> np.ndarray:
    """numpy's fft (or ifft) of grid samples as a dense n x n matrix."""
    transform = np.fft.ifft if inverse else np.fft.fft
    return transform(np.eye(grid.n), axis=0)


def interpolation_matrix(grid: Grid1D, targets: np.ndarray) -> np.ndarray:
    """Matrix P with (P @ u)_j = trigonometric interpolant of the grid
    samples u at targets[j] (zero-padded Fourier series)."""
    m = np.rint(np.fft.fftfreq(grid.n) * grid.n).astype(np.int64)
    k = np.pi * m / grid.length
    targets = np.asarray(targets, dtype=float)
    evaluation = np.exp(1j * np.outer(targets + grid.length, k)) / grid.n
    return evaluation @ _dft_matrix(grid)


def fourier_matrix(grid: Grid1D, symbol: np.ndarray) -> np.ndarray:
    """Dense n x n matrix F^-1 diag(symbol) F of a Fourier multiplier."""
    return (_dft_matrix(grid, inverse=True)
            @ (symbol[:, None] * _dft_matrix(grid)))


def dense_operator(grid: Grid1D, symbol: np.ndarray,
                   multiplier: np.ndarray) -> np.ndarray:
    """Dense n x n matrix of a Fourier multiplier plus a multiplication
    operator, Hermitized as (M + M^*)/2 (for small-grid oracles)."""
    mat = fourier_matrix(grid, symbol) + np.diag(multiplier)
    return 0.5 * (mat + mat.conj().T)


def dense_weight_squared(grid: Grid1D, kind: str, omega: float) -> np.ndarray:
    """Dense one-particle matrix of S^2 or L^2 (Hermitian to rounding)."""
    return dense_operator(grid, *_weight_parts(grid, kind, omega))


def random_state(grid: Grid1D, n_particles: int, seed: int,
                 k_filter: float | None = None) -> BosonicState:
    """Random normalized bosonic state: the symmetrize of a complex
    Gaussian tensor drawn by np.random.default_rng(seed), optionally
    band-filtered.

    k_filter applies a Gaussian factor exp(-k^2/(2 k_filter^2)) per axis so
    the draw has smooth samples; None keeps white noise across all modes.
    A k_filter that is not finite and positive is a GridError.
    """
    if k_filter is not None and not 0 < k_filter < math.inf:
        raise GridError(f"k_filter must be finite and positive, got "
                        f"{k_filter}")
    rng = np.random.default_rng(seed)
    shape = (grid.n,) * n_particles
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if k_filter is not None:
        sym = np.exp(-grid.k ** 2 / (2.0 * k_filter ** 2))
        for ax in range(n_particles):
            a = apply_symbol(a, sym, ax)
    return symmetrize(grid, a)
