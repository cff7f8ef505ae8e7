"""Exact N-boson dynamics under the mean-field Hamiltonian with a trap.

The Hamiltonian on the periodic grid is

    H_N = sum_j (-d^2/dx_j^2 / 2 + omega^2 x_j^2 / 2)
          + (1/N) sum_{i<j} V_N(x_i - x_j),     V_N(x) = N^beta V(N^beta x),

with the time convention i d/dt psi = H_N psi, i.e. psi(t) = exp(-i t H_N)
psi(0).  Propagation is Strang splitting: half potential phase, full
kinetic factor, half potential phase.  The kinetic factor
exp(-i dt sum_j k_j^2 / 2) is a product of N copies of one n x n unitary
U = F^-1 diag(exp(-i dt k^2 / 2)) F, built once per call, so a step
applies it as matrix products, one level per axis, with no Fourier
transform.  Tensors below SPLIT_FLOOR amplitudes apply each factor P as
psi + (P - 1) psi, which keeps the norm free of rounding bias.  Each
factor is exactly unitary, so the discrete norm is conserved to
rounding; the energy expectation oscillates within O(dt^2) without
secular drift.  A trajectory stores states, not energies.

Storage: the state is bosonic, a grid.BosonicState, its values at the
sorted index tuples i_1 <= ... <= i_N (grid.sector_tables), C(n+N-1, N)
numbers (52,360 at N = 4, n = 32, against n^N = 1,048,576); evolve takes
no other state.  The half kicks, the multiplicity-weighted norm and the
norm guards act on the sector values, and the half-kick phase is built
from the potential at the sorted tuples alone (NBodySystem.potential_at).
The kinetic factor goes in N levels: after k of them the tensor is
symmetric in its k transformed axes and in its N - k others, so level k
is one gather into rows (sorted k-tuple c of transformed indices,
sorted (N-k-1)-tuple of the others) and one product with U along the
axis it transforms (_level_tables).  Its new index l is the largest of
the next level's transformed tuple, so only l >= max(c) is ever read: a
level of more than GEMM_ROWS rows is cut into bands by max(c), 4 sites
wide, and a band computes only those l, written l outermost; at N = 4,
n = 32 a step is 24.8M complex multiply-adds instead of the 46.9M of
whole-width rows.  The sector tables are cached in grid; the index
tables of the gathers are built on every call (1.5 ms at N = 4,
n = 32) and not cached, so evolve holds them only while it runs.
Besides the caller's state, evolve holds the index tables as
one array (12.1 MB there), the two level outputs that alternate (8.4 MB
there), one gather buffer of GEMM_ROWS rows per pool lane (0.5 MB each
at n = 32), the sector state, its half-kick phase and the stored
snapshots, BosonicStates of the sector values that form their n^N
tensor only when it is read; the first snapshot is the caller's state.

Threading: the package has one thread layer, its pool (grid._POOL_SIZE,
shared with collapse's kernel_H), sized once at import from
OMP_NUM_THREADS (which ``--threads`` sets) or else from the CPUs the
process may run on; the CLI runs BLAS and LAPACK on one thread.  Each
level's table is cut into chunks of GEMM_ROWS rows, and its chunks into
lanes of consecutive chunks, one per pool thread (grid._in_blocks); a
chunk is one gather and one product per band it holds.  Each product's
rows and its band's width are the same for any split, and a band's
product gives the bits of the whole-width one (its rows a multiple of
4), so every pool size and BLAS thread count gives the same bits.  The
kicks and the norm act on the sector on the calling thread.  The phases
themselves are built once per call from sines of their real angle,
without complex exp.

The matrix-free one-body sum (one_body_sum), psi -> sum_j M_j psi for
an n x n one-particle matrix M, acts on sector values: one product of M
with the values gathered by site, then one gather per axis.  H_N
(hamiltonian) is the one-body sum of K, the n x n matrix of k^2/2,
added onto the potential at the sorted tuples (about 2 ms at N = 4,
n = 32 on one BLAS thread, against 30 ms for K along every axis of the
32^4 tensor).  _moment, <psi, (H_N + shift)^k psi> given one built H_N,
is the one moment sum; k = 1 with no shift is the energy.  Every route
here that takes a state takes a BosonicState of the system (_check_grid).

Also here: the smooth spectral cutoff used to regularize rough initial
data, one eigh of H_N as a dense matrix on the sector for all its
cutoff parameters, and the residual of the trapped BBGKY hierarchy
evaluated on stored trajectories, whose marginals and collision term
read the sector values through one fold (marginals._full_fold) and
whose one-body commutator applies the dense one-particle h along the
kernel's axes.  No route here forms a state's n^N tensor or makes a
Fourier transform.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import grid as _grid
from .grid import (BosonicState, Grid1D, GridError, apply_matrix, dense_operator, fourier_matrix,
                   kinetic_symbol, on_axes, pair_differences, sector_tables,
                   trap_potential)
from .marginals import _full_fold, _sector_fold, partial_trace
from .potentials import PotentialSpec, scaled_potential

# rows per chunk of a kinetic level, the unit of work of its gather and
# products, and the size of the level above which it is cut into bands
# (_level_tables).  At N = 4, n = 32 the levels have 5,984, 16,896,
# 16,896 and 5,984 rows, in 1, 8, 8 and 8 bands, 6, 17, 17 and 6 chunks,
# which two lanes share 3:3 and 8:9.  A chunk is one gather into its
# lane's GEMM_ROWS-row buffer, which the products then read from cache.
# A level of at most GEMM_ROWS rows (every level at N <= 3, n <= 32) is
# one chunk and one full-width product on the calling thread.  Under a
# threaded BLAS the chunks also keep its per-thread buffer small (an
# unchunked 32^4 product at 2 OpenBLAS threads grew RSS by 16.1 MB,
# against 1.4 MB in chunks of 2048 rows).
GEMM_ROWS = 1024

# Tensors with fewer amplitudes apply each Strang factor P as
# psi + (P - 1) psi, from P - 1 held to full relative precision.  A unit
# factor rounded to doubles is off modulus 1 by up to ~1e-16 at each entry,
# the same every step, so the norm drifts by up to ~1e-16 per step with
# one sign; the CLI's run-length envelope admits 2.8M steps below 2^15
# amplitudes, and that could reach NORM_TOL.  The split form rounds only
# the sum, which changes with the state every step, and drifts ~1e-19 per
# step.  It costs one more pass per factor; from 2^15 amplitudes up the
# envelope admits at most 175k steps, and the factors are applied whole.
SPLIT_FLOOR = 2 ** 15

# evolve aborts when the norm moves by more than this in one step or
# since step 0; the splitting is exactly unitary
NORM_TOL = 1e-10


def _phase_minus_one(theta: np.ndarray) -> np.ndarray:
    """exp(i theta) - 1 to full relative precision, without complex exp.

    The real part of exp(i Re theta) - 1 is formed as -2 sin^2(theta/2),
    without the cancellation of cos(theta) - 1; a complex theta (a
    potential with an imaginary part) adds expm1(-Im theta) exp(i Re theta).
    """
    out = np.empty(theta.shape, dtype=np.complex128)
    np.multiply(theta.real, 0.5, out=out.real)
    np.sin(out.real, out=out.real)
    np.square(out.real, out=out.real)
    out.real *= -2.0
    np.sin(theta.real, out=out.imag)
    if np.iscomplexobj(theta):
        out += np.expm1(-theta.imag) * (out + 1.0)
    return out


def _phase(theta: np.ndarray) -> np.ndarray:
    """exp(i theta)."""
    out = _phase_minus_one(theta)
    out += 1.0
    return out


def _kinetic_factor(grid: Grid1D, dt: float, split: bool) -> np.ndarray:
    """U^T for U = F^-1 diag(exp(-i dt k^2 / 2)) F, one particle's kinetic
    factor; with split, (U - I)^T, which keeps U's small departure from
    the identity to full relative precision."""
    factor = fourier_matrix(grid,
                            _phase_minus_one(-dt * kinetic_symbol(grid)))
    if not split:
        factor += np.eye(grid.n)
    return np.ascontiguousarray(factor.T)


def _level_tables(n: int, nn: int) -> tuple[list, np.ndarray]:
    """(levels, final): the index tables and row bands of one kinetic
    step on the sector of nn particles on n sites (grid.sector_tables);
    C_m = C(n+m-1, m) counts the sorted m-tuples.

    Level k (k = 0..N-1) applies U along one more axis.  Its rows are
    (c, b): c a sorted k-tuple of transformed indices, outermost, in
    colexicographic order (by last index, then the one before, ...), and
    b a sorted (N-k-1)-tuple of untransformed ones, in rank order; its
    columns are the index j of the axis it transforms.  The index l it
    makes is the last of the next level's transformed tuple, so row
    (c, b) is read only at l >= max(c).  Each level is (table, outer,
    bands), bands a list of (first row, rows, lo, output offset):
    - a level of at most GEMM_ROWS rows is one band, lo = 0, written row
      by row, shape (rows, n), as U^T times its rows;
    - a larger one (outer) is cut into bands by max(c) in [lo, lo + 4),
      lo a multiple of 4 (level 0, c empty, is one band, lo = 0), each
      padded to a multiple of 4 rows, and a band's output holds only the
      l >= lo, l outermost, shape (n - lo, rows): U's last n - lo rows
      times the band's rows.

    table, shape (rows, n), indexes the flat sector state (k = 0) or the
    flat output of level k-1 at (l = c's last index, the rest of c, b
    with j); after an outer level each row reads one contiguous run of
    C_{N-k} values.  Pad rows read entry 0, and nothing reads their
    outputs.  final indexes the last output at the sorted N-tuples t, at
    l = t's last index.  The tables and final are views of one array,
    built with a few array passes per level and band.
    """
    sector, _ = sector_tables(n, nn)
    tuples = [np.zeros((1, 0), np.intp)] + [t[0] for t in sector]
    counts = [len(t) for t in tuples]

    def prefix(m):
        # the rank of each sorted m-tuple's first m - 1 indices: the
        # lexicographic order lists the m-tuples by that prefix, then by
        # a last index from the prefix's last up
        if m == 1:
            return np.zeros(n, np.intp)
        return np.repeat(np.arange(counts[m - 1]), n - tuples[m - 1][:, -1])

    plans = []
    for k in range(nn):
        inner = counts[nn - k - 1]
        outer = counts[k] * inner > GEMM_ROWS
        order = np.lexsort(tuples[k].T) if k else np.zeros(1, np.intp)
        # c's last index runs over every site, so no band is empty
        members = np.bincount(tuples[k][order, -1] // 4 if k and outer
                              else np.zeros(counts[k], np.intp))
        padded = -(-members * inner // 4) * 4 if outer else members * inner
        plans.append((inner, outer, order, members, padded))

    index = np.empty(n * sum(int(plan[-1].sum()) for plan in plans)
                     + counts[nn], np.intp)
    levels, at = [], 0
    # the previous output holds c (by rank) at index l and untransformed
    # tuple rank r at base[c] + l * stride[c] + r * step
    base = stride = np.zeros(1, np.intp)
    step = 1
    for k, (inner, outer, order, members, padded) in enumerate(plans):
        lo = 4 * np.arange(len(members))
        first, start = np.cumsum(members) - members, np.cumsum(padded) - padded
        offset = np.cumsum((n - lo) * padded) - (n - lo) * padded
        table = index[at:at + n * int(padded.sum())].reshape(-1, n)
        at += table.size
        head = np.zeros(1, np.intp)
        if k:
            p = prefix(k)[order]
            head = base[p] + tuples[k][order, -1] * stride[p]
        reads = sector[nn - k - 1][1] * step
        for f, m, s, pad in zip(first, members, start, padded):
            np.add(head[f:f + m, None, None], reads,
                   out=table[s:s + m * inner].reshape(m, inner, n))
            table[s + m * inner:s + pad] = 0
        levels.append((table, outer, [tuple(map(int, band)) for band in
                                      zip(start, padded, lo, offset)]))
        band = np.repeat(np.arange(len(lo)), members)
        lstride, step = (padded[band], 1) if outer else (1, n)
        base, stride = np.empty((2, counts[k]), np.intp)
        base[order] = (offset[band] - lo[band] * lstride
                       + (np.arange(counts[k]) - first[band]) * inner * step)
        stride[order] = lstride
    p = prefix(nn)
    final = index[at:]
    np.add(base[p], tuples[nn][:, -1] * stride[p], out=final)
    return levels, final


def _level_calls(levels: list, factor_t: np.ndarray, split: bool) -> list:
    """The calls of one kinetic step (_level_tables' levels), on buffers
    allocated here: per level, (lanes, output).

    A level's table is cut into chunks of GEMM_ROWS padded rows, and the
    chunks into min(pool size, chunks) lanes of consecutive chunks, one
    pooled block each (grid._in_blocks).  A chunk is (table rows, rows of
    its lane's gather buffer, parts): one gather, then one product per
    band part it holds, (a, b, output, addend) for output = a @ b, to
    which the split form adds addend.  A level written row by row has one
    part, (rows, U^T, ...); an outer band part is (U's last n - lo rows,
    the rows transposed, ...).  factor_t is U^T, or (U - I)^T with split,
    and the addend is the gathered rows, laid out as the output.  Band
    parts start at multiples of 4 rows and have a multiple of 4, so every
    product gives the bits of the rows' whole-width product.  Each lane
    gathers into its own GEMM_ROWS rows (0.5 MB at n = 32), the outputs
    alternate between two, and the pool threads allocate nothing.
    """
    n = len(factor_t)
    factor = np.ascontiguousarray(factor_t.T)
    sizes = [sum((n - lo) * padded for _, padded, lo, _ in bands)
             for _, _, bands in levels]
    even = max(sizes[::2])
    outputs = np.empty(even + max(sizes[1::2], default=0),
                       dtype=np.complex128)
    rows = [len(table) for table, _, _ in levels]
    blocks = [-(-r // GEMM_ROWS) for r in rows]
    gathered = np.empty((min(_grid._POOL_SIZE, max(blocks)),
                         min(GEMM_ROWS, max(rows)), n), dtype=np.complex128)
    calls = []
    for k, ((table, outer, bands), size) in enumerate(zip(levels, sizes)):
        out = outputs[k % 2 * even:][:size]
        lanes = min(len(gathered), blocks[k])
        calls.append(([], out))
        for lane in range(lanes):
            chunks = []
            for block in range(blocks[k] * lane // lanes,
                               blocks[k] * (lane + 1) // lanes):
                top = block * GEMM_ROWS
                bottom = min(top + GEMM_ROWS, rows[k])
                into = gathered[lane, :bottom - top]
                parts = [(into, factor_t, out.reshape(-1, n)[top:bottom],
                          into)]
                if outer:
                    parts = []
                    for start, padded, lo, offset in bands:
                        a, b = max(start, top), min(start + padded, bottom)
                        if a < b:
                            band = into[a - top:b - top].T
                            dst = out[offset:offset + (n - lo) * padded]
                            parts.append((factor[lo:], band, dst.reshape(
                                n - lo, padded)[:, a - start:b - start],
                                band[lo:]))
                chunks.append((table[top:bottom], into, parts))
            calls[-1][0].append(chunks)
    return calls


def _kinetic_levels(psi: np.ndarray, calls: list, split: bool) -> np.ndarray:
    """U along every axis of the sector state psi, level by level
    (_level_tables, _level_calls); returns the flat last level output.

    Each level's lanes go to the pool (grid._in_blocks); a lane runs its
    chunks in turn, each a gather and its band parts' products.
    """
    src = psi
    for lanes, out in calls:
        def run(lo, hi, src=src, lanes=lanes):
            for chunks in lanes[lo:hi]:
                for table, gathered, parts in chunks:
                    np.take(src, table, out=gathered, mode="clip")
                    for a, b, dst, addend in parts:
                        np.matmul(a, b, out=dst)
                        if split:
                            dst += addend

        _grid._in_blocks(run, len(lanes))
        src = out
    return src


def _kick(src: np.ndarray, half: np.ndarray, split: bool,
          out: np.ndarray) -> None:
    """out = src exp(i theta), given half = exp(i theta), or
    exp(i theta) - 1 with split; out may be src."""
    if split:
        np.add(src, src * half, out=out)
    else:
        np.multiply(src, half, out=out)


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
        if not 0 <= self.omega < math.inf:
            raise GridError("trap frequency must be finite and nonnegative")

    @property
    def dim(self) -> int:
        return self.grid.n ** self.n_particles

    def pair_potential_values(self) -> np.ndarray:
        """V_N on the (x_i - x_j) difference grid, shape (n, n)."""
        diff = pair_differences(self.grid)
        if self.potential is None:
            return np.zeros_like(diff)
        return scaled_potential(self.potential, self.n_particles, diff)

    def potential_at(self, index) -> np.ndarray:
        """Trap plus interaction at the index tuples (index[0], ...,
        index[N-1]), one integer array per particle, broadcast together.

        The trap terms of the particles are added first and then the
        pair terms (i, j) in lexicographic order, the same operations at
        every tuple, so the values at the sorted tuples are the bits of
        the full diagonal (np.ix_ of every axis) gathered there.
        """
        nn = self.n_particles
        trap = trap_potential(self.grid, self.omega)
        out = np.zeros(np.broadcast_shapes(*(np.shape(i) for i in index)))
        for i in index:
            out = out + trap[i]
        if self.potential is not None and nn >= 2:
            vpair = self.pair_potential_values() / nn
            for a in range(nn):
                for b in range(a + 1, nn):
                    out = out + vpair[index[a], index[b]]
        return out


def _check_grid(system: NBodySystem, state: BosonicState) -> None:
    """GridError unless state is a BosonicState of the system's grid and
    particle number (grid.symmetrize makes a tensor one)."""
    if not isinstance(state, BosonicState):
        raise GridError(f"the N-body routes take a BosonicState, not a "
                        f"{type(state).__name__}; make one with "
                        f"grid.symmetrize")
    if state.n_particles != system.n_particles:
        raise GridError("state does not match the system's particle number")
    if state.grid != system.grid:
        raise GridError(f"state grid {state.grid} differs from the "
                        f"system grid {system.grid}")


@functools.lru_cache(maxsize=8)
def _drop_one(n: int, nn: int) -> np.ndarray:
    """[j, r]: the flat index (t_j, rank of t without t_j) into
    one_body_sum's M B, shape (n, C(n+nn-2, nn-1)), for the sorted
    nn-tuple t of rank r (grid.sector_tables).  The last 8 (n, nn) pairs
    are cached, read-only: 1.7 MB at n = 32, nn = 4.
    """
    tables, _ = sector_tables(n, nn)
    tuples = tables[-1][0]
    rest = len(tables[-2][0]) if nn > 1 else 1
    out = np.empty((nn, len(tuples)), dtype=np.intp)
    for j in range(nn):
        rank = np.zeros(len(tuples), dtype=np.intp)
        for width, col in enumerate(c for c in range(nn) if c != j):
            rank = tables[width][1][rank, tuples[:, col]]
        np.add(tuples[:, j] * rest, rank, out=out[j])
    out.flags.writeable = False
    return out


def one_body_sum(system: NBodySystem, mat: np.ndarray):
    """The matrix-free action (values, out) -> out + sum_j M_j psi on
    BosonicState.values for an n x n one-particle matrix M; out is added
    to in place and returned.  B[l, c] = psi(sort(c + (l,)))
    (marginals._sector_fold(n, N, 1)) for each site l and sorted
    (N-1)-tuple c, and the term of axis j at a sorted tuple t is
    (M B)[t_j, rank of t without t_j] (_drop_one).  The N terms are added
    in axis order, as on the n^N tensor, so the result is its bits at the
    sorted tuples.
    """
    fold = _sector_fold(system.grid.n, system.n_particles, 1)[0]
    drop = _drop_one(system.grid.n, system.n_particles)

    def apply(values: np.ndarray, out: np.ndarray) -> np.ndarray:
        terms = (mat @ np.take(values, fold)).reshape(-1)
        for index in drop:
            out += np.take(terms, index)
        return out

    return apply


def hamiltonian(system: NBodySystem):
    """The matrix-free action psi -> H_N psi on BosonicState.values: the
    one_body_sum of K added onto V psi, so the result is the bits of
    V psi + sum_j K_j psi on the n^N tensor at the sorted tuples."""
    grid, nn = system.grid, system.n_particles
    kin = one_body_sum(system, dense_operator(grid, kinetic_symbol(grid),
                                              np.zeros(grid.n)))
    pot = system.potential_at(sector_tables(grid.n, nn)[0][-1][0].T)

    def apply(values: np.ndarray) -> np.ndarray:
        if values.shape != pot.shape:
            raise GridError(f"values of shape {values.shape} do not match "
                            f"the system's {pot.shape}")
        return kin(values, pot * values)

    return apply


def _moment(system: NBodySystem, ham, state: BosonicState, k: int,
            shift: float = 0.0) -> float:
    """<psi, (H_N + shift)^k psi> with the h^N quadrature weight, given
    ham = hamiltonian(system), by repeated matrix-free application, each
    sorted tuple's term weighted by its multiplicity; k = 1 with no shift
    is the energy."""
    vec = values = state.values
    for _ in range(k):
        vec = ham(vec) + shift * vec
    # an einsum, not np.vdot, for the reason grid._norm_sq gives
    total = np.einsum("i,i->", state.multiplicity * values.conj(), vec)
    # a complex diagonal (an absorbing potential) adds an imaginary part,
    # the rate of norm loss, which is not energy; .real drops it, and the
    # rounding of a Hermitian H_N otherwise
    return float(system.grid.h ** state.n_particles * total.real)


@dataclass
class Trajectory:
    """Stored snapshots of an N-body propagation (evolve's BosonicStates,
    after the initial state as given)."""

    system: NBodySystem
    dt: float
    store_every: int
    times: np.ndarray
    states: list
    # largest |norm - norm at step 0| over every step, stored or not
    norm_drift: float

    @property
    def store_dt(self) -> float:
        return self.dt * self.store_every


def evolve(system: NBodySystem, state: BosonicState, dt: float,
           n_steps: int, store_every: int = 1) -> Trajectory:
    """Strang-splitting propagation of psi(t) = exp(-i t H_N) psi(0).

    The state is a BosonicState, whose sector values are propagated as
    they are; anything else (a bare tensor, symmetric or not) raises
    GridError, so a caller symmetrizes with grid.symmetrize.  The norm
    change per step and since step 0 are both checked against NORM_TOL
    (the splitting is exactly unitary, so violations indicate numerical
    trouble, and the step-0 check catches slow drift that no single step
    shows), and a non-finite norm aborts at once.  The largest drift
    since step 0 over every step is kept as the trajectory's norm_drift.
    Snapshots are stored every store_every steps as BosonicStates, never
    expanded here; the first is the initial state itself.

    A step is N levels of gather and BLAS product with the n x n kinetic
    factor (in row chunks on the pool, each band computing only the
    outputs the next level reads, _kinetic_levels), one gather of their
    result at the sorted tuples, the closing half kick, the
    multiplicity-weighted norm, and the next step's opening half kick;
    it makes no Fourier transform.  Below SPLIT_FLOOR amplitudes (n^N)
    each factor P is applied as psi + (P - 1) psi.
    """
    _check_grid(system, state)
    if dt <= 0 or n_steps < 1 or store_every < 1:
        raise GridError("dt, n_steps, store_every must be positive")

    grid, nn = system.grid, system.n_particles
    tuples, _, multiplicity = sector_tables(grid.n, nn)[0][-1]
    closed = state.values.copy()
    split = system.dim < SPLIT_FLOOR
    half = (_phase_minus_one if split else _phase)(
        (-0.5 * dt) * system.potential_at(tuples.T))
    weight = grid.h ** nn
    levels, final = _level_tables(grid.n, nn)
    calls = _level_calls(levels, _kinetic_factor(grid, dt, split), split)

    norm_prev = norm_start = math.sqrt(
        weight * _grid._norm_sq(closed, multiplicity))
    drift = 0.0
    times = [0.0]
    states = [state]
    psi = np.empty_like(closed)
    _kick(closed, half, split, psi)

    for step in range(1, n_steps + 1):
        np.take(_kinetic_levels(psi, calls, split), final, out=closed,
                mode="clip")
        _kick(closed, half, split, closed)
        norm_now = math.sqrt(
            weight * _grid._norm_sq(closed, multiplicity))

        if not math.isfinite(norm_now):
            raise NumericalAbort(f"norm is {norm_now} at step {step}")
        if abs(norm_now - norm_prev) > NORM_TOL:
            raise NumericalAbort(
                f"norm drifted by {abs(norm_now - norm_prev):.3e} at step {step}"
            )
        since_start = abs(norm_now - norm_start)
        if since_start > NORM_TOL:
            raise NumericalAbort(
                f"norm drifted by {since_start:.3e} since step 0 at step {step}"
            )
        norm_prev = norm_now
        drift = max(drift, since_start)

        if step % store_every == 0:
            times.append(step * dt)
            states.append(BosonicState(grid, nn, closed))  # a copy
        if step < n_steps:
            _kick(closed, half, split, psi)

    return Trajectory(system, dt, store_every, np.asarray(times), states,
                      drift)


# -- spectral cutoff ---------------------------------------------------------

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


def spectral_cutoff(system: NBodySystem, state: BosonicState,
                    kappas) -> list:
    """chi(kappa H_N / N) psi, renormalized, for each kappa in kappas.

    chi = cutoff_chi is 1 below s = 1 and 0 above s = 2, so each result has energy moments <H^k> <= (2N/kappa)^k while staying
    kappa^(1/2)-close to psi when psi has bounded energy per particle.
    H_N is taken on the bosonic sector, in its orthonormal basis of
    normalized orbit sums, whose coordinates are sqrt(mult) times the
    sector values: a dense Hermitian matrix of side C(n+N-1, N), its
    column c hamiltonian(system) applied to the values 1/sqrt(mult(c))
    at c, its rows times sqrt(mult), Hermitized as (M + M^dagger)/2.  The
    side is capped at grid.DENSE_SIDE_CAP, and every kappa must be finite
    and positive (GridError before the build).  The matrix is built and
    diagonalized once for all the kappas.
    """
    _check_grid(system, state)
    for kappa in kappas:
        if not 0 < kappa < math.inf:  # NaN fails closed
            raise GridError(f"cutoff parameter kappa must be finite and "
                            f"positive, got {kappa}")
    nn, root = system.n_particles, np.sqrt(state.multiplicity)
    side = len(root)
    if side > _grid.DENSE_SIDE_CAP:
        raise GridError(f"sector Hamiltonian side {side} exceeds cap "
                        f"{_grid.DENSE_SIDE_CAP}")
    ham = hamiltonian(system)
    mat = np.empty((side, side), dtype=np.complex128)
    unit = np.zeros(side, dtype=np.complex128)
    for c in range(side):
        unit[c] = 1.0 / root[c]
        mat[:, c] = ham(unit)
        unit[c] = 0.0
    mat *= root[:, None]
    evals, evecs = np.linalg.eigh(0.5 * (mat + mat.conj().T))
    coeffs = evecs.conj().T @ (root * state.values)
    cuts = []
    for kappa in kappas:
        vec = evecs @ (cutoff_chi(kappa * evals / nn) * coeffs)
        # the basis is orthonormal, so the Euclidean norm is the state's;
        # a NaN fails closed
        norm_sq = float(np.vdot(vec, vec).real) * system.grid.h ** nn
        if not norm_sq > 1e-28:
            raise NumericalAbort(f"spectral cutoff annihilated the state "
                                 f"(norm^2 {norm_sq:.3e})")
        cuts.append(BosonicState(system.grid, nn, vec / root).normalized())
    return cuts


# -- BBGKY residual ----------------------------------------------------------

def _commutator_one_body(marg_tensor: np.ndarray, k: int,
                         h1: np.ndarray) -> np.ndarray:
    """[sum_j h1_j, gamma] for a dense one-particle matrix h1.

    Unprimed axes are 0..k-1, primed axes k..2k-1: h1 gamma is h1 along
    an unprimed axis, and gamma h1 is h1^T along a primed one.
    """
    out = np.zeros_like(marg_tensor)
    for ax in range(k):
        out += apply_matrix(marg_tensor, h1, ax)
    for ax in range(k, 2 * k):
        out -= apply_matrix(marg_tensor, h1.T, ax)
    return out


def _collision_term(state: BosonicState, k: int, vpair: np.ndarray) -> np.ndarray:
    """sum_{j<=k} Tr_{k+1} [V(x_j - x_{k+1}), gamma^(k+1)] without
    materializing gamma^(k+1), from the fold of its factor
    (marginals._full_fold) with the (k+1)-th index split off; returns an
    (n^k, n^k) kernel."""
    n = state.grid.n
    nn = state.n_particles
    a = _full_fold(state, k + 1).reshape(n ** k, n, -1)
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


def bbgky_residual(traj: Trajectory, k: int) -> dict:
    """Central-difference residual of the trapped BBGKY hierarchy at level k,
    at the middle stored snapshot.

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
    index = len(traj.states) // 2

    n = system.grid.n
    grid = system.grid
    dt_s = traj.store_dt
    gm = partial_trace(traj.states[index - 1], k)
    g0 = partial_trace(traj.states[index], k)
    gp = partial_trace(traj.states[index + 1], k)

    lhs = 1j * (gp.kernel - gm.kernel) / (2.0 * dt_s)

    tens = g0.tensor()
    rhs = _commutator_one_body(tens, k, dense_operator(
        grid, kinetic_symbol(grid), trap_potential(grid, system.omega)))
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
