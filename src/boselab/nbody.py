"""Exact N-boson dynamics under the mean-field Hamiltonian with a trap.

The Hamiltonian on the periodic grid is

    H_N = sum_j (-d^2/dx_j^2 / 2 + omega^2 x_j^2 / 2)
          + (1/N) sum_{i<j} V_N(x_i - x_j),     V_N(x) = N^beta V(N^beta x),

with the time convention i d/dt psi = H_N psi, i.e. psi(t) = exp(-i t H_N)
psi(0).  propagate computes that flow itself, not a splitting of it: each
output segment is one Chebyshev expansion of exp(-i Delta H_N) (Tal-Ezer
and Kosloff, J. Chem. Phys. 81, 3967 (1984)) with the sector H_N below
as its only operator, its weights the Bessel values J_m(r Delta) from
Miller's backward recurrence (_bessel_j) and its spectral interval from
closed-form bounds.  The sum is cut where its weights fall below 1e-15,
so the stored states carry no time-step error, and the norm is kept to
rounding.  A trajectory stores states, not energies.

Storage: the state is bosonic, a grid.BosonicState, its values at the
sorted index tuples i_1 <= ... <= i_N (grid.sector_tables), C(n+N-1, N)
numbers (52,360 at N = 4, n = 32, against n^N = 1,048,576); propagate
takes no other state.  Besides the caller's state it holds the sum and
three terms of the recurrence, sector vectors, one H_N application's
gathers and the stored states, BosonicStates of the sector values that
form their n^N tensor only when it is read; a stored time 0 is the
caller's state.  Each term is one H_N application (about 2 ms at N = 4,
n = 32 on one BLAS thread) and a few passes over the sector values;
N = 4, n = 32 reaches t = 0.5 in two segments of 0.25 with 68
applications.

Threading: the package has one thread layer, its pool (grid._POOL_SIZE,
shared with collapse's kernel_H), and the flow runs on the calling
thread, so it gives the same bits at every pool size; the CLI runs BLAS
and LAPACK on one thread.  H_N's one n x n product rounds each entry
along one row of length n, so a threaded BLAS gives the same bits too.

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
from .grid import (BosonicState, Grid1D, GridError, apply_matrix,
                   dense_operator, kinetic_symbol, on_axes, pair_differences,
                   sector_tables, trap_potential)
from .marginals import _full_fold, _sector_fold, partial_trace
from .potentials import PotentialSpec, scaled_potential

# propagate aborts when the norm moves by more than this over one output
# segment or since t = 0; the exact flow is unitary.  Equal segments reuse
# the same rounded Bessel weights, so the norm drifts with one sign: at
# worst 5.9e-16 per segment of 2e-3 as measured (n = 8, L = 4, N = 3, a
# product Gaussian in gaussian_well, beta 0.5), 6.8e-11 after the 1.2e5
# segments the run-length envelope admits there (a convergence run at
# N = 3), a margin of about 1.5 to this tolerance
NORM_TOL = 1e-10


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
    """Stored states of an N-body flow: propagate's BosonicStates at
    times, the first the initial state itself when times start at 0."""

    system: NBodySystem
    times: np.ndarray
    states: list
    # largest |norm - norm at t = 0| over the stored states
    norm_drift: float


def _bessel_j(x: float) -> np.ndarray:
    """J_0(x), ..., J_{M-1}(x) for x >= 0, M the first order above x with
    |J_M(x)| < 1e-15: the Chebyshev weights of one segment of the flow.

    Miller's backward recurrence J_{m-1} = (2m / x) J_m - J_{m+1} runs
    down from J_top = 1, J_{top+1} = 0, rescaled before it overflows, and
    is normalized by J_0 + 2 (J_2 + J_4 + ...) = 1.  top = x + 16 x^(1/3)
    + 40 lies past the cut, which is at most 13 orders above x for x <= 1
    and about 10 x^(1/3) above it at large x.  Below x = 2e-15 the cut is
    M = 1: J_1(x) = x/2 is under 1e-15 and J_0(x) rounds to 1.
    """
    if x < 2e-15:
        return np.ones(1)
    top = int(x + 16.0 * x ** (1.0 / 3.0)) + 40
    j = np.zeros(top + 2)
    j[top] = 1.0
    for m in range(top, 0, -1):
        j[m - 1] = (2.0 * m / x) * j[m] - j[m + 1]
        if abs(j[m - 1]) > 1e250:
            j[m - 1:] *= 1e-250
    j = j[:-1] / (j[0] + 2.0 * j[2::2].sum())
    cut = np.flatnonzero((np.arange(top + 1) > x) & (np.abs(j) < 1e-15))
    return j[:cut[0]]


def _chebyshev_segment(ham, values: np.ndarray, center: float,
                       radius: float, span: float) -> np.ndarray:
    """exp(-i span H) values for H = ham with its spectrum in
    [center - radius, center + radius] (propagate's expansion)."""
    coeffs = _bessel_j(radius * span)
    # 2 (-i)^m J_m, with exact powers of -i
    weights = 2.0 * coeffs * np.array([1, -1j, -1, 1j])[
        np.arange(len(coeffs)) % 4]
    out = coeffs[0] * values
    prev = cur = values
    for m in range(1, len(coeffs)):
        # T_1 = H~ v and T_{m+1} = 2 H~ T_m - T_{m-1}, H~ = (H - c) / r
        nxt = ham(cur)
        nxt -= center * cur
        if m == 1:
            nxt /= radius
        else:
            nxt *= 2.0 / radius
            nxt -= prev
        out += weights[m] * nxt
        prev, cur = cur, nxt
    out *= np.exp(-1j * center * span)
    return out


def propagate(system: NBodySystem, state: BosonicState,
              times) -> Trajectory:
    """The exact flow psi(t) = exp(-i t H_N) psi(0) at each of times.

    state is psi(0), a BosonicState of the system (_check_grid; a bare
    tensor raises GridError, so a caller symmetrizes with
    grid.symmetrize), and times must be finite, nonnegative and strictly
    increasing, else GridError.  Each output segment Delta, from the
    previous time (or 0) to the next, applies exp(-i Delta H_N) to the
    sector values as the Chebyshev expansion of Tal-Ezer and Kosloff
    (J. Chem. Phys. 81, 3967 (1984)),

        exp(-i c Delta) sum_m (2 - delta_m0) (-i)^m J_m(r Delta) T_m(H~) v,

    H~ = (H_N - c) / r, with hamiltonian(system) its only operator and the
    T_m v from the recurrence T_{m+1} = 2 H~ T_m - T_{m-1}.  The spectrum
    lies in [lo, hi]: lo is the least potential at the sorted tuples (the
    kinetic part is positive semidefinite) and hi = N max(k^2/2) plus the
    greatest; c and r are their midpoint and half-width.  The sum stops at
    the first m > r Delta with |J_m(r Delta)| < 1e-15 (_bessel_j).  A
    potential with an imaginary part has no real spectrum to expand on,
    and raises GridError.

    The norm change over each segment and since t = 0 are checked against
    NORM_TOL, and a non-finite norm raises NumericalAbort at once; the
    largest drift since t = 0 is the trajectory's norm_drift.  A time 0
    stores the given state itself, and every later time a new
    BosonicState.
    """
    _check_grid(system, state)
    times = np.asarray(times, dtype=float)
    if not (times.ndim == 1 and len(times) and np.all(np.isfinite(times))
            and times[0] >= 0 and np.all(np.diff(times) > 0)):
        raise GridError(f"times must be finite, nonnegative and strictly "
                        f"increasing, got {times}")
    grid, nn = system.grid, system.n_particles
    tuples, _, multiplicity = sector_tables(grid.n, nn)[0][-1]
    pot = system.potential_at(tuples.T)
    if np.iscomplexobj(pot):
        raise GridError("the exact flow needs a real potential; this one "
                        "has an imaginary part")
    lo = float(np.min(pot))
    hi = nn * float(np.max(kinetic_symbol(grid))) + float(np.max(pot))
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise GridError(f"spectral bounds [{lo}, {hi}] of H_N are not finite")
    center, radius = 0.5 * (hi + lo), 0.5 * (hi - lo)
    ham = hamiltonian(system)
    weight = grid.h ** nn

    def norm(values, at):
        value = math.sqrt(weight * _grid._norm_sq(values, multiplicity))
        if not math.isfinite(value):
            raise NumericalAbort(f"norm is {value} at t = {at}")
        return value

    values, now = state.values, 0.0
    norm_prev = norm_start = norm(values, now)
    drift, states = 0.0, []
    for t in times:
        if t == 0.0:
            states.append(state)
            continue
        values = _chebyshev_segment(ham, values, center, radius, t - now)
        norm_now = norm(values, t)
        if abs(norm_now - norm_prev) > NORM_TOL:
            raise NumericalAbort(f"norm drifted by "
                                 f"{abs(norm_now - norm_prev):.3e} from "
                                 f"t = {now} to t = {t}")
        since_start = abs(norm_now - norm_start)
        if since_start > NORM_TOL:
            raise NumericalAbort(f"norm drifted by {since_start:.3e} since "
                                 f"t = 0 at t = {t}")
        norm_prev, now = norm_now, t
        drift = max(drift, since_start)
        states.append(BosonicState(grid, nn, values))
    return Trajectory(system, times, states, drift)


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
    at the middle stored state.

    Checks i d/dt gamma^(k), the central difference of the two stored
    states around it, against the one-body commutator, the in-block pair
    term, and the (N-k)/N weighted collision contraction of gamma^(k+1),
    all built from the same discrete operators as H_N.  The trajectory is
    the exact flow (propagate), so the residual is O(s^2) from the central
    difference alone, s the spacing of the stored times, which must be
    even around the middle state (GridError otherwise); the result's "dt"
    is s.
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
    before, now, after = (float(t) for t in traj.times[index - 1:index + 2])
    spacing = after - now
    if not math.isclose(now - before, spacing, rel_tol=1e-9):
        raise GridError(f"the central difference needs evenly spaced "
                        f"states, not t = {before}, {now}, {after}")
    gm = partial_trace(traj.states[index - 1], k)
    g0 = partial_trace(traj.states[index], k)
    gp = partial_trace(traj.states[index + 1], k)

    lhs = 1j * (gp.kernel - gm.kernel) / (after - before)

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
        "time": now,
        "k": k,
        "dt": spacing,
    }
