"""Exact N-body propagation, spectral cutoff, and hierarchy residual."""

import itertools
import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from boselab.energy_checks import (check_decomposition_identity,
                                   check_energy_estimate)
from boselab.grid import (BosonicState, Grid1D, GridError, apply_matrix,
                          dense_operator, dense_weight_squared,
                          gaussian_packet, kinetic_symbol, random_state,
                          sector_product, sector_tables, symmetrize,
                          trap_potential)
from boselab.nbody import (
    NBodySystem,
    NumericalAbort,
    _collision_term,
    _commutator_one_body,
    bbgky_residual,
    _bessel_j,
    cutoff_chi,
    hamiltonian,
    one_body_sum,
    propagate,
    spectral_cutoff,
)
from boselab.marginals import partial_trace
from boselab.nls import trap_ground_state
from boselab.potentials import gaussian_well, mixed_sign
from oracles import (dense_cutoff, dense_hamiltonian, energy_drift,
                     energy_moment, potential_diagonal, strang_flow,
                     symmetry_residual, tensor_collision_term,
                     tensor_partial_trace)


def test_system_validation():
    g = Grid1D(8, 4.0)
    with pytest.raises(GridError):
        NBodySystem(g, 0)
    with pytest.raises(GridError):
        NBodySystem(g, 2, omega=-1.0)


def test_potential_diagonal_structure():
    g = Grid1D(8, 4.0)
    spec = gaussian_well(1.0, 1.0, beta=0.5)
    system = NBodySystem(g, 2, potential=spec, omega=2.0)
    x = g.x
    vpair = system.pair_potential_values()
    assert np.allclose(vpair, math.sqrt(2.0)
                       * spec(math.sqrt(2.0) * (x[:, None] - x[None, :])))
    expected = (0.5 * 4.0 * (x[:, None] ** 2 + x[None, :] ** 2)
                + vpair / 2.0)
    assert np.allclose(potential_diagonal(system), expected)
    # without interaction: pure trap
    free = NBodySystem(g, 2, omega=2.0)
    assert np.allclose(free.pair_potential_values(), 0.0)


@pytest.mark.parametrize("nn, n, omega, potential", [
    (1, 16, 1.0, None),
    (2, 16, 0.0, gaussian_well()),
    (3, 8, 1.0, mixed_sign()),
    (4, 32, 0.5, gaussian_well(1.0, 1.0)),
])
def test_potential_at_sorted_tuples_is_the_gathered_diagonal(nn, n, omega,
                                                            potential):
    # H_N and the flow's spectral bounds read the diagonal at the sorted
    # tuples only; the same sums in the same order give the same bits as
    # the full tensor
    system = NBodySystem(Grid1D(n, 4.0), nn, potential=potential,
                         omega=omega)
    tuples = sector_tables(n, nn)[0][-1][0]
    flat = np.ravel_multi_index(tuples.T, (n,) * nn)
    assert np.array_equal(system.potential_at(tuples.T),
                          potential_diagonal(system).reshape(-1)[flat])


def _refuse_the_full_diagonal(monkeypatch):
    """Patch NBodySystem.potential_at to fail on any index but the sorted
    tuples' (one array of C(n+N-1, N) entries per particle), and return
    the list of systems it was called on."""
    calls = []
    built = NBodySystem.potential_at

    def sector_only(self, index):
        side = math.comb(self.grid.n + self.n_particles - 1, self.n_particles)
        if any(np.shape(i) != (side,) for i in index):
            raise AssertionError("full potential diagonal built")
        calls.append(self)
        return built(self, index)

    monkeypatch.setattr(NBodySystem, "potential_at", sector_only)
    return calls


def test_evolve_does_not_build_the_full_diagonal(monkeypatch):
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 3, potential=gaussian_well(), omega=1.0)
    state = random_state(g, 3, seed=2, k_filter=3.0)
    before = propagate(system, state, [3e-3]).states[-1].values
    calls = _refuse_the_full_diagonal(monkeypatch)
    after = propagate(system, state, [3e-3]).states[-1].values
    assert np.array_equal(before, after)
    # once for the spectral bounds and once in H_N
    assert calls == [system, system]


def _at_sorted_tuples(tensor):
    """A tensor's entries at the sorted index tuples, in rank order."""
    n, nn = tensor.shape[0], tensor.ndim
    return tensor[tuple(sector_tables(n, nn)[0][-1][0].T)]


def _tensor_hamiltonian(system, psi):
    """The former H_N on the n^N tensor, kept as the oracle: the potential
    diagonal times psi, then K along every axis in axis order."""
    g = system.grid
    kin = dense_operator(g, kinetic_symbol(g), np.zeros(g.n))
    out = potential_diagonal(system) * psi
    for ax in range(psi.ndim):
        out += apply_matrix(psi, kin, ax)
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 16]), nn=st.integers(1, 4),
       omega=st.floats(0.0, 1.5),
       potential=st.sampled_from([None, gaussian_well(1.0, 1.0),
                                  mixed_sign()]),
       seed=st.integers(0, 2 ** 16))
def test_sector_hamiltonian_is_the_tensor_route_bit_for_bit(n, nn, omega,
                                                            potential,
                                                            seed):
    g = Grid1D(n, 4.0)
    system = NBodySystem(g, nn, potential=potential, omega=omega)
    state = random_state(g, nn, seed=seed)
    got = hamiltonian(system)(state.values)
    oracle = _tensor_hamiltonian(system, state.amplitudes)
    assert np.array_equal(got, _at_sorted_tuples(oracle))
    # the dense matrix of 4096^2 entries (8^4, 16^3) takes 268 MB, and
    # its kron build several times that, so it is checked up to 512
    if n ** nn <= 512:
        dense = (dense_hamiltonian(system) @ state.amplitudes.reshape(-1)
                 ).reshape(state.amplitudes.shape)
        ref = _at_sorted_tuples(dense)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 16]), nn=st.integers(1, 4),
       omega=st.floats(0.0, 1.5),
       kind=st.sampled_from(["symmetric", "S^2", "S^4", "hermitian"]),
       seed=st.integers(0, 2 ** 16))
def test_one_body_sum_is_the_tensor_route_bit_for_bit(n, nn, omega, kind,
                                                      seed):
    # a one-particle M along every axis of the n^N tensor, in axis order
    # from zero, against the sector gathers; out is added to in place and
    # returned.  A real symmetric M and the S weights give the bits of
    # the tensor route.  A Hermitian M with O(1) imaginary parts is taken
    # as M times the rows along the leading axes but as the rows times
    # M^T along the last, which round complex products differently in
    # the last bit (up to 2.4e-16 relative in 400 draws)
    g = Grid1D(n, 4.0)
    system = NBodySystem(g, nn)
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n, n))
    s2 = dense_weight_squared(g, "S", omega)
    mat = {"symmetric": (raw + raw.T).astype(np.complex128), "S^2": s2,
           "S^4": s2 @ s2,
           "hermitian": (raw + 1j * raw.T) + (raw + 1j * raw.T).conj().T,
           }[kind]
    state = random_state(g, nn, seed=seed)
    psi = state.amplitudes
    oracle = np.zeros_like(psi)
    for ax in range(nn):
        oracle += apply_matrix(psi, mat, ax)
    want = _at_sorted_tuples(oracle)
    out = np.zeros_like(state.values)
    got = one_body_sum(system, mat)(state.values, out)
    assert got is out
    if kind == "hermitian":
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    else:
        assert np.array_equal(got, want)


class _RecordingMatrix(np.ndarray):
    """An n x n matrix that records the operand shapes of each product
    it is the left factor of."""

    calls: list = []

    def __matmul__(self, other):
        type(self).calls.append((self.shape, other.shape))
        return np.asarray(self) @ other


@pytest.mark.parametrize("nn, n", [(3, 32), (4, 16)])
def test_kinetic_product_blocks(monkeypatch, nn, n):
    # the kinetic part of H_N is one product of K with the values folded
    # by site, n x C(n+N-2, N-1) (32 x 528 and 16 x 816), whose N drop-one
    # gathers give the FFT kinetic energy of the n^N tensor at the sorted
    # tuples; H_N with no potential gives the same bits
    g = Grid1D(n, 8.0)
    system = NBodySystem(g, nn)
    state = random_state(g, nn, seed=2, k_filter=3.0)
    kin = dense_operator(g, kinetic_symbol(g), np.zeros(n))
    monkeypatch.setattr(_RecordingMatrix, "calls", [])
    got = one_body_sum(system, kin.view(_RecordingMatrix))(
        state.values, np.zeros_like(state.values))
    assert _RecordingMatrix.calls == [((n, n), (n, math.comb(n + nn - 2,
                                                             nn - 1)))]
    k2 = 0.5 * g.k ** 2
    symbol = sum(k2.reshape([-1 if ax == j else 1 for ax in range(nn)])
                 for j in range(nn))
    ref = _at_sorted_tuples(np.fft.ifftn(symbol
                                         * np.fft.fftn(state.amplitudes)))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(hamiltonian(system)(state.values), got)


def test_apply_hamiltonian_matches_dense():
    # n = 8 at N = 3 keeps the dense matrix at 512^2
    for nn, n in ((1, 16), (2, 16), (3, 8)):
        g = Grid1D(n, 4.0)
        for omega in (0.0, 0.5):
            system = NBodySystem(g, nn, potential=gaussian_well(1.0, 1.0),
                                 omega=omega)
            state = random_state(g, nn, seed=1, k_filter=3.0)
            fast = hamiltonian(system)(state.values)
            h = dense_hamiltonian(system)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12
            ref = (h @ state.amplitudes.reshape(-1)).reshape((n,) * nn)
            assert np.max(np.abs(fast - _at_sorted_tuples(ref))) < 1e-12, (
                nn, omega)


def _fft_hamiltonian(system, psi):
    """ifftn(sum_j k_j^2/2 fftn psi) + V psi: H_N by numpy's transforms,
    an oracle that shares no code with the kinetic matrix."""
    nn = system.n_particles
    k2 = 0.5 * system.grid.k ** 2
    symbol = sum(k2.reshape([-1 if ax == j else 1 for ax in range(nn)])
                 for j in range(nn))
    return (np.fft.ifftn(symbol * np.fft.fftn(psi))
            + potential_diagonal(system) * psi)


def test_hamiltonian_and_energy_match_fft_reference():
    # the cases of test_apply_hamiltonian_matches_dense, whose dense
    # matrix comes from the same dense_operator as hamiltonian's
    for nn, n in ((1, 16), (2, 16), (3, 8)):
        g = Grid1D(n, 4.0)
        for omega in (0.0, 0.5):
            system = NBodySystem(g, nn, potential=gaussian_well(1.0, 1.0),
                                 omega=omega)
            state = random_state(g, nn, seed=1, k_filter=3.0)
            ref = _fft_hamiltonian(system, state.amplitudes)
            fast = hamiltonian(system)(state.values)
            assert np.max(np.abs(fast - _at_sorted_tuples(ref))) < 1e-12, (
                nn, omega)
            e = energy_moment(system, state)
            assert isinstance(e, float)
            # the moment sums sector values by multiplicity; the
            # reference sums the whole tensor
            e_ref = g.h ** nn * np.vdot(state.amplitudes, ref)
            assert e == pytest.approx(e_ref.real, rel=1e-12), (nn, omega)
            # a shift s adds s ||psi||^2 to the energy
            assert energy_moment(system, state, shift=2.5) == pytest.approx(
                e + 2.5 * state.norm() ** 2, rel=1e-12), (nn, omega)
            # second moment dominates the squared first moment
            assert energy_moment(system, state, 2) >= e ** 2


def test_hamiltonian_builds_its_potential_once(monkeypatch):
    # the potential is taken at the sorted tuples once per H_N, and the
    # n^N diagonal is never built
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 3, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, 3, seed=2, k_filter=3.0)
    calls = _refuse_the_full_diagonal(monkeypatch)
    ham = hamiltonian(system)
    vec = state.values
    for _ in range(5):
        vec = ham(vec)
    assert calls == [system]
    energy_moment(system, state, 3)
    assert len(calls) == 2


def test_hamiltonian_forms_no_full_tensor(monkeypatch):
    # H_N, its moments and a trajectory's energies stay on the sorted
    # tuples at N = 4, n = 16 (16^4 amplitudes against 3,876 values)
    from boselab import grid

    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 4, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, 4, seed=3, k_filter=3.0)
    traj = propagate(system, state, [0.0, 2e-3, 4e-3])
    formed = []

    def recorded(name, original):
        def run(*args, **kwargs):
            formed.append(name)
            return original(*args, **kwargs)
        return run

    monkeypatch.setattr(grid.BosonicState, "amplitudes", property(
        recorded("expansion", grid.BosonicState.amplitudes.fget)))
    _refuse_the_full_diagonal(monkeypatch)
    hpsi = hamiltonian(system)(state.values)
    moments = [energy_moment(system, state),
               energy_moment(system, state, 2, shift=4.0)]
    energies = [energy_moment(system, s) for s in traj.states]
    assert formed == []
    assert hpsi.shape == state.values.shape
    assert len(energies) == len(traj.states) == 3
    assert all(np.isfinite(moments))


def test_spectral_cutoff_sector_side_cap():
    # 5,984 sorted triples on 32 sites, past the 4096 side of a dense
    # matrix (the 32^3 Kronecker matrix was refused the same way)
    g = Grid1D(32, 8.0)
    system = NBodySystem(g, 3, potential=gaussian_well())
    state = BosonicState(g, 3, np.ones(5984))
    with pytest.raises(GridError, match="side 5984 exceeds cap"):
        spectral_cutoff(system, state, [0.2])


def test_propagator_against_dense_exponential():
    # independent reference: scipy's expm of the dense H_N on the n^N
    # tensor, at every stored time; n = 8 at N = 3 keeps it at 512^2
    for (n, nn), omega, potential in itertools.product(
            [(8, 2), (8, 3), (16, 2)], [0.0, 1.0],
            [None, gaussian_well(1.0, 1.0)]):
        g = Grid1D(n, 4.0)
        system = NBodySystem(g, nn, potential=potential, omega=omega)
        state = random_state(g, nn, seed=3, k_filter=2.0)
        times = [0.0, 0.05, 0.2, 0.7]
        ham = dense_hamiltonian(system)
        traj = propagate(system, state, times)
        for t, got in zip(times, traj.states, strict=True):
            ref = expm(-1j * t * ham) @ state.amplitudes.reshape(-1)
            err = np.max(np.abs(got.amplitudes.reshape(-1) - ref))
            assert err <= 1e-12 * np.max(np.abs(ref)), (n, nn, omega, t)


@pytest.mark.parametrize("nn", [2, 3, 4])
def test_strang_steps_converge_to_the_exact_flow(nn):
    # the full-tensor FFT Strang step (tests/oracles.py) on the trapped
    # product state of the mean-field well: its error against propagate
    # falls by 4 per dt halving (4.0005 at dt = 0.01, 4.0001 at 0.005)
    from boselab.potentials import PotentialSpec

    g = Grid1D(16, 8.0)
    system = NBodySystem(g, nn, omega=1.0, potential=PotentialSpec(
        "gaussian_well", 1.0, 1.0, beta=0.3))
    phi = np.exp(-g.x ** 2 / 2).astype(np.complex128)
    state = BosonicState(g, nn, sector_product(phi, nn)).normalized()
    exact = propagate(system, state, [0.2]).states[-1].amplitudes
    errs = [math.sqrt(g.h ** nn * np.sum(np.abs(
        strang_flow(system, state.amplitudes, 0.2 / steps, steps) - exact)
        ** 2)) for steps in (20, 40)]
    assert errs[1] < 1e-5
    assert abs(errs[0] / errs[1] - 4.0) <= 0.05


def _extrapolated_strang(system, psi, t, steps):
    """The full-tensor FFT Strang flow (tests/oracles.py) to t, in steps
    and in 2 steps, extrapolated: Strang is symmetric, so its error is
    even in dt and (4 fine - coarse) / 3 is fourth order; returns the
    extrapolation and fine - coarse, the size of the removed error."""
    coarse = strang_flow(system, psi, t / steps, steps)
    fine = strang_flow(system, psi, t / (2 * steps), 2 * steps)
    return (4.0 * fine - coarse) / 3.0, fine - coarse


@settings(max_examples=30, deadline=None)
@given(nn=st.sampled_from([1, 2, 3, 4]), n=st.sampled_from([8, 16]),
       omega=st.sampled_from([0.0, 1.0]), interacting=st.booleans(),
       dt=st.floats(1e-4, 2e-2), seed=st.integers(0, 2 ** 16))
def test_in_place_step_matches_per_axis_reference(nn, n, omega, interacting,
                                                  dt, seed):
    # the segment's recurrence updates its terms in place; one segment of
    # 6 dt against the per-axis FFT Strang flow of 6 and 12 steps, whose
    # extrapolation must remove 99 % of Strang's dt^2 error (its dt^4
    # remainder is below 0.2 % of it at dt = 2e-2); the free flow is
    # Strang's to rounding
    g = Grid1D(n, 4.0)
    system = NBodySystem(g, nn, omega=omega,
                         potential=gaussian_well(1.0, 1.0) if interacting
                         else None)
    state = random_state(g, nn, seed=seed, k_filter=3.0)
    traj = propagate(system, state, [6 * dt])
    got = traj.states[-1].amplitudes
    ref, removed = _extrapolated_strang(system, state.amplitudes, 6 * dt, 6)
    scale = np.max(np.abs(ref))
    assert (np.max(np.abs(got - ref))
            <= 1e-13 * scale + 1e-2 * np.max(np.abs(removed)))
    assert abs(traj.states[-1].norm() - state.norm()) < 1e-12
    assert traj.norm_drift < 1e-12


@pytest.mark.parametrize("nn, n", [(3, 32), (4, 16)])
def test_whole_propagator_matches_per_axis_reference(nn, n):
    # 32^3 and 16^4 amplitudes, the sizes of the mean-field runs: one
    # segment of 8e-3 against the per-axis FFT Strang flow of 8 and 16
    # steps, extrapolated (2.5e-13 and 1.5e-13 relative); Strang alone is
    # off by 4.8e-8 and 1.1e-8
    g = Grid1D(n, 8.0)
    system = NBodySystem(g, nn, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, nn, seed=5, k_filter=3.0)
    got = propagate(system, state, [8e-3]).states[-1].amplitudes
    ref, removed = _extrapolated_strang(system, state.amplitudes, 8e-3, 8)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(removed)) > 1e-8 * scale
    assert np.max(np.abs(got - ref)) <= 1e-12 * scale


def test_split_and_whole_propagators_agree():
    # 20 segments of 1e-3 and one of 0.02 take different sums (6 H_N
    # applications per short segment, 11 for the long one) and round
    # differently, but give the same flow
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 2, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, 2, seed=6, k_filter=3.0)
    split = propagate(system, state, 1e-3 * np.arange(1, 21))
    whole = propagate(system, state, [0.02])
    a, b = split.states[-1].amplitudes, whole.states[-1].amplitudes
    assert not np.array_equal(a, b)
    assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))


def _three_pass_segment(system, values, span):
    """exp(-i span H_N) values as the plain Chebyshev sum: the spectral
    interval from the potential at the sorted tuples and N max(k^2/2),
    the weights 2 (-i)^m J_m(r span) from scipy.special.jv up to the
    first m > r span with |J_m| < 1e-15, and per term three passes
    (apply H_N, shift and scale, add the weighted term) that make new
    arrays."""
    from scipy.special import jv

    g, nn = system.grid, system.n_particles
    pot = system.potential_at(sector_tables(g.n, nn)[0][-1][0].T)
    lo = np.min(pot)
    hi = nn * np.max(0.5 * g.k ** 2) + np.max(pot)
    center, radius = (hi + lo) / 2, (hi - lo) / 2
    x = radius * span
    orders = np.arange(int(x) + 80)
    coeffs = jv(orders, x)
    cut = np.flatnonzero((orders > x) & (np.abs(coeffs) < 1e-15))[0]
    ham = hamiltonian(system)
    terms = [values, (ham(values) - center * values) / radius]
    while len(terms) < cut:
        shifted = ham(terms[-1]) - center * terms[-1]
        terms.append(2.0 * shifted / radius - terms[-2])
    total = coeffs[0] * values
    for m in range(1, cut):
        total = total + 2.0 * (-1j) ** m * coeffs[m] * terms[m]
    return np.exp(-1j * center * span) * total


@settings(max_examples=40, deadline=None)
@given(nn=st.integers(1, 4), n=st.sampled_from([2, 4, 8, 16]),
       split=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_one_step_matches_the_three_pass_loop(nn, n, split, seed):
    # one segment of propagate, whose recurrence runs in place on three
    # buffers with Miller's weights, against the plain three-pass sum;
    # split takes it as two segments, the second from the stored state
    g = Grid1D(n, 4.0)
    system = NBodySystem(g, nn, potential=mixed_sign(1.0, 1.0, r=0.25),
                         omega=1.0)
    state = random_state(g, nn, seed=seed, k_filter=3.0)
    times = [0.01, 0.03] if split else [0.03]
    got = propagate(system, state, times).states[-1].values
    want = state.values
    for span in np.diff([0.0, *times]):
        want = _three_pass_segment(system, want, span)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_phase_matches_complex_exponential():
    # one segment on a diagonal H is the phase exp(-i span d) of each
    # entry: the weights' powers of -i, the recurrence and the centre's
    # phase, for r span from 0 to 42.5 and c span up to 40
    from boselab.nbody import _chebyshev_segment

    rng = np.random.default_rng(5)
    for center, radius, span in [(0.0, 1.0, 0.0), (0.0, 1.0, 1e-16),
                                 (3.0, 2.0, 0.01), (-5.0, 40.0, 1.0),
                                 (20.0, 7.0, 2.0), (0.5, 1.0, 42.5)]:
        d = center + radius * rng.uniform(-1.0, 1.0, 64)
        d[:2] = center - radius, center + radius
        v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        got = _chebyshev_segment(lambda x: d * x, v, center, radius, span)
        want = np.exp(-1j * span * d) * v
        assert np.max(np.abs(got - want) / np.abs(v)) <= 1e-14, (
            center, radius, span)


@pytest.mark.parametrize("x", [0.0, 1e-16, 1e-8, 0.09, 0.3, 1.0, 2.5, 10.0,
                               10.44, 42.5])
def test_bessel_coefficients_match_scipy(x):
    # Miller's recurrence against scipy.special.jv, and the cut: the
    # first order above x with |J_m(x)| < 1e-15
    from scipy.special import jv

    got = _bessel_j(x)
    orders = np.arange(len(got) + 1)
    want = jv(orders, x)
    assert np.max(np.abs(got - want[:-1])) <= 1e-15
    small = (orders > x) & (np.abs(want) < 1e-15)
    assert np.flatnonzero(small)[0] == len(got)
    if x == 0.0:
        assert got.tolist() == [1.0]


def test_free_dispersion_matches_analytic_variance():
    # free gaussian packet: Var(t) = (s0^2 + t^2/s0^2) / 2 exactly
    g = Grid1D(256, 16.0)
    s0 = 1.0
    phi = np.exp(-g.x ** 2 / (2 * s0 ** 2)).astype(np.complex128)
    phi /= math.sqrt(g.h * float(np.sum(np.abs(phi) ** 2)))
    system = NBodySystem(g, 1)
    traj = propagate(system, BosonicState(g, 1, phi),
                     [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    for t, snap in zip(traj.times, traj.states):
        dens = np.abs(snap.amplitudes) ** 2
        var = float(g.h * np.sum(g.x ** 2 * dens))
        assert var == pytest.approx((s0 ** 2 + t ** 2 / s0 ** 2) / 2,
                                    rel=1e-10)


def test_trap_ground_state_is_stationary():
    g = Grid1D(64, 8.0)
    phi, _ = trap_ground_state(g, 1.0)
    pair = np.multiply.outer(phi, phi)
    system = NBodySystem(g, 2, omega=1.0)
    traj = propagate(system, BosonicState(g, 2, sector_product(phi, 2)),
                     [0.5])
    overlap = abs(g.h ** 2 * np.vdot(traj.states[-1].amplitudes, pair))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_evolve_conservation_and_symmetry():
    # the exact flow keeps the energy to rounding, not to O(dt^2)
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 3, potential=mixed_sign(1.0, 1.0, r=0.25),
                         omega=1.0)
    state = random_state(g, 3, seed=4, k_filter=3.0)
    traj = propagate(system, state, 0.02 * np.arange(11))
    assert traj.norm_drift < 1e-13
    assert energy_drift(traj) < 1e-12
    assert all(symmetry_residual(s.amplitudes) < 1e-9 for s in traj.states)
    assert np.allclose(np.diff(traj.times), 0.02)
    assert len(traj.states) == len(traj.times) == 11


@settings(max_examples=30, deadline=None)
@given(nn=st.sampled_from([1, 2, 3]), n=st.sampled_from([8, 16]),
       omega=st.sampled_from([0.0, 1.0]), interacting=st.booleans(),
       t2=st.floats(1e-6, 1.0), fraction=st.floats(0.01, 0.99),
       seed=st.integers(0, 2 ** 16))
def test_flow_keeps_the_norm_and_composes(nn, n, omega, interacting, t2,
                                          fraction, seed):
    # the group law: 0 -> t1 -> t2 in one call, and in two calls, equals
    # 0 -> t2 to 1e-12, and every stored state keeps the norm
    g = Grid1D(n, 4.0)
    system = NBodySystem(g, nn, omega=omega,
                         potential=gaussian_well(1.0, 1.0) if interacting
                         else None)
    state = random_state(g, nn, seed=seed, k_filter=3.0)
    t1 = fraction * t2
    both = propagate(system, state, [t1, t2])
    direct = propagate(system, state, [t2]).states[-1].values
    again = propagate(system, both.states[0], [t2 - t1]).states[-1].values
    scale = np.max(np.abs(direct))
    for got in (both.states[1].values, again):
        assert np.max(np.abs(got - direct)) <= 1e-12 * scale
    for snap in both.states:
        assert abs(snap.norm() - 1.0) <= 1e-12
    assert both.norm_drift <= 1e-12


@settings(max_examples=30, deadline=None)
@given(nn=st.sampled_from([2, 3]), n=st.sampled_from([8, 16]),
       omega=st.sampled_from([0.0, 1.0]), interacting=st.booleans(),
       dt=st.floats(1e-4, 2e-2), seed=st.integers(0, 2 ** 16))
def test_evolution_keeps_bosonic_symmetry(nn, n, omega, interacting, dt,
                                          seed):
    # the chaos distance rejects states off the bosonic sector at 1e-12;
    # propagation must keep symmetric data symmetric to rounding
    g = Grid1D(n, 4.0)
    system = NBodySystem(g, nn, omega=omega,
                         potential=gaussian_well(1.0, 1.0) if interacting
                         else None)
    state = random_state(g, nn, seed=seed, k_filter=3.0)
    traj = propagate(system, state, 20 * dt * np.arange(6))
    for snap in traj.states:
        amps = snap.amplitudes
        assert symmetry_residual(amps) <= 1e-13 * np.max(np.abs(amps))


_BLAS_RUN = """
import hashlib
from boselab.grid import Grid1D, random_state
import numpy as np
from boselab.nbody import NBodySystem, _moment, hamiltonian, propagate
from boselab.potentials import gaussian_well
g = Grid1D(16, 4.0)
system = NBodySystem(g, 4, potential=gaussian_well(1.0, 1.0), omega=1.0)
state = random_state(g, 4, seed=3, k_filter=3.0)
traj = propagate(system, state, [0.0, 1e-3, 2e-3, 0.1])
digest = hashlib.sha256(np.array([s.norm() for s in traj.states]).tobytes())
for snap in traj.states:
    digest.update(snap.amplitudes.tobytes())
ham = hamiltonian(system)
digest.update(np.array([_moment(system, ham, s, 1)
                        for s in traj.states]).tobytes())
big = NBodySystem(Grid1D(32, 8.0), 4, potential=gaussian_well(1.0, 1.0))
psi = random_state(big.grid, 4, seed=3, k_filter=3.0)
digest.update(hamiltonian(big)(psi.values).tobytes())
print(digest.hexdigest())
"""


def test_kinetic_products_are_bit_identical_across_blas_threads():
    # a library caller may load a threaded BLAS, so every pool size and
    # BLAS thread count is compared on the flow's stored states, norms
    # and energies at N = 4, n = 16, and on H_N's 32 x 32 by 32 x 5,984
    # product at N = 4, n = 32
    import os
    import subprocess
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for pool, blas in itertools.product(("1", "2"), repeat=2):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas,
                   OMP_NUM_THREADS=pool,
                   PYTHONPATH=os.pathsep.join(
                       [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _BLAS_RUN], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64
    assert digests == digests[:1] * 4


def test_stored_snapshots_do_not_alias_the_buffer():
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 2, potential=gaussian_well(), omega=1.0)
    state = random_state(g, 2, seed=2, k_filter=3.0)
    times = 1e-3 * np.arange(7)
    traj = propagate(system, state, times)
    # the first snapshot is the caller's (read-only) state itself
    assert traj.states[0] is state
    for arrays in ([s.values for s in traj.states],
                   [s.amplitudes for s in traj.states]):
        for i in range(len(arrays)):
            for j in range(i + 1, len(arrays)):
                assert not np.shares_memory(arrays[i], arrays[j])
    # a shorter run over the same segments stores the same bits
    fresh = propagate(system, state, times[:4])
    np.testing.assert_array_equal(traj.states[3].amplitudes,
                                  fresh.states[-1].amplitudes)


def _norms(traj):
    """The norm of each stored state, as propagate's norm guards take it."""
    return [s.norm() for s in traj.states]


def _threaded_run(monkeypatch, pool):
    from boselab import grid

    monkeypatch.setattr(grid, "_POOL_SIZE", pool)
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 4, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, 4, seed=3, k_filter=3.0)
    traj = propagate(system, state, [0.0, 1e-3, 2e-3, 3e-3])
    return (traj, hamiltonian(system)(state.values),
            energy_moment(system, state))


def test_threaded_transforms_are_bit_identical(monkeypatch):
    traj1, h1, e1 = _threaded_run(monkeypatch, 1)
    traj2, h2, e2 = _threaded_run(monkeypatch, 2)
    assert len(traj1.states) == len(traj2.states) == 4
    for a, b in zip(traj1.states, traj2.states):
        assert np.array_equal(a.amplitudes, b.amplitudes)
    assert _norms(traj1) == _norms(traj2)
    assert ([energy_moment(traj1.system, s) for s in traj1.states]
            == [energy_moment(traj2.system, s) for s in traj2.states])
    assert traj1.norm_drift == traj2.norm_drift
    assert np.array_equal(h1, h2)
    assert e1 == e2


class _CountingPool(ThreadPoolExecutor):
    def __init__(self, workers):
        super().__init__(max_workers=workers)
        self.jobs = 0

    def submit(self, *args, **kwargs):
        self.jobs += 1
        return super().submit(*args, **kwargs)


def _split_run(monkeypatch, pool):
    from boselab import grid

    monkeypatch.setattr(grid, "_POOL_SIZE", pool)
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 4, potential=mixed_sign(1.0, 1.0, r=0.25))
    state = random_state(g, 4, seed=8, k_filter=3.0)
    with _CountingPool(pool) as executor:
        monkeypatch.setattr(grid, "_POOL", executor)
        traj = propagate(system, state, 2e-3 * np.arange(11))
    return traj, executor.jobs


@pytest.mark.parametrize("stress", [False, True])
def test_split_phase_products_are_bit_identical(monkeypatch, stress):
    # the flow's products and its centre phase run on the calling thread
    # at every pool size; the stress case runs more threads than cores
    # with a short switch interval, where a job handed to the pool would
    # show as a count or as a changed bit
    from boselab import grid

    single, no_jobs = _split_run(monkeypatch, 1)
    pool = 7 if stress else max(grid._POOL_SIZE, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if stress else interval)
    try:
        split, jobs = _split_run(monkeypatch, pool)
    finally:
        sys.setswitchinterval(interval)
    assert (jobs, no_jobs) == (0, 0)
    assert len(split.states) == len(single.states) == 11
    for a, b in zip(split.states, single.states, strict=True):
        assert np.array_equal(a.amplitudes, b.amplitudes)
    assert _norms(split) == _norms(single)
    assert split.norm_drift == single.norm_drift


def test_small_tensors_pass_on_one_thread(monkeypatch):
    # the flow runs on the calling thread at every size, so a pool of two
    # is handed no job at 32^3 or at 16^4 amplitudes
    from boselab import grid

    monkeypatch.setattr(grid, "_POOL_SIZE", 2)
    with _CountingPool(2) as executor:
        monkeypatch.setattr(grid, "_POOL", executor)
        for n, nn in ((32, 3), (16, 4)):
            g = Grid1D(n, 4.0)
            state = random_state(g, nn, seed=1, k_filter=3.0)
            propagate(NBodySystem(g, nn, potential=gaussian_well()), state,
                      [1e-3, 3e-3])
    assert executor.jobs == 0


@pytest.mark.parametrize("value", [None, "0", "-2", "two", "2.5", ""])
def test_pool_size_falls_back_to_affinity(monkeypatch, value):
    import os

    from boselab import grid

    if value is None:
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OMP_NUM_THREADS", value)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    assert grid._pool_size() == cpus
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert grid._pool_size() == 3


def test_evolve_holds_four_tensors():
    import tracemalloc

    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 4, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, 4, seed=3, k_filter=3.0)
    vector = state.values.nbytes
    # H_N's gather by site, 16 x 816 values, and its product with K
    fold = 16 * math.comb(18, 3) * 16
    propagate(system, state, [1e-3])  # builds the cached index tables
    tracemalloc.start()
    try:
        traj = propagate(system, state, [0.0, 2e-3, 4e-3])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.states) == 3
    # the caller's input is allocated before tracing starts; propagate
    # holds the sum and three terms of the recurrence, one temporary, the
    # real potential, one H_N application's gathers and the stored
    # values (7.1 vectors besides the gathers here), never a 16^4 tensor
    assert peak <= 2 * fold + (6 + len(traj.states) - 1) * vector


def test_evolve_rejects_a_state_off_the_bosonic_sector():
    # propagate takes BosonicStates only: a bare tensor is rejected by its
    # type, even one that is symmetric to the last bit
    g = Grid1D(8, 4.0)
    system = NBodySystem(g, 3, potential=gaussian_well(1.0, 1.0))
    boson = random_state(g, 3, seed=1, k_filter=3.0)
    assert isinstance(boson, BosonicState)
    assert symmetry_residual(boson.amplitudes) == 0.0
    rng = np.random.default_rng(0)
    for state in (rng.standard_normal((g.n,) * 3).astype(np.complex128),
                  boson.amplitudes):
        with pytest.raises(GridError, match="BosonicState"):
            propagate(system, state, [1e-3, 2e-3])
    traj = propagate(system, boson, [0.0, 1e-3, 2e-3])
    assert traj.states[0] is boson
    assert symmetry_residual(traj.states[-1].amplitudes) == 0.0


@pytest.mark.parametrize("nn, n", [(2, 16), (3, 8), (4, 16)])
def test_evolve_on_sector_values_matches_its_expansion(nn, n):
    # a tensor enters propagate through grid.symmetrize, which gives a
    # symmetric tensor's values back bit for bit before normalizing, so
    # the expansion of a state propagates as the state does, to the
    # rounding of one renormalization
    g = Grid1D(n, 4.0)
    system = NBodySystem(g, nn, potential=gaussian_well(1.0, 1.0), omega=1.0)
    boson = random_state(g, nn, seed=nn, k_filter=3.0)
    again = symmetrize(g, boson.amplitudes)
    assert np.array_equal(again.values, boson.normalized().values)
    sector = propagate(system, boson, [0.0, 2e-3, 4e-3])
    expanded = propagate(system, again, [0.0, 2e-3, 4e-3])
    assert sector.states[0] is boson and expanded.states[0] is again
    for a, b in zip(sector.states, expanded.states, strict=True):
        assert isinstance(a, BosonicState) and isinstance(b, BosonicState)
        assert np.max(np.abs(a.values - b.values)) <= 1e-15 * np.max(
            np.abs(a.values))
    assert np.allclose(_norms(sector), _norms(expanded), rtol=0, atol=1e-15)


def test_grid_mismatch_is_rejected():
    state = random_state(Grid1D(16, 4.0), 2, seed=0)
    system = NBodySystem(Grid1D(16, 8.0), 2, potential=gaussian_well())
    with pytest.raises(GridError, match="grid"):
        propagate(system, state, [1e-3])


def _mismatched_states():
    """A 16-point L = 8, N = 2 system with a state on L = 4 and one of
    N = 3 on its own grid."""
    g = Grid1D(16, 8.0)
    system = NBodySystem(g, 2, potential=gaussian_well())
    return system, [random_state(Grid1D(16, 4.0), 2, seed=0),
                    random_state(g, 3, seed=0)]


def test_energy_moment_rejects_a_foreign_state():
    # the L = 4 state used to give a moment of 13.31 with no error
    system, states = _mismatched_states()
    for state, match in zip(states, ("grid", "particle number")):
        with pytest.raises(GridError, match=match):
            energy_moment(system, state)


def test_hamiltonian_rejects_a_foreign_tensor():
    # an N = 2 tensor against the N = 3 diagonal used to broadcast into
    # an (n,)^3 result with no error; H_N now takes sector values only,
    # so neither another sector's values nor the system's own n^N tensor
    # pass
    g = Grid1D(8, 4.0)
    ham = hamiltonian(NBodySystem(g, 3, potential=gaussian_well()))
    for foreign in (random_state(g, 2, seed=0).values,
                    random_state(g, 3, seed=0).amplitudes):
        with pytest.raises(GridError, match="do not match"):
            ham(foreign)


@pytest.mark.parametrize("route", [
    lambda system, state: propagate(system, state, [1e-3]),
    lambda system, state: energy_moment(system, state),
    lambda system, state: check_energy_estimate(system, [state], 1),
    lambda system, state: check_decomposition_identity(system, state),
    lambda system, state: spectral_cutoff(system, state, [0.2]),
], ids=["propagate", "energy_moment", "check_energy_estimate",
        "check_decomposition_identity", "spectral_cutoff"])
def test_n_body_routes_reject_a_tensor_state(route):
    # one guard (nbody._check_grid) for every route that applies H_N: a
    # bare tensor is rejected by its type, even its own symmetric tensor
    g = Grid1D(8, 4.0)
    system = NBodySystem(g, 2, potential=gaussian_well(), omega=1.0)
    boson = random_state(g, 2, seed=0)
    route(system, boson)
    rng = np.random.default_rng(0)
    for state in (rng.standard_normal((g.n,) * 2).astype(np.complex128),
                  boson.amplitudes):
        with pytest.raises(GridError, match="BosonicState"):
            route(system, state)


def test_spectral_cutoff_rejects_a_foreign_state():
    # the L = 4 state used to come back relabelled L = 8
    system, states = _mismatched_states()
    for state, match in zip(states, ("grid", "particle number")):
        with pytest.raises(GridError, match=match):
            spectral_cutoff(system, state, [0.2])


def test_evolve_validation_and_abort(monkeypatch):
    import boselab.nbody as nbody

    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 2, potential=gaussian_well())
    state = random_state(g, 2, seed=0)
    with pytest.raises(GridError, match="particle number"):
        propagate(system, random_state(g, 3, seed=0), [1e-3])
    for times in ([], [-1e-3], [1e-3, 1e-3], [2e-3, 1e-3], [0.0, math.nan],
                  [0.0, math.inf], [[1e-3]]):
        with pytest.raises(GridError, match="times must be"):
            propagate(system, state, times)
    # an impossible tolerance must abort rather than silently continue
    monkeypatch.setattr(nbody, "NORM_TOL", -1.0)
    with pytest.raises(NumericalAbort, match="norm"):
        propagate(system, state, [1e-3, 2e-3])


def test_evolve_aborts_on_nan_amplitude(monkeypatch):
    # NaN fails every comparison, so only a finiteness test can catch it,
    # in the initial state or in one the flow makes
    from boselab import nbody

    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 2, potential=gaussian_well())
    state = random_state(g, 2, seed=0)
    values = state.values.copy()
    values[7] = np.nan
    with pytest.raises(NumericalAbort, match="nan at t = 0"):
        propagate(system, BosonicState(g, 2, values), [1e-3, 2e-3])
    build = nbody.hamiltonian

    def poisoned(system):
        ham = build(system)
        return lambda values: ham(values) * np.nan
    monkeypatch.setattr(nbody, "hamiltonian", poisoned)
    with pytest.raises(NumericalAbort, match="nan at t = 0.001"):
        propagate(system, state, [1e-3, 2e-3])


def test_evolve_aborts_on_slow_norm_creep(monkeypatch):
    # H_N - i gamma shrinks the norm by gamma Delta, 0.6 NORM_TOL per
    # segment of 1e-3: no single segment trips the per-segment check, the
    # check since t = 0 must
    from boselab import nbody

    build = nbody.hamiltonian

    def leaky(system):
        ham = build(system)
        return lambda values: ham(values) - 0.6e-7j * values
    monkeypatch.setattr(nbody, "hamiltonian", leaky)
    g = Grid1D(16, 4.0)
    state = random_state(g, 2, seed=0)
    system = NBodySystem(g, 2, potential=gaussian_well())
    with pytest.raises(NumericalAbort, match="since t = 0 at t = 0.002"):
        propagate(system, state, 1e-3 * np.arange(1, 21))


def test_norm_drift_over_equal_segments_stays_in_its_budget():
    # equal segments reuse the same rounded Bessel weights, so the norm
    # drifts with one sign; the worst rate measured, 5.9e-16 per segment
    # of 2e-3 (n = 8, L = 4, N = 3, the product Gaussian in a
    # gaussian_well of beta 0.5), is the one NORM_TOL's margin rests on
    g = Grid1D(8, 4.0)
    state = BosonicState(g, 3, sector_product(gaussian_packet(g, 1.0),
                                              3)).normalized()
    system = NBodySystem(g, 3, potential=gaussian_well(beta=0.5))
    traj = propagate(system, state, 2e-3 * np.arange(1, 2001))
    assert traj.norm_drift <= 2e-12


def test_propagate_rejects_an_imaginary_potential():
    # an absorbing potential has no real spectrum for the expansion
    class Leaky(NBodySystem):
        def potential_at(self, index):
            return super().potential_at(index) + 1e-3j

    g = Grid1D(16, 4.0)
    state = random_state(g, 2, seed=0)
    with pytest.raises(GridError, match="imaginary part"):
        propagate(Leaky(g, 2, potential=gaussian_well()), state, [1e-3])


def test_cutoff_chi_profile():
    s = np.array([-3.0, 0.0, 1.0, 1.5, 2.0, 5.0])
    vals = cutoff_chi(s)
    assert np.allclose(vals[:3], 1.0)
    assert vals[3] == pytest.approx(0.5)
    assert np.allclose(vals[4:], 0.0)
    fine = cutoff_chi(np.linspace(0.5, 2.5, 101))
    assert np.all(np.diff(fine) <= 1e-12)  # monotone decreasing


class TestSpectralCutoff:
    GRID = Grid1D(16, 4.0)

    def setup_method(self):
        self.system = NBodySystem(self.GRID, 2,
                                  potential=gaussian_well(1.0, 1.0),
                                  omega=1.0)
        self.state = random_state(self.GRID, 2, seed=11)

    def test_moment_bounds(self):
        kappas = (0.4, 0.2, 0.1)
        cuts = spectral_cutoff(self.system, self.state, kappas)
        for kappa, cut in zip(kappas, cuts, strict=True):
            assert cut.norm() == pytest.approx(1.0, rel=1e-12)
            for k in (1, 2):
                bound = (2.0 * 2 / kappa) ** k
                assert energy_moment(self.system, cut, k) <= bound * (1 + 1e-12)

    def test_distance_shrinks_with_kappa(self):
        h_n = self.GRID.h ** 2

        def dist(kappa):
            [cut] = spectral_cutoff(self.system, self.state, [kappa])
            return math.sqrt(h_n * float(np.sum(
                np.abs(cut.amplitudes - self.state.amplitudes) ** 2)))
        d = [dist(k) for k in (0.4, 0.2, 0.1)]
        assert d[0] > d[1] > d[2]
        # far below the spectral floor the cutoff is the identity
        evals = np.linalg.eigvalsh(dense_hamiltonian(self.system))
        tiny = 0.5 * 2 / float(evals[-1])
        assert dist(tiny) < 1e-12

    def test_one_eigh_for_every_kappa(self, monkeypatch):
        # the sector matrix is built and diagonalized once per call, and
        # each kappa's state has the bits of a call with that kappa alone
        from boselab import nbody

        kappas = (0.4, 0.2, 0.1, 0.05)
        alone = [spectral_cutoff(self.system, self.state, [kappa])[0]
                 for kappa in kappas]
        builds, solves = [], []
        build, eigh = nbody.hamiltonian, np.linalg.eigh

        def counted_build(system):
            builds.append(system)
            return build(system)

        def counted_eigh(mat):
            solves.append(mat.shape)
            return eigh(mat)

        monkeypatch.setattr(nbody, "hamiltonian", counted_build)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        cuts = spectral_cutoff(self.system, self.state, kappas)
        assert builds == [self.system] and solves == [(136, 136)]
        for cut, want in zip(cuts, alone, strict=True):
            assert np.array_equal(cut.values, want.values)

    def test_rejections(self):
        # a non-finite kappa used to end in "annihilated the state"
        for kappa in (0.0, -0.1, math.nan, math.inf):
            with pytest.raises(GridError, match="finite and positive"):
                spectral_cutoff(self.system, self.state, [0.2, kappa])
        with pytest.raises(NumericalAbort, match="annihilated"):
            spectral_cutoff(self.system, self.state, [1e6])
        # one NaN value used to come back as an all-NaN state
        values = self.state.values.copy()
        values[5] = np.nan
        with pytest.raises(NumericalAbort, match="norm\\^2 nan"):
            spectral_cutoff(self.system, BosonicState(self.GRID, 2, values),
                            [0.2])

    @pytest.mark.parametrize("nn", [2, 3])
    def test_sector_matrix_matches_the_dense_oracle(self, nn):
        # the sector H_N (side 136 and 816) against the Kronecker H_N on
        # 16^N tensors restricted to the sector (tests/oracles.py)
        system = NBodySystem(self.GRID, nn, potential=gaussian_well(1.0, 1.0),
                             omega=1.0)
        state = random_state(self.GRID, nn, seed=11)
        kappas = (0.4, 0.1)
        for kappa, got in zip(kappas, spectral_cutoff(system, state, kappas),
                              strict=True):
            assert isinstance(got, BosonicState)
            want = dense_cutoff(system, state, kappa)
            assert np.max(np.abs(got.values - want.values)) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 4, 8]), nn=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16))
def test_folds_match_the_tensor_contractions(n, nn, seed):
    # partial_trace and the collision term read the sector values through
    # one fold; the oracles contract the n^N tensor
    g = Grid1D(n, 4.0)
    state = random_state(g, nn, seed=seed)
    vpair = NBodySystem(g, nn, potential=mixed_sign()).pair_potential_values()
    for k in range(1, nn + 1):
        got = partial_trace(state, k).kernel
        want = tensor_partial_trace(state, k).kernel
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        if k < nn:
            got = _collision_term(state, k, vpair)
            want = tensor_collision_term(state, k, vpair)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _stored(dt, every, t_final):
    """Every time a run of steps of dt to t_final reaches at its stride
    of every steps."""
    span = dt * every
    return span * np.arange(int(round(t_final / span)) + 1)


class TestBBGKYResidual:
    def make(self, dt, store_every=5, n=16, t_final=0.1):
        g = Grid1D(n, 4.0)
        system = NBodySystem(g, 2, potential=gaussian_well(1.0, 1.0),
                             omega=0.5)
        state = random_state(g, 2, seed=1, k_filter=3.0)
        return propagate(system, state, _stored(dt, store_every, t_final))

    def test_residual_is_second_order_in_dt(self):
        errs = [bbgky_residual(self.make(dt), 1)["max_abs"]
                for dt in (2e-3, 1e-3)]
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    def test_three_particle_random_state_is_second_order(self):
        # random bosonic N = 3 data without a trap, where the CLI suite
        # starts from a product state
        g = Grid1D(16, 8.0)
        system = NBodySystem(g, 3, potential=gaussian_well(1.0, 1.0))
        psi0 = random_state(g, 3, seed=0, k_filter=3.0)
        errs = [bbgky_residual(propagate(system, psi0, _stored(dt, 5, 0.2)),
                               1)["hs_norm"]
                for dt in (2e-3, 1e-3)]
        assert 3.5 <= errs[0] / errs[1] <= 4.5

    @pytest.mark.parametrize("k,n,omega", [(1, 16, 0.0), (1, 16, 0.5),
                                           (2, 8, 0.5)])
    def test_commutator_matches_the_fft_formula(self, k, n, omega):
        # the former route, kept as the oracle: the kinetic symbol by an
        # fft round trip and the trap as a multiplier, on each axis
        g = Grid1D(n, 4.0)
        rng = np.random.default_rng(7)
        shape = (n,) * (2 * k)
        tens = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        sym, trap = 0.5 * g.k ** 2, 0.5 * omega ** 2 * g.x ** 2
        ref = np.zeros_like(tens)
        for ax in range(2 * k):
            line = [n if a == ax else 1 for a in range(2 * k)]
            term = (np.fft.ifft(sym.reshape(line)
                                * np.fft.fft(tens, axis=ax), axis=ax)
                    + trap.reshape(line) * tens)
            ref += term if ax < k else -term
        h1 = dense_operator(g, kinetic_symbol(g), trap_potential(g, omega))
        got = _commutator_one_body(tens, k, h1)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_result_fields(self):
        res = bbgky_residual(self.make(2e-3), 1)
        assert sorted(res) == ["dt", "hs_norm", "k", "kernel", "max_abs",
                               "time", ]
        assert res["k"] == 1
        assert res["dt"] == pytest.approx(0.01)
        assert res["time"] == pytest.approx(0.05)
        assert res["kernel"].shape == (16, 16)
        assert res["hs_norm"] >= 0
        assert res["max_abs"] >= 0

    def test_rejections(self):
        with pytest.raises(GridError, match="k\\+1 <= N"):
            bbgky_residual(self.make(2e-3), 2)
        short = self.make(2e-3, store_every=5, t_final=0.01)
        with pytest.raises(GridError):
            bbgky_residual(short, 1)
        # a central difference needs the middle state midway
        uneven = propagate(short.system, short.states[0], [0.0, 0.01, 0.03])
        with pytest.raises(GridError, match="evenly spaced"):
            bbgky_residual(uneven, 1)
