"""Exact N-body propagation, spectral cutoff, and hierarchy residual."""

import itertools
import math
import sys
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from boselab.energy_checks import (check_decomposition_identity,
                                   check_energy_estimate)
from boselab.grid import (BosonicState, Grid1D, GridError, apply_matrix,
                          dense_operator, dense_weight_squared,
                          kinetic_symbol, random_state,
                          sector_product, sector_tables, symmetrize,
                          trap_potential)
from boselab.nbody import (
    NBodySystem,
    NumericalAbort,
    _collision_term,
    _commutator_one_body,
    bbgky_residual,
    cutoff_chi,
    evolve,
    hamiltonian,
    one_body_sum,
    spectral_cutoff,
)
from boselab.marginals import partial_trace
from boselab.nls import trap_ground_state
from boselab.potentials import gaussian_well, mixed_sign
from oracles import (dense_cutoff, dense_hamiltonian, energy_drift,
                     energy_moment, potential_diagonal, symmetry_residual,
                     tensor_collision_term, tensor_partial_trace)


def test_system_validation():
    g = Grid1D(8, 4.0)
    with pytest.raises(GridError):
        NBodySystem(g, 0)
    with pytest.raises(GridError):
        NBodySystem(g, 2, omega=-1.0)
    assert NBodySystem(g, 3).dim == 512


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
    # evolve's half kicks read the diagonal at the sorted tuples only; the
    # same sums in the same order give the same bits as the full tensor
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
    before = evolve(system, state, 1e-3, 3).states[-1].values
    calls = _refuse_the_full_diagonal(monkeypatch)
    after = evolve(system, state, 1e-3, 3).states[-1].values
    assert np.array_equal(before, after)
    assert calls == [system]


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
    if system.dim <= 512:
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
    traj = evolve(system, state, 1e-3, 4, store_every=2)
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
    # independent reference: scipy expm of the dense Hamiltonian; the
    # Strang error at fixed horizon must shrink by ~4x when dt halves
    g = Grid1D(8, 4.0)
    system = NBodySystem(g, 2, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, 2, seed=3, k_filter=2.0)
    t_final = 0.2
    ref = expm(-1j * t_final * dense_hamiltonian(system)) \
        @ state.amplitudes.reshape(-1)
    errs = []
    for dt in (0.02, 0.01):
        traj = evolve(system, state, dt, int(round(t_final / dt)))
        got = traj.states[-1].amplitudes.reshape(-1)
        errs.append(float(np.max(np.abs(got - ref))))
    assert errs[0] < 1e-3
    assert 3.5 <= errs[0] / errs[1] <= 4.5


def test_free_dispersion_matches_analytic_variance():
    # free gaussian packet: Var(t) = (s0^2 + t^2/s0^2) / 2 exactly
    g = Grid1D(256, 16.0)
    s0 = 1.0
    phi = np.exp(-g.x ** 2 / (2 * s0 ** 2)).astype(np.complex128)
    phi /= math.sqrt(g.h * float(np.sum(np.abs(phi) ** 2)))
    system = NBodySystem(g, 1)
    traj = evolve(system, BosonicState(g, 1, phi), 1e-3, 500,
                  store_every=100)
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
    traj = evolve(system, BosonicState(g, 2, sector_product(phi, 2)), 1e-3,
                  500, store_every=500)
    overlap = abs(g.h ** 2 * np.vdot(traj.states[-1].amplitudes, pair))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_evolve_conservation_and_symmetry():
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 3, potential=mixed_sign(1.0, 1.0, r=0.25),
                         omega=1.0)
    state = random_state(g, 3, seed=4, k_filter=3.0)
    traj = evolve(system, state, 1e-3, 200, store_every=20)
    assert traj.norm_drift < 1e-10
    assert energy_drift(traj) < 1e-6
    assert all(symmetry_residual(s.amplitudes) < 1e-9 for s in traj.states)
    assert traj.store_dt == pytest.approx(0.02)
    assert np.allclose(np.diff(traj.times), 0.02)
    assert len(traj.states) == len(traj.times) == 11


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
    traj = evolve(system, state, dt, 100, store_every=20)
    for snap in traj.states:
        amps = snap.amplitudes
        assert symmetry_residual(amps) <= 1e-13 * np.max(np.abs(amps))


def _per_axis_strang(system, psi, dt, n_steps):
    """Reference loop: numpy FFTs and the kinetic phase axis by axis."""
    half = np.exp(-0.5j * dt * potential_diagonal(system))
    kin = np.exp(-1j * dt * 0.5 * system.grid.k ** 2)
    nn, n = system.n_particles, system.grid.n
    for _ in range(n_steps):
        psi = np.fft.fftn(half * psi)
        for ax in range(nn):
            shape = [1] * nn
            shape[ax] = n
            psi = psi * kin.reshape(shape)
        psi = half * np.fft.ifftn(psi)
    return psi


@settings(max_examples=30, deadline=None)
@given(nn=st.sampled_from([1, 2, 3, 4]), n=st.sampled_from([8, 16]),
       omega=st.sampled_from([0.0, 1.0]), interacting=st.booleans(),
       dt=st.floats(1e-4, 2e-2), seed=st.integers(0, 2 ** 16))
def test_in_place_step_matches_per_axis_reference(nn, n, omega, interacting,
                                                  dt, seed):
    g = Grid1D(n, 4.0)
    system = NBodySystem(g, nn, omega=omega,
                         potential=gaussian_well(1.0, 1.0) if interacting
                         else None)
    state = random_state(g, nn, seed=seed, k_filter=3.0)
    traj = evolve(system, state, dt, 6, store_every=6)
    ref = _per_axis_strang(system, state.amplitudes, dt, 6)
    got = traj.states[-1].amplitudes
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert abs(traj.states[-1].norm() - state.norm()) < 1e-12
    assert traj.norm_drift < 1e-12


@pytest.mark.parametrize("nn, n", [(3, 32), (4, 16)])
def test_whole_propagator_matches_per_axis_reference(nn, n):
    # tensors from SPLIT_FLOOR up apply U whole rather than I + D
    from boselab import nbody

    g = Grid1D(n, 8.0)
    system = NBodySystem(g, nn, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, nn, seed=5, k_filter=3.0)
    assert state.amplitudes.size >= nbody.SPLIT_FLOOR
    traj = evolve(system, state, 2e-3, 4, store_every=4)
    ref = _per_axis_strang(system, state.amplitudes, 2e-3, 4)
    got = traj.states[-1].amplitudes
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_split_and_whole_propagators_agree(monkeypatch):
    from boselab import nbody

    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 2, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, 2, seed=6, k_filter=3.0)
    split = evolve(system, state, 1e-3, 20, store_every=20)
    monkeypatch.setattr(nbody, "SPLIT_FLOOR", 1)
    whole = evolve(system, state, 1e-3, 20, store_every=20)
    a, b = split.states[-1].amplitudes, whole.states[-1].amplitudes
    assert not np.array_equal(a, b)
    assert np.max(np.abs(a - b)) <= 1e-14 * np.max(np.abs(a))


@pytest.mark.parametrize("nn, n, potential", [
    (2, 32, None), (3, 8, gaussian_well(1.0, 1.0))])
def test_split_factors_keep_the_norm_unbiased(nn, n, potential):
    # rounded unit factors would drift the norm by ~1e-17 to 1e-16 per
    # step with one sign (1e-13 or more over this run); the split form
    # only rounds sums, which random-walk
    from boselab import nbody

    g = Grid1D(n, 8.0)
    state = random_state(g, nn, seed=7, k_filter=3.0)
    assert state.amplitudes.size < nbody.SPLIT_FLOOR
    system = NBodySystem(g, nn, potential=potential, omega=0.5)
    traj = evolve(system, state, 2e-3, 20000, store_every=20000)
    assert traj.norm_drift < 2e-14


def _band_plan(n, nn):
    """The bands of the N kinetic levels in closed form, as lists of
    (rows, width).  Level k pairs the C(n+k-1, k) sorted k-tuples c with
    the C(n+N-k-2, N-k-1) sorted (N-k-1)-tuples.  A level of at most
    GEMM_ROWS rows is one band of width n, its rows as they are; a larger
    one past level 0 is cut by max(c) in [lo, lo + 4), C(a+k-1, k-1)
    tuples c having max(c) = a, and a band computes only the n - lo
    outputs l >= lo; the bands of a larger level (at level 0 one band of
    width n) are padded to a multiple of 4 rows."""
    from boselab import nbody

    def pad(rows):
        return -(-rows // 4) * 4

    plan = []
    for k in range(nn):
        inner = math.comb(n + nn - k - 2, nn - k - 1)
        rows = math.comb(n + k - 1, k) * inner
        if rows <= nbody.GEMM_ROWS:
            plan.append([(rows, n)])
            continue
        if k == 0:
            plan.append([(pad(rows), n)])
            continue
        plan.append([(pad(inner * sum(math.comb(a + k - 1, k - 1)
                                      for a in range(lo, lo + 4))), n - lo)
                     for lo in range(0, n, 4)])
    return plan


def _record_products(monkeypatch, n, nn):
    """(rows, width, row by row) of every kinetic product of one step;
    a band product U[lo:] @ rows^T is the one whose right operand is a
    transposed view."""
    from boselab import nbody

    calls = []
    matmul = np.matmul

    def recording(a, b, out):
        if b.flags.c_contiguous:
            calls.append((a.shape[0], b.shape[1], True))
        else:
            calls.append((b.shape[1], a.shape[0], False))
        return matmul(a, b, out=out)

    monkeypatch.setattr(nbody.np, "matmul", recording)
    g = Grid1D(n, 4.0)
    state = random_state(g, nn, seed=2, k_filter=3.0)
    evolve(NBodySystem(g, nn), state, 1e-3, 1)
    monkeypatch.undo()
    return calls


@pytest.mark.parametrize("nn, n", [(3, 32), (4, 16)])
def test_kinetic_product_blocks(monkeypatch, nn, n):
    # a level is cut at every multiple of GEMM_ROWS rows and at its band
    # edges, one product per piece; a level of fewer rows is one call
    from boselab import nbody

    calls = _record_products(monkeypatch, n, nn)
    plan = _band_plan(n, nn)
    pieces = 0
    for bands in plan:
        edges = np.cumsum([0] + [rows for rows, _ in bands])
        pieces += len(set(edges) | set(range(0, edges[-1],
                                             nbody.GEMM_ROWS))) - 1
    # (3, 32): 528, 1024 and 528 rows, one call each; (4, 16): 816,
    # 2176, 2176 and 816, the middle two in 4 bands over 3 blocks
    assert len(calls) == pieces == {(3, 32): 3, (4, 16): 14}[nn, n]
    assert max(rows for rows, _, _ in calls) <= nbody.GEMM_ROWS
    assert (sum(rows for rows, _, _ in calls)
            == sum(rows for bands in plan for rows, _ in bands))


@pytest.mark.parametrize("nn, n, macs", [(4, 16, 1_032_192),
                                         (4, 32, 24_823_808)])
def test_band_products_compute_only_what_is_read(monkeypatch, nn, n, macs):
    # every product has a multiple of 4 rows and a width of at least 2,
    # where the band product gives the whole-width product's bits; a level
    # of at most GEMM_ROWS rows is one full-width product; and a step
    # makes the closed form's multiply-adds (whole-width rows would make
    # 45,760 x 32^2 = 46.9M at n = 32)
    from boselab import nbody

    calls = _record_products(monkeypatch, n, nn)
    plan = _band_plan(n, nn)
    assert all(rows % 4 == 0 and width >= 2 for rows, width, _ in calls)
    small = [bands for bands in plan
             if sum(rows for rows, _ in bands) <= nbody.GEMM_ROWS]
    assert all(len(bands) == 1 and bands[0][1] == n for bands in small)
    assert ([(rows, width) for rows, width, by_row in calls if by_row]
            == [bands[0] for bands in small])
    total = sum(rows * width * n for rows, width, _ in calls)
    assert total == macs == sum(rows * width * n for bands in plan
                                for rows, width in bands)
    widths, want = Counter(), Counter()
    for rows, width, by_row in calls:
        widths[width] += 0 if by_row else rows
    for bands in plan:
        for rows, width in bands:
            want[width] += 0 if bands in small else rows
    assert widths == want


_BLAS_RUN = """
import hashlib
from boselab.grid import Grid1D, random_state
import numpy as np
from boselab.nbody import NBodySystem, _moment, evolve, hamiltonian
from boselab.potentials import gaussian_well
g = Grid1D(16, 4.0)
system = NBodySystem(g, 4, potential=gaussian_well(1.0, 1.0), omega=1.0)
state = random_state(g, 4, seed=3, k_filter=3.0)
traj = evolve(system, state, 1e-3, 3, store_every=1)
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
    # 16^4 amplitudes: levels of 816, 2176, 2176 and 816 rows, so the
    # middle two are three blocks of GEMM_ROWS each; a library caller may
    # load a threaded BLAS, so every split of a level over the pool and
    # BLAS is compared, on every stored state, norm and energy, and on
    # H_N's 32 x 32 by 32 x 5,984 product at N = 4, n = 32
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
    traj = evolve(system, state, 1e-3, 6, store_every=1)
    # the first snapshot is the caller's (read-only) state itself
    assert traj.states[0] is state
    for arrays in ([s.values for s in traj.states],
                   [s.amplitudes for s in traj.states]):
        for i in range(len(arrays)):
            for j in range(i + 1, len(arrays)):
                assert not np.shares_memory(arrays[i], arrays[j])
    fresh = evolve(system, state, 1e-3, 3, store_every=3)
    np.testing.assert_array_equal(traj.states[3].amplitudes,
                                  fresh.states[-1].amplitudes)


def _norms(traj):
    """The norm of each stored state, as evolve's norm guards take it."""
    return [s.norm() for s in traj.states]


def _threaded_run(monkeypatch, pool):
    from boselab import grid

    monkeypatch.setattr(grid, "_POOL_SIZE", pool)
    g = Grid1D(16, 4.0)  # 16^4 amplitudes: two middle levels of 3 blocks
    system = NBodySystem(g, 4, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, 4, seed=3, k_filter=3.0)
    traj = evolve(system, state, 1e-3, 3, store_every=1)
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
    g = Grid1D(16, 4.0)  # 16^4 amplitudes: two middle levels of 3 blocks
    system = NBodySystem(g, 4, potential=mixed_sign(1.0, 1.0, r=0.25))
    state = random_state(g, 4, seed=8, k_filter=3.0)
    with _CountingPool(pool) as executor:
        monkeypatch.setattr(grid, "_POOL", executor)
        traj = evolve(system, state, 2e-3, 10, store_every=1)
    return traj, executor.jobs


@pytest.mark.parametrize("stress", [False, True])
def test_split_phase_products_are_bit_identical(monkeypatch, stress):
    from boselab import grid, nbody

    single, no_jobs = _split_run(monkeypatch, 1)
    # the stress case runs more threads than cores with a short switch
    # interval, where a lost or misplaced block write would show
    pool = 7 if stress else max(grid._POOL_SIZE, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if stress else interval)
    try:
        split, jobs = _split_run(monkeypatch, pool)
    finally:
        sys.setswitchinterval(interval)
    # per step 4 kinetic levels, each split into min(pool, blocks) runs of
    # which the pool takes all but the first: at 16^4 the middle two
    # levels have 2176 padded rows in 4 bands, 3 blocks of GEMM_ROWS, the
    # outer two 816 rows, 1; the kicks and the norm act on the sector on
    # the calling thread
    blocks = [-(-sum(rows for rows, _ in bands) // nbody.GEMM_ROWS)
              for bands in _band_plan(16, 4)]
    assert blocks == [1, 3, 3, 1]
    assert (jobs, no_jobs) == (10 * sum(min(pool, b) - 1 for b in blocks),
                               0)
    for a, b in zip(split.states, single.states, strict=True):
        assert np.array_equal(a.amplitudes, b.amplitudes)
    assert _norms(split) == _norms(single)


def test_phase_matches_complex_exponential():
    from boselab.nbody import _phase, _phase_minus_one

    rng = np.random.default_rng(5)
    theta = rng.uniform(-40.0, 40.0, (8, 8))
    assert np.allclose(_phase(theta), np.exp(1j * theta), rtol=0,
                       atol=1e-15)
    leaky = theta + 1j * rng.uniform(-0.1, 0.1, (8, 8))
    assert np.allclose(_phase(leaky), np.exp(1j * leaky), rtol=1e-15,
                       atol=0)
    # exp(i t) - 1 keeps full relative precision in both parts for small
    # t, where cos(t) - 1 would lose the real part to cancellation
    t = rng.uniform(-1e-3, 1e-3, 64)
    taylor = 1j * t - t ** 2 / 2 - 1j * t ** 3 / 6 + t ** 4 / 24
    small = _phase_minus_one(t)
    assert np.allclose(small.real, taylor.real, rtol=1e-14, atol=0)
    assert np.allclose(small.imag, taylor.imag, rtol=1e-14, atol=0)


def test_small_tensors_pass_on_one_thread(monkeypatch):
    # 32^3 amplitudes: kinetic levels of one band of 528, 1024 and 528
    # rows, one GEMM_ROWS block each; so a pool of two is handed no job
    from boselab import grid, nbody

    g = Grid1D(32, 4.0)
    state = random_state(g, 3, seed=1, k_filter=3.0)
    assert _band_plan(32, 3) == [[(528, 32)], [(1024, 32)], [(528, 32)]]
    assert nbody.GEMM_ROWS == 1024
    monkeypatch.setattr(grid, "_POOL_SIZE", 2)
    with _CountingPool(2) as executor:
        monkeypatch.setattr(grid, "_POOL", executor)
        evolve(NBodySystem(g, 3, potential=gaussian_well()), state, 1e-3, 3)
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


def test_norm_drift_covers_unstored_steps():
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 3, potential=mixed_sign(1.0, 1.0, r=0.25),
                         omega=1.0)
    state = random_state(g, 3, seed=4, k_filter=3.0)
    # the rounding drift grows with the step count, so its largest value
    # falls in steps 51..99, none of which the sparse run stores
    sparse = evolve(system, state, 1e-3, 99, store_every=50)
    dense = evolve(system, state, 1e-3, 99, store_every=1)
    assert len(sparse.states) == 2
    assert sparse.norm_drift == dense.norm_drift
    norms = np.array(_norms(dense))
    assert dense.norm_drift == float(np.max(np.abs(norms - norms[0])))


def _three_pass_loop(system, state, dt, n_steps, store_every):
    """Strang loop on the full tensor: a half kick, the per-axis products
    (axis 0 first, each as rows @ U^T), a second half kick and the norm,
    one pass each.  The tensor and the phase are kept at their values at
    the sorted index tuples, as the sector route keeps them, and the norm
    is the multiplicity-weighted sum over those values; returns the
    stored states and norms."""
    from boselab import nbody

    grid, nn = system.grid, system.n_particles
    tuples, _, multiplicity = sector_tables(grid.n, nn)[0][-1]
    flat = np.ravel_multi_index(tuples.T, (grid.n,) * nn)

    def sorted_values(full):
        return BosonicState(grid, nn, full.reshape(-1)[flat]).amplitudes

    split = state.amplitudes.size < nbody.SPLIT_FLOOR
    half = sorted_values((nbody._phase_minus_one if split else nbody._phase)(
        (-0.5 * dt) * potential_diagonal(system)))
    factor_t = nbody._kinetic_factor(grid, dt, split)
    weight = grid.h ** nn

    def kick(psi):
        return psi + psi * half if split else psi * half

    def kinetic(psi):
        for ax in range(nn):
            rows = np.ascontiguousarray(np.moveaxis(psi, ax, -1))
            out = rows.reshape(-1, grid.n) @ factor_t
            if split:
                out += rows.reshape(-1, grid.n)
            psi = np.moveaxis(out.reshape(rows.shape), -1, ax)
        return psi

    def norm(psi):
        return math.sqrt(weight * np.sum(
            multiplicity * np.abs(psi.reshape(-1)[flat]) ** 2))

    psi = state.amplitudes
    states, norms = [psi], [norm(psi)]
    for step in range(1, n_steps + 1):
        psi = sorted_values(kick(kinetic(kick(psi))))
        if step % store_every == 0:
            states.append(psi)
            norms.append(norm(psi))
    return states, norms


@pytest.mark.parametrize("nn", [2, 4])
@pytest.mark.parametrize("store_every", [1, 3])
def test_fused_pass_matches_the_three_pass_loop(nn, store_every):
    from boselab import nbody

    # 16^2 amplitudes take the split route, 16^4 the whole one on the pool
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, nn, potential=mixed_sign(1.0, 1.0, r=0.25),
                         omega=1.0)
    state = random_state(g, nn, seed=6, k_filter=3.0)
    assert (state.amplitudes.size < nbody.SPLIT_FLOOR) == (nn == 2)
    traj = evolve(system, state, 2e-3, 7, store_every=store_every)
    states, norms = _three_pass_loop(system, state, 2e-3, 7, store_every)
    assert len(traj.states) == len(states) == 7 // store_every + 1
    for got, want in zip(traj.states, states, strict=True):
        assert np.array_equal(got.amplitudes, want)
    assert np.allclose(_norms(traj), norms, rtol=0, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(nn=st.integers(1, 4), n=st.sampled_from([2, 4, 8, 16]),
       split=st.booleans(), seed=st.integers(0, 2 ** 16))
def test_one_step_matches_the_three_pass_loop(nn, n, split, seed):
    # split and whole factors at every size; at n = 2 and 4 a level is at
    # most one band, and only 16^4 has banded levels (2176 rows)
    from boselab import nbody

    g = Grid1D(n, 4.0)
    system = NBodySystem(g, nn, potential=mixed_sign(1.0, 1.0, r=0.25),
                         omega=1.0)
    state = random_state(g, nn, seed=seed, k_filter=3.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nbody, "SPLIT_FLOOR", 2 ** 62 if split else 1)
        traj = evolve(system, state, 2e-3, 1)
        states, _ = _three_pass_loop(system, state, 2e-3, 1, 1)
    assert np.array_equal(traj.states[-1].amplitudes, states[-1])


@pytest.mark.parametrize("split", [False, True])
def test_padded_bands_match_the_three_pass_loop(split):
    # at 64^3 the last level's bands hold 16 beta + 10 sorted pairs, so
    # every other band is padded by 2 rows
    from boselab import nbody

    plan = _band_plan(64, 3)
    assert any(rows % 4 for rows in (16 * b + 10 for b in range(16)))
    assert [len(bands) for bands in plan] == [1, 16, 16]
    g = Grid1D(64, 8.0)
    system = NBodySystem(g, 3, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, 3, seed=9, k_filter=3.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nbody, "SPLIT_FLOOR", 2 ** 62 if split else 1)
        traj = evolve(system, state, 2e-3, 2, store_every=1)
        states, _ = _three_pass_loop(system, state, 2e-3, 2, 1)
    for got, want in zip(traj.states, states, strict=True):
        assert np.array_equal(got.amplitudes, want)


def test_evolve_holds_four_tensors():
    import tracemalloc

    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 4, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, 4, seed=3, k_filter=3.0)
    tensor = state.amplitudes.nbytes
    tracemalloc.start()
    try:
        # step 4 is stored with a step left, so a new spare is made then
        traj = evolve(system, state, 1e-3, 5, store_every=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(traj.states) == 3
    # the caller's input is allocated before tracing starts; evolve holds
    # the sector state, its phase, the level tables and buffers, and the
    # stored sector values, and expands the snapshots once those are
    # free: no more than the former loop's psi, spare and half-kick phase
    # besides the snapshots, and no energy temporaries
    assert peak <= (3 + len(traj.states) - 1) * tensor + tensor // 8


def test_evolve_rejects_a_state_off_the_bosonic_sector():
    # evolve takes BosonicStates only: a bare tensor is rejected by its
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
            evolve(system, state, 1e-3, 2)
    traj = evolve(system, boson, 1e-3, 2)
    assert traj.states[0] is boson
    assert symmetry_residual(traj.states[-1].amplitudes) == 0.0


@pytest.mark.parametrize("nn, n", [(2, 16), (3, 8), (4, 16)])
def test_evolve_on_sector_values_matches_its_expansion(nn, n):
    # 16^2 amplitudes take the split route, 16^4 the whole one on the
    # pool; a tensor enters evolve through grid.symmetrize, which gives a
    # symmetric tensor's values back bit for bit before normalizing, so
    # the expansion of a state propagates as the state does, to the
    # rounding of one renormalization
    g = Grid1D(n, 4.0)
    system = NBodySystem(g, nn, potential=gaussian_well(1.0, 1.0), omega=1.0)
    boson = random_state(g, nn, seed=nn, k_filter=3.0)
    again = symmetrize(g, boson.amplitudes)
    assert np.array_equal(again.values, boson.normalized().values)
    sector = evolve(system, boson, 1e-3, 4, store_every=2)
    expanded = evolve(system, again, 1e-3, 4, store_every=2)
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
        evolve(system, state, 1e-3, 2)


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
    lambda system, state: evolve(system, state, 1e-3, 2),
    lambda system, state: energy_moment(system, state),
    lambda system, state: check_energy_estimate(system, [state], 1),
    lambda system, state: check_decomposition_identity(system, state),
    lambda system, state: spectral_cutoff(system, state, [0.2]),
], ids=["evolve", "energy_moment", "check_energy_estimate",
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
        evolve(system, random_state(g, 3, seed=0), 1e-3, 2)
    with pytest.raises(GridError):
        evolve(system, state, -1e-3, 2)
    with pytest.raises(GridError):
        evolve(system, state, 1e-3, 0)
    # an impossible tolerance must abort rather than silently continue
    monkeypatch.setattr(nbody, "NORM_TOL", -1.0)
    with pytest.raises(NumericalAbort, match="norm"):
        evolve(system, state, 1e-3, 5)


def test_evolve_aborts_on_nan_amplitude():
    # NaN fails every comparison, so only a finiteness test can catch it
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 2, potential=gaussian_well())
    values = random_state(g, 2, seed=0).values.copy()
    values[7] = np.nan
    with pytest.raises(NumericalAbort, match="nan"):
        evolve(system, BosonicState(g, 2, values), 1e-3, 5)


def test_evolve_aborts_on_slow_norm_creep():
    # an imaginary potential part grows the norm by 0.6 NORM_TOL per step:
    # no single step trips the per-step check, the step-0 check must
    class Leaky(NBodySystem):
        def potential_at(self, index):
            return super().potential_at(index) + 0.6e-10j / 1e-3

    g = Grid1D(16, 4.0)
    state = random_state(g, 2, seed=0)
    system = Leaky(g, 2, potential=gaussian_well())
    with pytest.raises(NumericalAbort, match="since step 0 at step 2"):
        evolve(system, state, 1e-3, 20)


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


class TestBBGKYResidual:
    def make(self, dt, store_every=5, n=16, t_final=0.1):
        g = Grid1D(n, 4.0)
        system = NBodySystem(g, 2, potential=gaussian_well(1.0, 1.0),
                             omega=0.5)
        state = random_state(g, 2, seed=1, k_filter=3.0)
        return evolve(system, state, dt, int(round(t_final / dt)),
                      store_every=store_every)

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
        errs = [bbgky_residual(evolve(system, psi0, dt, int(round(0.2 / dt)),
                                      store_every=5), 1)["hs_norm"]
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
        assert res["kernel"].shape == (16, 16)
        assert res["hs_norm"] >= 0
        assert res["max_abs"] >= 0

    def test_rejections(self):
        with pytest.raises(GridError, match="k\\+1 <= N"):
            bbgky_residual(self.make(2e-3), 2)
        short = self.make(2e-3, store_every=5, t_final=0.01)
        with pytest.raises(GridError):
            bbgky_residual(short, 1)
