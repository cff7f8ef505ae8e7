"""Exact N-body propagation, spectral cutoff, and hierarchy residual."""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from boselab.grid import Grid1D, GridError, TensorState, random_state, symmetry_residual
from boselab.nbody import (
    NBodySystem,
    NumericalAbort,
    apply_hamiltonian,
    bbgky_residual,
    cutoff_chi,
    dense_hamiltonian,
    dense_spectrum,
    energy_expectation,
    energy_moment,
    evolve,
    spectral_cutoff,
)
from boselab.nls import trap_ground_state
from boselab.potentials import gaussian_well, mixed_sign


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
    assert np.allclose(system.potential_diagonal(), expected)
    # without interaction: pure trap
    free = NBodySystem(g, 2, omega=2.0)
    assert np.allclose(free.pair_potential_values(), 0.0)


def test_apply_hamiltonian_matches_dense():
    # n = 8 at N = 3 keeps the dense matrix at 512^2
    for nn, n in ((1, 16), (2, 16), (3, 8)):
        g = Grid1D(n, 4.0)
        for omega in (0.0, 0.5):
            system = NBodySystem(g, nn, potential=gaussian_well(1.0, 1.0),
                                 omega=omega)
            state = random_state(g, nn, omega=omega, seed=1, k_filter=3.0)
            fast = apply_hamiltonian(system, state.amplitudes)
            h = dense_hamiltonian(system)
            assert np.max(np.abs(h - h.conj().T)) < 1e-12
            ref = (h @ state.amplitudes.reshape(-1)).reshape((n,) * nn)
            assert np.max(np.abs(fast - ref)) < 1e-12, (nn, omega)


def test_energy_expectation_and_moments():
    # the Parseval route against <psi, H psi> through the matrix-free H
    for nn, n in ((1, 16), (2, 16), (3, 8)):
        g = Grid1D(n, 4.0)
        for omega in (0.0, 0.5):
            system = NBodySystem(g, nn, potential=gaussian_well(1.0, 1.0),
                                 omega=omega)
            state = random_state(g, nn, omega=omega, seed=1, k_filter=3.0)
            e = energy_expectation(system, state)
            assert isinstance(e, float)
            ref = g.h ** nn * np.vdot(
                state.amplitudes, apply_hamiltonian(system, state.amplitudes))
            assert e == pytest.approx(ref.real, rel=1e-12), (nn, omega)
            assert e == energy_expectation(system, state,
                                           system.potential_diagonal())
            assert energy_moment(system, state, 1) == pytest.approx(
                e, rel=1e-12)
            # second moment dominates the squared first moment
            assert energy_moment(system, state, 2) >= e ** 2


def test_dense_hamiltonian_dimension_cap():
    with pytest.raises(GridError, match="cap"):
        dense_hamiltonian(NBodySystem(Grid1D(32, 8.0), 3,
                                      potential=gaussian_well()))


def test_propagator_against_dense_exponential():
    # independent reference: scipy expm of the dense Hamiltonian; the
    # Strang error at fixed horizon must shrink by ~4x when dt halves
    g = Grid1D(8, 4.0)
    system = NBodySystem(g, 2, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, 2, omega=1.0, seed=3, k_filter=2.0, symmetric=True)
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
    traj = evolve(system, TensorState(g, phi), 1e-3, 500, store_every=100)
    for t, snap in zip(traj.times, traj.states):
        dens = np.abs(snap.amplitudes) ** 2
        var = float(g.h * np.sum(g.x ** 2 * dens))
        assert var == pytest.approx((s0 ** 2 + t ** 2 / s0 ** 2) / 2,
                                    rel=1e-10)


def test_trap_ground_state_is_stationary():
    g = Grid1D(64, 8.0)
    phi, _ = trap_ground_state(g, 1.0)
    pair = TensorState(g, np.multiply.outer(phi, phi), omega=1.0)
    system = NBodySystem(g, 2, omega=1.0)
    traj = evolve(system, pair, 1e-3, 500, store_every=500)
    overlap = abs(traj.states[-1].inner(pair))
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_evolve_conservation_and_symmetry():
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 3, potential=mixed_sign(1.0, 1.0, r=0.25),
                         omega=1.0)
    state = random_state(g, 3, omega=1.0, seed=4, k_filter=3.0,
                         symmetric=True)
    traj = evolve(system, state, 1e-3, 200, store_every=20,
                  check_symmetry=True)
    assert traj.max_norm_drift() < 1e-10
    assert traj.max_energy_drift() < 1e-6
    assert symmetry_residual(traj.states[-1]) < 1e-9
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
    state = random_state(g, nn, omega=omega, seed=seed, k_filter=3.0,
                         symmetric=True)
    traj = evolve(system, state, dt, 100, store_every=20)
    for snap in traj.states:
        amps = snap.amplitudes
        assert symmetry_residual(snap) <= 1e-13 * np.max(np.abs(amps))


def _per_axis_strang(system, psi, dt, n_steps):
    """Reference loop: numpy FFTs and the kinetic phase axis by axis."""
    half = np.exp(-0.5j * dt * system.potential_diagonal())
    kin = np.exp(-1j * dt * system.kinetic_symbol())
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
@given(nn=st.sampled_from([1, 2, 3]), n=st.sampled_from([8, 16]),
       omega=st.sampled_from([0.0, 1.0]), interacting=st.booleans(),
       dt=st.floats(1e-4, 2e-2), seed=st.integers(0, 2 ** 16))
def test_in_place_step_matches_per_axis_reference(nn, n, omega, interacting,
                                                  dt, seed):
    g = Grid1D(n, 4.0)
    system = NBodySystem(g, nn, omega=omega,
                         potential=gaussian_well(1.0, 1.0) if interacting
                         else None)
    state = random_state(g, nn, omega=omega, seed=seed, k_filter=3.0)
    traj = evolve(system, state, dt, 6, store_every=6)
    ref = _per_axis_strang(system, state.amplitudes, dt, 6)
    got = traj.states[-1].amplitudes
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert abs(traj.states[-1].norm() - state.norm()) < 1e-12
    assert traj.max_norm_drift() < 1e-12


def test_stored_snapshots_do_not_alias_the_buffer():
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 2, potential=gaussian_well(), omega=1.0)
    state = random_state(g, 2, omega=1.0, seed=2, k_filter=3.0)
    traj = evolve(system, state, 1e-3, 6, store_every=1)
    amps = [s.amplitudes for s in traj.states] + [state.amplitudes]
    for i in range(len(amps)):
        for j in range(i + 1, len(amps)):
            assert not np.shares_memory(amps[i], amps[j])
    fresh = evolve(system, state, 1e-3, 3, store_every=3)
    np.testing.assert_array_equal(traj.states[3].amplitudes,
                                  fresh.states[-1].amplitudes)


def _threaded_run(monkeypatch, pool):
    from boselab import nbody

    monkeypatch.setattr(nbody, "_POOL_SIZE", pool)
    g = Grid1D(16, 4.0)  # 16^4 = 65,536 amplitudes: at the thread floor
    system = NBodySystem(g, 4, potential=gaussian_well(1.0, 1.0), omega=1.0)
    state = random_state(g, 4, omega=1.0, seed=3, k_filter=3.0)
    assert nbody._workers(state.amplitudes) == pool
    traj = evolve(system, state, 1e-3, 3, store_every=1)
    return (traj, apply_hamiltonian(system, state.amplitudes),
            energy_expectation(system, state))


def test_threaded_transforms_are_bit_identical(monkeypatch):
    traj1, h1, e1 = _threaded_run(monkeypatch, 1)
    traj2, h2, e2 = _threaded_run(monkeypatch, 2)
    assert len(traj1.states) == len(traj2.states) == 4
    for a, b in zip(traj1.states, traj2.states):
        assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.array_equal(traj1.norms, traj2.norms)
    assert np.array_equal(traj1.energies, traj2.energies)
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
    from boselab import nbody

    monkeypatch.setattr(nbody, "_POOL_SIZE", pool)
    g = Grid1D(16, 4.0)  # 16^4 = 65,536 amplitudes: at the thread floor
    system = NBodySystem(g, 4, potential=mixed_sign(1.0, 1.0, r=0.25))
    state = random_state(g, 4, seed=8, k_filter=3.0, symmetric=True)
    with _CountingPool(pool) as executor:
        monkeypatch.setattr(nbody, "_PRODUCT_POOL", executor)
        traj = evolve(system, state, 2e-3, 10, store_every=1)
    return traj, executor.jobs


@pytest.mark.parametrize("stress", [False, True])
def test_split_phase_products_are_bit_identical(monkeypatch, stress):
    from boselab import nbody

    single, no_jobs = _split_run(monkeypatch, 1)
    # the stress case runs more threads than cores with a short switch
    # interval, where a lost or misplaced block write would show
    pool = 7 if stress else max(nbody._POOL_SIZE, 2)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if stress else interval)
    try:
        split, jobs = _split_run(monkeypatch, pool)
    finally:
        sys.setswitchinterval(interval)
    # three products per step, each handing pool - 1 blocks to the pool
    assert (jobs, no_jobs) == (3 * 10 * (pool - 1), 0)
    for a, b in zip(split.states, single.states, strict=True):
        assert np.array_equal(a.amplitudes, b.amplitudes)
    assert np.array_equal(split.norms, single.norms)


def test_phase_matches_complex_exponential():
    from boselab.nbody import _phase

    rng = np.random.default_rng(5)
    theta = rng.uniform(-40.0, 40.0, (8, 8))
    assert np.allclose(_phase(theta), np.exp(1j * theta), rtol=0,
                       atol=1e-15)
    leaky = theta + 1j * rng.uniform(-0.1, 0.1, (8, 8))
    assert np.allclose(_phase(leaky), np.exp(1j * leaky), rtol=1e-15,
                       atol=0)


def test_small_tensors_transform_on_one_thread(monkeypatch):
    from boselab import nbody

    monkeypatch.setattr(nbody, "_POOL_SIZE", 2)
    assert nbody._workers(np.zeros((16,) * 3, complex)) == 1
    assert nbody._workers(np.zeros((32,) * 3, complex)) == 1


@pytest.mark.parametrize("value", [None, "0", "-2", "two", "2.5", ""])
def test_pool_size_falls_back_to_affinity(monkeypatch, value):
    import os

    from boselab import nbody

    if value is None:
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OMP_NUM_THREADS", value)
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count())
    assert nbody._pool_size() == cpus
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert nbody._pool_size() == 3


def test_norm_drift_covers_unstored_steps():
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 3, potential=mixed_sign(1.0, 1.0, r=0.25),
                         omega=1.0)
    state = random_state(g, 3, omega=1.0, seed=4, k_filter=3.0)
    # the rounding drift grows with the step count, so its largest value
    # falls in steps 51..99, none of which the sparse run stores
    sparse = evolve(system, state, 1e-3, 99, store_every=50)
    dense = evolve(system, state, 1e-3, 99, store_every=1)
    assert sparse.norms.size == 2
    assert sparse.max_norm_drift() == dense.max_norm_drift()
    assert dense.max_norm_drift() == float(
        np.max(np.abs(dense.norms - dense.norms[0])))


def test_evolve_validation_and_abort():
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 2, potential=gaussian_well())
    state = random_state(g, 2, seed=0)
    with pytest.raises(GridError):
        evolve(system, random_state(g, 3, seed=0), 1e-3, 2)
    with pytest.raises(GridError):
        evolve(system, state, -1e-3, 2)
    with pytest.raises(GridError):
        evolve(system, state, 1e-3, 0)
    # an impossible tolerance must abort rather than silently continue
    with pytest.raises(NumericalAbort, match="norm"):
        evolve(system, state, 1e-3, 5, norm_tol=-1.0)


def test_evolve_aborts_on_nan_amplitude():
    # NaN fails every comparison, so only a finiteness test can catch it
    g = Grid1D(16, 4.0)
    system = NBodySystem(g, 2, potential=gaussian_well())
    state = random_state(g, 2, seed=0)
    state.amplitudes[3, 5] = np.nan
    with pytest.raises(NumericalAbort, match="nan"):
        evolve(system, state, 1e-3, 5)


def test_evolve_aborts_on_slow_norm_creep():
    # an imaginary potential part grows the norm by 0.6 norm_tol per step:
    # no single step trips the per-step check, the step-0 check must
    class Leaky(NBodySystem):
        def potential_diagonal(self):
            return super().potential_diagonal() + 0.6e-10j / 1e-3

    g = Grid1D(16, 4.0)
    state = random_state(g, 2, seed=0)
    system = Leaky(g, 2, potential=gaussian_well())
    with pytest.raises(NumericalAbort, match="since step 0 at step 2"):
        evolve(system, state, 1e-3, 20, norm_tol=1e-10)


def test_dense_spectrum_cache_keeps_last_system():
    import boselab.nbody as nbody

    first = NBodySystem(Grid1D(8, 4.0), 2, potential=gaussian_well())
    second = NBodySystem(Grid1D(4, 4.0), 2, potential=gaussian_well())
    dense_spectrum(first)
    evals, _ = dense_spectrum(second)
    assert len(nbody._EIG_CACHE) <= 1
    assert evals.shape == (second.dim,)
    assert dense_spectrum(second)[0] is evals


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
        self.state = random_state(self.GRID, 2, omega=1.0, seed=11,
                                  symmetric=True)

    def test_moment_bounds(self):
        for kappa in (0.4, 0.2, 0.1):
            cut = spectral_cutoff(self.system, self.state, kappa)
            assert cut.norm() == pytest.approx(1.0, rel=1e-12)
            for k in (1, 2):
                bound = (2.0 * 2 / kappa) ** k
                assert energy_moment(self.system, cut, k) <= bound * (1 + 1e-12)

    def test_distance_shrinks_with_kappa(self):
        h_n = self.GRID.h ** 2

        def dist(kappa):
            cut = spectral_cutoff(self.system, self.state, kappa)
            return math.sqrt(h_n * float(np.sum(
                np.abs(cut.amplitudes - self.state.amplitudes) ** 2)))
        d = [dist(k) for k in (0.4, 0.2, 0.1)]
        assert d[0] > d[1] > d[2]
        # far below the spectral floor the cutoff is the identity
        evals, _ = dense_spectrum(self.system)
        tiny = 0.5 * 2 / float(evals[-1])
        assert dist(tiny) < 1e-12

    def test_rejections(self):
        with pytest.raises(GridError):
            spectral_cutoff(self.system, self.state, 0.0)
        with pytest.raises(NumericalAbort, match="annihilated"):
            spectral_cutoff(self.system, self.state, 1e6)


class TestBBGKYResidual:
    def make(self, dt, store_every=5, n=16, t_final=0.1):
        g = Grid1D(n, 4.0)
        system = NBodySystem(g, 2, potential=gaussian_well(1.0, 1.0),
                             omega=0.5)
        state = random_state(g, 2, omega=0.5, seed=1, k_filter=3.0,
                             symmetric=True)
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
        psi0 = random_state(g, 3, seed=0, k_filter=3.0, symmetric=True)
        errs = [bbgky_residual(evolve(system, psi0, dt, int(round(0.2 / dt)),
                                      store_every=5), 1)["hs_norm"]
                for dt in (2e-3, 1e-3)]
        assert 3.5 <= errs[0] / errs[1] <= 4.5

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
