"""Reduced densities: traces, spectra, distances, and delta pairings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boselab.cli import _product_state
from boselab.grid import (DENSE_SIDE_CAP, BosonicState, ConvergenceError,
                          Grid1D, dense_weight_squared, random_state,
                          sector_product, sorted_tuples, symmetrize,
                          weighted_norm_squared)
from boselab.marginals import (
    MarginalDensity,
    MarginalError,
    chaos_distance,
    delta_pairing_diagonal,
    mollifier_delta_test,
    partial_trace,
    sector_marginal,
    trace_norm,
)
from oracles import eigenvalues, matrix, product_projector, trace_distance


def unit_gaussian(grid, width=1.0, center=0.0):
    phi = np.exp(-((grid.x - center) / width) ** 2 / 2).astype(np.complex128)
    return phi / math.sqrt(grid.h * float(np.sum(np.abs(phi) ** 2)))


def random_orbital(grid, rng):
    phi = rng.standard_normal(grid.n) + 1j * rng.standard_normal(grid.n)
    return phi / math.sqrt(grid.h * float(np.sum(np.abs(phi) ** 2)))


def product_tensor(phi, n_particles):
    out = phi
    for _ in range(n_particles - 1):
        out = np.multiply.outer(out, phi)
    return out


def blended_boson_state(grid, n_particles, phi, blend, seed):
    """Symmetrized phi^N + blend * (random state): near and far from chaos."""
    noise = random_state(grid, n_particles, seed=seed).amplitudes
    return symmetrize(grid, product_tensor(phi, n_particles) + blend * noise)


@pytest.mark.parametrize("k", [1, 2])
def test_unit_trace_hermitian_nonnegative(k):
    g = Grid1D(16, 4.0)
    state = random_state(g, 3, seed=2, k_filter=3.0)
    gam = partial_trace(state, k)
    assert g.h ** k * np.trace(gam.kernel) == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(gam.kernel - gam.kernel.conj().T)) < 1e-13
    evals = eigenvalues(gam)
    assert evals.min() > -1e-12
    assert float(np.sum(evals)) == pytest.approx(1.0, rel=1e-12)


def test_product_state_marginal_is_projector():
    g = Grid1D(32, 6.0)
    phi = unit_gaussian(g)
    amp = np.multiply.outer(np.multiply.outer(phi, phi), phi)
    boson = BosonicState(g, 3, sector_product(phi, 3))
    assert np.allclose(boson.amplitudes, amp, rtol=1e-15, atol=0)
    gam = partial_trace(boson, 1)
    proj = product_projector(g, phi, 1)
    assert trace_distance(gam, proj) < 1e-12
    assert chaos_distance(boson, 1, phi) < 1e-12
    assert chaos_distance(boson, 2, phi) < 1e-12
    # pure projector spectrum: one occupation 1, rest 0
    evals = eigenvalues(gam)
    assert evals[-1] == pytest.approx(1.0, rel=1e-12)
    assert abs(evals[:-1]).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(n_particles=st.sampled_from([2, 3]), n=st.sampled_from([4, 8, 16]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_tower_property(n_particles, n, seed):
    # Tr_2 gamma^(2) = gamma^(1), the trace over particle 2 taken here
    g = Grid1D(n, 4.0)
    state = random_state(g, n_particles, seed=seed)
    via_two = g.h * np.trace(partial_trace(state, 2).tensor(),
                             axis1=1, axis2=3)
    direct = partial_trace(state, 1).kernel
    assert np.max(np.abs(via_two - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_trace_norm_against_eigendecomposition():
    # trace_norm sums |eigenvalues| of the Hermitian kernel; the sum of
    # singular values is the independent route to the same Tr|.|
    g = Grid1D(16, 4.0)
    a = partial_trace(random_state(g, 2, seed=0, k_filter=3.0), 1)
    b = partial_trace(random_state(g, 2, seed=1, k_filter=3.0), 1)
    diff = MarginalDensity(g, 1, a.kernel - b.kernel)
    ref = float(np.sum(np.linalg.svd(matrix(diff), compute_uv=False)))
    assert trace_distance(a, b) == pytest.approx(ref, rel=1e-12)


def test_trace_norm_rejects_non_hermitian_kernel():
    g = Grid1D(8, 4.0)
    gamma = partial_trace(random_state(g, 2, seed=0, k_filter=3.0), 1)
    skewed = gamma.kernel.copy()
    skewed[0, 1] += 1e-9 * np.max(np.abs(skewed))
    with pytest.raises(MarginalError, match="Hermitian"):
        trace_norm(MarginalDensity(g, 1, skewed))
    nan_kernel = gamma.kernel.copy()
    nan_kernel[2, 3] = np.nan
    with pytest.raises(MarginalError, match="Hermitian"):
        trace_norm(MarginalDensity(g, 1, nan_kernel))
    # rounding-level asymmetry of a true density is accepted
    assert trace_norm(gamma) == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trace_distance_triangle_and_range(seed):
    g = Grid1D(16, 4.0)
    a = partial_trace(random_state(g, 2, seed=seed, k_filter=3.0), 1)
    b = partial_trace(random_state(g, 2, seed=seed + 10, k_filter=3.0), 1)
    c = partial_trace(random_state(g, 2, seed=seed + 20, k_filter=3.0), 1)
    dab = trace_distance(a, b)
    dbc = trace_distance(b, c)
    dac = trace_distance(a, c)
    assert dac <= dab + dbc + 1e-12
    # distance between unit-trace nonnegative operators is at most 2
    assert dab <= 2.0 + 1e-12
    assert dab >= 0.0


def test_trace_distance_requires_matching_shape():
    a = partial_trace(random_state(Grid1D(16, 4.0), 2, seed=0), 1)
    b = partial_trace(random_state(Grid1D(32, 4.0), 2, seed=0), 1)
    with pytest.raises(MarginalError):
        trace_distance(a, b)


def test_trace_distance_requires_matching_length():
    a = partial_trace(random_state(Grid1D(16, 8.0), 2, seed=0), 1)
    b = partial_trace(random_state(Grid1D(16, 4.0), 2, seed=0), 1)
    with pytest.raises(MarginalError):
        trace_distance(a, b)


def test_trace_distance_of_densities_equal_to_rounding():
    # the symmetrized product differs from phi x phi by rounding only; the
    # Hermitian guard must weigh that against the densities, not against
    # their rounding-sized difference
    g = Grid1D(8, 4.0)
    phi = random_orbital(g, np.random.default_rng(0))
    state = symmetrize(g, np.multiply.outer(phi, phi))
    for k in (1, 2):
        dist = trace_distance(partial_trace(state, k),
                              product_projector(g, phi, k))
        assert dist <= 1e-13


def weighted_trace(gam, kind, omega):
    """Tr(W^2 x ... x W^2 gamma^(k)) with dense one-particle weights."""
    w2 = dense_weight_squared(gam.grid, kind, omega)
    op = w2
    for _ in range(gam.k - 1):
        op = np.kron(op, w2)
    return float(np.trace(op @ matrix(gam)).real)


def test_weighted_trace_equals_state_expectation():
    # Tr(W^2 gamma^(1)) = <psi, W_1^2 psi>: two routes through different code
    g = Grid1D(16, 4.0)
    state = random_state(g, 3, seed=9, k_filter=3.0)
    gam = partial_trace(state, 1)
    for kind, omega in (("S", 1.0), ("L", 0.0)):
        lhs = weighted_trace(gam, kind, omega)
        rhs = weighted_norm_squared(g, state.amplitudes, [0], kind, omega)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lhs >= (g.h * np.trace(gam.kernel)).real - 1e-12


def test_weighted_trace_two_particle():
    g = Grid1D(16, 4.0)
    state = random_state(g, 3, seed=3, k_filter=3.0)
    lhs = weighted_trace(partial_trace(state, 2), "S", 0.5)
    rhs = weighted_norm_squared(g, state.amplitudes, [0, 1], "S", 0.5)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_projector_requires_normalized_phi():
    g = Grid1D(16, 4.0)
    with pytest.raises(MarginalError, match="normalized"):
        product_projector(g, np.ones(g.n, dtype=np.complex128), 1)
    with pytest.raises(MarginalError):
        product_projector(g, unit_gaussian(g)[: g.n // 2], 1)


def test_partial_trace_range_and_kernel_shape_validation():
    g = Grid1D(16, 4.0)
    state = random_state(g, 2, seed=0)
    with pytest.raises(MarginalError):
        partial_trace(state, 0)
    with pytest.raises(MarginalError):
        partial_trace(state, 3)
    with pytest.raises(MarginalError, match="BosonicState"):
        partial_trace(state.amplitudes, 1)
    with pytest.raises(MarginalError, match="kernel shape"):
        MarginalDensity(g, 2, np.eye(g.n))


def test_dense_spectral_cap_guards_eigendecompositions(monkeypatch):
    g = Grid1D(16, 4.0)
    gam = partial_trace(random_state(g, 2, seed=0), 1)
    monkeypatch.setattr("boselab.grid.DENSE_SIDE_CAP", 8)
    with pytest.raises(MarginalError, match="cap"):
        eigenvalues(gam)
    with pytest.raises(MarginalError, match="cap"):
        trace_norm(gam)


# (N, n, k) with an oracle kernel side n^k <= 512; the k = N cases at side
# 4096 have their own closed-form test below
SECTOR_CASES = [(nn, n, k) for nn, n in ((2, 8), (2, 16), (3, 8), (3, 16),
                                         (4, 8))
                for k in range(1, nn + 1) if n ** k <= 512]


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(SECTOR_CASES), blend=st.sampled_from(
    [0.0, 1e-3, 0.3, 10.0]), seed=st.integers(0, 2 ** 16))
def test_chaos_distance_matches_full_space_oracle(case, blend, seed):
    nn, n, k = case
    g = Grid1D(n, 4.0)
    rng = np.random.default_rng(seed)
    phi = random_orbital(g, rng)
    state = blended_boson_state(g, nn, random_orbital(g, rng), blend, seed)
    ref = trace_distance(partial_trace(state, k),
                         product_projector(g, phi, k))
    assert chaos_distance(state, k, phi) == pytest.approx(ref, rel=1e-12,
                                                          abs=1e-13)
    # the product state of phi itself: the distance vanishes, and
    # rounding never takes it below zero
    same = blended_boson_state(g, nn, phi, 0.0, seed)
    assert 0.0 <= chaos_distance(same, k, phi) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(SECTOR_CASES), blend=st.sampled_from(
    [0.0, 1e-3, 0.3, 10.0]), seed=st.integers(0, 2 ** 16))
def test_sector_route_matches_tensor_route_and_oracle(case, blend, seed):
    # the factor read off the sector values against the sector
    # coordinates of the amplitude matrix of the same state's full tensor
    # (rows at the sorted k-tuples times sqrt(mult)), and the distance
    # against the dense oracle
    nn, n, k = case
    g = Grid1D(n, 4.0)
    rng = np.random.default_rng(seed)
    phi = random_orbital(g, rng)
    boson = blended_boson_state(g, nn, random_orbital(g, rng), blend, seed)
    ref = trace_distance(partial_trace(boson, k),
                         product_projector(g, phi, k))
    assert chaos_distance(boson, k, phi) == pytest.approx(ref, rel=1e-12,
                                                          abs=1e-13)
    a = sector_marginal(boson, k)
    assert a.shape == (math.comb(n + k - 1, k),
                       math.comb(n + nn - k - 1, nn - k))
    tuples, _, multiplicity = sorted_tuples(n, k)
    rows = np.ravel_multi_index(tuples.T, (n,) * k)
    b = boson.amplitudes.reshape(n ** k, -1)[rows] * np.sqrt(
        multiplicity)[:, None]
    gram = b @ b.conj().T
    assert np.allclose(a @ a.conj().T, gram, rtol=0,
                       atol=1e-13 * np.max(np.abs(gram)))
    # the product state of phi, built on the sorted tuples
    same = _product_state(g, phi, nn)
    assert 0.0 <= chaos_distance(same, k, phi) <= 1e-13


def _factor_is_tall(nn, n, k):
    # chaos_distance's factor [coords, phi^k] has a sector row per sorted
    # multi-index and a column per traced index, plus one
    return math.comb(n + k - 1, k) > n ** (nn - k) + 1


def test_sector_cases_cover_tall_and_wide_factors():
    shapes = {_factor_is_tall(*case) for case in SECTOR_CASES}
    assert shapes == {True, False}


@pytest.mark.parametrize("nn", [2, 3, 4])
def test_chaos_distance_on_the_mean_field_grid(nn):
    # n = 32, k = 2: a 528-row factor with 2 (N = 2), 33 (N = 3) or
    # 1025 (N = 4) columns, against the 1024^2 kernel of the oracle
    g = Grid1D(32, 8.0)
    assert _factor_is_tall(nn, g.n, 2) == (nn < 4)
    rng = np.random.default_rng(nn)
    phi = random_orbital(g, rng)
    state = blended_boson_state(g, nn, random_orbital(g, rng), 0.3, seed=nn)
    ref = trace_distance(partial_trace(state, 2),
                         product_projector(g, phi, 2))
    assert chaos_distance(state, 2, phi) == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("nn, n", [(2, 8), (2, 16), (3, 8), (3, 16), (4, 8)])
def test_chaos_distance_of_all_particles_is_pure_state_distance(nn, n):
    # k = N compares two pure states: Tr| |psi><psi| - |v><v| | equals
    # 2 sqrt(1 - |<psi, v>|^2) for unit vectors
    g = Grid1D(n, 4.0)
    rng = np.random.default_rng(nn * n)
    phi = random_orbital(g, rng)
    state = blended_boson_state(g, nn, phi, 0.5, seed=nn)
    overlap = abs(g.h ** nn * np.vdot(product_tensor(phi, nn),
                                      state.amplitudes))
    ref = 2.0 * math.sqrt(1.0 - overlap ** 2)
    assert chaos_distance(state, nn, phi) == pytest.approx(ref, rel=1e-12)


def test_chaos_distance_rejects_states_off_the_bosonic_sector():
    # the sector routes take BosonicStates only: a bare tensor is rejected
    # by its type at every k, even one that is symmetric to the last bit
    g = Grid1D(8, 4.0)
    phi = unit_gaussian(g)
    boson = random_state(g, 3, seed=4, k_filter=3.0)
    rng = np.random.default_rng(4)
    for state in (rng.standard_normal((g.n,) * 3).astype(np.complex128),
                  boson.amplitudes):
        for k in (1, 2, 3):
            with pytest.raises(MarginalError, match="BosonicState"):
                sector_marginal(state, k)
            with pytest.raises(MarginalError, match="BosonicState"):
                chaos_distance(state, k, phi)
    with pytest.raises(MarginalError, match="out of range"):
        chaos_distance(boson, 4, phi)
    with pytest.raises(MarginalError, match="out of range"):
        sector_marginal(boson, 0)
    with pytest.raises(MarginalError, match="normalized"):
        chaos_distance(boson, 1, 2.0 * phi)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_chaos_distance_fails_closed_on_non_finite_input(bad):
    g = Grid1D(8, 4.0)
    phi = unit_gaussian(g)
    boson = random_state(g, 3, seed=4, k_filter=3.0)
    orbital = phi.copy()
    orbital[2] = bad
    values = boson.values.copy()
    values[7] = bad
    for k in (1, 2, 3):
        with pytest.raises(MarginalError):
            chaos_distance(BosonicState(g, 3, values), k, phi)
        with pytest.raises(MarginalError):
            chaos_distance(boson, k, orbital)


@pytest.mark.parametrize("k", [2, 3])
def test_chaos_distance_keeps_the_trace_lower_bound(k):
    # phi^N against c phi, c^2 = 1 + 4e-9 (inside the normalization check):
    # D = (1 - c^(2k)) |phi><phi|^k is negative, Tr|D| = |Tr D|
    g = Grid1D(8, 4.0)
    phi = unit_gaussian(g)
    state = BosonicState(g, 3, sector_product(phi, 3))
    c2 = 1.0 + 4e-9
    value = chaos_distance(state, k, math.sqrt(c2) * phi)
    assert value == pytest.approx(c2 ** k - 1.0, rel=1e-6)


def test_chaos_distance_raises_when_lanczos_does_not_converge(monkeypatch):
    g = Grid1D(16, 4.0)
    rng = np.random.default_rng(7)
    phi = random_orbital(g, rng)
    state = blended_boson_state(g, 3, random_orbital(g, rng), 0.3, seed=7)
    assert chaos_distance(state, 2, phi) > 0.1
    monkeypatch.setattr("boselab.grid.LANCZOS_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="did not reach"):
        chaos_distance(state, 2, phi)


def test_kernel_cap_applies_to_the_sector_side(monkeypatch):
    # n = 16: the k = 1 sector side is n = 16, decomposed densely, so the
    # cap applies; at k = 2 (sector side 136, full side n^2 = 256) only
    # the full marginal is decomposed densely, and chaos_distance's
    # matrix-free route forms no matrix of either side
    g = Grid1D(16, 4.0)
    state = random_state(g, 2, seed=0, k_filter=3.0)
    phi = unit_gaussian(g)
    monkeypatch.setattr("boselab.grid.DENSE_SIDE_CAP", 200)
    assert 0.0 <= chaos_distance(state, 2, phi) <= 2.0
    with pytest.raises(MarginalError, match="cap"):
        trace_norm(partial_trace(state, 2))
    monkeypatch.setattr("boselab.grid.DENSE_SIDE_CAP", 8)
    assert 0.0 <= chaos_distance(state, 2, phi) <= 2.0
    with pytest.raises(MarginalError, match="cap"):
        chaos_distance(state, 1, phi)


@pytest.mark.parametrize("nn,k", [(3, 3), (4, 4), (4, 3)])
def test_chaos_distance_beyond_the_dense_cap(nn, k):
    # n = 32: sector sides C(34, 3) = 5984 and C(35, 4) = 52360 exceed
    # DENSE_SIDE_CAP, but the k >= 2 route forms no matrix.  On the
    # product state psi^N the k-marginal is |psi><psi|^k, whose trace
    # distance to |phi><phi|^k is 2 sqrt(1 - |<phi, psi>|^(2k))
    g = Grid1D(32, 8.0)
    assert math.comb(g.n + k - 1, k) > DENSE_SIDE_CAP
    rng = np.random.default_rng(nn + k)
    phi = random_orbital(g, rng)
    psi = phi + 0.5 * random_orbital(g, rng)
    psi /= math.sqrt(g.h * float(np.sum(np.abs(psi) ** 2)))
    overlap = abs(g.h * np.vdot(phi, psi))
    ref = 2.0 * math.sqrt(1.0 - overlap ** (2 * k))
    got = chaos_distance(_product_state(g, psi, nn), k, phi)
    assert got == pytest.approx(ref, rel=1e-12)


def test_delta_pairing_diagonal_has_unit_mass_rows():
    g = Grid1D(32, 4.0)
    d = delta_pairing_diagonal(g)
    assert np.allclose(d.sum(axis=1) * g.h, 1.0)
    assert d[3, 3] == pytest.approx(1.0 / g.h)
    assert d[3, 4] == 0.0


class TestMollifierDelta:
    GRID = Grid1D(64, 8.0)

    def product(self):
        phi = unit_gaussian(self.GRID)
        return BosonicState(self.GRID, 2, sector_product(phi, 2))

    @staticmethod
    def rho(t):
        return np.exp(-(t ** 2) / 2) / math.sqrt(2 * math.pi)

    def test_convergence_exponent(self):
        res = mollifier_delta_test(self.product(), np.ones(self.GRID.n),
                                   self.rho, [0.5, 1.0, 2.0])
        assert res["slope"] == pytest.approx(1.194241913630618, rel=1e-8)
        assert res["slope"] >= 0.4
        mags = np.abs(res["values"])
        assert np.all(np.diff(mags) > 0)  # error shrinks with the width

    def test_identity_observable_matches_direct_quadrature(self):
        g = self.GRID
        phi = unit_gaussian(g)
        res = mollifier_delta_test(self.product(), np.ones(g.n),
                                   self.rho, [1.0])
        dens = np.abs(phi) ** 2
        diff = g.x[:, None] - g.x[None, :]
        pair_rho = float(np.sum((self.rho(diff / 1.0) / 1.0)
                                * np.outer(dens, dens)) * g.h ** 2)
        pair_delta = float(np.sum(dens ** 2) * g.h)
        assert res["values"].dtype == np.float64
        assert res["values"][0] == pytest.approx(
            pair_rho - pair_delta, abs=1e-15)

    def test_pair_density_is_the_marginal_diagonal(self):
        # N = 3: the fold's row sums, weighted h^(N-2), against the
        # diagonal of the full n^2 x n^2 kernel of gamma^(2)
        g = Grid1D(32, 8.0)
        state = random_state(g, 3, seed=4, k_filter=3.0)
        kern = partial_trace(state, 2).kernel
        diag = g.h ** 2 * np.diagonal(kern).real.reshape(g.n, g.n)
        diff = g.x[:, None] - g.x[None, :]
        res = mollifier_delta_test(state, g.x ** 2, self.rho, [1.0, 2.0])
        for alpha, got in zip(res["alphas"], res["values"]):
            pair = self.rho(diff / alpha) / alpha - np.eye(g.n) / g.h
            want = float(np.sum((g.x ** 2)[:, None] * pair * diag))
            assert got == pytest.approx(want, rel=1e-12)

    def test_window_and_input_rejections(self):
        state = self.product()
        ones = np.ones(self.GRID.n)
        with pytest.raises(MarginalError, match="resolution"):
            mollifier_delta_test(state, ones, self.rho, [0.1])
        with pytest.raises(MarginalError, match="wrap"):
            mollifier_delta_test(state, ones, self.rho, [3.0])
        with pytest.raises(MarginalError, match="samples"):
            mollifier_delta_test(state, np.ones((2, self.GRID.n)),
                                 self.rho, [1.0])
        one_particle = BosonicState(self.GRID, 1, unit_gaussian(self.GRID))
        with pytest.raises(MarginalError, match="two-particle"):
            mollifier_delta_test(one_particle, ones, self.rho, [1.0])
        with pytest.raises(MarginalError, match="BosonicState"):
            mollifier_delta_test(partial_trace(state, 2), ones, self.rho,
                                 [1.0])
