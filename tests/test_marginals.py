"""Reduced densities: traces, spectra, distances, and delta pairings."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import boselab.marginals as marginals
from boselab.grid import (Grid1D, TensorState, dense_weight_squared,
                          random_state, symmetrize, weighted_norm_squared)
from boselab.marginals import (
    MarginalDensity,
    MarginalError,
    chaos_distance,
    delta_pairing_diagonal,
    mollifier_delta_test,
    partial_trace,
    product_projector,
    trace_distance,
    trace_norm,
)


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
    return symmetrize(TensorState(
        grid, product_tensor(phi, n_particles) + blend * noise))


@pytest.mark.parametrize("k", [1, 2])
def test_unit_trace_hermitian_nonnegative(k):
    g = Grid1D(16, 4.0)
    state = random_state(g, 3, seed=2, k_filter=3.0, symmetric=True)
    gam = partial_trace(state, k)
    assert gam.trace() == pytest.approx(1.0, rel=1e-12)
    assert np.max(np.abs(gam.kernel - gam.kernel.conj().T)) < 1e-13
    evals = gam.eigenvalues()
    assert evals.min() > -1e-12
    assert float(np.sum(evals)) == pytest.approx(1.0, rel=1e-12)


def test_product_state_marginal_is_projector():
    g = Grid1D(32, 6.0)
    phi = unit_gaussian(g)
    amp = np.multiply.outer(np.multiply.outer(phi, phi), phi)
    state = TensorState(g, amp)
    gam = partial_trace(state, 1)
    proj = product_projector(g, phi, 1)
    assert trace_distance(gam, proj) < 1e-12
    assert chaos_distance(state, 1, phi) < 1e-12
    assert chaos_distance(state, 2, phi) < 1e-12
    # pure projector spectrum: one occupation 1, rest 0
    evals = gam.eigenvalues()
    assert evals[-1] == pytest.approx(1.0, rel=1e-12)
    assert abs(evals[:-1]).max() < 1e-12


@settings(max_examples=30, deadline=None)
@given(n_particles=st.sampled_from([2, 3]), n=st.sampled_from([4, 8, 16]),
       seed=st.integers(0, 2 ** 32 - 1), symmetric=st.booleans())
def test_tower_property(n_particles, n, seed, symmetric):
    # Tr_2 gamma^(2) = gamma^(1), the trace over particle 2 taken here
    g = Grid1D(n, 4.0)
    state = random_state(g, n_particles, seed=seed, symmetric=symmetric)
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
    ref = float(np.sum(np.linalg.svd(diff.matrix(), compute_uv=False)))
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
    state = symmetrize(TensorState(g, np.multiply.outer(phi, phi)))
    for k in (1, 2):
        dist = trace_distance(partial_trace(state, k),
                              product_projector(g, phi, k))
        assert dist <= 1e-13


def weighted_trace(gam, kind):
    """Tr(W^2 x ... x W^2 gamma^(k)) with dense one-particle weights."""
    w2 = dense_weight_squared(gam.grid, kind, gam.omega if kind == "S" else 0.0)
    op = w2
    for _ in range(gam.k - 1):
        op = np.kron(op, w2)
    return float(np.trace(op @ gam.matrix()).real)


def test_weighted_trace_equals_state_expectation():
    # Tr(W^2 gamma^(1)) = <psi, W_1^2 psi>: two routes through different code
    g = Grid1D(16, 4.0)
    state = random_state(g, 3, omega=1.0, seed=9, k_filter=3.0, symmetric=True)
    gam = partial_trace(state, 1)
    for kind in ("S", "L"):
        lhs = weighted_trace(gam, kind)
        rhs = weighted_norm_squared(state, [0], kind)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        assert lhs >= gam.trace().real - 1e-12


def test_weighted_trace_two_particle():
    g = Grid1D(16, 4.0)
    state = random_state(g, 3, omega=0.5, seed=3, k_filter=3.0, symmetric=True)
    lhs = weighted_trace(partial_trace(state, 2), "S")
    rhs = weighted_norm_squared(state, [0, 1], "S")
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
    with pytest.raises(MarginalError, match="kernel shape"):
        MarginalDensity(g, 2, np.eye(g.n))


def test_dense_spectral_cap_guards_eigendecompositions(monkeypatch):
    g = Grid1D(16, 4.0)
    gam = partial_trace(random_state(g, 2, seed=0), 1)
    monkeypatch.setattr(marginals, "KERNEL_SIDE_CAP", 8)
    with pytest.raises(MarginalError, match="cap"):
        gam.eigenvalues()
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
    # the product state of phi itself: the distance vanishes
    same = blended_boson_state(g, nn, phi, 0.0, seed)
    assert chaos_distance(same, k, phi) <= 1e-13


def _factor_is_tall(nn, n, k):
    # chaos_distance's factor [coords, phi^k] has a sector row per sorted
    # multi-index and a column per traced index, plus one
    return math.comb(n + k - 1, k) > n ** (nn - k) + 1


def test_sector_cases_cover_tall_and_wide_factors():
    shapes = {_factor_is_tall(*case) for case in SECTOR_CASES}
    assert shapes == {True, False}


@pytest.mark.parametrize("nn", [2, 3])
def test_chaos_distance_on_the_mean_field_grid(nn):
    # n = 32, k = 2: a 528-row factor with 2 (N = 2) or 33 (N = 3) columns
    g = Grid1D(32, 8.0)
    assert _factor_is_tall(nn, g.n, 2)
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
    overlap = abs(TensorState(g, product_tensor(phi, nn)).inner(state))
    ref = 2.0 * math.sqrt(1.0 - overlap ** 2)
    assert chaos_distance(state, nn, phi) == pytest.approx(ref, rel=1e-12)


def test_chaos_distance_rejects_states_off_the_bosonic_sector():
    g = Grid1D(8, 4.0)
    phi = unit_gaussian(g)
    state = random_state(g, 3, seed=4, k_filter=3.0, symmetric=False)
    for k in (2, 3):
        with pytest.raises(MarginalError, match="bosonic sector"):
            chaos_distance(state, k, phi)
    # every state is symmetric in one particle: k = 1 still evaluates
    ref = trace_distance(partial_trace(state, 1), product_projector(g, phi, 1))
    assert chaos_distance(state, 1, phi) == pytest.approx(ref, rel=1e-12)
    # a symmetry defect just above the tolerance is caught
    boson = random_state(g, 3, seed=4, k_filter=3.0, symmetric=True)
    nudged = boson.amplitudes.copy()
    nudged[0, 1, 2] += 1e-11 * np.linalg.norm(nudged)
    with pytest.raises(MarginalError, match="bosonic sector"):
        chaos_distance(TensorState(g, nudged), 2, phi)
    # NaN fails every comparison: both guards must still fail closed
    nudged[0, 1, 2] = np.nan
    for k in (1, 2):
        with pytest.raises(MarginalError):
            chaos_distance(TensorState(g, nudged), k, phi)
    with pytest.raises(MarginalError, match="out of range"):
        chaos_distance(boson, 4, phi)
    with pytest.raises(MarginalError, match="normalized"):
        chaos_distance(boson, 1, 2.0 * phi)


def test_kernel_cap_applies_to_the_sector_side(monkeypatch):
    # n = 16, k = 2: the sector side is 136, the full side n^2 = 256
    g = Grid1D(16, 4.0)
    state = random_state(g, 2, seed=0, k_filter=3.0, symmetric=True)
    phi = unit_gaussian(g)
    monkeypatch.setattr(marginals, "KERNEL_SIDE_CAP", 200)
    assert 0.0 <= chaos_distance(state, 2, phi) <= 2.0
    with pytest.raises(MarginalError, match="cap"):
        trace_norm(partial_trace(state, 2))
    monkeypatch.setattr(marginals, "KERNEL_SIDE_CAP", 100)
    with pytest.raises(MarginalError, match="cap"):
        chaos_distance(state, 2, phi)


def test_delta_pairing_diagonal_has_unit_mass_rows():
    g = Grid1D(32, 4.0)
    d = delta_pairing_diagonal(g)
    assert np.allclose(d.sum(axis=1) * g.h, 1.0)
    assert d[3, 3] == pytest.approx(1.0 / g.h)
    assert d[3, 4] == 0.0


class TestMollifierDelta:
    GRID = Grid1D(64, 8.0)

    def gamma2(self):
        phi = unit_gaussian(self.GRID)
        return partial_trace(TensorState(self.GRID, np.multiply.outer(phi, phi)), 2)

    @staticmethod
    def rho(t):
        return np.exp(-(t ** 2) / 2) / math.sqrt(2 * math.pi)

    def test_convergence_exponent(self):
        res = mollifier_delta_test(self.gamma2(), np.ones(self.GRID.n),
                                   self.rho, [0.5, 1.0, 2.0], kappa=0.5)
        assert res["passes"]
        assert res["slope"] == pytest.approx(1.194241913630618, rel=1e-8)
        assert res["slope"] >= 0.4
        mags = np.abs(res["values"])
        assert np.all(np.diff(mags) > 0)  # error shrinks with the width

    def test_identity_observable_matches_direct_quadrature(self):
        g = self.GRID
        phi = unit_gaussian(g)
        res = mollifier_delta_test(self.gamma2(), np.ones(g.n),
                                   self.rho, [1.0], kappa=0.5)
        dens = np.abs(phi) ** 2
        diff = g.x[:, None] - g.x[None, :]
        pair_rho = float(np.sum((self.rho(diff / 1.0) / 1.0)
                                * np.outer(dens, dens)) * g.h ** 2)
        pair_delta = float(np.sum(dens ** 2) * g.h)
        assert res["values"][0].real == pytest.approx(
            pair_rho - pair_delta, abs=1e-15)

    def test_vector_and_matrix_observables_agree(self):
        g = self.GRID
        res_vec = mollifier_delta_test(self.gamma2(), g.x ** 2,
                                       self.rho, [1.0])
        res_mat = mollifier_delta_test(self.gamma2(),
                                       np.diag((g.x ** 2).astype(complex)),
                                       self.rho, [1.0])
        assert abs(res_vec["values"][0] - res_mat["values"][0]) < 1e-14

    def test_window_and_kappa_rejections(self):
        gam = self.gamma2()
        ones = np.ones(self.GRID.n)
        with pytest.raises(MarginalError, match="resolution"):
            mollifier_delta_test(gam, ones, self.rho, [0.1])
        with pytest.raises(MarginalError, match="wrap"):
            mollifier_delta_test(gam, ones, self.rho, [3.0])
        with pytest.raises(MarginalError, match="kappa"):
            mollifier_delta_test(gam, ones, self.rho, [1.0], kappa=1.5)
        one_particle = partial_trace(
            random_state(self.GRID, 2, seed=0, k_filter=3.0), 1)
        with pytest.raises(MarginalError, match="two-particle"):
            mollifier_delta_test(one_particle, ones, self.rho, [1.0])
