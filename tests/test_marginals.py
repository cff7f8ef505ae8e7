"""Reduced densities: traces, spectra, distances, and delta pairings."""

import math

import numpy as np
import pytest

import boselab.marginals as marginals
from boselab.grid import Grid1D, TensorState, random_state, weighted_norm_squared
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
    weighted_trace,
)


def unit_gaussian(grid, width=1.0, center=0.0):
    phi = np.exp(-((grid.x - center) / width) ** 2 / 2).astype(np.complex128)
    return phi / math.sqrt(grid.h * float(np.sum(np.abs(phi) ** 2)))


@pytest.mark.parametrize("k", [1, 2])
def test_unit_trace_hermitian_nonnegative(k):
    g = Grid1D(16, 4.0)
    state = random_state(g, 3, seed=2, k_filter=3.0, symmetric=True)
    gam = partial_trace(state, k)
    assert gam.trace() == pytest.approx(1.0, rel=1e-12)
    assert gam.hermiticity_defect() < 1e-13
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


def test_tower_property():
    g = Grid1D(16, 4.0)
    state = random_state(g, 3, seed=5, k_filter=3.0, symmetric=True)
    via_two = partial_trace(state, 2).reduce(1)
    direct = partial_trace(state, 1)
    assert trace_distance(via_two, direct) < 1e-12
    with pytest.raises(MarginalError):
        partial_trace(state, 2).reduce(3)
    with pytest.raises(MarginalError):
        partial_trace(state, 2).reduce(0)


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
