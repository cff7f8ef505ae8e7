"""Harmonic lens transform: time dictionary, unitarity, intertwining."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boselab.grid import BosonicState, Grid1D, GridError, sector_product
from boselab.lens import (
    LensMap,
    LensResolutionError,
    LensWindowError,
    boundary_mass_fraction,
    intertwine_energy_check,
    intertwine_linear_check,
    lens_function,
    lens_kernel,
)
from boselab.marginals import MarginalDensity, partial_trace, trace_norm
from boselab.nls import trap_ground_state

GRID = Grid1D(64, 8.0)


def ground_pair():
    phi, _ = trap_ground_state(GRID, 1.0)
    return phi


def pair_marginal(phi):
    """gamma^(1) of the two-boson product state phi x phi."""
    return partial_trace(BosonicState(GRID, 2, sector_product(phi, 2)), 1)


def test_time_dictionary_inverse_pair():
    lmap = LensMap(1.5)
    for t in (0.0, 0.2, -0.4, 0.6):
        tau = lmap.tau_of_t(t)
        assert lmap.t_of_tau(tau) == pytest.approx(t, abs=1e-14)
        assert tau == pytest.approx(math.tan(1.5 * t) / 1.5, rel=1e-14)
    flat = LensMap(0.0)
    assert flat.tau_of_t(0.7) == 0.7
    assert flat.t_of_tau(0.7) == 0.7
    with pytest.raises(GridError):
        LensMap(-1.0)


def test_window_rejections():
    lmap = LensMap(1.0)
    with pytest.raises(LensWindowError):
        lmap.tau_of_t(math.pi / 2)
    with pytest.raises(LensWindowError):
        lmap.tau_of_t(1.5)  # cos = 0.07 < the 0.2 guard
    # tau has no window: any real tau maps back inside
    assert abs(lmap.t_of_tau(1e6)) < math.pi / 2


def test_window_rejects_an_overflowing_trap_time():
    # omega t overflows to inf, whose cosine math.cos cannot take
    with pytest.raises(LensWindowError):
        LensMap(1e308).tau_of_t(1e308)


def test_flat_frequency_is_identity():
    phi = ground_pair()
    psi, t = lens_function(LensMap(0.0), GRID, phi, 0.7)
    assert t == 0.7
    assert np.max(np.abs(psi - phi)) == 0.0
    assert psi is not phi


@pytest.mark.parametrize("n_particles", [1, 2])
def test_unitarity_and_round_trip(n_particles):
    phi = ground_pair()
    amp = phi if n_particles == 1 else np.multiply.outer(phi, phi)
    lmap = LensMap(1.0)
    psi, t = lens_function(lmap, GRID, amp, 0.3)
    assert t == pytest.approx(math.atan(0.3))
    assert psi.shape == amp.shape
    norm = math.sqrt(GRID.h ** n_particles * float(np.sum(np.abs(psi) ** 2)))
    assert abs(norm - 1.0) < 1e-7


def test_kernel_transform_preserves_trace_norm():
    marg = pair_marginal(ground_pair())
    lmap = LensMap(1.0)
    lensed, t = lens_kernel(lmap, marg, 0.3)
    assert abs(trace_norm(lensed) - trace_norm(marg)) < 1e-7
    assert (GRID.h * np.trace(lensed.kernel)).real == pytest.approx(
        1.0, abs=1e-7)
    back, tau = lens_kernel(lmap, lensed, t, inverse=True)
    assert tau == pytest.approx(0.3, abs=1e-12)
    assert np.max(np.abs(back.kernel - marg.kernel)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(omega=st.floats(0.25, 1.5), tau=st.floats(-0.5, 0.5))
def test_kernel_round_trip_property(omega, tau):
    # the inverse kernel map undoes the forward one across the window; the
    # interpolation error peaks near 5e-10 at omega = 1.5, |tau| = 0.5
    marg = pair_marginal(ground_pair())
    lmap = LensMap(omega)
    lensed, t = lens_kernel(lmap, marg, tau)
    back, tau_back = lens_kernel(lmap, lensed, t, inverse=True)
    assert tau_back == pytest.approx(tau, abs=1e-12)
    assert np.max(np.abs(back.kernel - marg.kernel)) < 1e-8


def test_boundary_guard_rejects_underresolved_stretch():
    wide = np.exp(-GRID.x ** 2 / (2 * 4.0 ** 2)).astype(np.complex128)
    wide /= math.sqrt(GRID.h * float(np.sum(np.abs(wide) ** 2)))
    assert boundary_mass_fraction(np.abs(wide) ** 2, GRID) > 1e-6
    with pytest.raises(LensResolutionError, match="boundary mass"):
        lens_function(LensMap(1.0), GRID, wide, 4.0)
    with pytest.raises(LensResolutionError, match="boundary mass"):
        lens_kernel(LensMap(1.0),
                    MarginalDensity(GRID, 1, np.outer(wide, wide.conj())), 4.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_boundary_guard_fails_closed_on_non_finite_input(bad):
    # a NaN boundary fraction fails every comparison, so the guard must
    # raise unless the fraction is known to be small
    phi = ground_pair()
    kernel = np.outer(phi, phi.conj())
    mid = GRID.n // 2
    kernel[mid, mid] = bad
    phi = phi.copy()
    phi[mid] = bad
    with pytest.raises(LensResolutionError, match="boundary mass"):
        lens_function(LensMap(1.0), GRID, phi, 0.3)
    with pytest.raises(LensResolutionError, match="boundary mass"):
        lens_kernel(LensMap(1.0), MarginalDensity(GRID, 1, kernel), 0.3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_inverse_kernel_map_fails_closed_on_a_non_finite_diagonal(bad):
    # one NaN on the diagonal used to come back as an all-NaN flat kernel
    # (4,096 of 4,096 entries at n = 64) with no error; the contraction
    # cannot wrap the box, so the inverse map checks finiteness only
    phi = ground_pair()
    kernel = np.outer(phi, phi.conj())
    kernel[GRID.n // 2, GRID.n // 2] = bad
    with pytest.raises(LensResolutionError, match="not finite"):
        lens_kernel(LensMap(1.0), MarginalDensity(GRID, 1, kernel), 0.3,
                    inverse=True)


def test_lens_function_rejects_a_state_off_the_grid():
    with pytest.raises(GridError, match="do not match grid size"):
        lens_function(LensMap(1.0), GRID, np.ones(GRID.n // 2), 0.3)


def test_intertwine_linear_flows():
    phi = ground_pair()
    # dt = 1e-3: 400 trapped steps to t = 0.4, 423 free ones to tan(0.4)
    res = intertwine_linear_check(LensMap(1.0), GRID, phi, 0.4, 400, 423)
    # correct half-kinetic convention intertwines to splitting accuracy;
    # the full-Laplacian control misses by an order-one margin
    assert res["defect"] < 1e-5
    assert res["defect_wrong_convention"] > 1e-1


def test_intertwine_zero_run_is_exact():
    res = intertwine_linear_check(LensMap(1.0), GRID, ground_pair(), 0.0,
                                  2, 2)
    assert res == {"defect": 0.0, "defect_wrong_convention": 0.0}


def test_intertwine_small_frequency_limit():
    # as omega -> 0 the lens degenerates to the identity and both flows
    # coincide: the defect must vanish far below the generic tolerance
    res = intertwine_linear_check(LensMap(1e-3), GRID, ground_pair(),
                                  0.2, 200, 200)
    assert res["defect"] < 1e-6
    assert res["defect_wrong_convention"] > 1e-3


def test_intertwine_energy_comparability():
    phi = ground_pair()
    flat = intertwine_energy_check(LensMap(0.0), GRID, phi, 0.3)
    # identity lens: the ratio is pinned between the two symbol envelopes
    assert 1.0 <= flat["ratio"] <= 2.0
    assert flat["t"] == 0.3
    trapped = intertwine_energy_check(LensMap(1.0), GRID, phi, 0.3)
    assert 0.5 <= trapped["ratio"] <= 2.0
    assert trapped["flat"] > 0 and trapped["trapped"] > 0
