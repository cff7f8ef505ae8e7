"""Potential shapes, coupling constants, and scaling."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from boselab.potentials import (
    PotentialError,
    PotentialSpec,
    gaussian_well,
    lens_damped_potential,
    lens_damping,
    mixed_sign,
    scaled_potential,
)
from oracles import integral_quadrature


def test_gaussian_well_values_and_integral():
    spec = gaussian_well(a=2.0, s=1.5)
    x = np.linspace(-4, 4, 201)
    assert np.allclose(spec(x), -2.0 * np.exp(-(x / 1.5) ** 2))
    assert spec(0.0) == pytest.approx(-2.0)
    assert spec.integral() == pytest.approx(-2.0 * 1.5 * math.sqrt(math.pi))
    assert spec.b0() == pytest.approx(2.0 * 1.5 * math.sqrt(math.pi))
    assert spec.b0() > 0
    assert spec.linf_norm() == pytest.approx(2.0)


def test_mixed_sign_values_and_integral():
    spec = mixed_sign(a=1.0, s=1.0, r=0.25)
    x = np.linspace(-4, 4, 201)
    assert np.allclose(spec(x), (0.25 - x ** 2) * np.exp(-(x ** 2)))
    # repulsive core, attractive shoulders
    assert spec(0.0) > 0
    assert spec(1.0) < 0
    assert spec.integral() == pytest.approx(
        math.sqrt(math.pi) * (0.25 - 0.5))
    assert spec.integral() < 0 and spec.b0() > 0


def test_integral_closed_form_against_quadrature():
    for spec in (gaussian_well(1.7, 0.8), mixed_sign(2.0, 1.3, r=0.1)):
        assert integral_quadrature(spec) == pytest.approx(
            spec.integral(), rel=1e-12, abs=1e-12)


def test_l1_and_alpha_against_adaptive_quadrature():
    # |V| has kinks where V changes sign, so the quadrature oracle is
    # split at those roots to keep each piece smooth
    for spec, roots in ((gaussian_well(1.3, 1.1), ()),
                        (mixed_sign(1.0, 0.9, r=0.25), (-0.45, 0.45))):
        pts = sorted({-60.0, *roots, 60.0})
        ref = sum(quad(lambda x: abs(spec(x)), a, b, limit=400)[0]
                  for a, b in zip(pts, pts[1:]))
        assert spec.l1_norm() == pytest.approx(ref, rel=1e-12)
        assert spec.alpha() == pytest.approx(spec.l1_norm() ** 2, rel=1e-14)


def test_mixed_sign_linf_norm_against_fine_sampling():
    spec = mixed_sign(1.5, 0.9, r=0.3)
    x = np.linspace(-8, 8, 400001)
    assert spec.linf_norm() == pytest.approx(
        float(np.max(np.abs(spec(x)))), rel=1e-6)


def test_validation_errors():
    with pytest.raises(PotentialError):
        PotentialSpec("box", a=1.0, s=1.0)
    with pytest.raises(PotentialError):
        gaussian_well(a=-1.0)
    with pytest.raises(PotentialError):
        gaussian_well(s=0.0)
    with pytest.raises(PotentialError):
        gaussian_well(beta=1.0)
    with pytest.raises(PotentialError):
        gaussian_well(beta=0.0)
    # r > 1/2 makes the integral positive: rejected
    with pytest.raises(PotentialError):
        mixed_sign(r=0.6)
    # r = 1/2 integrates to zero: allowed
    assert mixed_sign(r=0.5).integral() == pytest.approx(0.0, abs=1e-14)


def test_scaled_potential_pointwise():
    spec = gaussian_well(1.0, 1.0, beta=0.5)
    x = np.linspace(-2, 2, 41)
    n_particles = 4
    scale = 4.0 ** 0.5
    assert np.allclose(scaled_potential(spec, n_particles, x),
                       scale * spec(scale * x))
    # the splitting budget reads the peak of V_N, reached at x = 0
    assert spec.phase_rate(n_particles) == pytest.approx(
        np.max(np.abs(scaled_potential(spec, n_particles, x))), rel=1e-14)
    with pytest.raises(PotentialError):
        scaled_potential(spec, 0, x)


def test_scaled_potential_preserves_integral():
    # int N^beta V(N^beta x) dx = int V: the coupling is N-independent
    spec = mixed_sign(1.0, 1.0, r=0.2, beta=0.7)
    x = np.linspace(-30, 30, 2 ** 16, endpoint=False)
    w = x[1] - x[0]
    for n_particles in (1, 3, 9):
        val = float(np.sum(scaled_potential(spec, n_particles, x)) * w)
        assert val == pytest.approx(spec.integral(), abs=1e-10)


def test_lens_damping_profile():
    assert lens_damping(0.0, 3.7) == pytest.approx(1.0)
    assert lens_damping(2.0, 0.0) == pytest.approx(1.0)
    taus = np.array([0.5, 1.0, 4.0])
    assert np.allclose(lens_damping(1.5, taus),
                       1.0 / np.sqrt(1.0 + (1.5 * taus) ** 2))


def test_lens_damped_potential_keeps_signed_integral():
    # the damping rescales amplitude and width together, so the signed
    # integral (hence b0) is invariant along the lens evolution
    spec = gaussian_well(1.0, 1.0, beta=0.5)
    y = np.linspace(-40, 40, 2 ** 17, endpoint=False)
    w = y[1] - y[0]
    for tau in (0.0, 0.8, 5.0):
        vals = lens_damped_potential(spec, 3, 1.0, tau, y)
        assert float(np.sum(vals) * w) == pytest.approx(
            spec.integral(), abs=1e-10)
    # at tau = 0 it reduces to the static scaled potential
    assert np.allclose(lens_damped_potential(spec, 3, 1.0, 0.0, y),
                       scaled_potential(spec, 3, y))
