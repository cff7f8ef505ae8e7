"""Attractive pair potentials, their N-rescalings, and coupling constants.

Two Schwartz-class shapes are supported:

    gaussian_well(a, s):  V(x) = -a * exp(-x^2/s^2)              (a, s > 0)
    mixed_sign(a, s, r):  V(x) = a * (r - x^2/s^2) * exp(-x^2/s^2)

mixed_sign is admitted only when its integral is nonpositive, which for
the Gaussian envelope means r <= 1/2 (the r = 1/2 member integrates to
exactly zero while keeping |V| > 0 somewhere).

The mean-field limit is controlled by two constants:

    b0    = |integral of V|      (focusing coupling of the cubic limit)
    alpha = (integral of |V|)^2  (L^1 norm squared; energy-estimate shift)

The signed integral and the unsigned b0 are kept apart: the limit
equation always uses the focusing sign -b0 |phi|^2 phi.

The N-body interaction is V_N(x) = N^beta V(N^beta x) with beta in (0, 1);
under the lens change of variables it picks up the damping factor
g(tau) = (1 + omega^2 tau^2)^(-1/2) in both amplitude and argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class PotentialError(ValueError):
    """Raised for inadmissible potential parameters."""


@dataclass(frozen=True)
class PotentialSpec:
    """Shape family plus the mean-field exponent beta in (0, 1)."""

    shape: str
    a: float
    s: float
    r: float = 0.0
    beta: float = 0.5

    def __post_init__(self):
        if self.shape not in ("gaussian_well", "mixed_sign"):
            raise PotentialError(f"unknown potential shape {self.shape!r}")
        if not (0 < self.a < math.inf and 0 < self.s < math.inf):
            raise PotentialError("amplitude and width must be finite and "
                                 "positive")
        if not math.isfinite(self.r):
            raise PotentialError(f"r must be finite, got {self.r}")
        if not 0.0 < self.beta < 1.0:
            raise PotentialError(f"beta must lie in (0, 1), got {self.beta}")
        if self.shape == "mixed_sign" and self.integral() > 1e-12:
            raise PotentialError(
                "mixed_sign potential must have nonpositive integral (r <= 1/2)"
            )

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.shape == "gaussian_well":
            return -self.a * np.exp(-(x / self.s) ** 2)
        return self.a * (self.r - (x / self.s) ** 2) * np.exp(-(x / self.s) ** 2)

    # -- coupling constants ------------------------------------------------

    def integral(self) -> float:
        """Signed integral of V (closed form for both shapes)."""
        if self.shape == "gaussian_well":
            return -self.a * self.s * math.sqrt(math.pi)
        return self.a * self.s * math.sqrt(math.pi) * (self.r - 0.5)

    def b0(self) -> float:
        """Unsigned coupling |int V| of the focusing cubic limit."""
        return abs(self.integral())

    def l1_norm(self) -> float:
        """int |V| dx in closed form.

        gaussian_well is single-signed.  mixed_sign changes sign at
        x = +-sqrt(r) s, so with P the (positive) core integral over
        |x| < sqrt(r) s, expressed through erf, int |V| = 2 P - int V.
        """
        if self.shape == "gaussian_well":
            return self.a * self.s * math.sqrt(math.pi)
        core = 0.0
        if self.r > 0:
            root = math.sqrt(self.r)
            core = 2.0 * self.a * self.s * (
                (self.r - 0.5) * 0.5 * math.sqrt(math.pi) * math.erf(root)
                + 0.5 * root * math.exp(-self.r))
        return 2.0 * core - self.integral()

    def alpha(self) -> float:
        """(int |V|)^2, the shift constant of the energy estimates."""
        return self.l1_norm() ** 2

    def linf_norm(self) -> float:
        if self.shape == "gaussian_well":
            return self.a
        x = np.linspace(-6.0 * self.s, 6.0 * self.s, 20001)
        return float(np.max(np.abs(self(x))))

    def phase_rate(self, n_particles: int) -> float:
        """N^beta ||V||_inf = ||V_N||_inf, the pair part of the bound on
        H_N's spectral radius that the CLI's run-length envelope takes."""
        return float(n_particles) ** self.beta * self.linf_norm()


def scaled_potential(spec: PotentialSpec, n_particles: int, x) -> np.ndarray:
    """V_N(x) = N^beta V(N^beta x)."""
    if n_particles < 1:
        raise PotentialError("particle number must be >= 1")
    scale = float(n_particles) ** spec.beta
    return scale * spec(scale * np.asarray(x, dtype=float))


def lens_damping(omega: float, tau) -> np.ndarray:
    """g(tau) = (1 + omega^2 tau^2)^(-1/2); identically 1 for omega = 0."""
    tau = np.asarray(tau, dtype=float)
    return 1.0 / np.sqrt(1.0 + (omega * tau) ** 2)


def lens_damped_potential(spec: PotentialSpec, n_particles: int, omega: float,
                          tau: float, y) -> np.ndarray:
    """V_{N,tau}(y) = N^beta g(tau) V(N^beta g(tau) y).

    Its integral equals the signed integral of V for every tau and N, so
    the unsigned mass stays b0 along the whole lens evolution.
    """
    g = float(lens_damping(omega, tau))
    scale = float(n_particles) ** spec.beta * g
    return scale * spec(scale * np.asarray(y, dtype=float))


def gaussian_well(a: float = 1.0, s: float = 1.0, beta: float = 0.5) -> PotentialSpec:
    return PotentialSpec("gaussian_well", a=a, s=s, beta=beta)


def mixed_sign(a: float = 1.0, s: float = 1.0, r: float = 0.25,
               beta: float = 0.5) -> PotentialSpec:
    return PotentialSpec("mixed_sign", a=a, s=s, r=r, beta=beta)
