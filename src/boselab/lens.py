"""Lens transform between trapped and flat-space evolutions.

For trap frequency omega > 0 the map acts on an N-particle function u of
the flat time tau as

    (M_N u)(t, x) = exp(-i omega tan(omega t) |x|^2 / 2)
                    * cos(omega t)^(-N/2) * u(tan(omega t)/omega, x/cos(omega t)),

with the time dictionary tau = tan(omega t)/omega, valid on the window
|t| < pi/(2 omega).  Kernels transform with the phase on both argument
groups and the power cos^(-k); the inverse kernel map evaluates at
contracted points y*cos and removes the quadratic phase.

Spatial rescaling is done by evaluating the trigonometric interpolant
(zero-padded Fourier series) at the stretched or contracted points, one
n x n matrix per time, applied along each particle axis with
grid.apply_matrix (its conjugate along the primed axes of a kernel).  The
outward stretch samples the periodic continuation beyond the box, which
is only meaningful when the state carries negligible mass near the
boundary; that is guarded explicitly.  omega = 0 is the identity map.

States and orbitals are plain complex arrays on the grid, (n,)*N for
N particles (grid.as_tensor checks them), and kernels are
MarginalDensity objects.  The map is unitary in the continuum; on the
grid it is unitary up to the interpolation error, which is spectrally
small for smooth decaying states.  Composed with the free
half-Laplacian flow it reproduces the trapped linear flow exactly
(checked), while a full-Laplacian flat flow leaves an order-one defect
(negative control for the kinetic convention).  Both free flows are
nls.evolve_nls at b0 = 0 and omega = 0: the full-Laplacian flow to tau
is the half-Laplacian flow to 2 tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import (Grid1D, GridError, apply_matrix, as_tensor,
                   interpolation_matrix, weighted_norm_squared)
from .marginals import MarginalDensity
from .nls import NLSProblem, evolve_nls


class LensWindowError(ValueError):
    """Trap time outside the principal lens window."""


class LensResolutionError(ValueError):
    """State support escapes the box under the lens rescaling."""


COS_GUARD = 0.2
BOUNDARY_MASS_TOL = 1e-6
BOUNDARY_FRACTION = 0.9


@dataclass(frozen=True)
class LensMap:
    """Time dictionary between flat time tau and trap time t for one omega."""

    omega: float

    def __post_init__(self):
        if not 0 <= self.omega < math.inf:
            raise GridError("trap frequency must be finite and nonnegative")

    def tau_of_t(self, t: float) -> float:
        if self.omega == 0.0:
            return t
        self._check_window(t)
        return math.tan(self.omega * t) / self.omega

    def t_of_tau(self, tau: float) -> float:
        if self.omega == 0.0:
            return tau
        return math.atan(self.omega * tau) / self.omega

    def _check_window(self, t: float):
        wt = self.omega * t
        # an infinite omega t (overflow) has no cosine
        if not abs(wt) < 0.5 * math.pi or math.cos(wt) < COS_GUARD:
            raise LensWindowError(
                f"t = {t} outside the lens window (cos(omega t) < {COS_GUARD})")


def boundary_mass_fraction(density: np.ndarray, grid: Grid1D) -> float:
    """Largest share of a density on (n,)*d that lies beyond
    |x| > BOUNDARY_FRACTION * L along one axis; NaN unless the total
    mass is finite."""
    total = float(np.sum(density))
    if not math.isfinite(total):
        return math.nan
    if total == 0.0:
        return 0.0
    outside = np.abs(grid.x) > BOUNDARY_FRACTION * grid.length
    return max(float(np.sum(np.compress(outside, density, axis=ax))) / total
               for ax in range(density.ndim))


def _check_boundary(density: np.ndarray, grid: Grid1D):
    frac = boundary_mass_fraction(density, grid)
    if not frac <= BOUNDARY_MASS_TOL:  # a NaN density fails closed
        raise LensResolutionError(
            f"boundary mass fraction {frac:.2e} exceeds {BOUNDARY_MASS_TOL:.0e} "
            "or is not finite; the stretched support would wrap the box"
        )


def one_particle_matrix(grid: Grid1D, omega: float, t: float,
                        inverse: bool = False) -> np.ndarray:
    """Per-axis lens matrix at trap time t.

    Forward: samples of exp(-i omega tan(omega t) x^2/2) c^(-1/2) u(x/c).
    Inverse: samples of exp(+i omega tan(omega t) c^2 y^2/2) c^(1/2) psi(y c).
    """
    c = math.cos(omega * t)
    if c < COS_GUARD:
        raise LensWindowError(f"cos(omega t) = {c:.3f} below guard {COS_GUARD}")
    tn = math.tan(omega * t)
    x = grid.x
    if inverse:
        phase = np.exp(0.5j * omega * tn * c ** 2 * x ** 2) * math.sqrt(c)
        targets = x * c
    else:
        phase = np.exp(-0.5j * omega * tn * x ** 2) / math.sqrt(c)
        targets = x / c
    return phase[:, None] * interpolation_matrix(grid, targets)


def lens_function(lmap: LensMap, grid: Grid1D, u: np.ndarray, tau: float):
    """Map a flat-time state u(tau), an (n,)*N array on the grid, to the
    trapped-frame state at t(tau).

    Returns (psi, t), psi an array like u.  omega = 0 returns a copy
    (exact identity).
    """
    u = as_tensor(grid, u)
    if lmap.omega == 0.0:
        return u.copy(), tau
    t = lmap.t_of_tau(tau)
    _check_boundary(np.abs(u) ** 2, grid)
    fwd = one_particle_matrix(grid, lmap.omega, t)
    out = u
    for ax in range(u.ndim):
        out = apply_matrix(out, fwd, ax)
    return out, t


def lens_kernel(lmap: LensMap, marginal: MarginalDensity, time: float,
                inverse: bool = False):
    """Kernel transport gamma -> M gamma M^dagger on k particles.

    Forward: time is the flat time tau; returns (kernel at t(tau), t).
    inverse=True: time is the trap time t; returns (flat kernel, tau(t)).
    omega = 0 returns a copy (exact identity).  LensResolutionError for
    a diagonal with boundary mass (forward) or not finite (inverse, which
    contracts the support and so cannot wrap the box).
    """
    grid, k = marginal.grid, marginal.k
    if lmap.omega == 0.0:
        return MarginalDensity(grid, k, marginal.kernel.copy()), time
    if inverse:
        if not np.all(np.isfinite(np.diagonal(marginal.kernel))):
            raise LensResolutionError("kernel diagonal is not finite")
        t, image_time = time, lmap.tau_of_t(time)
    else:
        diagonal = np.abs(np.real(np.diagonal(marginal.kernel)))
        _check_boundary(diagonal.reshape((grid.n,) * k), grid)
        t = image_time = lmap.t_of_tau(time)
    mat = one_particle_matrix(grid, lmap.omega, t, inverse)
    out = marginal.tensor()
    for ax in range(k):
        out = apply_matrix(out, mat, ax)
    for ax in range(k, 2 * k):
        out = apply_matrix(out, mat.conj(), ax)
    side = grid.n ** k
    return MarginalDensity(grid, k, out.reshape(side, side)), image_time


def intertwine_linear_check(lmap: LensMap, grid: Grid1D, phi0: np.ndarray,
                            t_run: float, n_steps: int, m_steps: int) -> dict:
    """Lens intertwining of the linear flows, with a convention control.

    Evolves phi0 under the trapped linear equation to t_run in n_steps
    equal steps, and under the free half-Laplacian flow to tau(t_run) in
    m_steps, then compares the lensed free solution against the trapped
    one.  The same comparison with the full-Laplacian free flow (wrong
    kinetic convention) is returned as a negative control; it should be
    order one.  That flow to tau is the half-Laplacian flow to 2 tau, run
    here in m_steps of 2 tau / m_steps: its kinetic phase
    exp(-i (2 dt)(k^2/2)) rounds to the bits of exp(-i dt k^2), since the
    two products differ only by exact powers of two.
    """
    tau_run = lmap.tau_of_t(t_run)
    if t_run == 0.0:
        return {"defect": 0.0, "defect_wrong_convention": 0.0}

    trapped = NLSProblem(grid, b0=0.0, omega=lmap.omega)
    # only the final field is read, so store just the first and the last
    traj_t = evolve_nls(trapped, phi0, t_run / n_steps, n_steps,
                        store_every=n_steps)
    psi_ref = traj_t.fields[-1]

    free = NLSProblem(grid, b0=0.0)
    defects = {}
    for label, span in (("defect", tau_run),
                        ("defect_wrong_convention", 2.0 * tau_run)):
        traj_f = evolve_nls(free, phi0, span / m_steps, m_steps,
                            store_every=m_steps)
        psi_pred, _ = lens_function(lmap, grid, traj_f.fields[-1], tau_run)
        diff = psi_pred - psi_ref
        defects[label] = float(math.sqrt(grid.h * np.sum(np.abs(diff) ** 2)))
    return defects


def intertwine_energy_check(lmap: LensMap, grid: Grid1D, u: np.ndarray,
                            tau: float, k: int = 1) -> dict:
    """Compare flat L-weights on u with trapped S-weights on its lens image.

    Returns both quadratic forms and their ratio; the comparison constant
    of the continuum statement is the departure of the ratio from 1.
    """
    axes = list(range(k))
    lhs = weighted_norm_squared(grid, u, axes, "L", 0.0)
    psi, t = lens_function(lmap, grid, u, tau)
    rhs = weighted_norm_squared(grid, psi, axes, "S", lmap.omega)
    return {"flat": lhs, "trapped": rhs, "ratio": lhs / rhs, "t": t}
