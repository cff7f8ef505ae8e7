"""Numerical laboratory for attractive 1D bosons and the focusing cubic NLS.

The package evolves small N-boson systems exactly on periodic grids, reduces
them to k-particle marginal densities, integrates the limiting one-particle
cubic Schrodinger equation, and provides the analysis tools used to connect
the two levels: energy-operator inequalities, a time-dependent lens transform
between trapped and free frames, weighted collapsing integrals with their
sharpness scans, and spectral/mollifier diagnostics.

Conventions used throughout:

* time direction ``i d/dt psi = +H psi``;
* coupling constant ``b0 = -integral(V)``, so attractive wells give
  ``b0 > 0`` (focusing nonlinearity);
* the lens-side Hamiltonian carries the half-weight kinetic term.

Top-level names are imported lazily on first access so that lightweight
operations (``--help``, thread-pool pinning before BLAS loads) do not pay
for the numerical stack.
"""

from __future__ import annotations

import importlib

__version__ = "1.0.0"

_SUBMODULES = {
    "cli", "collapse", "containers", "energy_checks", "grid", "lens",
    "marginals", "nbody", "nls", "potentials",
}

_EXPORTS = {
    # grids and states
    "Grid1D": "grid",
    "GridError": "grid",
    "SobolevWeight": "grid",
    "TensorState": "grid",
    "apply_symbol": "grid",
    "apply_weight_squared": "grid",
    "random_state": "grid",
    "symmetrize": "grid",
    "symmetry_residual": "grid",
    "weighted_norm_squared": "grid",
    # interaction potentials
    "PotentialError": "potentials",
    "PotentialSpec": "potentials",
    "gaussian_well": "potentials",
    "lens_damped_potential": "potentials",
    "mixed_sign": "potentials",
    "scaled_potential": "potentials",
    # marginal densities
    "MarginalDensity": "marginals",
    "MarginalError": "marginals",
    "chaos_distance": "marginals",
    "mollifier_delta_test": "marginals",
    "partial_trace": "marginals",
    "product_projector": "marginals",
    "trace_distance": "marginals",
    "trace_norm": "marginals",
    # exact N-body dynamics
    "NBodySystem": "nbody",
    "NumericalAbort": "nbody",
    "Trajectory": "nbody",
    "apply_hamiltonian": "nbody",
    "bbgky_residual": "nbody",
    "dense_hamiltonian": "nbody",
    "dense_spectrum": "nbody",
    "energy_expectation": "nbody",
    "energy_moment": "nbody",
    "evolve": "nbody",
    "spectral_cutoff": "nbody",
    # one-particle nonlinear dynamics
    "BlowupDetected": "nls",
    "NLSProblem": "nls",
    "NLSTrajectory": "nls",
    "evolve_nls": "nls",
    "nls_energy": "nls",
    "nls_residual": "nls",
    "soliton": "nls",
    "trap_ground_state": "nls",
    # lens transform
    "LensMap": "lens",
    "LensResolutionError": "lens",
    "LensWindowError": "lens",
    "intertwine_energy_check": "lens",
    "intertwine_linear_check": "lens",
    "lens_function": "lens",
    "lens_kernel": "lens",
    # energy-operator inequalities
    "check_K_inequality": "energy_checks",
    "check_decomposition_identity": "energy_checks",
    "check_energy_estimate": "energy_checks",
    "check_pair_positivity": "energy_checks",
    "check_sobolev_operator_bound": "energy_checks",
    # collapsing integrals and operator bounds
    "CollapseProbe": "collapse",
    "PairProfileMember": "collapse",
    "SeparableKernelMember": "collapse",
    "direct_operator_test": "collapse",
    "integral_I": "collapse",
    "kernel_H": "collapse",
    "lemma_F": "collapse",
    "lemma_F_reference": "collapse",
    "make_probe": "collapse",
    "optimality_scan": "collapse",
    "theta_hat_quadrature": "collapse",
    "trace_lemma_check": "collapse",
    # output conventions
    "CONVENTIONS": "containers",
}

__all__ = ["__version__", *sorted(_EXPORTS)]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module_name}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
