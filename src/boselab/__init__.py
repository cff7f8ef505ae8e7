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

The names live in the submodules (``from boselab import nbody``); the
package itself defines only ``__version__``.  ``import boselab`` loads no
numerical library, so ``--help`` and the CLI's thread settings run before
BLAS loads.
"""

__version__ = "1.0.0"
