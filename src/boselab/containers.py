"""Sign and direction conventions recorded in every output file.

The CLI writes ``CONVENTIONS`` into the header of every CSV and into
``summary.json``, so a reader can tell which time direction, coupling
sign and lens-side kinetic weight produced the numbers.
"""

from __future__ import annotations

__all__ = ["CONVENTIONS"]

CONVENTIONS = {
    "time_direction": "i d/dt psi = +H psi",
    "coupling_sign": "b0 = -integral(V), attractive wells give b0 > 0",
    "lens_half_kinetic": True,
}
