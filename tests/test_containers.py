"""The sign/direction conventions written into every output file."""

from boselab.containers import CONVENTIONS


def test_conventions_are_frozen():
    assert CONVENTIONS == {
        "time_direction": "i d/dt psi = +H psi",
        "coupling_sign": "b0 = -integral(V), attractive wells give b0 > 0",
        "lens_half_kinetic": True,
    }
