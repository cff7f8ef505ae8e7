"""Every public name of src/boselab has a caller in src/boselab.

The package keeps in src/ only what a runner reaches; a function or class
that only tests call belongs next to the tests.  The walk below collects
each module's public module-level functions and classes with ast and
fails for a name that no src/ module references anywhere but at its own
definition.  The exceptions are listed in ALLOWED.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "boselab"

# names that no src/ module calls, grouped by the reason each stays
ALLOWED = {
    # entry points of library callers: the potential constructors
    "potentials.gaussian_well",
    "potentials.mixed_sign",
    # pure test oracles, to move to a tests-side module
    "collapse.theta_hat_quadrature",
    "energy_checks.dense_pair_block",
    "grid.symmetry_residual",
    "marginals.product_projector",
    "marginals.trace_distance",
    # paper statements that no runner checks yet (criteria 12 and 13,
    # the lens energy)
    "marginals.mollifier_delta_test",
    "nbody.spectral_cutoff",
    "potentials.lens_damped_potential",
    "lens.intertwine_energy_check",
}


def _names(node):
    """The names a node reads: bare names, attributes and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _unreferenced():
    """module.name of every public module-level function or class that no
    src/ module reads outside the name's own definition."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    counts = Counter(name for tree in trees.values() for name in _names(tree))
    return sorted(
        f"{module}.{node.name}" for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and counts[node.name] == Counter(_names(node))[node.name])


def test_every_public_name_has_a_caller_in_src():
    unreferenced = _unreferenced()
    assert [name for name in unreferenced if name not in ALLOWED] == []


def test_the_allowlist_holds_no_stale_entry():
    # an entry whose name gained a caller, or left src/, is dropped here
    assert sorted(ALLOWED) == [name for name in _unreferenced()
                               if name in ALLOWED]
