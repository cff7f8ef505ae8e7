"""Every public name of src/boselab has a caller in src/boselab, and
every defaulted parameter is set by one.

The package keeps in src/ only what a runner reaches; a function, class
or method that only tests call belongs next to the tests (reference
computations go to tests/oracles.py).  The walk below collects each
module's public module-level functions and classes, and the public
methods and properties of those classes, with ast, and fails for a name
that no src/ module references anywhere but at its own definition.  The
exceptions are listed in ALLOWED.

A reference is matched by its bare name.  Attribute reads rooted at a
module bound by ``import`` (np.trace, np.linalg.eigh, math.comb) name
that module's functions, not the package's, so they do not count; a
package module imported with ``from . import`` (_grid.sector_tables)
does.  A name that src/ also reads on another object is still invisible
to the walk: a method called copy counts as called wherever an array's
.copy() is.

The parameter guard applies the same rule to options: a defaulted
parameter of a module-level function or of a method of a module-level
class (nested closures are left out) must be set, by position or by
keyword, at some src/ call of its function's bare name; otherwise only
tests set it, and it belongs in the tests.  The default of a dataclass
field is a defaulted parameter of the class's generated constructor,
called by the class's name.  A call that unpacks *args
or **kwargs sets every parameter it could reach.  The exceptions are
listed in ALLOWED_PARAMETERS.

The field guard applies the rule to data: a public annotated field of a
public src/ class must be read as an attribute (x.field, in load
context, not rooted at an imported module) somewhere in src/; a field
that only tests read is test data.  The exceptions are listed in
ALLOWED_FIELDS.
"""

import ast
import math
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "boselab"

# names that no src/ module calls, grouped by the reason each stays
ALLOWED = {
    # entry points of library callers: the potential constructors
    "potentials.gaussian_well",
    "potentials.mixed_sign",
    # paper statements that no runner checks yet (the lens energy)
    "potentials.lens_damped_potential",
    "lens.intertwine_energy_check",
}

# defaulted parameters that no src/ call sets, grouped by the reason
# each stays
ALLOWED_PARAMETERS = {
    # the console entry point reads sys.argv when argv is None
    "cli.main.argv",
    # entry points of library callers: the potential constructors
    "potentials.gaussian_well.a",
    "potentials.gaussian_well.s",
    "potentials.gaussian_well.beta",
    "potentials.mixed_sign.a",
    "potentials.mixed_sign.s",
    "potentials.mixed_sign.r",
    "potentials.mixed_sign.beta",
    # a paper statement that no runner checks yet: the lens energy's
    # moment order
    "lens.intertwine_energy_check.k",
}

# public fields that no src/ code reads, grouped by the reason each stays
ALLOWED_FIELDS = {
    # the only record of the norm over the steps evolve does not store;
    # criterion 06 reads it, and a run report is to show it
    "nbody.Trajectory.norm_drift",
}


def _modules(tree):
    """The names that ``import x`` and ``import x as y`` bind in a module."""
    return {alias.asname or alias.name.split(".")[0]
            for sub in ast.walk(tree) if isinstance(sub, ast.Import)
            for alias in sub.names}


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node


def _names(node, modules):
    """The names a node reads: bare names, attributes not rooted at one
    of the imported modules, and imports."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            root = _root(sub)
            if not (isinstance(root, ast.Name) and root.id in modules):
                yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def _public(nodes, kinds):
    return [node for node in nodes
            if isinstance(node, kinds) and not node.name.startswith("_")]


def _definitions(tree):
    """(qualified name, node) of each public module-level function or
    class, and of each public method or property of such a class."""
    for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in _public(node.body, ast.FunctionDef):
                yield f"{node.name}.{method.name}", method


def _parse():
    """The ast of each src/ module, and the modules each imports."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    return trees, {stem: _modules(tree) for stem, tree in trees.items()}


def _unreferenced():
    """module.name of every public definition that no src/ module reads
    outside the definition itself."""
    trees, modules = _parse()
    counts = Counter(name for stem, tree in trees.items()
                     for name in _names(tree, modules[stem]))
    return sorted(
        f"{module}.{name}" for module, tree in trees.items()
        for name, node in _definitions(tree)
        if counts[node.name]
        == Counter(_names(node, modules[module]))[node.name])


def _functions(tree):
    """(qualified name, call name, defaulted parameters) of each
    module-level function, of each method of a module-level class, and
    of the generated constructor of each module-level dataclass; a
    constructor is called by its class's name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, _defaulted(node, False)
        elif isinstance(node, ast.ClassDef):
            if any(_bare_name(d) == "dataclass"
                   for d in node.decorator_list):
                yield node.name, node.name, _field_defaults(node)
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    static = any(_bare_name(d) == "staticmethod"
                                 for d in method.decorator_list)
                    call = (node.name if method.name == "__init__"
                            else method.name)
                    yield (f"{node.name}.{method.name}", call,
                           _defaulted(method, not static))


def _bare_name(node):
    """The bare name of a name or of a call of one: dataclass for both
    @dataclass and @dataclass(frozen=True), field for field(...)."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.id if isinstance(node, ast.Name) else None


def _field_defaults(node):
    """(position, name) of each dataclass field with a default, the
    position counted among the constructor's fields; a field(...) sets
    a default only with default= or default_factory=, and init=False
    leaves the field out of the constructor."""
    position = 0
    for stmt in node.body:
        if not (isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)):
            continue
        value = stmt.value
        if isinstance(value, ast.Call) and _bare_name(value) == "field":
            keywords = {k.arg: k.value for k in value.keywords}
            init = keywords.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            if not {"default", "default_factory"} & keywords.keys():
                value = None
        if value is not None:
            yield position, stmt.target.id
        position += 1


def _defaulted(node, is_method):
    """(position or None, name) of each defaulted parameter; a
    keyword-only parameter has no position."""
    args = node.args
    positional = args.posonlyargs + args.args
    if is_method:
        positional = positional[1:]
    first = len(positional) - len(args.defaults)
    for i, arg in enumerate(positional):
        if i >= first:
            yield i, arg.arg
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _call_name(call, modules):
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        root = _root(func)
        if not (isinstance(root, ast.Name) and root.id in modules):
            return func.attr
    return None


def _calls(trees, modules):
    """Per bare call name: the largest positional count (inf once a call
    unpacks *args) and the keywords set (None once a call unpacks
    **kwargs)."""
    positions, keywords = Counter(), {}
    for stem, tree in trees.items():
        for sub in ast.walk(tree):
            if not isinstance(sub, ast.Call):
                continue
            name = _call_name(sub, modules[stem])
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in sub.args)
            positions[name] = max(positions[name],
                                  math.inf if starred else len(sub.args))
            kw = keywords.setdefault(name, set())
            if kw is not None:
                if any(k.arg is None for k in sub.keywords):
                    keywords[name] = None
                else:
                    kw.update(k.arg for k in sub.keywords)
    return positions, keywords


def _unset_parameters():
    """module.function.parameter of every defaulted parameter that no
    src/ call sets."""
    trees, modules = _parse()
    positions, keywords = _calls(trees, modules)
    unset = []
    for module, tree in trees.items():
        for qualified, call, defaulted in _functions(tree):
            kw = keywords.get(call, set())
            for position, name in defaulted:
                by_position = (position is not None
                               and positions[call] > position)
                if not (by_position or kw is None or name in kw):
                    unset.append(f"{module}.{qualified}.{name}")
    return sorted(unset)


def _unread_fields():
    """module.Class.field of every public annotated field of a public
    class that no src/ module reads as an attribute."""
    trees, modules = _parse()
    reads = Counter(
        sub.attr for stem, tree in trees.items() for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
        and not (isinstance(_root(sub), ast.Name)
                 and _root(sub).id in modules[stem]))
    return sorted(
        f"{module}.{node.name}.{stmt.target.id}"
        for module, tree in trees.items()
        for node in _public(tree.body, ast.ClassDef)
        for stmt in node.body
        if isinstance(stmt, ast.AnnAssign)
        and isinstance(stmt.target, ast.Name)
        and not stmt.target.id.startswith("_")
        and not reads[stmt.target.id])


def test_every_public_name_has_a_caller_in_src():
    unreferenced = _unreferenced()
    assert [name for name in unreferenced if name not in ALLOWED] == []


def test_the_allowlist_holds_no_stale_entry():
    # an entry whose name gained a caller, or left src/, is dropped here
    assert sorted(ALLOWED) == [name for name in _unreferenced()
                               if name in ALLOWED]


def test_every_defaulted_parameter_is_set_in_src():
    unset = _unset_parameters()
    assert [name for name in unset if name not in ALLOWED_PARAMETERS] == []
    # an entry whose parameter gained a setter, or left src/, is dropped
    assert sorted(ALLOWED_PARAMETERS) == [name for name in unset
                                          if name in ALLOWED_PARAMETERS]


def test_module_attributes_are_not_references():
    # np.trace names numpy's function, and _grid.trace the package's
    tree = ast.parse("import numpy as np\nimport os.path\n"
                     "from . import grid as _grid\n"
                     "np.trace(a)\nnp.linalg.trace(a)\nos.path.join(b)\n"
                     "_grid.trace(a)\nstate.copy()\n")
    names = Counter(_names(tree, _modules(tree)))
    assert _modules(tree) == {"np", "os"}
    assert names["trace"] == 1 and names["copy"] == 1
    assert names["linalg"] == names["join"] == 0


def test_dataclass_fields_are_constructor_parameters():
    # a field's default is a parameter default of the generated
    # constructor, at the field's place among the constructor's fields
    tree = ast.parse("@dataclass(frozen=True)\nclass A:\n"
                     "    x: int\n    y: int = 0\n"
                     "    z: list = field(default_factory=list)\n"
                     "    w: int = field(init=False, default=1)\n"
                     "    v: int = field(repr=False)\n    u: str = 'u'\n")
    [(qualified, call, defaulted)] = _functions(tree)
    assert (qualified, call) == ("A", "A")
    assert list(defaulted) == [(1, "y"), (2, "z"), (4, "u")]


def test_every_public_field_is_read_in_src():
    unread = _unread_fields()
    assert [name for name in unread if name not in ALLOWED_FIELDS] == []
    # an entry whose field gained a reader, or left src/, is dropped
    assert sorted(ALLOWED_FIELDS) == [name for name in unread
                                      if name in ALLOWED_FIELDS]
