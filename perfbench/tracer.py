"""Spans recorded from outside the package, at the calls into each layer.

Every public module-level function of the traced modules is replaced by a
wrapper that appends one span ``[name, start, end, parent, attrs]`` to an
in-memory list.  A name that a module binds with ``from ... import`` at
import time (``energy_checks.apply_hamiltonian``, ``lens.evolve_nls``) is
replaced where it is bound, by the same wrapper, so intra-package calls are
seen too.  The suite runners import their functions lazily, inside the
runner, so they pick the wrappers up as long as ``install`` runs first.

A few layers get attributes from their arguments or results (step counts,
grid sizes, node counts); ``ANNOTATORS`` lists them.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pathlib
import time

TRACED_MODULES = ("cli", "grid", "nbody", "marginals", "nls", "lens",
                  "energy_checks", "collapse")


def _evolve(bound, result):
    system = bound["system"]
    return {"N": system.n_particles, "n": system.grid.n,
            "steps": bound["n_steps"]}


def _evolve_nls(bound, result):
    return {"steps": bound["n_steps"]}


def _trace_norm(bound, result):
    return {"k": bound["marginal"].k}


def _pair_positivity(bound, result):
    return {"n": bound["grid"].n}


def _integral_i(bound, result):
    return {"u_nodes": result["n_u_nodes"]}


def _direct_operator_test(bound, result):
    n_tau = bound.get("n_tau", 257)
    n_tau += 1 - n_tau % 2  # the function rounds even counts up to odd
    return {"tau_samples": n_tau * len(bound["members"])}


ANNOTATORS = {
    "nbody.evolve": _evolve,
    "nls.evolve_nls": _evolve_nls,
    "marginals.trace_norm": _trace_norm,
    "energy_checks.check_pair_positivity": _pair_positivity,
    "collapse.integral_I": _integral_i,
    "collapse.direct_operator_test": _direct_operator_test,
}


class Tracer:
    """Collects spans in memory; ``install`` wraps the package's layers."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        annotate = ANNOTATORS.get(name)
        signature = inspect.signature(fn) if annotate else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[1], record[2] = start, clock()
                stack.pop()
            if annotate is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                record[4] = annotate(bound.arguments, result)
            return result

        return traced

    def install(self, package: str = "boselab"):
        """Wrap every public function of the traced modules where it is bound.

        ``pathlib.Path.write_text`` is wrapped as well, so the summary file
        the runner writes inline is attributed to output writing.
        """
        modules = {name: importlib.import_module(f"{package}.{name}")
                   for name in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self.wrap(f"{short}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        pathlib.Path.write_text = self.wrap("pathlib.write_text",
                                            pathlib.Path.write_text)


def self_times(spans) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out
