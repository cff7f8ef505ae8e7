"""Per-layer metrics derived from the spans of one traced round.

Each entry of ``METRICS`` is ``(name, unit, function)``; the function gets a
``Spans`` view of the round and returns the value.  A layer that the
workload never calls reads 0.  Times per step are self times (the step
loop without the energy and symmetry diagnostics it calls); other times
are inclusive.  Sizes marked as computed come from array shapes, not from
the allocator.
"""

from __future__ import annotations

from tracer import self_times


class Spans:
    """The spans of every suite of a round, with self times and suite tags."""

    def __init__(self, per_suite: dict):
        self.rows = []
        for suite, spans in per_suite.items():
            for span, own in zip(spans, self_times(spans)):
                name, start, end, parent, attrs = span
                parent_name = spans[parent][0] if parent >= 0 else None
                self.rows.append((suite, name, end - start, own, attrs or {},
                                  parent_name))

    def select(self, name, suite=None, **attrs):
        return [r for r in self.rows
                if r[1] == name and (suite is None or r[0] == suite)
                and all(r[4].get(k) == v for k, v in attrs.items())]

    def total(self, name) -> float:
        return sum(r[2] for r in self.select(name))

    def calls(self, name) -> int:
        return len(self.select(name))

    def per_call(self, name, scale=1.0, **attrs) -> float:
        rows = self.select(name, **attrs)
        return scale * sum(r[2] for r in rows) / len(rows) if rows else 0.0

    def attr_sum(self, name, key) -> float:
        return sum(r[4][key] for r in self.select(name))

    def per_step(self, name, scale, suite=None, **attrs) -> float:
        rows = self.select(name, suite, **attrs)
        steps = sum(r[4]["steps"] for r in rows)
        return scale * sum(r[3] for r in rows) / steps if steps else 0.0


def _write_outputs(s: Spans) -> float:
    """CSV writes plus the summary file the runner writes inline."""
    inline = sum(r[2] for r in s.rows
                 if r[1] == "pathlib.write_text" and r[5] != "cli.write_csv")
    return s.total("cli.write_csv") + inline


def _state_mb(s: Spans) -> float:
    sizes = [r[4]["n"] ** r[4]["N"] * 16 / 1e6
             for r in s.select("nbody.evolve")]
    return max(sizes, default=0.0)


def _pair_matrix_mb(s: Spans) -> float:
    sides = [r[4]["n"] ** 2 for r in s.select(
        "energy_checks.check_pair_positivity")]
    return max((side * side * 8 / 1e6 for side in sides), default=0.0)


def _us_per_u_node(s: Spans) -> float:
    nodes = s.attr_sum("collapse.integral_I", "u_nodes")
    return 1e6 * s.total("collapse.integral_I") / nodes if nodes else 0.0


METRICS = [
    ("cli.validate_config.s", "s", lambda s: s.total("cli.validate_config")),
    ("cli.write_outputs.s", "s", _write_outputs),
    ("grid.random_state.ms_per_call", "ms",
     lambda s: s.per_call("grid.random_state", 1e3)),
    ("nbody.evolve.ms_per_step.N2", "ms",
     lambda s: s.per_step("nbody.evolve", 1e3, "convergence", N=2)),
    ("nbody.evolve.ms_per_step.N3", "ms",
     lambda s: s.per_step("nbody.evolve", 1e3, "convergence", N=3)),
    ("nbody.evolve.ms_per_step.N4", "ms",
     lambda s: s.per_step("nbody.evolve", 1e3, "convergence", N=4)),
    ("nbody.evolve.ms_per_step.bbgky", "ms",
     lambda s: s.per_step("nbody.evolve", 1e3, "bbgky_residual")),
    ("nbody.evolve.steps", "count",
     lambda s: s.attr_sum("nbody.evolve", "steps")),
    ("nbody.evolve.state_mb", "MB", _state_mb),
    ("nbody.energy_expectation.s", "s",
     lambda s: s.total("nbody.energy_expectation")),
    ("nbody.bbgky_residual.s", "s", lambda s: s.total("nbody.bbgky_residual")),
    ("marginals.partial_trace.s", "s",
     lambda s: s.total("marginals.partial_trace")),
    ("marginals.trace_norm.ms_per_call.k1", "ms",
     lambda s: s.per_call("marginals.trace_norm", 1e3, k=1)),
    ("marginals.trace_norm.ms_per_call.k2", "ms",
     lambda s: s.per_call("marginals.trace_norm", 1e3, k=2)),
    ("marginals.trace_norm.calls", "count",
     lambda s: s.calls("marginals.trace_norm")),
    ("nls.evolve_nls.us_per_step", "us",
     lambda s: s.per_step("nls.evolve_nls", 1e6)),
    ("nls.trap_ground_state.s", "s", lambda s: s.total("nls.trap_ground_state")),
    ("lens.lens_function.s", "s", lambda s: s.total("lens.lens_function")),
    ("lens.lens_kernel.s", "s",
     lambda s: s.total("lens.lens_kernel") + s.total("lens.lens_kernel_inverse")),
    ("lens.intertwine_linear_check.s", "s",
     lambda s: s.total("lens.intertwine_linear_check")),
    ("energy_checks.check_pair_positivity.s_per_call", "s",
     lambda s: s.per_call("energy_checks.check_pair_positivity")),
    ("energy_checks.check_pair_positivity.matrix_mb", "MB", _pair_matrix_mb),
    ("energy_checks.check_energy_estimate.ms_per_call", "ms",
     lambda s: s.per_call("energy_checks.check_energy_estimate", 1e3)),
    ("energy_checks.check_energy_estimate.calls", "count",
     lambda s: s.calls("energy_checks.check_energy_estimate")),
    ("energy_checks.check_decomposition_identity.s", "s",
     lambda s: s.total("energy_checks.check_decomposition_identity")),
    ("energy_checks.check_K_inequality.s", "s",
     lambda s: s.total("energy_checks.check_K_inequality")),
    ("energy_checks.check_sobolev_operator_bound.s", "s",
     lambda s: s.total("energy_checks.check_sobolev_operator_bound")),
    ("collapse.make_probe.s", "s", lambda s: s.total("collapse.make_probe")),
    ("collapse.integral_I.s_per_call", "s",
     lambda s: s.per_call("collapse.integral_I")),
    ("collapse.integral_I.calls", "count",
     lambda s: s.calls("collapse.integral_I")),
    ("collapse.integral_I.u_nodes", "count",
     lambda s: s.attr_sum("collapse.integral_I", "u_nodes")),
    ("collapse.integral_I.us_per_u_node", "us", _us_per_u_node),
    ("collapse.kernel_H.self_s", "s",
     lambda s: sum(r[3] for r in s.select("collapse.kernel_H"))),
    ("collapse.kernel_H.calls", "count", lambda s: s.calls("collapse.kernel_H")),
    ("collapse.direct_operator_test.s", "s",
     lambda s: s.total("collapse.direct_operator_test")),
    ("collapse.direct_operator_test.tau_samples", "count",
     lambda s: s.attr_sum("collapse.direct_operator_test", "tau_samples")),
    ("collapse.optimality_scan.s", "s",
     lambda s: s.total("collapse.optimality_scan")),
    ("collapse.lemma_F.s", "s", lambda s: s.total("collapse.lemma_F")),
]

OVERHEAD = ("trace.overhead_s", "s")


def layer_metrics(per_suite: dict) -> dict:
    spans = Spans(per_suite)
    return {name: {"value": float(fn(spans)), "unit": unit}
            for name, unit, fn in METRICS}
