"""Spans around the public functions of every fullerwalk module.

install() wraps each public function from outside the program: it swaps
the wrapper into every fullerwalk module namespace that holds the
function, so calls by name between modules are traced too. Nothing under
src/ changes. A span is (name, start, end, parent index); spans stay in
memory and are written with the worker's result when the run ends.

layer_metrics() turns spans into self times: a span's duration minus the
time its direct children cover. The layers are the modules.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("graphs", "spectral", "dynamics", "equilibration", "thermo", "eth", "cli")

# per-layer metric -> the functions whose self times it sums
SELF_TIME_GROUPS = {
    "equilibration.lhs_s": ["equilibration.empirical_lhs"],
    "equilibration.report_self_s": ["equilibration.equilibration_report"],
    "equilibration.effective_dimension_s": ["equilibration.effective_dimension"],
    "dynamics.limiting_s": ["dynamics.limiting_distribution"],
    "dynamics.time_average_s": ["dynamics.cumulative_time_average"],
    "spectral.eigendecompose_s": ["spectral.eigendecompose", "spectral.cluster_eigenvalues"],
    "spectral.projectors_s": ["spectral.eigenspace_projectors"],
    "spectral.gap_count_s": ["spectral.gap_count"],
    "spectral.symmetry_basis_s": ["spectral.symmetry_adapted_c60_basis"],
    "graphs.build_s": [
        "graphs.build_tube_fullerene",
        "graphs.build_c60_blocked",
        "graphs.graph_from_edges",
        "graphs.validate_fullerene",
        "graphs.is_connected",
        "graphs.degrees",
    ],
    "graphs.io_s": ["graphs.save_graph", "graphs.load_graph"],
    "graphs.adjacency_s": ["graphs.adjacency"],
    "eth.basis_s": [
        "eth.observable_in_energy_basis",
        "eth.eth_report",
        "eth.cluster_averaged_diagonal",
    ],
    "eth.entropies_s": ["eth.node_entropies", "eth.measurement_entropy"],
    "eth.haar_s": ["eth.haar_entropy_baseline", "eth.haar_orthogonal_state"],
    "eth.node_stats_s": ["eth.projector_eth_stats"],
    "thermo.family_s": ["thermo.gibbs_vs_limiting"],
    "thermo.gibbs_s": [
        "thermo.pentagon_gibbs",
        "thermo.gibbs_node_probability",
        "thermo.gibbs_partition_function",
    ],
}

CALL_COUNTS = {
    "equilibration.lhs_calls": ["equilibration.empirical_lhs"],
    "spectral.eigendecompose_calls": ["spectral.eigendecompose"],
}


def _count_clusters(counts, spectrum):
    counts["spectral.clusters"] += len(spectrum.clusters)
    counts["spectral.degenerate_clusters"] += sum(len(c) > 1 for c in spectrum.clusters)


def _count_pairs(counts, report):
    counts["equilibration.pairs"] += report.n_lambda * (report.n_lambda - 1)


# counts read off a function's return value
RESULT_COUNTS = {
    "spectral.eigendecompose": _count_clusters,
    "spectral.symmetry_adapted_c60_basis": _count_clusters,
    "equilibration.equilibration_report": _count_pairs,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.spans = []
        self.counts = {
            "spectral.clusters": 0,
            "spectral.degenerate_clusters": 0,
            "equilibration.pairs": 0,
        }
        self._stack = []

    def wrap(self, name, fn):
        counter = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counter is not None:
                counter(self.counts, result)
            return result

        return traced

    def install(self):
        """Replace every public fullerwalk function with a traced wrapper."""
        modules = [importlib.import_module("fullerwalk")]
        modules += [importlib.import_module(f"fullerwalk.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules[1:]):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            setattr(holder, key, traced)
        return self


def self_times(spans):
    """Per-function totals: {name: [self seconds, calls]} plus the summed self time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = {}
    for (name, start, end, _), covered in zip(spans, child_time):
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += (end - start) - covered
        entry[1] += 1
    return totals


def layer_metrics(spans, counts) -> dict:
    """Self times per layer and per function group, call counts and result counts."""
    totals = self_times(spans)
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v[0] for k, v in totals.items() if k.startswith(layer + "."))
    for metric, names in SELF_TIME_GROUPS.items():
        out[metric] = sum(totals.get(n, (0.0, 0))[0] for n in names)
    for metric, names in CALL_COUNTS.items():
        out[metric] = sum(totals.get(n, (0.0, 0))[1] for n in names)
    out["graphs.calls"] = sum(v[1] for k, v in totals.items() if k.startswith("graphs."))
    out.update(counts)
    return out
