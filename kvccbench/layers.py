"""Which public function of which layer each span wraps.

Span names are the per-layer metric names without their suffix
(``flow`` gives ``flow.busy_ms``); see ``README.md`` for the map from
each per-layer metric to the end-to-end metric it should move.
"""

from __future__ import annotations

from typing import Dict, Tuple

from tracing import Tracer

#: Layers every workload's operation runs (each ``op_ms`` operation
#: enumerates k-VCCs), so each gives a per-layer metric on every
#: workload: ``<name>.busy_ms``, self time per operation.
BUSY = ("core.engine", "core.global_cut", "core.side_vertex",
        "core.partition", "certificate", "flow", "flow.network")


def per_op_metrics(ctx, totals: Dict[str, Tuple[int, int, int]],
                   ops: float, overhead: float) -> None:
    """The per-layer metrics from span totals summed over ``ops``
    operations (:meth:`Tracer.totals` form: calls, duration, self ns)."""

    def field(name: str, i: int) -> float:
        return totals.get(name, (0, 0, 0))[i]

    for name in BUSY:
        ctx.metric(f"{name}.busy_ms", field(name, 2) / 1e6 / ops)
    ctx.metric("core.global_cut.calls", field("core.global_cut", 0) / ops)
    ctx.metric("flow.tests", field("flow", 0) / ops)
    ctx.metric("flow.cut_found_frac",
               field("flow.cut", 0) / max(1, field("flow", 0)))
    ctx.metric("trace.overhead_frac", overhead)


def _cut_found(args, kwargs, result):
    return "cut" if result is not None else "no_cut"


def _measure(args, kwargs, result):
    return kwargs.get("measure", args[1] if len(args) > 1 else None)


def install_offline(tracer: Tracer) -> None:
    """Enumeration, certificate, flow, hierarchy, data and index layers."""
    from repro.certificate.sparse_certificate import sparse_certificate
    from repro.core.engine import SerialEngine
    from repro.core.global_cut import global_cut
    from repro.core.hierarchy import build_hierarchy_csr
    from repro.core.partition import overlap_partition
    from repro.core.side_vertex import strong_side_vertices
    from repro.data.format import save_csr
    from repro.data.ingest import read_edge_list_csr
    from repro.data.resolver import Dataset
    from repro.flow.flow_network import build_flow_network
    from repro.flow.min_cut import local_vertex_cut
    from repro.graph.csr import CSRGraph
    from repro.index.cohesion import build_measure_hierarchy
    from repro.index.store import HierarchyIndex

    tracer.patch_method(SerialEngine, "run_many", "core.engine")
    tracer.patch_function(global_cut, "core.global_cut")
    tracer.patch_function(strong_side_vertices, "core.side_vertex")
    tracer.patch_function(overlap_partition, "core.partition")
    tracer.patch_function(sparse_certificate, "certificate")
    tracer.patch_function(local_vertex_cut, "flow", _cut_found)
    tracer.patch_function(build_flow_network, "flow.network")
    tracer.patch_function(build_hierarchy_csr, "core.hierarchy")
    tracer.patch_function(read_edge_list_csr, "data.ingest")
    tracer.patch_method(Dataset, "fingerprint", "data.resolver.fingerprint")
    tracer.patch_function(save_csr, "data.format.save")
    tracer.patch_method(CSRGraph, "load", "data.format.load")
    tracer.patch_method(HierarchyIndex, "from_hierarchy", "index.store.flatten")
    tracer.patch_method(HierarchyIndex, "save_atomic", "index.store.save")
    tracer.patch_function(build_measure_hierarchy, "index.cohesion", _measure)


#: HierarchyQueryService methods the read endpoints reach.
QUERY_METHODS = (
    "vcc_number", "vcc_numbers", "components_of", "same_kvcc",
    "same_kvcc_many", "max_shared_level", "max_shared_levels",
    "top_communities", "critical_vertices",
)


def install_serve(tracer: Tracer) -> None:
    """Transport, handlers, schema, render, registry, query and delta."""
    from repro.index.delta import IndexUpdater, load_effective_index
    from repro.index.query import HierarchyQueryService
    from repro.service import handlers, schema
    from repro.service.registry import IndexRegistry
    from repro.service.server import ServiceRequestHandler

    for method in ("do_GET", "do_POST"):
        traced = tracer.wrap(
            ServiceRequestHandler.__dict__[method], "service.transport"
        )
        setattr(ServiceRequestHandler, method, _with_request_id(
            tracer, traced))
    tracer.patch_function(handlers.handle_request, "service.handlers")
    tracer.patch_function(handlers.handle_mutation, "service.mutation")
    tracer.patch_function(schema.validate, "service.schema")
    tracer.patch_function(handlers.render_json, "service.render")
    tracer.patch_method(IndexRegistry, "get", "service.registry")
    for method in QUERY_METHODS:
        tracer.patch_method(
            HierarchyQueryService, method, "index.query",
            lambda a, k, r, m=method: m,
        )
    tracer.patch_method(IndexUpdater, "apply", "index.delta.apply")
    tracer.patch_function(load_effective_index, "index.delta.reload")


def _with_request_id(tracer: Tracer, traced):
    """Tag the handler thread with the client's ``X-Request-Id`` first,
    so every span of one request carries the id the client sent."""

    def handler(self):
        tracer.set_request(self.headers.get("X-Request-Id"))
        try:
            return traced(self)
        finally:
            tracer.set_request(None)

    return handler
