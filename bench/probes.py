"""Per-layer probes: direct timed calls into one layer's public functions.

Every probe runs on state captured from the workload (its final overlay,
its epoch records, its exact request lines), off the clock, with
telemetry disabled, and reports the median of up to 200 calls (see
:func:`bench.harness.probe`).  A probe answers "what does one call into
this layer cost on this workload's data", which is what a later change
to that layer should move.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Sequence

import numpy as np

from bench.harness import probe
from repro.core.codec import (
    epoch_record_from_json,
    epoch_record_to_json,
    history_digest,
)
from repro.core.policies import BestResponsePolicy
from repro.core.route_cache import ResidualRouteCache
from repro.routing.shortest_path import (
    repair_shortest_rows,
    shortest_path_costs_multi,
)
from repro.routing.widest_path import widest_path_bandwidths_multi

#: Nodes sampled by the best-response probe.
BR_SAMPLE = 32


def _rewired_adjacency(graph, metric, node: int, sources: Sequence[int]) -> np.ndarray:
    """Dense announced weights of ``graph`` after ``node`` swaps one link."""
    dense = graph.to_adjacency_matrix(absent=np.nan)
    current = sorted(graph.successors(node))
    spare = [v for v in sources if v != node and v not in current]
    if current and spare:
        dense[node, current[0]] = np.nan
        dense[node, spare[0]] = metric.link_weight(node, spare[0])
    return dense


def shortest_layers(graph, metric, sources: Sequence[int]) -> Dict[str, float]:
    """``routing`` (additive kernels) and ``core.route_cache`` probes."""
    sources = list(sources)
    rows = max(1, len(sources))
    out = {
        "routing.shortest_multi_us_per_row": probe(
            lambda: shortest_path_costs_multi(graph, sources)
        )
        / rows
        * 1e6
    }
    # One node re-wires: the stale all-sources rows are repaired in place.
    changed = sources[0]
    stale = shortest_path_costs_multi(graph, sources, disconnection_cost=float("inf"))
    dense = _rewired_adjacency(graph, metric, changed, sources)
    index = np.asarray(sources, dtype=int)
    out["routing.repair_shortest_us_per_row"] = (
        probe(lambda: repair_shortest_rows(stale, index, {changed}, dense)) / rows * 1e6
    )
    # The same delta through the cache: a hit, and a repair of a stale entry.
    owner = sources[-1]
    hops = tuple(v for v in sources if v != owner)
    residual = graph.without_node_out_edges(owner)
    matrix = shortest_path_costs_multi(
        residual, list(hops), disconnection_cost=float("inf")
    )
    cache = ResidualRouteCache(max_entries=4)
    cache.set_token("fresh")
    cache.put(owner, hops, matrix)
    out["route_cache.get_hit_us"] = probe(lambda: cache.get(owner, hops)) * 1e6
    dense_residual = dense.copy()
    dense_residual[owner, :] = np.nan
    out["route_cache.repair_us"] = (
        probe(
            lambda: cache.repair(owner, {changed}, dense_residual, maximize=False),
            before=lambda: cache.put(owner, hops, matrix, token="stale"),
        )
        * 1e6
    )
    return out


def widest_layers(graph, sources: Sequence[int]) -> Dict[str, float]:
    """``routing`` (max-min kernels) probe."""
    sources = list(sources)
    return {
        "routing.widest_multi_us_per_row": probe(
            lambda: widest_path_bandwidths_multi(graph, sources)
        )
        / max(1, len(sources))
        * 1e6
    }


def best_response_layers(engine) -> Dict[str, float]:
    """``core.best_response``: one full BR computation per sampled node."""
    view = engine.last_epoch_view
    active = list(view.active_list)
    policy = BestResponsePolicy()
    nodes = active[:: max(1, len(active) // BR_SAMPLE)][:BR_SAMPLE]
    samples: List[float] = []
    for node in nodes:
        others = [c for c in active if c != node]
        residual = engine.wiring.residual_graph(node, active)
        samples.append(
            probe(
                lambda: policy.compute(
                    node,
                    engine.k,
                    view.announced,
                    residual,
                    candidates=others,
                    destinations=others,
                    rng=0,
                ),
                calls=3,
            )
        )
    return {"best_response.compute_ms": float(np.median(samples)) * 1e3}


def codec_layers(records: Sequence) -> Dict[str, float]:
    """``core.codec``: epoch-record JSON round trip and the history digest."""
    if not records:
        return {}
    record = records[-1]
    encoded = epoch_record_to_json(record)
    return {
        "codec.record_encode_us": probe(lambda: epoch_record_to_json(record)) * 1e6,
        "codec.record_decode_us": probe(lambda: epoch_record_from_json(encoded)) * 1e6,
        "codec.digest_us_per_record": probe(lambda: history_digest(records))
        / len(records)
        * 1e6,
    }


def engine_layers(batch, records: Sequence) -> Dict[str, float]:
    """Probes on an engine batch's final state (first deployment)."""
    engine = batch.engines[0]
    view = engine.last_epoch_view
    graph = engine.wiring.to_graph(active=view.active_list)
    out = shortest_layers(graph, view.announced, view.active_list)
    out.update(best_response_layers(engine))
    out.update(codec_layers(records))
    return out


def protocol_layers(
    request_line: bytes, answer: Dict[str, object], lookups: int
) -> Dict[str, float]:
    """``serve.protocol``: parse and encode of the workload's own frames.

    ``answer`` is the service's result for ``request_line``; the server
    wraps it in a response envelope and encodes that.
    """
    from repro.serve.protocol import encode, parse_request, response

    encoded = encode(response(7, **answer))
    per = 1.0 / max(1, lookups)
    return {
        "protocol.parse_us_per_lookup": probe(lambda: parse_request(request_line))
        * per
        * 1e6,
        "protocol.encode_us_per_lookup": probe(lambda: encode(response(7, **answer)))
        * per
        * 1e6,
        "protocol.request_bytes_per_lookup": len(request_line) * per,
        "protocol.response_bytes_per_lookup": len(encoded) * per,
    }


def request_line(op: str, request_id: int, **fields: object) -> bytes:
    """The exact bytes :class:`repro.serve.client.ServeClient` sends."""
    message = {"op": op, "id": request_id, **fields}
    return (json.dumps(message, separators=(",", ":")) + "\n").encode()


def durability_layers(session, spec: Dict[str, object], scratch: str) -> Dict[str, float]:
    """``serve.oplog`` / ``serve.checkpoint``: fsynced append, write, load."""
    from repro.serve.checkpoint import CheckpointManager
    from repro.serve.oplog import LogWriter

    writer = LogWriter(os.path.join(scratch, "probe-log.jsonl"))
    entry = {
        "kind": "mutate",
        "applied_epoch": 3,
        "mutation": {"kind": "leave", "nodes": [5]},
        "idem": "probe-0123456789abcdef",
    }
    try:
        append_s = probe(lambda: writer.append(entry))
    finally:
        writer.close()
    manager = CheckpointManager(os.path.join(scratch, "probe-ckpt"))

    def write() -> str:
        return manager.write(
            session,
            spec=spec,
            batched=True,
            epochs_completed=session.epochs_completed,
            segment=1,
        )

    write_s = probe(write, calls=20)
    name = write()
    return {
        "oplog.append_fsync_us": append_s * 1e6,
        "checkpoint.write_ms": write_s * 1e3,
        "checkpoint.load_ms": probe(lambda: manager.load(name), calls=20) * 1e3,
    }
