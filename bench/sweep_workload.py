"""``build_12cell``: a 12-cell build-only sweep through ``run_sweep``.

``bench/build_12cell.json`` (delay + bandwidth panels x k = 2..7, four
policies) is expanded with a seed derived from ``--seed`` and executed by
:func:`repro.sweep.run_sweep` with ``workers=1`` into a fresh
:class:`~repro.sweep.SweepStore`.  One request is one whole sweep (12
cells), so every request does the same mix of work.  This is the
build-only :class:`~repro.core.deployment_batch.DeploymentBatch` path
and the only workload on the widest-path (max-min) kernels; the sweep's
own transport, store and codec are a tiny share of it, which is the
number ``sweep.transport_s`` exists to show.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
from typing import Dict, List

import numpy as np

from bench import harness, probes
from bench.harness import probe
from repro.core.deployment_batch import DeploymentBatch, DeploymentSpec
from repro.scenario.session import SimulationSession
from repro.sweep import SweepStore, run_sweep
from repro.sweep.template import SweepCell, SweepTemplate
from repro.util.rng import as_generator, spawn_generators

NAME = "build_12cell"
CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "build_12cell.json")
CELLS = 12


def _cells(seed: int, index: int, smoke: bool) -> List[SweepCell]:
    """The corpus expanded under the ``index``-th seed derived from ``seed``."""
    with open(CORPUS) as handle:
        data = json.load(handle)
    data = copy.deepcopy(data)
    data["base"]["seed"] = int(
        np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0]
    )
    if smoke:
        data["base"]["n"] = 16
        data["base"]["br_rounds"] = 2
    return SweepTemplate.from_dict(data).expand()


def _store_digest(store: SweepStore) -> str:
    """sha256 over the stored cell files, in key order."""
    digest = hashlib.sha256()
    for key in store.keys():
        with open(store.path_for(key), "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()


def _deployment_specs(cell: SweepCell) -> List[DeploymentSpec]:
    """The cell's deployments, built the way its registered runner does."""
    session = SimulationSession(cell.spec)
    rng = as_generator(cell.spec.seed)
    provider = session.make_provider(rng)
    specs = []
    for k in cell.spec.k_grid:
        announced = provider.announced_metric()
        truth = provider.true_metric()
        for label, policy in session.policy_map().items():
            specs.append(
                DeploymentSpec(
                    label=label,
                    policy=policy,
                    k=int(k),
                    announced=announced,
                    truth=truth,
                    br_rounds=cell.spec.br_rounds,
                )
            )
        provider.advance(1)
    for spec, stream in zip(specs, spawn_generators(rng, len(specs))):
        spec.rng = stream
    return specs


def _layer_probes(cells: List[SweepCell], store: SweepStore) -> Dict[str, float]:
    """Probes on the first sweep's cells (delay cells first, then bandwidth)."""
    out: Dict[str, float] = {}
    # scenario: one cell through the session facade, no store around it.
    out["scenario.run_cell_p50_s"] = harness.median(
        [harness.timed(SimulationSession(cell.spec).run) for cell in cells]
    )
    # core.deployment_batch + routing, on the widest-k cell of each panel.
    by_metric = {cell.spec.metric: cell for cell in cells}
    builds, scores = [], []
    for metric_name, cell in by_metric.items():
        wirings = []

        def build() -> None:
            wirings[:] = DeploymentBatch(_deployment_specs(cell)).build()

        builds.append(probe(build, calls=3))
        scorer = DeploymentBatch(_deployment_specs(cell))
        scores.append(probe(lambda: scorer.mean_true_costs(wirings), calls=3))
        # The best-response deployment's overlay, announced weights.
        graph = wirings[-1].to_graph()
        sources = list(range(graph.n))
        if metric_name == "bandwidth":
            out.update(probes.widest_layers(graph, sources))
        else:
            out.update(probes.shortest_layers(graph, scorer.specs[-1].announced, sources))
    out["deployment_batch.build_s"] = float(np.sum(builds))
    out["deployment_batch.score_s"] = float(np.sum(scores))
    # sweep: the store around one real cell document.
    key = cells[0].key
    document = store.get(key)
    out["sweep.store_put_us"] = (
        probe(lambda: store.put(key, document["spec"], document["result"])) * 1e6
    )
    out["sweep.store_get_us"] = probe(lambda: store.get(key)) * 1e6
    return out


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> harness.Outcome:
    with harness.Scratch(NAME) as scratch:
        state: Dict[str, object] = {"failed_cells": 0}

        def setup() -> None:
            # Interpreter start and imports, then the sweep's own set-up:
            # expanding the corpus; one tiny cell primes the kernels the
            # way a user's first cell would.
            if not smoke:
                harness.import_in_fresh_interpreter("repro.sweep")
            warm = _cells(seed, 0, smoke=True)[:1]
            run_sweep(warm, SweepStore(scratch.subdir("warm")), workers=1)
            state["cells"] = _cells(seed, 0, smoke)

        setup_s = harness.median_setup_s(setup, smoke)

        def prepare(index: int) -> None:
            if index > 0:
                state["cells"] = _cells(seed, index, smoke)
            state["store"] = SweepStore(scratch.subdir("store"))
            if index == 0:
                state["first"] = (state["cells"], state["store"])

        def request(index: int) -> int:
            report = run_sweep(state["cells"], state["store"], workers=1)
            state["failed_cells"] += len(report.failed)
            return CELLS

        traced = harness.Traced(trace)
        try:
            window = harness.drive(
                request,
                seconds=seconds,
                prefix=1,
                prepare=prepare,
                at_prefix=traced.mark_counters,
            )
            window.failed_ops = state["failed_cells"]
            cells, store = state["first"]
            stored = [store.get(cell.key) for cell in cells]
            checked = len(cells)
            failed = sum(1 for doc in stored if not doc or "result" not in doc)
            layers: Dict[str, float] = {}
            if trace:
                self_s = traced.self_seconds()
                layers.update(harness.count_layers(traced.counters(), {}, 0))
                layers["sweep.transport_s"] = self_s.get("sweep.run", 0.0) / max(
                    1, window.requests_run
                )
                layers["sweep.cell_p50_s"] = harness.median(
                    traced.span_durations("sweep.cell")
                )
                layers["sweep.store_bytes"] = float(harness.tree_bytes(store.root))
                traced.close()  # probes run untraced
                layers.update(_layer_probes(cells, store))
        finally:
            traced.close()
        return harness.Outcome(
            window=window,
            setup_s=setup_s,
            checked=checked,
            failed_checks=failed,
            digest=_store_digest(store),
            layers=layers,
        )
