"""The core EGOIST library: selfish neighbour selection for overlay routing.

This subpackage implements the paper's primary contribution:

* wirings and cost functions of the SNS game (:mod:`repro.core.wiring`,
  :mod:`repro.core.cost`),
* Best-Response neighbour selection, exact and local-search, with the
  BR(ε) re-wiring threshold (:mod:`repro.core.best_response`),
* the comparison policies k-Random, k-Closest, k-Regular and the full-mesh
  bound (:mod:`repro.core.policies`),
* HybridBR and its donated-cycle connectivity backbone
  (:mod:`repro.core.hybrid`, :mod:`repro.core.backbone`),
* scalability via random and topology-biased sampling
  (:mod:`repro.core.sampling`),
* free riders and audits (:mod:`repro.core.cheating`),
* the epoch-driven overlay engine, per-node behaviour, bootstrap service,
  metric providers, and overhead accounting
  (:mod:`repro.core.engine`, :mod:`repro.core.node`,
  :mod:`repro.core.bootstrap`, :mod:`repro.core.providers`,
  :mod:`repro.core.overhead`).

Performance
-----------
The best-response hot path scores candidate wirings as broadcast
reductions over a precomputed ``(hops x destinations)`` route-value
matrix: exhaustive enumeration batches whole blocks of k-subsets
(:meth:`WiringEvaluator.evaluate_batch`), and each local-search pass
scores all ``k * (m - k)`` single-swap neighbours in one kernel call
(:meth:`WiringEvaluator.swap_costs`, a leave-one-out top-2 reduction).
The kernels use the same exact elementwise reductions as scoring one
wiring at a time (min/max, multiply then pairwise sum), so objective
values are bitwise identical and ties break identically; the interpreted
loops they replaced live on only as the test oracle
``tests/reference/scalar_best_response.py``.

On top of the kernels, :class:`EgoistEngine` shares the expensive
multi-source residual route-value sweeps through a
:class:`ResidualRouteCache`: within one re-wiring opportunity the node's
current-cost evaluation and its best-response computation reuse a single
sweep, and across quiescent epochs (no re-wiring anywhere, announced
metric and membership unchanged) each node's matrices are reused
verbatim, so a converged deployment with a static substrate performs no
routing sweeps at all during the re-wiring loop.

One level higher, :class:`DeploymentBatch`
(:mod:`repro.core.deployment_batch`, build-only k-sweeps) and
:class:`EngineBatch` (:mod:`repro.core.engine_batch`, epoch-driven
engines) advance many *independent* deployments in lockstep.  What they
share is described once, in :mod:`repro.core.lockstep`: the fused
best-response kernel that scores a whole group of re-wiring
opportunities in broadcasts (the unreachable clamp and the preference
weights folded into its via tensor once, not per pass), the stacked
route-value sweeps, and the bandwidth residual fill.  Each batch adds
only its planner and its adoption rule, and each is bit-identical to
running its deployments one by one (``batched=False``), gated by
``benchmarks/test_bench_deployment_batch.py`` and
``benchmarks/test_bench_engine_batch.py``.

The engine batch keeps a verdict, not a matrix, where it can.  From 64
active nodes up an additive engine derives each residual from one
maintained all-pairs matrix and streams it into the fused step — its
working set is O(n^2), its route cache stays empty — and any fused
engine stamps a node that did not re-wire with the token its step ended
under: while that token stands the node's best response is known to be
"stay" and the opportunity costs neither a residual nor a kernel call
(``batch.steps.skipped``), so a converged epoch on a static substrate is
n adoption tails.
"""

from repro.core.wiring import GlobalWiring, Wiring
from repro.core.cost import (
    BandwidthMetric,
    DelayMetric,
    Metric,
    NodeLoadMetric,
    normalize_preferences,
    uniform_preferences,
    zipf_preferences,
)
from repro.core.best_response import (
    BestResponseResult,
    WiringEvaluator,
    best_response,
    best_response_exact,
    best_response_local_search,
    should_rewire,
)
from repro.core.policies import (
    BestResponsePolicy,
    FullMeshPolicy,
    KClosestPolicy,
    KRandomPolicy,
    KRegularPolicy,
    NeighborSelectionPolicy,
    STANDARD_POLICIES,
    build_overlay,
    enforce_connectivity_cycle,
)
from repro.core.backbone import backbone_links, backbone_offsets, is_backbone_connected
from repro.core.hybrid import HybridBRPolicy, build_hybrid_overlay
from repro.core.sampling import (
    SampledJoinResult,
    bias_rank,
    neighborhood,
    random_sample,
    sampled_best_response,
    topology_biased_sample,
)
from repro.core.cheating import AuditFinding, CheatingModel, audit_announcements
from repro.core.bootstrap import BootstrapServer
from repro.core.deployment_batch import DeploymentBatch, DeploymentSpec
from repro.core.route_cache import ResidualRouteCache, metric_fingerprint
from repro.core.node import EgoistNode, RewireDecision, RewireMode
from repro.core.providers import (
    BandwidthMetricProvider,
    DelayMetricProvider,
    LoadMetricProvider,
    MetricProvider,
)
from repro.core.engine import EgoistEngine, EngineHistory, EpochPlan, EpochRecord
from repro.core.engine_batch import EngineBatch, EngineSpec
from repro.core.overhead import (
    OverheadReport,
    coordinate_measurement_rate_bps,
    linkstate_rate_bps,
    overhead_report,
    ping_measurement_rate_bps,
)

__all__ = [
    "GlobalWiring",
    "Wiring",
    "BandwidthMetric",
    "DelayMetric",
    "Metric",
    "NodeLoadMetric",
    "normalize_preferences",
    "uniform_preferences",
    "zipf_preferences",
    "BestResponseResult",
    "WiringEvaluator",
    "best_response",
    "best_response_exact",
    "best_response_local_search",
    "should_rewire",
    "BestResponsePolicy",
    "FullMeshPolicy",
    "KClosestPolicy",
    "KRandomPolicy",
    "KRegularPolicy",
    "NeighborSelectionPolicy",
    "STANDARD_POLICIES",
    "build_overlay",
    "enforce_connectivity_cycle",
    "backbone_links",
    "backbone_offsets",
    "is_backbone_connected",
    "HybridBRPolicy",
    "build_hybrid_overlay",
    "SampledJoinResult",
    "bias_rank",
    "neighborhood",
    "random_sample",
    "sampled_best_response",
    "topology_biased_sample",
    "AuditFinding",
    "CheatingModel",
    "audit_announcements",
    "BootstrapServer",
    "DeploymentBatch",
    "DeploymentSpec",
    "ResidualRouteCache",
    "metric_fingerprint",
    "EgoistNode",
    "RewireDecision",
    "RewireMode",
    "BandwidthMetricProvider",
    "DelayMetricProvider",
    "LoadMetricProvider",
    "MetricProvider",
    "EgoistEngine",
    "EngineBatch",
    "EngineHistory",
    "EngineSpec",
    "EpochPlan",
    "EpochRecord",
    "OverheadReport",
    "coordinate_measurement_rate_bps",
    "linkstate_rate_bps",
    "overhead_report",
    "ping_measurement_rate_bps",
]
