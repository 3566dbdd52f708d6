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
* free riders (:mod:`repro.core.cheating`),
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
(:meth:`WiringEvaluator.evaluate_batch`), and the local search is one
kernel, :func:`repro.core.best_response.fused_best_response`, whose
every pass scores all ``k * (m - k)`` single-swap neighbours of a whole
group of nodes in one broadcast (leave-one-out by prefix and suffix
selections); a lone evaluator is a group of one.  The kernels use the same exact elementwise reductions as scoring one
wiring at a time (min/max, multiply then pairwise sum), so objective
values are bitwise identical and ties break identically; the interpreted
loops they replaced live on only as the test oracle
``tests/reference/scalar_best_response.py``.

On top of the kernels, a sequential :class:`EgoistEngine` memoises the
expensive multi-source residual route-value sweeps in a
:class:`ResidualRouteCache`: within one re-wiring opportunity the node's
current-cost evaluation and its best-response computation reuse a single
sweep, and across quiescent epochs (no re-wiring anywhere, announced
metric and membership unchanged) each node's matrices are reused
verbatim, so a converged deployment with a static substrate performs no
routing sweeps at all during the re-wiring loop.  The lockstep batches
below hand each residual they plan straight to the step that reads it
and never touch the memo.

One level higher, :class:`DeploymentBatch`
(:mod:`repro.core.deployment_batch`, build-only k-sweeps) and
:class:`EngineBatch` (:mod:`repro.core.engine_batch`, epoch-driven
engines) advance many *independent* deployments in lockstep, through
one driver: a build's best-response round is an epoch of the engine
batch's round loop.  It scores each group of re-wiring opportunities
with that fused kernel (the unreachable clamp and the preference
weights folded into its via tensor once, not per pass); its stateless
sweeps live in :mod:`repro.core.lockstep`: the stacked route-value
sweeps and the bandwidth residual fill.  Each batch is bit-identical to
running its deployments one by one (``batched=False``), with exact
kernel-call and Dijkstra-row budgets in ``tests/core/test_deployment_batch.py``
(``test_four_panel_sweep_batched_call_budget``) and
``tests/core/test_engine_batch.py`` (``TestEpochSweepBudget``).

The engine batch keeps a verdict, not a matrix, where it can.  From 64
active nodes up an additive engine derives each residual from one
maintained all-pairs matrix and hands it to the step — its working set
is O(n^2) — and any fused
engine stamps a node that did not re-wire with the token its step ended
under: while that token stands the node's best response is known to be
"stay" and the opportunity costs neither a residual nor a kernel call
(``batch.steps.skipped``), so a converged epoch on a static substrate is
n adoption tails.
"""

from repro.core.best_response import best_response
from repro.core.policies import (
    BestResponsePolicy,
    FullMeshPolicy,
    KClosestPolicy,
    KRandomPolicy,
    KRegularPolicy,
)
from repro.core.hybrid import HybridBRPolicy
from repro.core.route_cache import ResidualRouteCache, metric_fingerprint
from repro.core.providers import (
    BandwidthMetricProvider,
    DelayMetricProvider,
    LoadMetricProvider,
)
from repro.core.engine import EgoistEngine, EngineHistory, EpochRecord

__all__ = [
    "best_response",
    "BestResponsePolicy",
    "FullMeshPolicy",
    "KClosestPolicy",
    "KRandomPolicy",
    "KRegularPolicy",
    "HybridBRPolicy",
    "ResidualRouteCache",
    "metric_fingerprint",
    "BandwidthMetricProvider",
    "DelayMetricProvider",
    "LoadMetricProvider",
    "EgoistEngine",
    "EngineHistory",
    "EpochRecord",
]
