"""The synchronous service core: lookups, mutations, the event stream."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.cost import DISCONNECTION_COST
from repro.routing.shortest_path import shortest_path_costs_from
from repro.routing.widest_path import widest_path_bandwidths_from
from repro.scenario.spec import ScenarioSpec
from repro.serve.service import OverlayService, ServeError
from repro.telemetry import runtime as telemetry


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        experiment="live-overlay",
        n=16,
        k_grid=(3,),
        policies=("best-response",),
        metric="delay-ping",
        epochs=3,
        seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


@pytest.fixture
def service():
    svc = OverlayService(_spec())
    yield svc
    if not svc.closed:
        svc.close()


class TestLookup:
    def test_lookup_before_first_epoch_is_an_error(self, service):
        with pytest.raises(ServeError) as err:
            service.lookup(0, 1)
        assert err.value.code == "no-epoch"

    def test_lookup_is_version_stamped(self, service):
        service.tick()
        result = service.lookup(0, 5)
        assert result["reachable"] is True
        assert result["value"] > 0
        assert result["epoch"] == 0
        assert result["version"] == service.session.engine().wiring.version

    def test_lookup_matches_fresh_sweep(self, service):
        service.tick()
        engine = service.session.engine()
        view = engine.last_epoch_view
        graph = engine.wiring.to_graph(active=view.active_list)
        costs = shortest_path_costs_from(graph, 0, disconnection_cost=float("inf"))
        for dst in (3, 7, 11):
            assert service.lookup(0, dst)["value"] == pytest.approx(
                float(costs[dst]), rel=1e-12
            )

    def test_want_path_returns_a_consistent_route(self, service):
        service.tick()
        result = service.lookup(0, 5, want_path=True)
        path = result["path"]
        assert path[0] == 0 and path[-1] == 5
        assert len(path) == len(set(path))

    def test_bandwidth_metric_lookup(self):
        service = OverlayService(_spec(metric="bandwidth"))
        service.tick()
        engine = service.session.engine()
        view = engine.last_epoch_view
        graph = engine.wiring.to_graph(active=view.active_list)
        widths = widest_path_bandwidths_from(graph, 2)
        result = service.lookup(2, 9)
        assert result["value"] == pytest.approx(float(widths[9]), rel=1e-12)
        service.close()

    def test_departed_node_is_unreachable(self, service):
        service.tick()
        service.mutate({"kind": "leave", "nodes": [5]})
        service.tick()
        for src, dst in ((0, 5), (5, 0)):
            result = service.lookup(src, dst)
            assert result["value"] is None
            assert result["reachable"] is False
        assert service.lookup_batch([[0, 5], [5, 0]])["values"] == [None, None]

    def test_bad_pairs_rejected(self, service):
        service.tick()
        for src, dst in ((0, 0), (-1, 2), (0, 99), ("x", 1)):
            with pytest.raises(ServeError):
                service.lookup(src, dst)

    def test_unknown_engine_rejected(self, service):
        service.tick()
        with pytest.raises(Exception):
            service.lookup(0, 1, engine="nonesuch")


class TestLookupBatch:
    def test_batch_matches_single_lookups(self, service):
        service.tick()
        pairs = [[0, 5], [0, 7], [3, 4], [5, 0]]
        batch = service.lookup_batch(pairs)
        singles = [service.lookup(s, d)["value"] for s, d in pairs]
        assert batch["values"] == singles
        assert batch["epoch"] == 0

    def test_batch_rejects_malformed_pairs(self, service):
        service.tick()
        with pytest.raises(ServeError):
            service.lookup_batch([[0]])
        with pytest.raises(ServeError):
            service.lookup_batch("not-pairs")

    def test_cold_frame_calls_no_routing_kernel(self, service):
        service.tick()
        pairs = [[src, (src + 1) % 16] for src in range(16)] * 4
        telemetry.enable()
        try:
            service.tick()  # a fresh epoch: nothing has been read from it yet
            before = telemetry.metrics().snapshot()["counters"]
            reply = service.lookup_batch(pairs)
            after = telemetry.metrics().snapshot()["counters"]
        finally:
            telemetry.disable()
        kernels = {name for name in after if name.startswith("kernel.")}
        assert kernels  # the tick's own sweeps were counted: the ledger is live
        assert {name: after[name] for name in kernels} == {
            name: before.get(name, 0) for name in kernels
        }
        assert len(reply["values"]) == 64
        assert reply["version"] == service.session.engine().wiring.version


#: (frame, today's message) — every rejection is a ``bad-request``.
_NOT_A_LIST = "pairs must be a list of [src, dst] pairs"
_NOT_A_PAIR = "each pair must be [src, dst]"
_NOT_IDS = "src and dst must be node ids"
_RANGE = "src/dst out of range for n=16"
_SAME = "src and dst must differ"
MALFORMED_FRAMES = [
    ("not-pairs", _NOT_A_LIST),
    ({"0": 1}, _NOT_A_LIST),
    (None, _NOT_A_LIST),
    ([[0]], _NOT_A_PAIR),
    ([[0, 1, 2]], _NOT_A_PAIR),
    ([[0, 1], [2]], _NOT_A_PAIR),
    ([[0, 1], 7], _NOT_A_PAIR),
    ([[0, 1], "ab"], _NOT_A_PAIR),
    ([[0, 1], {"src": 2, "dst": 3}], _NOT_A_PAIR),
    ([[0, "x"]], _NOT_IDS),
    ([[0, None]], _NOT_IDS),
    ([[0, [1]]], _NOT_IDS),
    ([[0, float("nan")]], _NOT_IDS),
    ([[0, float("inf")]], _NOT_IDS),
    ([[float("-inf"), 1]], _NOT_IDS),
    ([[0, 10**30]], _RANGE),
    ([[0, 2**63]], _RANGE),
    ([[0, 16]], _RANGE),
    ([[-1, 2]], _RANGE),
    ([[0, 99.5]], _RANGE),
    ([[0, "99"]], _RANGE),
    ([[3, 3]], _SAME),
    ([[3, 3.0]], _SAME),
    ([[True, 1]], _SAME),
    # The first bad pair names the error, whatever follows it.
    ([[0, 1], [3, 3], [0, 99]], _SAME),
    ([[0, 1], [0, 99], [3, 3]], _RANGE),
    ([[0, 1], [0, 99], [2]], _RANGE),
    ([[0, 1], [3, 3], "ab"], _SAME),
]


class TestMalformedFrames:
    @pytest.mark.parametrize("frame, message", MALFORMED_FRAMES)
    def test_error_parity(self, service, frame, message):
        service.tick()
        with pytest.raises(ServeError) as err:
            service.lookup_batch(frame)
        assert err.value.code == "bad-request"
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "src, dst, message",
        [
            (float("inf"), 2, _NOT_IDS),
            ("x", 1, _NOT_IDS),
            (None, 1, _NOT_IDS),
            (0, 10**30, _RANGE),
            (0, 16, _RANGE),
            (4, 4, _SAME),
        ],
    )
    def test_single_lookup_error_parity(self, service, src, dst, message):
        service.tick()
        with pytest.raises(ServeError) as err:
            service.lookup(src, dst)
        assert err.value.code == "bad-request"
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "mutation",
        [
            # int(inf) raises OverflowError, not ValueError.
            {"kind": "leave", "nodes": [float("inf")]},
            {"kind": "drift", "steps": float("inf")},
            {"kind": "failure", "event": {"action": "node-down", "nodes": [float("inf")]}},
            {"kind": "leave", "nodes": ["x"]},
        ],
    )
    def test_malformed_mutation_is_a_bad_request(self, service, mutation):
        service.tick()
        with pytest.raises(ServeError) as err:
            service.mutate(mutation)
        assert err.value.code == "bad-request"

    def test_ids_int_accepts_are_still_served(self, service):
        service.tick()
        clean = service.lookup_batch([[0, 5], [1, 7], [2, 3]])
        for frame in (
            [["0", 5], [1, "7"], [2, 3]],
            [[0.0, 5.9], [1, 7], [2.2, 3]],
            [[False, 5], [True, 7], [2, 3]],
            ((0, 5), (1, 7), (2, 3)),
        ):
            assert service.lookup_batch(frame)["values"] == clean["values"]
        assert service.lookup_batch([])["values"] == []

    def test_rejected_frame_bumps_no_counter(self, service):
        service.tick()
        service.lookup(0, 5)
        counters = dict(service.counters)
        for frame in ([[1, 2], [3, 4], [5, 5]], [[1, 2], [3, "x"]], [[1, 2], [3]]):
            with pytest.raises(ServeError):
                service.lookup_batch(frame)
        assert service.counters == counters


# ---------------------------------------------------------------------- #
# Property: any interleaving of reads, writes and ticks serves the stamped
# version's from-scratch routes
# ---------------------------------------------------------------------- #
_N = 10
_node = st.integers(0, _N - 1)
_pair = st.tuples(_node, _node).filter(lambda pair: pair[0] != pair[1])
_operation = st.one_of(
    st.tuples(st.just("lookup"), _pair),
    st.tuples(st.just("batch"), st.lists(_pair, min_size=1, max_size=24)),
    st.tuples(st.just("leave"), _node),
    st.tuples(st.just("join"), _node),
    st.tuples(st.just("drift"), st.integers(1, 2)),
    st.tuples(st.just("tick"), st.none()),
)


def _from_scratch(service, src: int) -> np.ndarray:
    """``src``'s route values by a fresh single-source run on the live overlay."""
    engine = service.session.engine()
    view = engine.last_epoch_view
    graph = engine.wiring.to_graph(active=view.active_list)
    if view.announced.maximize:
        return widest_path_bandwidths_from(graph, src)
    return shortest_path_costs_from(graph, src, disconnection_cost=float("inf"))


def _assert_served(service, src: int, dst: int, value) -> None:
    fresh = float(_from_scratch(service, src)[dst])
    if service.session.engine().last_epoch_view.announced.maximize:
        reachable = np.isfinite(fresh) and fresh > 0.0
    else:
        reachable = np.isfinite(fresh) and fresh < DISCONNECTION_COST
    assert value == (fresh if reachable else None)  # bitwise, every value


class TestServedValuesProperty:
    @pytest.mark.parametrize("batched", [True, False])
    @pytest.mark.parametrize("metric", ["delay-ping", "bandwidth"])
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(operations=st.lists(_operation, min_size=1, max_size=14))
    def test_any_interleaving_serves_the_stamped_version(
        self, metric, batched, operations
    ):
        service = OverlayService(_spec(n=_N, metric=metric), batched=batched)
        try:
            service.tick()
            for kind, argument in operations:
                live = service.session.engine().wiring
                if kind == "lookup":
                    reply = service.lookup(*argument)
                    assert reply["version"] == live.version
                    _assert_served(service, *argument, reply["value"])
                elif kind == "batch":
                    reply = service.lookup_batch(argument)
                    assert reply["version"] == live.version
                    singles = [service.lookup(src, dst) for src, dst in argument]
                    assert reply["values"] == [one["value"] for one in singles]
                    for (src, dst), value, one in zip(
                        argument, reply["values"], singles
                    ):
                        assert one["version"] == reply["version"]
                        _assert_served(service, src, dst, value)
                elif kind == "tick":
                    service.tick()
                elif kind == "drift":
                    service.mutate({"kind": "drift", "steps": argument})
                else:
                    service.mutate({"kind": kind, "nodes": [argument]})
        finally:
            service.close()


class TestMutateAndSubscribe:
    def test_mutation_applies_next_epoch(self, service):
        service.tick()
        result = service.mutate({"kind": "leave", "nodes": [3]})
        assert result["applied_epoch"] == 1
        payload = service.tick()
        (record,) = payload["records"].values()
        assert record["active_nodes"] == 15

    def test_failure_event_epoch_defaults_to_next(self, service):
        service.tick()
        service.mutate(
            {"kind": "failure", "event": {"action": "node-down", "nodes": [2]}}
        )
        payload = service.tick()
        (record,) = payload["records"].values()
        assert record["active_nodes"] == 15

    def test_malformed_mutation_rejected(self, service):
        with pytest.raises(Exception):
            service.mutate({"kind": "explode"})
        with pytest.raises(ServeError):
            service.mutate("leave 5")

    def test_subscribers_see_every_tick(self, service):
        seen = []
        service.subscribe(seen.append)
        service.tick()
        service.tick()
        assert [payload["epoch"] for payload in seen] == [0, 1]
        assert all(payload["event"] == "epoch" for payload in seen)
        assert all("digest" in payload and "cache" in payload for payload in seen)
        service.unsubscribe(seen.append)
        service.tick()
        assert len(seen) == 2


class TestLifecycleAndStats:
    def test_snapshot_and_stats(self, service):
        service.tick()
        service.lookup(0, 1)
        snapshot = service.snapshot()
        assert snapshot["epochs_completed"] == 1
        assert snapshot["batched"] is True
        stats = service.stats()
        assert stats["counters"]["lookups"] == 1
        assert stats["counters"]["epochs"] == 1
        assert "hit_rate" in stats["cache"]

    def test_closed_service_refuses_requests(self, service):
        service.tick()
        service.close()
        with pytest.raises(ServeError) as err:
            service.lookup(0, 1)
        assert err.value.code == "closed"
        service.close()  # idempotent
