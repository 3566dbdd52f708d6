"""The explicit session lifecycle API (open/step/mutate/snapshot/close)."""

import pytest

from repro.core.codec import epoch_record_digest
from repro.core.failures import FailureEvent
from repro.scenario.lifecycle import MUTATION_KINDS, Mutation, Session
from repro.scenario.session import SimulationSession
from repro.scenario.spec import ScenarioSpec
from repro.util.validation import ValidationError


def _spec(**overrides) -> ScenarioSpec:
    base = dict(
        experiment="live-overlay",
        n=14,
        k_grid=(3,),
        policies=("best-response",),
        metric="delay-ping",
        epochs=3,
        seed=31,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class TestMutation:
    def test_round_trip(self):
        for mutation in (
            Mutation(kind="join", nodes=(1, 2)),
            Mutation(kind="leave", nodes=(3,)),
            Mutation(kind="rewire", nodes=(0, 4)),
            Mutation(kind="drift", steps=2),
            Mutation(
                kind="failure",
                event=FailureEvent(epoch=1, action="link-down", links=((0, 1),)),
            ),
        ):
            assert Mutation.from_dict(mutation.to_dict()) == mutation

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError):
            Mutation(kind="explode").validate()
        assert "explode" not in MUTATION_KINDS

    def test_unknown_field_rejected(self):
        with pytest.raises(ValidationError):
            Mutation.from_dict({"kind": "join", "nodes": [1], "bogus": True})

    def test_non_finite_ints_rejected(self):
        # int(float("inf")) raises OverflowError, not ValueError.
        for data in (
            {"kind": "leave", "nodes": [float("inf")]},
            {"kind": "drift", "steps": float("inf")},
            {
                "kind": "failure",
                "event": {"epoch": float("inf"), "action": "node-down", "nodes": [1]},
            },
        ):
            with pytest.raises(ValidationError, match="malformed mutation"):
                Mutation.from_dict(data)

    def test_kind_requirements(self):
        with pytest.raises(ValidationError):
            Mutation(kind="join").validate()  # no nodes
        with pytest.raises(ValidationError):
            Mutation(kind="drift", steps=0).validate()
        with pytest.raises(ValidationError):
            Mutation(kind="failure").validate()  # no event


class TestSessionParity:
    """The batch `run()` path and the lifecycle loop are the same loop."""

    @pytest.mark.parametrize("batched", [True, False])
    def test_step_loop_matches_run(self, batched):
        spec = _spec(epochs=4)
        baseline = SimulationSession(spec, batched=True).run()
        with Session.open(spec, batched=batched) as session:
            for _ in range(spec.epochs):
                session.step()
            histories = session.close()
        for label, history in zip(session.labels, histories):
            assert baseline.series[label].y == history.mean_costs()

    def test_per_epoch_digests_match_across_kernels(self):
        spec = _spec(epochs=3)
        digests = {}
        for batched in (True, False):
            with Session.open(spec, batched=batched) as session:
                digests[batched] = [
                    epoch_record_digest(session.step()) for _ in range(spec.epochs)
                ]
        assert digests[True] == digests[False]


class TestSessionMutations:
    def test_leave_and_join(self):
        with Session.open(_spec()) as session:
            session.step()
            session.mutate(Mutation(kind="leave", nodes=(2, 5)))
            records = session.step()
            assert records[0].active_nodes == 12
            session.mutate(Mutation(kind="join", nodes=(2,)))
            records = session.step()
            assert records[0].active_nodes == 13

    def test_mutations_apply_at_next_step_only(self):
        with Session.open(_spec()) as session:
            session.step()
            before = session.engine().last_epoch_view
            session.mutate(Mutation(kind="leave", nodes=(0,)))
            # Accepted but not committed: the live view is unchanged.
            assert session.engine().last_epoch_view is before
            assert len(before.active_list) == 14
            after = session.step()
            assert after[0].active_nodes == 13

    def test_rewire_forces_rewiring(self):
        with Session.open(_spec()) as session:
            for _ in range(6):
                session.step()
            session.mutate(Mutation(kind="rewire", nodes=(1, 2, 3)))
            records = session.step()
            # The reset nodes come back with no wiring and must re-wire.
            assert records[0].rewirings >= 3

    def test_failure_event(self):
        with Session.open(_spec()) as session:
            session.step()
            event = FailureEvent(epoch=1, action="node-down", nodes=(4,))
            session.mutate(Mutation(kind="failure", event=event))
            records = session.step()
            assert records[0].active_nodes == 13

    def test_unknown_engine_label_rejected(self):
        with Session.open(_spec()) as session:
            with pytest.raises(ValidationError):
                session.mutate(
                    Mutation(kind="leave", nodes=(1,), engines=("nonesuch",))
                )

    def test_out_of_range_node_rejected(self):
        with Session.open(_spec()) as session:
            with pytest.raises(ValidationError):
                session.mutate(Mutation(kind="leave", nodes=(99,)))


class TestSessionLifecycle:
    def test_snapshot_shape(self):
        with Session.open(_spec()) as session:
            session.step()
            session.mutate(Mutation(kind="leave", nodes=(1,)))
            snapshot = session.snapshot()
            assert snapshot["epochs_completed"] == 1
            assert snapshot["pending_mutations"] == 1
            (deployment,) = snapshot["deployments"]
            assert deployment["label"] == session.labels[0]
            assert deployment["epoch"] == 0
            assert deployment["active_nodes"] == 14

    def test_closed_session_refuses_everything(self):
        session = Session.open(_spec())
        session.step()
        session.close()
        for call in (
            session.step,
            session.snapshot,
            session.close,
            lambda: session.mutate(Mutation(kind="leave", nodes=(1,))),
        ):
            with pytest.raises(ValidationError):
                call()

    def test_duplicate_cells_get_distinct_labels(self):
        spec = _spec(k_grid=(3, 3), epochs=1)
        with Session.open(spec) as session:
            assert len(session.labels) == 2
            assert len(set(session.labels)) == 2
