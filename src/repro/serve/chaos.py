"""``repro chaos``: SIGKILL the server mid-load, prove nothing was lost.

The harness is the end-to-end proof of the crash-safety design.  One run:

1. loads a chaos scenario (a ScenarioSpec plus a fault plan: how many
   epochs to drive, how often to mutate, how many SIGKILLs to inject);
2. computes the **reference**: the same deterministic op plan applied to
   an in-process :class:`OverlayService` — no transport, no faults —
   recording every epoch digest and the final lookup values;
3. runs the **chaos side**: a real ``repro serve`` child under a
   :class:`~repro.serve.supervise.Supervisor`, driven over a unix socket
   by a retrying :class:`~repro.serve.client.ServeClient`, with the
   child SIGKILL-ed at seed-chosen points between acknowledged ops; the
   supervisor restarts it and ``OverlayService.recover`` restores the
   session from checkpoint + log suffix;
4. verifies, against the reference and the on-disk artifacts:

   * **digest parity** — every epoch the chaos side committed matches
     the uninterrupted run byte-for-byte (the acceptance criterion);
   * **zero acknowledged loss** — every mutation the client got an ack
     for appears exactly once in the recovered log chain (exactly once:
     dedupe also proved no double-apply), and every acknowledged epoch
     digest survived;
   * **bounded replay** — each child ``RECOVERY`` line reports a replay
     of at most one checkpoint interval;
   * **replay parity** — ``replay_log`` over the rotated chain
     reproduces the full history (the same check CI's serve-smoke runs);
   * **final-state parity** — lookups after the last kill equal the
     reference's.

The ``CHAOS ...`` summary line is machine-greppable for CI, in the
family of ``SERVE``/``SWEEP``/``REPLAY``/``RECOVERY`` lines.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.scenario.spec import ScenarioSpec
from repro.serve.client import ServeClient
from repro.serve.oplog import list_segments, read_segment
from repro.serve.replay import replay_log
from repro.serve.service import OverlayService
from repro.serve.supervise import Supervisor
from repro.util.validation import ValidationError


@dataclass(frozen=True)
class ChaosScenario:
    """One chaos run's plan: the scenario plus the fault schedule."""

    spec: ScenarioSpec
    #: Seeds the op plan, the kill points, and the client jitter.
    seed: int = 0
    #: Epochs the plan drives (each an explicit idempotent ``step``).
    epochs: int = 12
    #: Enqueue one mutation before every Nth step (0 = never).
    mutate_every: int = 3
    #: Lookup pairs measured after each step.
    lookups_per_epoch: int = 8
    #: SIGKILLs injected at seed-chosen points between acknowledged ops.
    kills: int = 3
    #: Child checkpoint cadence (epochs); bounds every recovery replay.
    checkpoint_every: int = 3

    @classmethod
    def load(cls, path: str) -> "ChaosScenario":
        """Read a ``scenarios/chaos_*.json`` file.

        The file is an envelope: a ``scenario`` object (inline
        ScenarioSpec) or ``scenario_path`` (relative to the chaos file),
        plus any of the fault-plan fields above.
        """
        try:
            with open(path) as handle:
                data = json.load(handle)
        except OSError as error:
            raise ValidationError(f"cannot read chaos scenario {path!r}: {error}")
        except json.JSONDecodeError as error:
            raise ValidationError(f"{path} is not valid JSON: {error}")
        if not isinstance(data, dict):
            raise ValidationError(f"{path} must hold a JSON object")
        if ("scenario" in data) == ("scenario_path" in data):
            raise ValidationError(
                f"{path}: pass exactly one of 'scenario' (inline spec) or "
                "'scenario_path'"
            )
        if "scenario" in data:
            spec = ScenarioSpec.from_dict(data["scenario"])
        else:
            spec_path = os.path.join(
                os.path.dirname(os.path.abspath(path)), str(data["scenario_path"])
            )
            try:
                with open(spec_path) as handle:
                    spec = ScenarioSpec.from_dict(json.load(handle))
            except OSError as error:
                raise ValidationError(f"cannot read {spec_path!r}: {error}")
        known = {
            "seed",
            "epochs",
            "mutate_every",
            "lookups_per_epoch",
            "kills",
            "checkpoint_every",
        }
        unknown = set(data) - known - {"scenario", "scenario_path", "comment"}
        if unknown:
            raise ValidationError(f"{path}: unknown chaos fields {sorted(unknown)}")
        scenario = cls(spec=spec, **{k: int(data[k]) for k in known if k in data})
        if scenario.epochs < 1:
            raise ValidationError("chaos scenarios need epochs >= 1")
        if scenario.kills >= scenario.epochs:
            raise ValidationError(
                f"{scenario.kills} kills need more than {scenario.epochs} epochs "
                "of plan to land between"
            )
        return scenario


@dataclass
class ChaosReport:
    """What one chaos run proved (and how much fault it absorbed)."""

    kills: int = 0
    recoveries: int = 0
    epochs: int = 0
    acked_mutations: int = 0
    #: Acked mutations missing from the recovered log chain (must be 0).
    lost_mutations: int = 0
    #: Acked mutations appearing more than once (dedupe failed; must be 0).
    duplicated_mutations: int = 0
    #: Epoch digests differing from the uninterrupted reference.
    digest_mismatches: int = 0
    #: Final lookup values differing from the reference.
    lookup_mismatches: int = 0
    #: RECOVERY lines whose replay exceeded one checkpoint interval.
    unbounded_recoveries: int = 0
    replay_ok: bool = False
    #: Client-side fault absorption (for the curious).
    client_retries: int = 0
    sheds_seen: int = 0
    supervisor_restarts: int = 0
    recovery_lines: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.lost_mutations == 0
            and self.duplicated_mutations == 0
            and self.digest_mismatches == 0
            and self.lookup_mismatches == 0
            and self.unbounded_recoveries == 0
            and self.replay_ok
            and self.recoveries >= self.kills
        )

    def summary(self) -> str:
        return (
            f"CHAOS kills={self.kills} recoveries={self.recoveries} "
            f"epochs={self.epochs} acked={self.acked_mutations} "
            f"lost={self.lost_mutations} dup={self.duplicated_mutations} "
            f"digest_mismatch={self.digest_mismatches} "
            f"lookup_mismatch={self.lookup_mismatches} "
            f"unbounded={self.unbounded_recoveries} "
            f"replay={'ok' if self.replay_ok else 'FAILED'} "
            f"{'ok' if self.ok else 'FAILED'}"
        )


# --------------------------------------------------------------------- #
# The deterministic op plan
# --------------------------------------------------------------------- #
def build_plan(scenario: ChaosScenario) -> List[Tuple[str, object]]:
    """The op sequence both sides execute, fully determined by the seed.

    Per epoch: optionally one mutation (drift or a single-node rewire —
    membership stays fixed so the lookup pairs remain valid), one
    idempotent ``step`` carrying the expected epoch count, then one
    ``lookup_batch`` probe.
    """
    rng = random.Random(scenario.seed)
    n = scenario.spec.n
    plan: List[Tuple[str, object]] = []
    for epoch in range(scenario.epochs):
        if scenario.mutate_every and epoch and epoch % scenario.mutate_every == 0:
            if rng.random() < 0.5:
                mutation: Dict[str, object] = {
                    "kind": "drift",
                    "steps": rng.randint(1, 3),
                }
            else:
                mutation = {"kind": "rewire", "nodes": [rng.randrange(n)]}
            plan.append(("mutate", {"mutation": mutation, "idem": f"chaos-{epoch}"}))
        plan.append(("step", epoch))
        pairs = []
        while len(pairs) < scenario.lookups_per_epoch:
            src, dst = rng.randrange(n), rng.randrange(n)
            if src != dst:
                pairs.append([src, dst])
        plan.append(("lookup", pairs))
    return plan


def kill_points(scenario: ChaosScenario) -> List[int]:
    """Plan indices (of acknowledged ``step`` ops) after which to SIGKILL.

    Drawn without replacement from the interior steps — never after the
    final step, so the run always ends with live verification traffic
    after the last recovery.
    """
    rng = random.Random(scenario.seed ^ 0xC4A0)
    candidates = list(range(scenario.epochs - 1))
    rng.shuffle(candidates)
    return sorted(candidates[: scenario.kills])


# --------------------------------------------------------------------- #
# Reference (uninterrupted) side
# --------------------------------------------------------------------- #
def run_reference(
    scenario: ChaosScenario,
) -> Tuple[Dict[int, str], List[List[object]]]:
    """Digests and lookup values of the fault-free in-process run."""
    service = OverlayService(scenario.spec)
    digests: Dict[int, str] = {}
    lookups: List[List[object]] = []
    try:
        for op, arg in build_plan(scenario):
            if op == "mutate":
                service.mutate(dict(arg["mutation"]), idem=arg["idem"])
            elif op == "step":
                payload = service.step(expect=int(arg))
                digests[int(payload["epoch"])] = str(payload["digest"])
            else:
                lookups.append(service.lookup_batch(arg)["values"])
    finally:
        service.close()
    return digests, lookups


# --------------------------------------------------------------------- #
# Chaos side
# --------------------------------------------------------------------- #
def run_chaos(
    scenario: ChaosScenario,
    workdir: str,
    *,
    connect_timeout: float = 60.0,
) -> ChaosReport:
    """Run the full harness in ``workdir``; returns the verified report.

    Artifacts land in ``workdir`` (spec/log/checkpoints/child output)
    and are left behind for post-mortems.
    """
    os.makedirs(workdir, exist_ok=True)
    spec_path = os.path.join(workdir, "scenario.json")
    with open(spec_path, "w") as handle:
        handle.write(scenario.spec.to_json() + "\n")
    socket_path = os.path.join(workdir, "serve.sock")
    log_path = os.path.join(workdir, "serve.jsonl")
    checkpoint_dir = os.path.join(workdir, "checkpoints")
    child_out_path = os.path.join(workdir, "serve.out")

    command = [
        sys.executable,
        "-m",
        "repro.cli",
        "serve",
        "--spec",
        spec_path,
        "--socket",
        socket_path,
        "--log",
        log_path,
        "--checkpoint-dir",
        checkpoint_dir,
        "--checkpoint-every",
        str(scenario.checkpoint_every),
        "--warmup-epochs",
        "0",
    ]

    report = ChaosReport()
    current_child: List[subprocess.Popen] = []
    child_out = open(child_out_path, "w")
    supervisor = Supervisor(
        command,
        backoff_base=0.1,
        backoff_cap=1.0,
        stable_after=2.0,
        on_spawn=lambda child: current_child.append(child),
        stdout=child_out,
    )
    thread = threading.Thread(target=supervisor.run, daemon=True)
    thread.start()

    reference_digests, reference_lookups = run_reference(scenario)
    plan = build_plan(scenario)
    kills = set(kill_points(scenario))

    client = _connect_with_patience(
        socket_path, timeout=connect_timeout, seed=scenario.seed
    )
    chaos_digests: Dict[int, str] = {}
    chaos_lookups: List[List[object]] = []
    acked_idems: List[str] = []
    try:
        for op, arg in plan:
            if op == "mutate":
                client.request(
                    "mutate", mutation=dict(arg["mutation"]), idem=arg["idem"]
                )
                acked_idems.append(str(arg["idem"]))
                report.acked_mutations += 1
            elif op == "step":
                epoch = int(arg)
                reply = client.step(expect=epoch)
                chaos_digests[int(reply["epoch"])] = str(reply["digest"])
                if epoch in kills:
                    _kill_current(current_child)
                    report.kills += 1
            else:
                chaos_lookups.append(client.lookup_batch(arg)["values"])
        client.request("shutdown", idempotent=False)
    finally:
        client.close()
    thread.join(timeout=30.0)
    if thread.is_alive():  # pragma: no cover - supervisor wedged
        supervisor.request_stop()
        thread.join(timeout=10.0)
    child_out.close()
    report.supervisor_restarts = supervisor.report.restarts
    report.client_retries = client.retried
    report.sheds_seen = client.sheds_seen

    _verify(
        report,
        log_path=log_path,
        child_out_path=child_out_path,
        checkpoint_every=scenario.checkpoint_every,
        reference_digests=reference_digests,
        reference_lookups=reference_lookups,
        chaos_digests=chaos_digests,
        chaos_lookups=chaos_lookups,
        acked_idems=acked_idems,
    )
    return report


def _connect_with_patience(
    socket_path: str, *, timeout: float, seed: int
) -> ServeClient:
    """Connect to the child's socket, waiting out its first startup."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            return ServeClient(
                socket_path=socket_path,
                max_retries=12,
                retry_seed=seed,
            )
        except (OSError, ValidationError):
            if time.monotonic() >= deadline:
                raise ValidationError(
                    f"chaos server never came up on {socket_path!r} "
                    f"within {timeout:.0f}s"
                )
            time.sleep(0.1)


def _kill_current(children: List[subprocess.Popen]) -> None:
    """SIGKILL the supervisor's live child (the whole point)."""
    for child in reversed(children):
        if child.poll() is None:
            try:
                os.kill(child.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - lost the race
                continue
            child.wait()
            return


def _verify(
    report: ChaosReport,
    *,
    log_path: str,
    child_out_path: str,
    checkpoint_every: int,
    reference_digests: Dict[int, str],
    reference_lookups: List[List[object]],
    chaos_digests: Dict[int, str],
    chaos_lookups: List[List[object]],
    acked_idems: List[str],
) -> None:
    """Fill the report's verification fields from the run's artifacts."""
    # Digest parity: every epoch either side committed, byte-identical.
    report.epochs = len(chaos_digests)
    for epoch, digest in sorted(reference_digests.items()):
        if chaos_digests.get(epoch) != digest:
            report.digest_mismatches += 1

    # Final-state parity: the lookup probes, frame by frame.
    if len(chaos_lookups) != len(reference_lookups):
        report.lookup_mismatches += abs(
            len(chaos_lookups) - len(reference_lookups)
        )
    for ref, got in zip(reference_lookups, chaos_lookups):
        if ref != got:
            report.lookup_mismatches += 1

    # Zero acknowledged loss, exactly once: scan the recovered chain.
    counts: Dict[str, int] = {}
    for _index, segment_file in list_segments(log_path):
        _count_idems(segment_file, counts)
    if os.path.exists(log_path):
        _count_idems(log_path, counts)
    for idem in acked_idems:
        seen = counts.get(idem, 0)
        if seen == 0:
            report.lost_mutations += 1
        elif seen > 1:
            report.duplicated_mutations += 1

    # Bounded replay: the child printed one RECOVERY line per restart.
    try:
        with open(child_out_path) as handle:
            for line in handle:
                if line.startswith("RECOVERY "):
                    report.recovery_lines.append(line.rstrip())
                    report.recoveries += 1
                    fields = dict(
                        part.split("=", 1)
                        for part in line.split()[1:]
                        if "=" in part
                    )
                    replayed = int(fields.get("replayed_epochs", 0))
                    if fields.get("bounded") != "yes" or (
                        checkpoint_every > 0 and replayed > checkpoint_every
                    ):
                        report.unbounded_recoveries += 1
    except OSError:
        pass

    # Replay parity over the rotated chain (same check as serve-smoke).
    try:
        report.replay_ok = replay_log(log_path).ok
    except ValidationError:
        report.replay_ok = False


def _count_idems(path: str, counts: Dict[str, int]) -> None:
    for entry in read_segment(path).entries:
        if entry.get("kind") == "mutate" and isinstance(entry.get("idem"), str):
            counts[entry["idem"]] = counts.get(entry["idem"], 0) + 1


__all__ = [
    "ChaosReport",
    "ChaosScenario",
    "build_plan",
    "kill_points",
    "run_chaos",
    "run_reference",
]
