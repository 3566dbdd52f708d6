"""The three ``repro serve`` workloads, driven over a real unix socket.

All three start ``python -m repro.cli serve`` as a child process holding
one best-response deployment (n=50, k=4, delay via ping, two warm-up
epochs) and talk to it through one :class:`repro.serve.client.ServeClient`
in a closed loop — one caller that waits for every reply:

* ``serve_batched`` — 512-pair ``lookup_batch`` frames under the
  ``multipath`` traffic model, one ``leave`` + ``step`` part-way in.
  Read path at maximum amortisation: JSON parse/encode and the per-pair
  row reads dominate, per-message socket cost is diluted 512x.
* ``serve_single`` — single-pair ``lookup`` requests, ``uniform`` model.
  Smallest message: asyncio/socket/admission cost per request dominates
  and the row memo is hot.
* ``serve_write_mix`` — a durable server (``--log``, checkpoints every 4
  epochs): rounds of ``mutate`` (leave, join, drift rotating), ``step``,
  then four 64-pair ``lookup_batch`` frames right after the version bump;
  afterwards the server is SIGKILLed and restarted on the same log.

Every answer of a deterministic prefix is kept; a sample of them is then
checked, off the clock, against an in-process reference
:class:`~repro.serve.service.OverlayService` fed the identical spec and
mutate/step sequence: same ``epoch``/``version`` stamp — never an older
one — and the value a from-scratch single-source sweep gives on the
reference's announced graph.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import signal
import subprocess
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from bench import SRC, harness, probes
from repro.core.cost import DISCONNECTION_COST
from repro.routing.shortest_path import shortest_path_costs_from
from repro.scenario.lifecycle import Session
from repro.scenario.spec import ScenarioSpec
from repro.serve.client import ServeClient
from repro.serve.load import generate_pairs
from repro.serve.service import OverlayService
from repro.telemetry.diagnostics import pooled_cache_stats
from repro.util.rng import as_generator
from repro.util.validation import ValidationError

#: Seconds a server child gets to come up (it commits the warm-up epochs
#: first) and a client request gets before it counts as failed.
READY_DEADLINE = 60.0
REQUEST_DEADLINE = 10.0

#: Answers of the prefix checked against the reference.
CHECK_SAMPLE = 1000

WARMUP_EPOCHS = 2
CHECKPOINT_EVERY = 4

#: Wall seconds one server-CPU sample spans at least.
CPU_SAMPLE_S = 1.0

#: Relative tolerance between a served value and a from-scratch sweep:
#: a cache-assembled row adds the first hop last, Dijkstra adds it first.
VALUE_RTOL = 1e-9


def spec_dict(seed: int, n: int) -> Dict[str, object]:
    return ScenarioSpec(
        experiment="live-overlay",
        n=int(n),
        k_grid=(4,),
        policies=("best-response",),
        metric="delay-ping",
        epochs=WARMUP_EPOCHS,
        seed=int(seed),
    ).to_dict()


# ---------------------------------------------------------------------- #
# The server child
# ---------------------------------------------------------------------- #
class Server:
    """One ``repro serve`` child process in its own scratch directory.

    The child runs with the directory as its working directory and binds
    ``ov.sock`` there, so the socket path it sees is a bare file name;
    the client side uses the path relative to *its* working directory.
    Both stay far below the ~104-byte ``sun_path`` limit while every
    file lives inside the checkout.
    """

    def __init__(self, directory: str, spec: Dict[str, object], *, durable: bool):
        self.directory = directory
        self.durable = bool(durable)
        self.process: Optional[subprocess.Popen] = None
        with open(os.path.join(directory, "spec.json"), "w") as handle:
            json.dump(spec, handle)
        self.socket_path = os.path.relpath(os.path.join(directory, "ov.sock"))
        if len(self.socket_path) > 100:
            raise SystemExit(
                f"unix socket path {self.socket_path!r} is too long; run the "
                "benchmark from the checkout root"
            )

    @property
    def pid(self) -> int:
        return self.process.pid

    def start(self) -> None:
        command = [
            sys.executable, "-m", "repro.cli", "serve",
            "--spec", "spec.json", "--socket", "ov.sock",
            "--warmup-epochs", str(WARMUP_EPOCHS),
        ]  # fmt: skip
        if self.durable:
            command += [
                "--log", "serve-log.jsonl",
                "--checkpoint-dir", "checkpoints",
                "--checkpoint-every", str(CHECKPOINT_EVERY),
            ]  # fmt: skip
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        with open(os.path.join(self.directory, "server.out"), "ab") as out:
            self.process = subprocess.Popen(
                command, cwd=self.directory, env=env, stdout=out, stderr=out
            )

    def connect(self, seed: int) -> ServeClient:
        """A client on the server's socket, once it accepts connections."""
        deadline = time.monotonic() + READY_DEADLINE
        while True:
            if self.process.poll() is not None:
                raise SystemExit(
                    f"serve child exited with code {self.process.returncode} "
                    f"before accepting connections:\n{self.output_tail()}"
                )
            try:
                return ServeClient(
                    socket_path=self.socket_path,
                    timeout=REQUEST_DEADLINE,
                    deadline=REQUEST_DEADLINE,
                    retry_seed=int(seed),
                )
            except OSError:
                if time.monotonic() > deadline:
                    self.stop()
                    raise SystemExit("serve child did not come up in time")
                time.sleep(0.002)

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    def kill(self) -> None:
        """SIGKILL — the crash the recovery path exists for."""
        if self.process is not None:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGKILL)
            self.process.wait()

    def stop(self) -> None:
        """End the child whatever state it is in, and reap it."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.terminate()  # SIGTERM: graceful drain
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
        self.process.wait()

    def output_tail(self) -> str:
        try:
            with open(os.path.join(self.directory, "server.out")) as handle:
                return "".join(handle.readlines()[-20:])
        except OSError:
            return ""


# ---------------------------------------------------------------------- #
# Output check against the in-process reference
# ---------------------------------------------------------------------- #
#: One recorded step of the prefix: ``("mutate", mutation, idem)``,
#: ``("step",)``, or ``("lookups", pairs, values, epoch, version)``.
Event = Tuple


def _close(served: object, expected: object) -> bool:
    if served is None or expected is None:
        return served is None and expected is None
    return math.isclose(float(served), float(expected), rel_tol=VALUE_RTOL)


class Reference:
    """An in-process service replaying the workload's exact write sequence."""

    def __init__(self, spec: Dict[str, object], **service_options: object):
        self.service = OverlayService(ScenarioSpec.from_dict(spec), **service_options)
        self.tick_s: List[float] = []
        self.mutate_s: List[float] = []
        for _ in range(WARMUP_EPOCHS):
            self.tick()
        self._scratch_rows: Dict[Tuple[int, int], np.ndarray] = {}

    def tick(self) -> None:
        self.tick_s.append(harness.timed(self.service.tick))

    def mutate(self, mutation: Dict[str, object], idem: str) -> None:
        self.mutate_s.append(
            harness.timed(lambda: self.service.mutate(mutation, idem=idem))
        )

    def from_scratch(self, src: int, dst: int) -> Optional[float]:
        """The route value a fresh single-source sweep gives right now."""
        engine = self.service.session.engine()
        view = engine.last_epoch_view
        key = (engine.wiring.version, src)
        row = self._scratch_rows.get(key)
        if row is None:
            graph = engine.wiring.to_graph(active=view.active_list)
            row = shortest_path_costs_from(graph, src, disconnection_cost=float("inf"))
            self._scratch_rows[key] = row
        value = float(row[dst])
        if np.isfinite(value) and value < DISCONNECTION_COST:
            return value
        return None


def check_answers(
    reference: Reference, events: Sequence[Event], *, sample: int, seed: int
) -> Tuple[int, int]:
    """Replay ``events`` on ``reference``; returns (answers checked, failed).

    An answer fails when its ``epoch``/``version`` stamp differs from the
    reference's at that point of the sequence (a stale read), when it
    disagrees with the reference's own answer, or when it disagrees with
    a from-scratch sweep of the reference's announced graph.
    """
    total = sum(len(event[1]) for event in events if event[0] == "lookups")
    wanted = set(harness.sample_indices(total, sample, seed))
    checked = failed = position = 0
    for event in events:
        if event[0] == "mutate":
            reference.mutate(event[1], event[2])
        elif event[0] == "step":
            reference.tick()
        else:
            _kind, pairs, values, epoch, version = event
            picks = [i for i in range(len(pairs)) if position + i in wanted]
            position += len(pairs)
            if not picks:
                continue
            expected = reference.service.lookup_batch([pairs[i] for i in picks])
            fresh_stamp = (
                epoch == expected["epoch"] and version == expected["version"]
            )
            for slot, i in enumerate(picks):
                checked += 1
                src, dst = pairs[i]
                ok = (
                    fresh_stamp
                    and i < len(values)
                    and _close(values[i], expected["values"][slot])
                    and _close(values[i], reference.from_scratch(src, dst))
                )
                failed += 0 if ok else 1
    return checked, failed


def answers_digest(events: Sequence[Event]) -> str:
    """sha256 over every prefix answer with its stamps."""
    digest = hashlib.sha256()
    for event in events:
        if event[0] == "lookups":
            digest.update(json.dumps(event[2:], separators=(",", ":")).encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------- #
# Workloads
# ---------------------------------------------------------------------- #
class _ServeWorkload:
    """Run protocol shared by the three serve workloads."""

    name = ""
    durable = False
    traffic_model = "uniform"

    def __init__(self, seed: int, smoke: bool, scratch: harness.Scratch):
        self.seed = int(seed)
        self.smoke = bool(smoke)
        self.scratch = scratch
        self.n = 16 if smoke else 50
        self.spec = spec_dict(seed, self.n)
        self.server: Optional[Server] = None
        self.client: Optional[ServeClient] = None
        self.items: List[object] = []
        #: The deterministic prefix: writes and every answer, in order.
        self.events: List[Event] = []
        #: Epochs the server has acknowledged committing.
        self.epochs_acked = WARMUP_EPOCHS
        self.window = harness.Window()
        #: Constructor options of the reference service (durable workloads
        #: give it a log and checkpoints of its own).
        self.reference_options: Dict[str, object] = {}

    # -- supplied by subclasses ---------------------------------------- #
    def generate_items(self) -> List[object]:
        raise NotImplementedError

    def measure(self, seconds: float) -> None:
        raise NotImplementedError

    def after_window(self, trace: bool) -> Tuple[int, int, Dict[str, float]]:
        """Extra end-of-run work: (checks made, checks failed, layers)."""
        return 0, 0, {}

    def durability_layers(self, reference: "Reference") -> Dict[str, float]:
        """``serve.oplog``/``serve.checkpoint`` probes (durable workloads)."""
        return {}

    def probe_request(
        self, reference: "Reference"
    ) -> Tuple[bytes, Dict[str, object], int]:
        """A request line, the service's answer to it, the lookups it carries."""
        raise NotImplementedError

    def probe_lookup(self, reference: Reference) -> float:
        """Seconds per lookup of the in-process service on this traffic."""
        raise NotImplementedError

    # -- shared -------------------------------------------------------- #
    def setup(self) -> None:
        """Server spawn -> ready (warm-up epochs included) and inputs."""
        self.server = Server(
            self.scratch.subdir("server"), self.spec, durable=self.durable
        )
        self.server.start()
        self.client = self.server.connect(self.seed)
        self.items = self.generate_items()

    def teardown(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.server is not None:
            self.server.stop()

    def mutate_and_step(self, mutation: Dict[str, object], idem: str) -> None:
        """One acknowledged write: durable mutate, then the committing step."""
        self.client.mutate(mutation, idem=idem)
        self.client.step(expect=self.epochs_acked)
        self.epochs_acked += 1

    def run(self, seconds: float, trace: bool) -> harness.Outcome:
        try:
            setup_s = harness.median_setup_s(self.setup, self.smoke, reset=self.teardown)
            server_cpu0 = harness.process_cpu_seconds(self.server.pid)
            client_cpu0 = time.process_time()
            self.measure(seconds)
            self.window.client_cpu_s = time.process_time() - client_cpu0
            if not self.server.alive():
                raise SystemExit(
                    f"serve child died during the window:\n{self.server.output_tail()}"
                )
            self.window.cpu_s = harness.process_cpu_seconds(self.server.pid) - server_cpu0
            self.window.peak_rss_mb = harness.process_peak_rss_mb(self.server.pid)
            server_side = self._server_side() if trace else {}
            checked, failed, layers = self.after_window(trace)
        finally:
            self.teardown()

        traced = harness.Traced(trace)
        try:
            reference = Reference(self.spec, **self.reference_options)
            answers, wrong = check_answers(
                reference, self.events, sample=CHECK_SAMPLE, seed=self.seed
            )
            traced.mark_counters()
            if trace:
                layers.update(server_side)
                layers.update(self._reference_layers(reference, traced))
            reference.service.close()
        finally:
            traced.close()
        return harness.Outcome(
            window=self.window,
            setup_s=setup_s,
            checked=checked + answers,
            failed_checks=failed + wrong,
            digest=answers_digest(self.events),
            layers=layers,
        )

    def _server_side(self) -> Dict[str, float]:
        """``serve.server`` / ``serve.service`` numbers the server reports."""
        data = self.client.request("metrics")
        counters = data["counters"]
        rows = counters["rows_from_cache"] + counters["rows_from_sweep"]
        handled_s = handled = 0.0
        for name, histogram in (data.get("metrics") or {}).get("histograms", {}).items():
            if name in ("serve.request.lookup", "serve.request.lookup_batch"):
                handled_s += histogram["sum"]
                handled += histogram["count"]
        window = self.window
        return {
            "service.rows_from_cache_share": counters["rows_from_cache"] / rows if rows else 0.0,
            "service.row_memo_hit_share": counters["row_memo_hits"]
            / max(1, counters["lookups"]),
            "server.cpu_s": window.cpu_s,
            "server.shed": float(data["admission"]["shed"]),
            "server.handle_mean_us": handled_s / handled * 1e6 if handled else 0.0,
            "server.request_p99_us": harness.tail_percentile(window.request_s, 99) * 1e6,
            "server.request_p999_us": harness.tail_percentile(window.request_s, 99.9) * 1e6,
            "client.cpu_us_per_lookup": window.client_cpu_s / max(1, window.ops) * 1e6,
            "client.retries": float(self.client.retried),
            "bench.scratch_is_tmpfs": float(
                harness.filesystem_type(self.scratch.path) == "tmpfs"
            ),
        }

    def _reference_layers(
        self, reference: Reference, traced: harness.Traced
    ) -> Dict[str, float]:
        """Counts of the replayed prefix, then probes on the reference."""
        batch = reference.service.session.batch
        records = [r for engine in batch.engines for r in engine.history.records]
        layers = harness.count_layers(
            traced.counters(),
            pooled_cache_stats(engine.route_cache for engine in batch.engines),
            sum(record.rewirings for record in records),
        )
        traced.close()  # probes run untraced
        layers["service.tick_p50_ms"] = harness.median(reference.tick_s) * 1e3
        layers["service.mutate_p50_ms"] = harness.median(reference.mutate_s) * 1e3
        layers.update(self.durability_layers(reference))  # may swap the service
        batch = reference.service.session.batch
        line, answer, lookups = self.probe_request(reference)
        layers.update(probes.protocol_layers(line, answer, lookups))
        layers["service.lookup_us_per_lookup"] = self.probe_lookup(reference) * 1e6
        # What is left of a round trip once the three in-process costs of
        # its request are taken out: socket, event loop, admission queue,
        # and the client's own JSON work.
        layers["server.transport_us_per_request"] = (
            self.window.request_p50_s() * 1e6
        ) - lookups * (
            layers["protocol.parse_us_per_lookup"]
            + layers["service.lookup_us_per_lookup"]
            + layers["protocol.encode_us_per_lookup"]
        )
        layers.update(probes.engine_layers(batch, records))
        spec = ScenarioSpec.from_dict(self.spec)
        layers["scenario.session_open_s"] = harness.probe(
            lambda: Session.open(spec), calls=3
        )
        session = Session.open(spec)
        for _ in range(WARMUP_EPOCHS):
            session.step()
        layers["scenario.step_p50_ms"] = harness.probe(session.step, calls=3) * 1e3
        return layers


class _ServerCpu:
    """Operations per server CPU second, sampled about once a second.

    ``/proc/<pid>/stat`` counts in 10 ms ticks, so a sample spans at
    least :data:`CPU_SAMPLE_S` of wall to keep the quantisation near 1%.
    """

    def __init__(self, workload: "_ServeWorkload"):
        self.workload = workload
        self.wall = time.perf_counter()
        self.cpu = harness.process_cpu_seconds(workload.server.pid)
        self.ops = workload.window.ops - workload.window.failed_ops

    def sample(self, now: float, *, last: bool = False) -> None:
        """Take a sample if one is due (``last``: or none was taken yet)."""
        due = now - self.wall >= CPU_SAMPLE_S
        if not (due or (last and not self.workload.window.ops_per_cpu_s)):
            return
        window = self.workload.window
        cpu = harness.process_cpu_seconds(self.workload.server.pid)
        ops = window.ops - window.failed_ops
        if cpu > self.cpu:
            window.ops_per_cpu_s.append((ops - self.ops) / (cpu - self.cpu))
        self.wall, self.cpu, self.ops = now, cpu, ops


def _closed_loop(
    workload: _ServeWorkload,
    send: Callable[[object], Dict[str, object]],
    *,
    seconds: float,
    ops_per_item: int,
    prefix: int,
    chunk: int,
    hooks: Dict[int, Callable[[], None]],
    record: Callable[[object, Dict[str, object]], None],
) -> None:
    """One caller, one request in flight, until ``seconds`` have passed.

    Items cycle through ``workload.items``; ``hooks[i]`` runs before
    request ``i``; the first ``prefix`` replies go to ``record`` (and are
    finished off the clock when the window closes first).  Throughput is
    taken per chunk of ``chunk`` requests so one slow stretch — the hook's
    commit, a neighbour's burst — moves one sample, not the median.
    """
    window = workload.window
    items = workload.items
    server_cpu = _ServerCpu(workload)
    started = time.perf_counter()
    deadline = started + float(seconds)
    chunk_start, chunk_ops = started, 0
    index = 0
    while True:
        in_window = time.perf_counter() < deadline
        if not in_window and index >= prefix:
            break
        hook = hooks.get(index)
        item = items[index % len(items)]
        t0 = time.perf_counter()
        try:
            if hook is not None:
                hook()
                t0 = time.perf_counter()
            reply = send(item)
        except (ValidationError, OSError):
            # Refused, timed out, or the server died: the request failed.
            # A dead server fails everything still owed and ends the run.
            reply = None
        t1 = time.perf_counter()
        if in_window:
            window.ops += ops_per_item
            window.wall_s = t1 - started
            if reply is None:
                window.failed_ops += ops_per_item
            else:
                window.request_s.append(t1 - t0)
                chunk_ops += ops_per_item
                if (index + 1) % chunk == 0:
                    window.close_chunk(chunk_ops, t1 - chunk_start)
                    chunk_start, chunk_ops = t1, 0
                    server_cpu.sample(t1)
        if reply is None and not workload.server.alive():
            if index < prefix:
                window.failed_ops += (prefix - index) * ops_per_item
            break
        if reply is not None and index < prefix:
            record(item, reply)
        index += 1
    server_cpu.sample(time.perf_counter(), last=True)
    window.requests_run = index


def _batch_probe_request(
    reference: Reference, pairs: List[List[int]]
) -> Tuple[bytes, Dict[str, object], int]:
    line = probes.request_line("lookup_batch", 7, pairs=pairs)
    return line, reference.service.lookup_batch(pairs), len(pairs)


def _batch_probe_lookup(reference: Reference, pairs: List[List[int]]) -> float:
    return harness.probe(lambda: reference.service.lookup_batch(pairs)) / len(pairs)


class ServeBatched(_ServeWorkload):
    name = "serve_batched"
    traffic_model = "multipath"

    def __init__(self, seed: int, smoke: bool, scratch: harness.Scratch):
        super().__init__(seed, smoke, scratch)
        self.frame = 64 if smoke else 512
        self.pool = 8 if smoke else 128
        self.prefix = 16 if smoke else 256
        self.mutate_at = self.prefix // 2
        self.chunk = 4 if smoke else 32

    def generate_items(self) -> List[object]:
        pairs = generate_pairs(
            self.traffic_model, self.n, self.frame * self.pool, as_generator(self.seed)
        )
        return [
            [list(pair) for pair in pairs[start : start + self.frame]]
            for start in range(0, len(pairs), self.frame)
        ]

    def _leave(self) -> None:
        node = int(as_generator(self.seed + 1).integers(self.n))
        mutation = {"kind": "leave", "nodes": [node]}
        idem = f"bench-{self.seed}-leave"
        self.mutate_and_step(mutation, idem)
        self.events += [("mutate", mutation, idem), ("step",)]

    def measure(self, seconds: float) -> None:
        _closed_loop(
            self,
            self.client.lookup_batch,
            seconds=seconds,
            ops_per_item=self.frame,
            prefix=self.prefix,
            chunk=self.chunk,
            hooks={self.mutate_at: self._leave},
            record=lambda pairs, reply: self.events.append(
                ("lookups", pairs, reply["values"], reply["epoch"], reply["version"])
            ),
        )

    def probe_request(self, reference: Reference) -> Tuple[bytes, Dict[str, object], int]:
        return _batch_probe_request(reference, self.items[0])

    def probe_lookup(self, reference: Reference) -> float:
        return _batch_probe_lookup(reference, self.items[0])


class ServeSingle(_ServeWorkload):
    name = "serve_single"

    def __init__(self, seed: int, smoke: bool, scratch: harness.Scratch):
        super().__init__(seed, smoke, scratch)
        self.pool = 512 if smoke else 32768
        self.prefix = 256 if smoke else 8192
        self.chunk = 64 if smoke else 1024

    def generate_items(self) -> List[object]:
        return generate_pairs(
            self.traffic_model, self.n, self.pool, as_generator(self.seed)
        )

    def measure(self, seconds: float) -> None:
        _closed_loop(
            self,
            lambda pair: self.client.lookup(pair[0], pair[1]),
            seconds=seconds,
            ops_per_item=1,
            prefix=self.prefix,
            chunk=self.chunk,
            hooks={},
            record=lambda pair, reply: self.events.append(
                ("lookups", [pair], [reply["value"]], reply["epoch"], reply["version"])
            ),
        )

    def probe_request(self, reference: Reference) -> Tuple[bytes, Dict[str, object], int]:
        src, dst = self.items[0]
        line = probes.request_line("lookup", 7, src=src, dst=dst)
        return line, reference.service.lookup(src, dst), 1

    def probe_lookup(self, reference: Reference) -> float:
        src, dst = self.items[0]
        return harness.probe(lambda: reference.service.lookup(src, dst))


class ServeWriteMix(_ServeWorkload):
    name = "serve_write_mix"
    durable = True
    traffic_model = "multipath"
    FRAMES_PER_ROUND = 4

    def __init__(self, seed: int, smoke: bool, scratch: harness.Scratch):
        super().__init__(seed, smoke, scratch)
        self.frame = 16 if smoke else 64
        self.pool = 16 if smoke else 256
        #: Rounds whose writes and answers the reference replays.
        self.prefix_rounds = 4 if smoke else 8
        #: One chunk is a whole cycle of the mutation rotation (3 rounds)
        #: and the checkpoint cadence (4), so all chunks do the same work.
        self.rounds_per_chunk = 3 if smoke else 12
        self.commit_s: List[float] = []
        self._away: Optional[int] = None
        self._rng = as_generator(self.seed + 2)
        self._last_write: Optional[Tuple[Dict[str, object], str]] = None
        directory = scratch.subdir("reference")
        self.reference_options = {
            "log_path": os.path.join(directory, "serve-log.jsonl"),
            "checkpoint_dir": os.path.join(directory, "checkpoints"),
            "checkpoint_every": CHECKPOINT_EVERY,
        }

    def generate_items(self) -> List[object]:
        pairs = generate_pairs(
            self.traffic_model, self.n, self.frame * self.pool, as_generator(self.seed)
        )
        return [
            [list(pair) for pair in pairs[start : start + self.frame]]
            for start in range(0, len(pairs), self.frame)
        ]

    def _mutation(self, round_index: int) -> Dict[str, object]:
        """leave -> join (the same node) -> drift, rotating."""
        phase = round_index % 3
        if phase == 0:
            self._away = int(self._rng.integers(self.n))
            return {"kind": "leave", "nodes": [self._away]}
        if phase == 1:
            return {"kind": "join", "nodes": [self._away]}
        return {"kind": "drift", "steps": 1}

    def _round(self, round_index: int, frame_s: List[float]) -> float:
        """One write and its reads; returns seconds from mutate to commit."""
        in_prefix = round_index < self.prefix_rounds
        mutation = self._mutation(round_index)
        idem = f"bench-{self.seed}-{round_index}"
        started = time.perf_counter()
        self.mutate_and_step(mutation, idem)
        commit_s = time.perf_counter() - started
        self._last_write = (mutation, idem)
        if in_prefix:
            self.events += [("mutate", mutation, idem), ("step",)]
        for slot in range(self.FRAMES_PER_ROUND):
            pairs = self.items[(round_index * self.FRAMES_PER_ROUND + slot) % len(self.items)]
            t0 = time.perf_counter()
            reply = self.client.lookup_batch(pairs)
            frame_s.append(time.perf_counter() - t0)
            if in_prefix:
                self.events.append(
                    ("lookups", pairs, reply["values"], reply["epoch"], reply["version"])
                )
        return commit_s

    def measure(self, seconds: float) -> None:
        window = self.window
        lookups_per_round = self.frame * self.FRAMES_PER_ROUND
        server_cpu = _ServerCpu(self)
        started = time.perf_counter()
        deadline = started + float(seconds)
        chunk_start, chunk_ops = started, 0
        round_index = 0
        while True:
            in_window = time.perf_counter() < deadline
            if not in_window and round_index >= self.prefix_rounds:
                break
            frame_s: List[float] = []
            try:
                commit_s = self._round(round_index, frame_s)
            except (ValidationError, OSError):
                # A failed write or read fails the round's lookups; a dead
                # server ends the run instead of hanging on it.
                if in_window:
                    window.ops += lookups_per_round
                    window.failed_ops += lookups_per_round
                if not self.server.alive():
                    break
                round_index += 1
                continue
            round_index += 1
            if not in_window:
                continue
            now = time.perf_counter()
            window.ops += lookups_per_round
            window.request_s += frame_s
            window.wall_s = now - started
            self.commit_s.append(commit_s)
            chunk_ops += lookups_per_round
            if round_index % self.rounds_per_chunk == 0:
                window.close_chunk(chunk_ops, now - chunk_start)
                chunk_start, chunk_ops = now, 0
                server_cpu.sample(now)
        server_cpu.sample(time.perf_counter(), last=True)
        window.requests_run = round_index

    def after_window(self, trace: bool) -> Tuple[int, int, Dict[str, float]]:
        """SIGKILL, restart on the same log, and account for every ack."""
        layers: Dict[str, float] = {}
        directory = self.server.directory
        if trace:
            names = os.listdir(directory)
            segments = [n for n in names if n.startswith("serve-log.jsonl")]
            layers["oplog.segments"] = float(len(segments))
            layers["oplog.bytes"] = float(
                sum(os.path.getsize(os.path.join(directory, n)) for n in segments)
            )
            layers["checkpoint.bytes"] = float(
                harness.tree_bytes(os.path.join(directory, "checkpoints"))
            )
            layers["server.commit_p50_ms"] = harness.median(self.commit_s) * 1e3
        probe_pairs = self.items[0]
        before = self.client.lookup_batch(probe_pairs)
        self.client.close()
        self.server.kill()
        restart = time.perf_counter()
        self.server.start()
        self.client = self.server.connect(self.seed)
        snapshot = self.client.snapshot()
        layers["server.recovery_ready_s"] = time.perf_counter() - restart
        after = self.client.lookup_batch(probe_pairs)
        mutation, idem = self._last_write
        resent = self.client.mutate(mutation, idem=idem)
        checks = [
            # Every acknowledged step survived the crash ...
            snapshot["epochs_completed"] == self.epochs_acked,
            # ... the last acknowledged mutation is remembered, not re-applied ...
            bool(resent.get("deduplicated")),
            # ... and the recovered overlay answers exactly as before it.
            after["epoch"] == before["epoch"] and after["values"] == before["values"],
        ]
        return len(checks), checks.count(False), layers

    def probe_request(self, reference: Reference) -> Tuple[bytes, Dict[str, object], int]:
        return _batch_probe_request(reference, self.items[0])

    def probe_lookup(self, reference: Reference) -> float:
        # As the workload reads: a version bump empties the row memo, then
        # the round's four frames find it cold, then warming.  The median
        # frame, to set against the workload's median round trip.
        service, frames = reference.service, self.items[: self.FRAMES_PER_ROUND]
        samples = []
        for _ in range(5):
            service.tick()
            samples += [
                harness.timed(lambda: service.lookup_batch(pairs)) for pairs in frames
            ]
        return harness.median(samples) / self.frame

    def durability_layers(self, reference: Reference) -> Dict[str, float]:
        service = reference.service
        layers = probes.durability_layers(
            service.session, self.spec, self.scratch.subdir("durability")
        )
        # Clean close, then a timed recovery of the same log + checkpoints;
        # the later probes run on the recovered service.
        service.close()
        options = self.reference_options
        started = time.perf_counter()
        reference.service = OverlayService.recover(
            options["log_path"],
            checkpoint_dir=options["checkpoint_dir"],
            checkpoint_every=CHECKPOINT_EVERY,
        )
        layers["service.recover_ms"] = (time.perf_counter() - started) * 1e3
        layers["service.replayed_epochs"] = float(
            reference.service.last_recovery.replayed_epochs
        )
        return layers


WORKLOADS = {cls.name: cls for cls in (ServeBatched, ServeSingle, ServeWriteMix)}


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> harness.Outcome:
    # The server child inherits the one-CPU affinity of its parent.
    with harness.Scratch(name) as scratch, harness.one_cpu():
        return WORKLOADS[name](seed, smoke, scratch).run(seconds, trace)
