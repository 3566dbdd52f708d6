"""The architecture rules: the package layer order and the one-copy rules.

Each rule is one ``test_*`` function over a repository root (this checkout
by default).  Its docstring gives the reason and the commit that set it.
A rule reads source text and syntax trees only and imports nothing, so it
runs on a small planted tree just as well:
``test_every_rule_fails_on_its_planted_violation`` builds one minimal tree
that keeps every rule, then breaks each rule in turn and requires it to
fail.

Two kinds of check:

* a *tombstone* keeps a deleted name from returning.  It matches text
  anywhere on a line, as grep does (a whole word or part of a longer one,
  in code, comments and strings alike), over ``src/`` and, where a rule
  says so, ``tests/`` and the top-level files;
* a *placement* check says where a definition lives, who calls it or
  what a module imports.  It reads syntax trees over all of ``src/``, so
  moving code cannot make it pass without checking anything; a module a
  rule names by name must exist, or the rule fails.

``tests/test_no_test_only_code.py`` is the other stand-alone scan.  Runs
under pytest and stand-alone, with nothing but the standard library::

    python tests/test_architecture.py
"""

from __future__ import annotations

import ast
import functools
import re
import sys
import tempfile
from pathlib import Path

SELF = Path(__file__).resolve()
ROOT = SELF.parent.parent

#: The package layer order, bottom to top.  A package may import only
#: from layers below its own; packages that share a layer are siblings
#: and import nothing from each other.  ``repro`` is the package root
#: (``repro/__init__.py`` and ``repro/version.py``), ``cli`` the
#: top-level dispatcher ``repro/cli.py``.
LAYERS = (
    ("repro",),
    ("util",),
    ("telemetry",),
    ("routing",),
    ("netsim",),
    ("churn",),
    ("core",),
    ("game", "apps"),
    ("scenario",),
    ("experiments",),
    ("sweep", "serve"),
    ("cli",),
)

#: The import edges allowed to point up the order, each with its reason.
#: An entry whose edge is gone fails the layer rule, so none goes stale.
BACK_EDGES = {
    ("scenario", "experiments"): (
        "scenario/registry.py imports repro.experiments so the experiments "
        "register their runners: bench/sweep_workload.py runs "
        "SimulationSession(spec).run(), which must resolve a runner; the "
        "registry moves beside the experiments after ROADMAP [1]"
    ),
}


# ---------------------------------------------------------------------- #
# Reading a tree
# ---------------------------------------------------------------------- #
class Tree:
    """The sources a rule reads, under one repository root."""

    def __init__(self, root: Path):
        self.root = root
        src = root / "src"
        #: Module name -> path, for every module under ``src/``.
        self.modules: dict[str, Path] = {}
        for path in sorted(src.rglob("*.py")):
            parts = path.relative_to(src).with_suffix("").parts
            self.modules[".".join(parts[:-1] if parts[-1] == "__init__" else parts)] = path
        self._syntax: dict[str, ast.Module] = {}

    def syntax(self, module: str) -> ast.Module:
        if module not in self._syntax:
            path = self.modules[module]
            self._syntax[module] = ast.parse(path.read_text(), str(path))
        return self._syntax[module]

    def require(self, *modules: str) -> None:
        """Fail when a module a rule names is gone: re-point the rule."""
        missing = [module for module in modules if module not in self.modules]
        _none(missing, "modules this rule names are gone; re-point the rule")

    def package(self, name: str) -> list[str]:
        """Every module of package ``name``, itself included."""
        return [m for m in self.modules if m == name or m.startswith(name + ".")]

    def grep(self, pattern: str, *scopes: str) -> list[str]:
        """``path:line: text`` of every line under ``scopes`` (paths from
        the root; directories recursively, every file) matching ``pattern``."""
        paths = []
        for scope in scopes:
            path = self.root / scope
            if path.is_dir():
                paths += sorted(
                    p for p in path.rglob("*") if p.is_file() and "__pycache__" not in p.parts
                )
            elif path.exists():
                paths.append(path)
        # This module holds the tombstones it searches for.
        return self._grep(pattern, [p for p in paths if p != SELF])

    def grep_modules(self, pattern: str, modules) -> list[str]:
        return self._grep(pattern, [self.modules[m] for m in modules])

    def _grep(self, pattern: str, paths) -> list[str]:
        found = []
        for path in paths:
            lines = path.read_text(errors="replace").splitlines()
            found += [
                f"{path.relative_to(self.root)}:{number}: {line.strip()}"
                for number, line in enumerate(lines, 1)
                if re.search(pattern, line)
            ]
        return found

    def imports(self, module: str) -> set[str]:
        """Every module ``module`` imports, at any depth of its code."""
        package = module
        if self.modules[module].name != "__init__.py":
            package = module.rpartition(".")[0]
        found = set()
        for node in ast.walk(self.syntax(module)):
            if isinstance(node, ast.Import):
                found.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = package.split(".")[: len(package.split(".")) - node.level + 1]
                    base = ".".join(parts + ([node.module] if node.module else []))
                found.add(base)
                found.update(
                    f"{base}.{alias.name}"
                    for alias in node.names
                    if f"{base}.{alias.name}" in self.modules
                )
        return found

    def functions(self):
        """``(module, qualified name, node)`` for every def under ``src/``."""
        for module in self.modules:
            stack = [(self.syntax(module), "")]
            while stack:
                node, prefix = stack.pop()
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        name = prefix + child.name
                        if not isinstance(child, ast.ClassDef):
                            yield module, name, child
                        stack.append((child, name + "."))
                    else:
                        stack.append((child, prefix))

    def calls(self, name: str) -> list[tuple[str, str]]:
        """``(module, innermost enclosing def)`` of every call of ``name``,
        as a bare name or an attribute; ``<module>`` outside any def."""
        found = []
        for module in self.modules:
            found += [(module, where) for where, call in _calls(self.syntax(module), "<module>")
                      if _called(call) == name]
        return sorted(found)

    def defines(self, name: str) -> list[str]:
        """Modules defining a class or function called ``name`` anywhere."""
        return sorted(
            module
            for module in self.modules
            for node in ast.walk(self.syntax(module))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and node.name == name
        )


def _calls(node: ast.AST, where: str):
    for child in ast.iter_child_nodes(node):
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
        if isinstance(child, ast.Call):
            yield where, child
        yield from _calls(child, inner)


def _called(call: ast.Call) -> str:
    return getattr(call.func, "id", getattr(call.func, "attr", ""))


@functools.lru_cache(maxsize=None)
def _tree(root: Path) -> Tree:
    return Tree(root)


def _none(found, why: str) -> None:
    if found:
        raise AssertionError(why + ":\n  " + "\n  ".join(map(str, found)))


def _equal(found, expected, why: str) -> None:
    if found != expected:
        raise AssertionError(f"{why}: expected {expected!r}, found {found!r}")


def _unit(module: str) -> str:
    """The layer unit of a module: its top-level package under ``repro``."""
    parts = module.split(".")
    return "repro" if len(parts) == 1 or module == "repro.version" else parts[1]


# ---------------------------------------------------------------------- #
# The layer order and the one durable-write primitive
# ---------------------------------------------------------------------- #
def test_packages_follow_the_layer_order(root: Path = ROOT) -> None:
    """Every import, function-level ones included, points down ``LAYERS``.

    A package that imports a sibling or a layer above it makes the two
    one unit: a server process loaded all ten experiment modules and the
    sweep executor because ``serve/checkpoint.py`` borrowed the sweep
    backend's atomic write.  The only edge allowed up the order is in
    ``BACK_EDGES``, and it must still exist.  Set with this module, when
    the durable writes moved to ``repro.util.durable_io``.
    """
    tree = _tree(root)
    rank = {unit: level for level, units in enumerate(LAYERS) for unit in units}
    _none(
        sorted({_unit(m) for m in tree.modules} - set(rank)),
        "packages with no place in LAYERS",
    )
    wrong, used = [], set()
    for module in tree.modules:
        for target in sorted(tree.imports(module)):
            edge = (_unit(module), _unit(target))
            if target.split(".")[0] != "repro" or edge[0] == edge[1]:
                continue
            if edge[1] not in rank:
                wrong.append(f"{module} imports {target}, which has no layer")
            elif rank[edge[0]] > rank[edge[1]]:
                continue
            elif edge in BACK_EDGES:
                used.add(edge)
            else:
                wrong.append(f"{module} imports {target} ({edge[0]} -> {edge[1]})")
    _none(wrong, "imports that do not point down the layer order")
    _none(sorted(set(BACK_EDGES) - used), "BACK_EDGES entries whose edge is gone")


def test_one_directory_fsync(root: Path = ROOT) -> None:
    """A directory fsync is defined once: ``repro.util.durable_io.fsync_dir``.

    It used to exist three times (the mutation log's, the shared-fs
    backend's, and the checkpoint manager's borrowed backend), and the
    recovery archive rename had none.  A definition is any function that
    calls both ``os.open`` and ``os.fsync``: a directory cannot be opened
    with ``open()``.  Set with this module.
    """
    tree = _tree(root)
    found = []
    for module, name, node in tree.functions():
        called = {
            call.func.attr
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and getattr(call.func.value, "id", None) == "os"
        }
        if {"open", "fsync"} <= called:
            found.append((module, name))
    _equal(sorted(found), [("repro.util.durable_io", "fsync_dir")], "directory fsync definitions")


# ---------------------------------------------------------------------- #
# The one-copy rules of earlier simplifications
# ---------------------------------------------------------------------- #
def test_engine_batch_knows_nothing_of_builds(root: Path = ROOT) -> None:
    """The deployment batch imports the engine batch's driver, never the
    other way round: the engine batch knows nothing of builds.  Set by
    28cf85a (one fused best-response kernel)."""
    tree = _tree(root)
    engines, builds = tree.defines("EngineBatch"), tree.defines("DeploymentBatch")
    _equal((len(engines), len(builds)), (1, 1), "EngineBatch / DeploymentBatch definitions")
    _none(
        sorted(tree.imports(engines[0]) & {builds[0]}),
        f"{engines[0]} imports the deployment batch",
    )
    _none(
        tree.grep_modules(r"repro.core.deployment_batch import", engines),
        "the engine batch names a deployment-batch import",
    )


def test_one_lockstep_driver(root: Path = ROOT) -> None:
    """A best-response build round is an epoch of the engine batch's round
    loop; the build's own loop, planner and fused step must not return.
    The fused kernel has two callers: ``_LockstepDriver._fused_engine_steps``
    for a group and ``best_response_local_search`` for one evaluator.  Set
    by 15667d3 (one lockstep driver)."""
    tree = _tree(root)
    _none(
        tree.grep(
            r"_BRBuildState|_build_lockstep|_refill_waves|_fused_rewire_steps"
            r"|_evaluator_rewire_step",
            "src",
        ),
        "the build-side lockstep copy returned",
    )
    lines = [
        line
        for line in tree.grep(r"fused_best_response\(", "src")
        if "def fused_best_response(" not in line
    ]
    _equal(len(lines), 2, f"lines calling fused_best_response( {lines}")
    _equal(
        sorted(where for _module, where in tree.calls("fused_best_response")),
        ["_fused_engine_steps", "best_response_local_search"],
        "callers of fused_best_response",
    )


def test_one_local_search(root: Path = ROOT) -> None:
    """The greedy-seeded single-swap local search exists once, as the fused
    kernel in ``core/best_response.py``; the evaluator path is a one-member
    call of it, and the evaluator-side copy (its greedy seed, swap kernel
    and seed knobs) must not return.  The no-improving-swap certificate
    lives beside the swap pass it stands in for, once.  Set by c3c174d
    (the evaluator's local search through the fused kernel); the
    certificate clause by 950db9c."""
    tree = _tree(root)
    _none(
        tree.grep(r"def _greedy_seed|def swap_costs|seed_wiring|greedy_seed", "src"),
        "the evaluator-side local search returned",
    )
    for definition in ("def fused_best_response", "def _no_improving_swap"):
        _equal(
            [line.split(":")[0] for line in tree.grep(definition, "src")],
            ["src/repro/core/best_response.py"],
            f"lines with {definition!r}",
        )


def test_two_execution_tiers_only(root: Path = ROOT) -> None:
    """Lockstep batches and the plain sequential code; the scalar
    best-response tier lives in ``tests/reference/`` as an oracle, and no
    slowed-down reference copy or kernel switch may return.  Set by
    9d7f468 (two execution tiers, not three)."""
    tree = _tree(root)
    _none(tree.grep(r"vectorized", "src"), "the vectorized= switch returned")
    _none(
        tree.grep(r"reference_kernels|_REFERENCE_ONLY|_reference_build_overlay", "src", "tests"),
        "a reference copy of the kernels returned",
    )


def test_a_cached_residual_is_valid_or_recomputed(root: Path = ROOT) -> None:
    """No layer patches a stale ``ResidualRouteCache`` entry; the names of
    the one that did must not return (``shortest_inbound_tables`` stays:
    the maintained planner's repair uses it).  Set by 49c97c6."""
    _none(
        _tree(root).grep(
            r"repair_route_entry|repair_widest_rows|widest_inbound_tables"
            r"|def _inbound_tables|_REPAIR_MAX_SUSPECT|_STEP_REPAIR_MAX_SUSPECT"
            r"|max_fraction|dense_residual",
            "src",
        ),
        "the cache-entry repair returned",
    )


def test_one_repair_kernel(root: Path = ROOT) -> None:
    """The maintained planner stacks its repairs across the lockstep group
    through the one kernel in ``routing/shortest_path.py``; a per-engine
    derive path, or a second copy of the screen or of the cell
    relaxation, must not return.  The group's repair tables are built
    once per epoch and patched after that: outside the routing module
    only ``_LockstepDriver._group_tables`` builds them.  Set by ea6f208
    (the stacked maintained planner); the table clause by 950db9c."""
    tree = _tree(root)
    _none(tree.grep(r"def derive_residual", "src"), "a per-engine derive path returned")
    for definition in ("def _relax_cells", "def screen_shortest_repair"):
        _equal(len(tree.grep(definition, "src")), 1, f"lines with {definition!r}")
    home = tree.defines("shortest_inbound_tables")
    _equal(
        [(m, where) for m, where in tree.calls("shortest_inbound_tables") if m not in home],
        [("repro.core.engine_batch", "_group_tables")],
        "builders of the repair tables",
    )


def test_one_link_state_table_one_announce_path(root: Path = ROOT) -> None:
    """What each node heard is one (n, n) table per engine
    (``LinkStateProtocol.held``); the per-node databases and the two netsim
    modules nothing imported must not return, and the adoption tail
    (``EgoistEngine.announce``) is the flood's one caller.  Set by 21b963f."""
    tree = _tree(root)
    _none(tree.grep(r"TopologyDatabase", "src", "tests"), "per-node databases returned")
    _none(tree.grep(r"netsim.probing|netsim.traces", "src"), "unused netsim modules returned")
    _equal(len(tree.grep(r"protocol.broadcast\(", "src")), 1, "lines calling protocol.broadcast(")


def test_serve_reads_the_epochs_matrix(root: Path = ROOT) -> None:
    """Lookups read ``EpochView.route_values``, the matrix the epoch was
    scored with; a serve-side route computation (sweep, residual cache
    salvage, the wiring changelog that screened it) must not return.
    Set by 2fc357c."""
    tree = _tree(root)
    _none(
        tree.grep(
            r"changed_since|versioned_get|_cache_row|cache_row_miss|_RouteTable", "src", "tests"
        ),
        "the serve-side route table returned",
    )
    _none(
        tree.grep_modules(r"costs_multi|bandwidths_multi", tree.package("repro.serve")),
        "serve computes routes",
    )


#: The lockstep batches and the kernels they share.
LOCKSTEP_MODULES = tuple(
    f"repro.core.{name}"
    for name in ("engine_batch", "deployment_batch", "lockstep", "best_response", "hybrid")
)


def test_route_cache_is_the_sequential_engines_memo(root: Path = ROOT) -> None:
    """The lockstep batches hand each residual they plan to the step that
    reads it, in the round that plans it, so they never import or stamp the
    cache; the knobs that sized or switched it, and the dead immediate
    re-wire mode, must not return.  Set by d7f1936."""
    tree = _tree(root)
    tree.require(*LOCKSTEP_MODULES)
    _none(
        tree.grep_modules(r"route_cache|ResidualRouteCache|set_token", LOCKSTEP_MODULES),
        "a lockstep module touches the route cache",
    )
    _none(tree.grep(r"RewireMode|rewire_mode|route_cache_size", "src"), "cache knobs returned")


def test_a_round_plans_only_what_it_reads(root: Path = ROOT) -> None:
    """A lockstep round plans the residual of the node each stepping
    deployment steps and hands it straight to that step, so nothing
    planned outlives its round.  The speculative planning that parked
    residuals ahead of their steps — the per-state mailbox, the wave
    caps, the avoid-one pass, the predicted-refresh walk, the bandwidth
    fill and the count of what it threw away — must not return."""
    _none(
        _tree(root).grep(
            r"mailbox|wave_cap|_AVOID_ONE_MIN_WAVE|bottleneck_avoid_one"
            r"|fill_bandwidth_residuals|_plan_speculative_jobs|prefill\.discarded",
            "src",
        ),
        "speculative residual planning returned",
    )


def test_one_response_encoder(root: Path = ROOT) -> None:
    """Response lines are ``protocol.encode``'s alone (it splices the
    ``lookup_batch`` values pre-joined from the view's tokens), and there
    is no second batch path beside ``OverlayService.lookup_batch`` (the
    client's is the caller, not a path).  Every serve module but the
    protocol and the checkpoint envelope's writer is searched, so an
    encoder moved anywhere in serve is caught.  Set by d27e60f; widened by
    9f3c66f when code moved to ``serve/durable.py`` and ``serve/cli.py``."""
    tree = _tree(root)
    writers = {"repro.serve.protocol", "repro.serve.checkpoint"}
    others = [m for m in tree.package("repro.serve") if m not in writers]
    _none(
        tree.grep_modules(r"json\.dumps", others),
        "a second JSON writer in serve",
    )
    batch = [m for m in tree.modules if m != "repro.serve.client"]
    found = tree.grep_modules(r"def lookup_batch", batch)
    if len(found) > 1:
        _none(found, "more than one lookup_batch path")


def test_serve_answers_in_the_read_callback(root: Path = ROOT) -> None:
    """Each serve connection answers a line in the callback that read it
    and writes the reply to its transport, so no request waits in a
    queue for a worker task.  The stream handler, the admission queue and
    its worker must not return."""
    tree = _tree(root)
    _none(
        tree.grep_modules(
            r"\b(_request_worker|_admit|_handle_connection)\b|Queue\(maxsize",
            tree.package("repro.serve"),
        ),
        "a request queue or worker task returned to serve",
    )


def test_one_wire_codec(root: Path = ROOT) -> None:
    """orjson reads and writes the wire behind ``serve/protocol.py`` alone;
    the client and the server call its functions, never a JSON library of
    their own.  Set by a238de8."""
    tree = _tree(root)
    wire = ("repro.serve.client", "repro.serve.server")
    tree.require(*wire)
    importers = sorted(
        m for m in tree.modules if any(t.split(".")[0] == "orjson" for t in tree.imports(m))
    )
    _none(
        [m for m in importers if m != "repro.serve.protocol"],
        "orjson imported outside the protocol",
    )
    _none(
        [
            line
            for line in tree.grep(r"^\s*(import|from) orjson", "src")
            if not line.startswith("src/repro/serve/protocol.py:")
        ],
        "orjson imported outside the protocol",
    )
    _none(tree.grep_modules(r"json\.loads|json\.dumps", wire), "the client or server codes JSON")
    _none(
        [(m, t) for m in wire for t in tree.imports(m) if t.split(".")[0] in ("json", "orjson")],
        "the client or server imports a JSON library",
    )


def test_one_benchmark_system(root: Path = ROOT) -> None:
    """Speed is judged by ``bench/`` alone (absolute numbers on the
    BENCHMARK.json workloads); tier-1 holds deterministic counts.  The
    wall-clock ratio gates, their stopwatch plugin and the
    downloaded-artifact comparison must not return.  Set by b69c1bd."""
    tree = _tree(root)
    if (root / "benchmarks").exists():
        _none(["benchmarks/"], "the benchmarks/ tree returned")
    _none(
        tree.grep(
            r"REQUIRED_SPEEDUP|benchmark.pedantic|pytest-benchmark|compare_bench",
            "src", "tests", "setup.py", "pytest.ini", "README.md",
        ),
        "a wall-clock gate returned",
    )


def test_one_way_to_run_an_experiment(root: Path = ROOT) -> None:
    """An experiment runs from its registered ScenarioSpec alone
    (``run_spec(default_spec(name).override(...), batched=...)``); the
    per-figure front-door functions, the kwargs layers under them and their
    ``batched=`` knobs must not return, and ``repro.experiments`` exports
    only the result containers.  Set by bfe4744."""
    tree = _tree(root)
    tree.require("repro.experiments")
    _none(
        tree.grep(r"def (fig[0-9]|policy_comparison|overhead_table|_sampling_experiment)", "src"),
        "a per-figure front door returned",
    )
    _none(
        [
            f"{module}:{node.lineno}"
            for module in tree.package("repro.experiments")
            for node in ast.walk(tree.syntax(module))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            and "batched"
            in [a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs]
        ],
        "experiment code takes batched",
    )
    exported = [
        ast.literal_eval(node.value)
        for node in tree.syntax("repro.experiments").body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "__all__" for target in node.targets)
    ]
    _equal(exported, [["ExperimentResult", "Series"]], "repro.experiments.__all__")


def test_one_log_reader(root: Path = ROOT) -> None:
    """``serve/replay.py`` is the only interpreter of the mutation log:
    recovery, serve-replay and the chain fallback compose its one fold,
    header check, checkpoint-anchor loader and chain replay.  The second
    readers must not return, and an epoch digest is computed once where it
    is served (the tick) and once where it is checked (the fold).  Set by
    61647c1."""
    tree = _tree(root)
    _none(
        tree.grep(
            r"def (collect_windows|session_from_segments|_replay_from_checkpoint"
            r"|_restore_start_state|latest)\b",
            "src",
        ),
        "a second log reader returned",
    )
    home = tree.defines("epoch_record_digest")
    lines = [
        module
        for module in tree.modules
        if module not in home
        for _line in tree.grep_modules(r"epoch_record_digest\(", [module])
    ]
    _equal(
        sorted(lines),
        ["repro.serve.replay", "repro.serve.service"],
        "lines with epoch_record_digest( outside the codec",
    )


def test_one_tier_at_the_front_doors(root: Path = ROOT) -> None:
    """Every CLI verb, serve, sweeps and the lifecycle session run the
    lockstep tier; the sequential tier is the tests' reference behind
    SimulationSession / run_spec / EngineBatch / DeploymentBatch
    (``batched=False``).  The tier flags, ``run --verbose`` and the
    ``batched=`` knobs must not return; ``serve/checkpoint.py`` keeps the
    envelope field until checkpoints become a state document.  Set by
    78f2e28; widened by 9f3c66f when the verbs moved to ``*/cli.py``."""
    tree = _tree(root)
    tree.require("repro.cli", "repro.scenario.lifecycle")
    _none(tree.grep(r"--sequential|--verbose", "src"), "a tier flag returned")
    doors = [
        m
        for m in tree.modules
        if m.endswith(".cli")
        or m == "repro.scenario.lifecycle"
        or (m.split(".")[1:2] in (["sweep"], ["serve"]) and m != "repro.serve.checkpoint")
    ]
    _none(tree.grep_modules(r"batched", doors), "a front door names batched")


def test_cli_is_a_dispatcher(root: Path = ROOT) -> None:
    """Each subsystem owns its verbs (``register(subparsers)`` in
    ``src/repro/<subsystem>/cli.py``); the top-level module keeps only the
    parser, the handler dispatch and the exit-2 rule.  Set by 9f3c66f."""
    tree = _tree(root)
    tree.require("repro.cli")
    _none(tree.grep_modules(r"add_argument\(", ["repro.cli"]), "repro.cli defines flags")


def test_one_deployment_batch_construction_site(root: Path = ROOT) -> None:
    """A ``DeploymentBatch`` is built in ``repro.scenario.session`` alone
    (``SimulationSession.deployment_batch``): a sweep's build-only cells
    share one by going through the scenario layer's group function, never
    by building their own.  Set with the grouped sweep executor."""
    _equal(
        _tree(root).calls("DeploymentBatch"),
        [("repro.scenario.session", "deployment_batch")],
        "constructions of DeploymentBatch",
    )


#: What the sweep layer must not call to run a cell: the scenario
#: layer's execution facade and the registry's runners and plans.
_RUNNERS = (
    "SimulationSession", "run_spec", "deployment_means", "build_deployments",
    "deployment_batch", "engine_sweep", "engine_batch", "runner", "plan",
)


def test_sweeps_run_cells_through_the_group_function(root: Path = ROOT) -> None:
    """``repro.sweep`` reaches a runner only through
    ``repro.scenario.session.run_group``, which decides what shares a
    batch; it calls no session facade, runner or plan itself.  Set with
    the grouped sweep executor."""
    tree = _tree(root)
    tree.require("repro.sweep")
    sweep = tree.package("repro.sweep")
    _none(
        [(m, where, name) for name in _RUNNERS for m, where in tree.calls(name) if m in sweep],
        "the sweep layer runs a cell around the group function",
    )
    _none(
        [] if any(m in sweep for m, _where in tree.calls("run_group")) else ["run_group"],
        "the sweep layer never calls",
    )


RULES = (
    test_packages_follow_the_layer_order,
    test_one_directory_fsync,
    test_engine_batch_knows_nothing_of_builds,
    test_one_lockstep_driver,
    test_one_local_search,
    test_two_execution_tiers_only,
    test_a_cached_residual_is_valid_or_recomputed,
    test_one_repair_kernel,
    test_one_link_state_table_one_announce_path,
    test_serve_reads_the_epochs_matrix,
    test_route_cache_is_the_sequential_engines_memo,
    test_a_round_plans_only_what_it_reads,
    test_one_response_encoder,
    test_serve_answers_in_the_read_callback,
    test_one_wire_codec,
    test_one_benchmark_system,
    test_one_way_to_run_an_experiment,
    test_one_log_reader,
    test_one_tier_at_the_front_doors,
    test_cli_is_a_dispatcher,
    test_one_deployment_batch_construction_site,
    test_sweeps_run_cells_through_the_group_function,
)


# ---------------------------------------------------------------------- #
# Planted violations: each rule must fail on a tree that breaks it
# ---------------------------------------------------------------------- #
_DIR_FSYNC = """import os


def fsync_dir(path):
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
"""

#: A minimal tree that keeps every rule.
BASELINE = {
    "README.md": "# repro\n",
    "setup.py": "from setuptools import setup\n",
    "pytest.ini": "[pytest]\n",
    "tests/test_smoke.py": "def test_smoke():\n    pass\n",
    "src/repro/__init__.py": "from repro.version import __version__\n",
    "src/repro/version.py": "__version__ = '0'\n",
    "src/repro/cli.py": "VERB_MODULES = ('repro.serve.cli',)\n",
    "src/repro/util/__init__.py": "",
    "src/repro/util/durable_io.py": _DIR_FSYNC,
    "src/repro/routing/__init__.py": "",
    "src/repro/routing/shortest_path.py": (
        "def shortest_inbound_tables(adjacency):\n    return adjacency\n\n\n"
        "def _relax_cells(cells):\n    return cells\n\n\n"
        "def screen_shortest_repair(adjacency):\n    return shortest_inbound_tables(adjacency)\n"
    ),
    "src/repro/core/__init__.py": "",
    "src/repro/core/codec.py": "def epoch_record_digest(records):\n    return str(records)\n",
    "src/repro/core/best_response.py": (
        "def fused_best_response(members):\n    return _no_improving_swap(members)\n\n\n"
        "def _no_improving_swap(members):\n    return members\n\n\n"
        "def best_response_local_search(member):\n    return fused_best_response([member])\n"
    ),
    "src/repro/core/engine.py": (
        "class EgoistEngine:\n    def announce(self):\n        self.protocol.broadcast(0, {})\n"
    ),
    "src/repro/core/engine_batch.py": (
        "from repro.core.best_response import fused_best_response\n"
        "from repro.routing.shortest_path import shortest_inbound_tables\n\n\n"
        "class _LockstepDriver:\n"
        "    def _fused_engine_steps(self, group):\n        return fused_best_response(group)\n\n"
        "    def _group_tables(self, states):\n        return shortest_inbound_tables(states)\n\n\n"
        "class EngineBatch(_LockstepDriver):\n    pass\n"
    ),
    "src/repro/core/deployment_batch.py": (
        "from repro.core.engine_batch import _LockstepDriver\n\n\n"
        "class DeploymentBatch(_LockstepDriver):\n    pass\n"
    ),
    "src/repro/core/lockstep.py": "",
    "src/repro/core/hybrid.py": "",
    "src/repro/scenario/__init__.py": "",
    "src/repro/scenario/lifecycle.py": "class Session:\n    pass\n",
    "src/repro/scenario/registry.py": (
        "def _ensure_loaded():\n    import repro.experiments  # noqa: F401\n"
    ),
    "src/repro/scenario/session.py": (
        "from repro.core.deployment_batch import DeploymentBatch\n\n\n"
        "class SimulationSession:\n"
        "    def deployment_batch(self, specs):\n        return DeploymentBatch(specs)\n\n\n"
        "def run_group(specs):\n    return [SimulationSession() for _ in specs]\n"
    ),
    "src/repro/experiments/__init__.py": (
        "from repro.scenario.lifecycle import Session\n\n"
        "__all__ = ['ExperimentResult', 'Series']\n"
    ),
    "src/repro/sweep/__init__.py": "",
    "src/repro/sweep/dist/__init__.py": "",
    "src/repro/sweep/dist/worker.py": (
        "def _run_specs(specs):\n"
        "    from repro.scenario.session import run_group\n\n    return run_group(specs)\n"
    ),
    "src/repro/serve/__init__.py": "",
    "src/repro/serve/protocol.py": (
        "import json\n\nimport orjson\n\n\n"
        "def encode(message):\n    return json.dumps(message)\n\n\n"
        "def parse_request(line):\n    return orjson.loads(line)\n"
    ),
    "src/repro/serve/checkpoint.py": "def write(session, batched=True):\n    return batched\n",
    "src/repro/serve/replay.py": (
        "from repro.core.codec import epoch_record_digest\n\n\n"
        "def fold_segment(session):\n    return epoch_record_digest(session.step())\n"
    ),
    "src/repro/serve/service.py": (
        "from repro.core.codec import epoch_record_digest\n\n\n"
        "class OverlayService:\n"
        "    def tick(self):\n        return epoch_record_digest([])\n\n"
        "    def lookup_batch(self, pairs):\n        return pairs\n"
    ),
    "src/repro/serve/client.py": (
        "class ServeClient:\n    def lookup_batch(self, pairs):\n        return pairs\n"
    ),
    "src/repro/serve/server.py": "from repro.serve.protocol import encode, parse_request\n",
    "src/repro/serve/cli.py": (
        "def register(subparsers):\n    subparsers.add_parser('serve').add_argument('--spec')\n"
    ),
}

#: ``(rule, what is planted, files replaced or added over BASELINE)``.
PLANTS = (
    (test_packages_follow_the_layer_order, "util imports core",
     {"src/repro/util/clock.py": "def now():\n    from repro.core import engine\n"}),
    (test_packages_follow_the_layer_order, "serve imports its sibling sweep",
     {"src/repro/serve/checkpoint.py": "from repro.sweep import store\n"}),
    (test_packages_follow_the_layer_order, "the allowed back-edge is gone",
     {"src/repro/scenario/registry.py": ""}),
    (test_packages_follow_the_layer_order, "a package with no layer",
     {"src/repro/plugins/__init__.py": ""}),
    (test_one_directory_fsync, "a second directory fsync",
     {"src/repro/serve/oplog.py": _DIR_FSYNC.replace("fsync_dir", "_fsync_dir")}),
    (test_engine_batch_knows_nothing_of_builds, "the engine batch imports the build",
     {"src/repro/core/engine_batch.py": BASELINE["src/repro/core/engine_batch.py"]
      + "\n\ndef _late():\n    from repro.core import deployment_batch\n"}),
    (test_one_lockstep_driver, "the build's lockstep state returns",
     {"src/repro/core/deployment_batch.py": "class _BRBuildState:\n    pass\n"
      + BASELINE["src/repro/core/deployment_batch.py"]}),
    (test_one_lockstep_driver, "a third caller of the fused kernel",
     {"src/repro/core/hybrid.py": "from repro.core import best_response\n\n\n"
      "def step(m):\n    return best_response.fused_best_response([m])\n"}),
    (test_one_local_search, "a second fused kernel",
     {"src/repro/core/hybrid.py": "def fused_best_response(members):\n    return members\n"}),
    (test_one_local_search, "the greedy seed returns",
     {"src/repro/core/hybrid.py": "def greedy_seed(member):\n    return member\n"}),
    (test_two_execution_tiers_only, "a kernel switch returns",
     {"src/repro/core/hybrid.py": "def step(member, vectorized=True):\n    return member\n"}),
    (test_two_execution_tiers_only, "a reference copy in tests",
     {"tests/test_ref.py": "from repro.core import reference_kernels\n"}),
    (test_a_cached_residual_is_valid_or_recomputed, "cache-entry repair returns",
     {"src/repro/core/lockstep.py": "def repair_route_entry(entry):\n    return entry\n"}),
    (test_one_repair_kernel, "a second table builder",
     {"src/repro/core/lockstep.py": "from repro.routing import shortest_path\n\n\n"
      "def derive(states):\n    return shortest_path.shortest_inbound_tables(states)\n"}),
    (test_one_repair_kernel, "a second cell relaxation",
     {"src/repro/core/lockstep.py": "def _relax_cells(cells):\n    return cells\n"}),
    (test_one_link_state_table_one_announce_path, "a second flood call",
     {"src/repro/core/hybrid.py": "def flood(engine):\n    engine.protocol.broadcast(1, {})\n"}),
    (test_one_link_state_table_one_announce_path, "per-node databases in tests",
     {"tests/test_db.py": "TopologyDatabase = dict\n"}),
    (test_serve_reads_the_epochs_matrix, "serve sweeps routes",
     {"src/repro/serve/load.py": "from repro.routing.shortest_path import (\n"
      "    shortest_path_costs_multi,\n)\n"}),
    (test_route_cache_is_the_sequential_engines_memo, "a lockstep module imports the cache",
     {"src/repro/core/lockstep.py": "from repro.core.route_cache import ResidualRouteCache\n"}),
    (test_route_cache_is_the_sequential_engines_memo, "a lockstep module is gone",
     {"src/repro/core/hybrid.py": None}),
    (test_a_round_plans_only_what_it_reads, "a mailbox returns",
     {"src/repro/core/engine_batch.py": BASELINE["src/repro/core/engine_batch.py"]
      + "\n\ndef _park(state, node, residual):\n    state.mailbox[node] = residual\n"}),
    (test_one_response_encoder, "a second response writer",
     {"src/repro/serve/durable.py": "import json\n\n\n"
      "def line(entry):\n    return json.dumps(entry)\n"}),
    (test_one_response_encoder, "a second batch path",
     {"src/repro/serve/batch.py": "def lookup_batch(service, pairs):\n    return pairs\n"}),
    (test_serve_answers_in_the_read_callback, "a request worker returns",
     {"src/repro/serve/server.py": BASELINE["src/repro/serve/server.py"]
      + "\n\nasync def _request_worker(queue):\n    return await queue.get()\n"}),
    (test_one_wire_codec, "the client imports orjson",
     {"src/repro/serve/client.py": "def read(line):\n"
      "    import orjson\n\n    return orjson.loads(line)\n"}),
    (test_one_wire_codec, "the server decodes JSON itself",
     {"src/repro/serve/server.py": "import json\n\n\n"
      "def read(line):\n    return json.loads(line)\n"}),
    (test_one_benchmark_system, "the benchmarks/ tree returns",
     {"benchmarks/test_speed.py": "def test_speed():\n    pass\n"}),
    (test_one_benchmark_system, "a stopwatch plugin in setup.py",
     {"setup.py": "extras = {'test': ['pytest-benchmark']}\n"}),
    (test_one_way_to_run_an_experiment, "a per-figure front door with a tier knob",
     {"src/repro/experiments/baseline.py": "def fig1_delay(n, batched=True):\n    return n\n"}),
    (test_one_way_to_run_an_experiment, "experiments export a runner",
     {"src/repro/experiments/__init__.py": "__all__ = ['ExperimentResult', 'Series', 'run']\n"}),
    (test_one_log_reader, "a second digest computation",
     {"src/repro/serve/durable.py": "from repro.core.codec import epoch_record_digest\n\n\n"
      "def check(records):\n    return epoch_record_digest(records)\n"}),
    (test_one_log_reader, "a second log reader",
     {"src/repro/serve/durable.py": "def latest(directory):\n    return directory\n"}),
    (test_one_tier_at_the_front_doors, "a sweep knob for the tier",
     {"src/repro/sweep/executor.py": "def run_sweep(cells, batched=True):\n    return cells\n"}),
    (test_one_tier_at_the_front_doors, "a tier flag",
     {"src/repro/scenario/cli.py": "FLAGS = ('--sequential',)\n"}),
    (test_cli_is_a_dispatcher, "the dispatcher defines a flag",
     {"src/repro/cli.py": "def build_parser(parser):\n    parser.add_argument('--n')\n"}),
    (test_one_deployment_batch_construction_site, "an experiment builds its own batch",
     {"src/repro/experiments/baseline.py": "from repro.core import deployment_batch\n\n\n"
      "def means(specs):\n    return deployment_batch.DeploymentBatch(specs).run()\n"}),
    (test_sweeps_run_cells_through_the_group_function, "the executor calls a session",
     {"src/repro/sweep/executor.py": "from repro.scenario import session\n\n\n"
      "def cell(spec):\n    return session.SimulationSession(spec).run()\n"}),
    (test_sweeps_run_cells_through_the_group_function, "the worker runs a plan",
     {"src/repro/sweep/dist/worker.py": "def _run_specs(specs, definition, session):\n"
      "    return [definition.plan(session) for _ in specs]\n"}),
)


def _plant(root: Path, files: dict) -> Path:
    for rel, text in {**BASELINE, **files}.items():
        if text is not None:
            (root / rel).parent.mkdir(parents=True, exist_ok=True)
            (root / rel).write_text(text)
    return root


def planted_failures(tmp_path: Path) -> list[tuple[str, str, str]]:
    """``(rule, plant, first line of the rule's failure)`` for every plant;
    raises when the baseline breaks a rule or a plant breaks nothing."""
    baseline = _plant(tmp_path / "baseline", {})
    for rule in RULES:
        rule(baseline)
    _none(
        [rule.__name__ for rule in RULES if rule not in {plant[0] for plant in PLANTS}],
        "rules without a planted violation",
    )
    failures = []
    for number, (rule, what, files) in enumerate(PLANTS):
        try:
            rule(_plant(tmp_path / f"plant{number}", files))
        except AssertionError as error:
            failures.append((rule.__name__, what, str(error).splitlines()[0]))
        else:
            raise AssertionError(f"{rule.__name__} passed with {what!r} planted")
    return failures


def test_every_rule_fails_on_its_planted_violation(tmp_path: Path) -> None:
    """Each rule keeps the minimal BASELINE tree and fails on each of its
    PLANTS, so no rule passes because it checks nothing."""
    assert len(planted_failures(tmp_path)) == len(PLANTS)


def main() -> int:
    problems = []
    for rule in RULES:
        try:
            rule()
        except AssertionError as error:
            problems.append(f"{rule.__name__}: {error}")
    with tempfile.TemporaryDirectory() as scratch:
        try:
            planted_failures(Path(scratch))
        except AssertionError as error:
            problems.append(f"planted violations: {error}")
    for problem in problems:
        print(problem)
    print(f"ARCHITECTURE rules={len(RULES)} plants={len(PLANTS)} problems={len(problems)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
