"""No test-only code under ``src/``.

A fixpoint scan over ``src/repro``: every top-level ``def``/``class`` and
every method of a top-level class must be reached, meaning code in another
``src/``, ``bench/`` or ``examples/`` module, or in its own module outside
its own definition, uses its name — as a name or an attribute in the
syntax tree.  Prose is not a use: docstrings, comments and other string
literals name nothing, and neither do imports (so package ``__init__``
re-exports are not callers) or ``__all__`` lists.  Nor is any code inside
a definition the scan has already found unreached, so a name that only
dead code uses is dead too.  Dunders and the event-loop callbacks of an
``asyncio.Protocol`` subclass (:data:`LOOP_CALLBACKS`) are the runtime's to
call, so the scan does not look for their callers.

The few unreached definitions the repo keeps on purpose are on
``ALLOWLIST``, each with its reason; what an allowlisted definition uses
stays reached.  The list may only shrink: an entry that is now reached, or
whose definition is gone, fails the scan too.

Runs under pytest and stand-alone, with nothing but the standard library::

    python tests/test_no_test_only_code.py
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
#: Where callers are looked for, under a repository root.
CALLER_DIRS = ("src", "bench", "examples")

#: Unreached definitions kept on purpose: ``module:qualname`` (or a whole
#: module) -> the reason.
ALLOWLIST = {
    "repro.core.cost:Metric.node_cost": (
        "oracle: tests/test_properties.py checks the metrics' route costs against it"
    ),
    "repro.routing.graph:OverlayGraph.to_networkx": (
        "oracle: the networkx Dijkstra check of the routing kernels"
    ),
    "repro.routing.graph:OverlayGraph.in_degree": (
        "oracle: the in-degree checks of overlays and backbones"
    ),
    "repro.routing.graph:OverlayGraph.out_degree": (
        "oracle: the out-degree <= k checks of built overlays"
    ),
    "repro.core.backbone:is_backbone_connected": (
        "oracle: the HybridBR backbone checks (the ring reaches every node)"
    ),
    "repro.routing.widest_path:path_bottleneck": (
        "oracle: the widest-path values are checked against a path's bottleneck"
    ),
    "repro.game.sns_game:is_nash_equilibrium": (
        "oracle: converged exact BR is a Nash equilibrium; ROADMAP [9](a) wires it in"
    ),
    "repro.netsim.topology": (
        "waits on ROADMAP [10]: the generated underlay of the n = 10^3 workload"
    ),
    "repro.serve.client:ServeClient.next_event": (
        "protocol client: the client half of the subscribe op"
    ),
    "repro.routing.linkstate:LinkStateProtocol.view_of": (
        "waits on ROADMAP's parked per-node-view item: routes from what a node heard"
    ),
    "repro.routing.widest_path:bottleneck_closure": (
        "oracle: the definitional max-min closure the fast closures are pinned against"
    ),
    "repro.core.sampling:bias_rank": (
        "oracle: the paper's b_ij for one candidate, which the sampling tests rank by"
    ),
    "repro.scenario.session:run_spec": (
        "library front door: README's Python way to run a spec"
    ),
    "repro.telemetry.diagnostics:strip_diagnostics": (
        "result comparison: CI's parity step and docs/observability.md strip with it"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)

#: The callbacks an asyncio event loop makes on a protocol object.  Like a
#: dunder, such a method of an ``asyncio.Protocol`` subclass is called by
#: the runtime, so it is not a definition the scan looks for callers of.
LOOP_CALLBACKS = frozenset(
    {
        "connection_made",
        "connection_lost",
        "data_received",
        "eof_received",
        "pause_writing",
        "resume_writing",
    }
)


def _is_asyncio_protocol(node: ast.ClassDef) -> bool:
    return any(
        isinstance(base, ast.Attribute)
        and base.attr == "Protocol"
        and isinstance(base.value, ast.Name)
        and base.value.id == "asyncio"
        for base in node.bases
    )


@dataclass(eq=False)
class Definition:
    """A top-level def/class of ``module``, or a method of one (``parent``)."""

    module: str
    qualname: str
    path: Path
    start: int
    end: int
    parent: Optional["Definition"] = None

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def allowed(self) -> bool:
        return any(
            entry in (self.key, self.module)
            or (self.parent is not None and entry == self.parent.key)
            for entry in ALLOWLIST
        )


def _module_name(path: Path, src: Path) -> str:
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _definitions(path: Path, tree: ast.Module, src: Path) -> list[Definition]:
    module = _module_name(path, src)

    def make(node, qualname, parent=None):
        start = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return Definition(module, qualname, path, start, node.end_lineno, parent)

    found = []
    for node in tree.body:
        if isinstance(node, _DEFS + (ast.ClassDef,)):
            top = make(node, node.name)
            found.append(top)
            if isinstance(node, ast.ClassDef):
                runtime = LOOP_CALLBACKS if _is_asyncio_protocol(node) else ()
                found += [
                    make(child, f"{node.name}.{child.name}", top)
                    for child in node.body
                    if isinstance(child, _DEFS)
                    and not (child.name.startswith("__") and child.name.endswith("__"))
                    and child.name not in runtime
                ]
    return found


def _uses(tree: ast.AST):
    """``(name, line)`` of every name and attribute the code uses."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def scan(root: Path = ROOT) -> tuple[list[Definition], dict[str, Definition]]:
    """``(unreached definitions, every definition by key)`` at the fixpoint,
    over the repository at ``root``."""
    package = root / "src" / "repro"
    definitions: list[Definition] = []
    mentions: dict[str, list[tuple[Path, int]]] = {}  # name -> (path, line)s
    for base in CALLER_DIRS:
        for path in sorted((root / base).rglob("*.py")):
            tree = ast.parse(path.read_text())
            if package in path.parents:
                definitions += _definitions(path, tree, package.parent)
            for name, number in _uses(tree):
                mentions.setdefault(name, []).append((path, number))

    dead: list[Definition] = []
    # Text inside these spans reaches nothing: unreached, not allowlisted.
    silent: list[tuple[Path, int, int]] = []

    def reaches(definition: Definition, path: Path, number: int) -> bool:
        if path == definition.path and definition.start <= number <= definition.end:
            return False
        return not any(p == path and s <= number <= e for p, s, e in silent)

    changed = True
    while changed:
        changed = False
        for definition in definitions:
            if definition in dead:
                continue
            if (definition.parent is not None and definition.parent in dead) or not any(
                reaches(definition, *hit) for hit in mentions.get(definition.name, ())
            ):
                dead.append(definition)
                if not definition.allowed:
                    silent.append((definition.path, definition.start, definition.end))
                changed = True
    return dead, {d.key: d for d in definitions}


def unlisted(dead: list[Definition]) -> list[str]:
    """Unreached definitions not on the allowlist (a dead class's methods
    go with it)."""
    return [
        f"{d.key} ({d.end - d.start + 1} lines)"
        for d in dead
        if not d.allowed and (d.parent is None or d.parent not in dead)
    ]


def stale(dead: list[Definition], every: dict[str, Definition]) -> list[str]:
    """Allowlist entries that are now reached or no longer exist."""
    found = []
    for entry in ALLOWLIST:
        if ":" in entry and entry not in every:
            found.append(f"{entry}: no such definition")
        elif ":" not in entry and not any(d.module == entry for d in every.values()):
            found.append(f"{entry}: no such module")
        elif not any(entry in (d.key, d.module) for d in dead):
            found.append(f"{entry}: now reached")
    return found


def malformed() -> list[str]:
    """An allowlist over 15 entries, or an entry without a reason."""
    found = [f"{entry}: no reason given" for entry, why in ALLOWLIST.items() if not why.strip()]
    if len(ALLOWLIST) > 15:
        found.append(f"the allowlist has {len(ALLOWLIST)} entries (at most 15)")
    return found


def test_nothing_unreached_outside_the_allowlist():
    dead, _ = scan()
    assert unlisted(dead) == []


def test_no_stale_allowlist_entry():
    dead, every = scan()
    assert stale(dead, every) == []


def test_allowlist_is_short_and_gives_reasons():
    assert malformed() == []


def test_prose_is_not_a_caller(tmp_path):
    """A def that a docstring, a comment and a string name, but no code
    uses, is unreached; what code uses is reached."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("from repro.kit import used, prose_only\n")
    (package / "kit.py").write_text(
        "def used():\n    return 1\n\n\ndef prose_only():\n    return 2\n"
    )
    (package / "app.py").write_text(
        '"""Calls :func:`prose_only`? No: only ``used``."""\n\n'
        "from repro.kit import used\n\n"
        "# prose_only is named here too\n"
        "NAMES = ['prose_only']\n\n\n"
        "def main():\n    return used()\n\n\nmain()\n"
    )
    dead, _ = scan(tmp_path)
    assert unlisted(dead) == ["repro.kit:prose_only (2 lines)"]


def test_loop_callbacks_of_a_protocol_are_reached(tmp_path):
    """The event loop calls an ``asyncio.Protocol``'s callbacks, and what
    they call is reached; any other method, or a callback name on a class
    that is no protocol, still needs a caller."""
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "wire.py").write_text(
        "import asyncio\n\n\n"
        "class Lines(asyncio.Protocol):\n"
        "    def data_received(self, data):\n        self._answer(data)\n\n"
        "    def _answer(self, data):\n        return data\n\n"
        "    def unused(self):\n        return 0\n\n\n"
        "class Plain:\n"
        "    def data_received(self, data):\n        return data\n\n\n"
        "def factory():\n    return Lines(), Plain()\n\n\n"
        "factory()\n"
    )
    dead, _ = scan(tmp_path)
    assert unlisted(dead) == [
        "repro.wire:Lines.unused (2 lines)",
        "repro.wire:Plain.data_received (2 lines)",
    ]


def main() -> int:
    dead, every = scan()
    problems = unlisted(dead) + stale(dead, every) + malformed()
    for problem in problems:
        print(problem)
    print(f"NO-TEST-ONLY-CODE unreached={len(dead)} problems={len(problems)}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
