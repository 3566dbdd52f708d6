"""What a fresh process pays to import the runtime.

networkx is only needed by the underlay generators, the disjoint-path
counts and the multipath max-flow ceiling, which import it when called;
the CLI, the server, the engines and the sweep must not load it.
"""

from __future__ import annotations

import os
import subprocess
import sys

import repro

RUNTIME_MODULES = ("repro.cli", "repro.serve.server", "repro.core.engine_batch", "repro.sweep")


def _run(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )


def test_runtime_import_path_does_not_load_networkx():
    code = (
        "import importlib, sys\n"
        f"for name in {RUNTIME_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    result = _run(code)
    assert result.stdout.strip() == "[]"


def test_cli_import_and_parser_stay_off_the_serve_stack():
    """``import repro.cli`` alone loads no serve module, asyncio or orjson.

    Building the parser loads each verb module; the serve verbs' module
    must still leave asyncio and orjson to the handlers that need them.
    """
    code = (
        "import sys\n"
        "import repro.cli\n"
        "def heavy():\n"
        "    return sorted(m for m in sys.modules if m.startswith('repro.serve')\n"
        "                  or m.split('.')[0] in ('asyncio', 'orjson'))\n"
        "print(heavy())\n"
        "repro.cli.build_parser()\n"
        "print(heavy())\n"
    )
    result = _run(code)
    assert result.stdout.splitlines() == ["[]", "['repro.serve', 'repro.serve.cli']"]


def test_serve_loads_no_sweep_and_no_experiment_module():
    """A server process loads neither the sweep layer nor any experiment.

    ``serve`` sits beside ``sweep`` in the layer order; its durable writes
    come from ``repro.util.durable_io``, not from the sweep's shared-fs
    backend (whose import once pulled the executor and all ten experiment
    modules into every server).
    """
    code = (
        "import sys\n"
        "import repro.serve.server, repro.serve.service\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('repro.sweep', 'repro.experiments'))))\n"
    )
    assert _run(code).stdout.strip() == "[]"
