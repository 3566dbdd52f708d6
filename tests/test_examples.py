"""Every script under ``examples/`` runs to completion.

Each runs in a subprocess from an empty working directory, at small
sizes given on its command line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Script -> command-line arguments (small sizes).
EXAMPLES = {
    "churn_resilience.py": ["16", "3"],
    "multipath_transfer.py": ["16", "3"],
    "planetlab_overlay.py": ["16", "3", "4"],
    "quickstart.py": ["16", "3"],
    "scaling_sampling.py": ["60", "3"],
}


def test_every_example_is_listed():
    assert sorted(EXAMPLES) == sorted(p.name for p in (ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", sorted(EXAMPLES))
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *EXAMPLES[script]],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
