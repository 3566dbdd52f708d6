"""End-to-end and per-layer benchmark of the EGOIST reproduction.

Self-contained: everything the benchmark needs besides the program under
test (``src/repro``) lives in this directory.  ``python3 -m bench.run``
is the only entry point; ``bench/README.md`` documents workloads,
metrics and how to read the output.

The program is measured from outside — by timing calls into its public
functions, by reading the counters and spans ``repro.telemetry`` already
emits, and through the public ``stats``/``metrics`` surfaces — so no
file outside ``bench/`` changes when the benchmark does.
"""

import os
import sys

#: The checkout root (the directory holding ``bench/`` and ``src/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Source tree of the program under test.
SRC = os.path.join(ROOT, "src")

# The program is not installed in the benchmark checkout; it is imported
# straight from its source tree (and handed to server children through
# PYTHONPATH, see bench.serve_workloads).
if SRC not in sys.path:
    sys.path.insert(0, SRC)
