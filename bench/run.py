"""``python3 -m bench.run`` — the one command of the benchmark.

Two modes share one code path:

* **one run** (``--workload NAME --trace 0|1``, the driver's contract):
  set up, measure for ``--seconds``, check outputs, print one JSON
  object as the last line of stdout with ``correct``/``attempted``/
  ``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
  metrics (``--trace 1``) of ``BENCHMARK.json``;
* **the document** (no ``--trace``): every selected workload runs as
  fresh child processes of the first mode — ``REPEATS`` untraced runs,
  interleaved round-robin across workloads so machine drift hits all of
  them equally, then one traced run — and the medians, the per-layer
  split and the output digests are printed and written to ``--out`` for
  ``bench/compare.py``.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import signal
import subprocess
import sys
from typing import Dict, List, Optional, Sequence

from bench import ROOT, harness

#: Untraced repeats per workload in document mode.
REPEATS = 3

BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
TRAJECTORY = os.path.join(ROOT, "bench", "trajectory.jsonl")


def load_contract() -> Dict[str, object]:
    with open(BENCHMARK_JSON) as handle:
        return json.load(handle)


# ---------------------------------------------------------------------- #
# One run
# ---------------------------------------------------------------------- #
def run_one(
    name: str, seed: int, seconds: float, trace: bool, smoke: bool = False
) -> Dict[str, object]:
    """Run one workload once; returns the result line plus ``info``."""
    from bench import engine_workloads, serve_workloads, sweep_workload

    contract = load_contract()
    if name in engine_workloads.WORKLOADS:
        module = engine_workloads
    elif name == sweep_workload.NAME:
        module = sweep_workload
    elif name in serve_workloads.WORKLOADS:
        module = serve_workloads
    else:
        raise SystemExit(f"unknown workload {name!r}")
    calibration = harness.calibrate() if trace else {}
    outcome = module.run(name, seed, seconds, trace, smoke)
    window = outcome.window
    if trace:
        outcome.layers.update(calibration)
        outcome.layers["bench.request_p50_us"] = window.request_p50_s() * 1e6
        outcome.layers["telemetry.traced_ops_per_s"] = window.ops_per_s()
        # Every per-layer metric is reported by every workload; a layer
        # the workload does not exercise did no work and reads 0.
        units = {entry["name"]: entry["unit"] for entry in contract["per_layer"]}
        unknown = sorted(set(outcome.layers) - set(units))
        if unknown:
            raise SystemExit(f"per-layer metrics missing from BENCHMARK.json: {unknown}")
        metrics = {
            layer: harness.metric(outcome.layers.get(layer, 0.0), unit)
            for layer, unit in units.items()
        }
    else:
        metrics = window.end_to_end(outcome.setup_s)
    attempted = window.ops + outcome.checked
    failed = window.failed_ops + outcome.failed_checks
    return {
        "correct": failed == 0,
        "attempted": int(max(1, attempted)),
        "failed": int(failed),
        "metrics": metrics,
        "info": {
            "workload": name,
            "seed": int(seed),
            "trace": bool(trace),
            "output_digest": outcome.digest,
            "requests": len(window.request_s),
            "window_s": window.wall_s,
            "chunks": len(window.chunk_rates),
        },
    }


def print_run(result: Dict[str, object]) -> None:
    """Human lines first, then the contract's JSON object as the last line."""
    info = result["info"]
    print(
        f"# workload={info['workload']} seed={info['seed']} trace={int(info['trace'])} "
        f"requests={info['requests']} window_s={info['window_s']:.3f} "
        f"output_digest={info['output_digest']}"
    )
    for name, entry in result["metrics"].items():
        print(f"{name:<40} {entry['value']:>16.6g} {entry['unit']}")
    print("INFO " + json.dumps(info, sort_keys=True))
    line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line))


# ---------------------------------------------------------------------- #
# The document
# ---------------------------------------------------------------------- #
def _child(name: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    """One run in a fresh process; returns its result line plus ``info``."""
    command = [
        sys.executable, "-m", "bench.run",
        "--workload", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900
    )
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(command)} failed with code {done.returncode}")
    result = json.loads(lines[-1])
    info = [line for line in lines if line.startswith("INFO ")]
    result["info"] = json.loads(info[-1][5:])
    return result


def run_document(names: Sequence[str], seed: int, seconds: int) -> Dict[str, object]:
    """Run every named workload (repeats interleaved), build the document."""
    contract = load_contract()
    runs: Dict[str, List[Dict[str, object]]] = {name: [] for name in names}
    for repeat in range(REPEATS):
        for name in names:
            print(f"# {name}: untraced repeat {repeat + 1}/{REPEATS}", flush=True)
            runs[name].append(_child(name, seed, seconds, 0))
    document: Dict[str, object] = {
        "schema": 1,
        "commit": _git_short_sha(),
        "date": datetime.date.today().isoformat(),
        "seed": int(seed),
        "seconds": int(seconds),
        "claim": None,
        "workloads": {},
    }
    for name in names:
        print(f"# {name}: traced run", flush=True)
        traced = _child(name, seed, seconds, 1)
        digests = {run["info"]["output_digest"] for run in runs[name] + [traced]}
        attempted = sum(run["attempted"] for run in runs[name] + [traced])
        failed = sum(run["failed"] for run in runs[name] + [traced])
        if len(digests) != 1:
            # Equal seeds must give equal outputs; count the mismatch as
            # one failed check so it shows in error_rate.
            failed += 1
        end_to_end = {}
        for entry in contract["end_to_end"]:
            values = [run["metrics"][entry["name"]]["value"] for run in runs[name]]
            end_to_end[entry["name"]] = {
                "unit": entry["unit"],
                "runs": values,
                "median": harness.median(values),
                "min": min(values),
                "max": max(values),
            }
        per_layer = {
            key: {"unit": value["unit"], "value": value["value"]}
            for key, value in traced["metrics"].items()
        }
        traced_rate = per_layer["telemetry.traced_ops_per_s"]["value"]
        per_layer["telemetry.overhead_ratio"] = {
            "unit": "ratio",
            "value": end_to_end["ops_per_s"]["median"] / traced_rate if traced_rate else 0.0,
        }
        document["workloads"][name] = {
            "output_digest": sorted(digests)[0] if len(digests) == 1 else sorted(digests),
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / max(1, attempted),
            "end_to_end": end_to_end,
            "per_layer": per_layer,
        }
    return document


def print_document(document: Dict[str, object]) -> None:
    for name, body in document["workloads"].items():
        print(f"\n== {name}  error_rate={body['error_rate']:.6g}  "
              f"output_digest={body['output_digest']}")
        for metric, entry in body["end_to_end"].items():
            print(
                f"  {metric:<38} {entry['median']:>14.6g} {entry['unit']:<6} "
                f"(min {entry['min']:.6g}, max {entry['max']:.6g}, n={len(entry['runs'])})"
            )
        for metric, entry in body["per_layer"].items():
            print(f"  {metric:<38} {entry['value']:>14.6g} {entry['unit']}")


def _git_short_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )  # fmt: skip
    except OSError:
        return "unknown"
    return done.stdout.strip() or "unknown"


def trajectory_line(document: Dict[str, object]) -> str:
    """One compact line per commit: calibration and end-to-end medians."""
    first = next(iter(document["workloads"].values()))
    calib = {
        key.split(".", 1)[1]: round(first["per_layer"][key]["value"], 3)
        for key in ("machine.calib_py_ms", "machine.calib_np_ms")
    }
    medians = {
        name: {
            metric: float(f"{entry['median']:.4g}")
            for metric, entry in body["end_to_end"].items()
        }
        for name, body in document["workloads"].items()
    }
    return json.dumps(
        {
            "commit": document["commit"],
            "date": document["date"],
            "seed": document["seed"],
            "calib": calib,
            "end_to_end": medians,
        },
        separators=(",", ":"),
    )


# ---------------------------------------------------------------------- #
def main(argv: Optional[Sequence[str]] = None) -> int:
    contract = load_contract()
    names = [entry["name"] for entry in contract["workloads"]]
    parser = argparse.ArgumentParser(prog="bench.run", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2008)
    parser.add_argument("--seconds", type=int, default=int(contract["run_seconds"]),
                        help="length of one measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one run of one workload: 0 end-to-end, 1 per-layer")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes (n=16): checks the plumbing, measures nothing")
    parser.add_argument("--out", default=None, help="write the document here (JSON)")
    parser.add_argument("--append-trajectory", action="store_true",
                        help="append the document's summary line to bench/trajectory.jsonl")
    args = parser.parse_args(argv)

    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace runs exactly one --workload")
        # SIGTERM unwinds like Ctrl-C, so server children are reaped and
        # the scratch directory removed on the way out.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
        result = run_one(
            args.workload[0], args.seed, args.seconds, bool(args.trace), args.smoke
        )
        print_run(result)
        return 0

    document = run_document(args.workload or names, args.seed, args.seconds)
    print_document(document)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.append_trajectory:
        with open(TRAJECTORY, "a") as handle:
            handle.write(trajectory_line(document) + "\n")
    return 1 if any(body["failed"] for body in document["workloads"].values()) else 0


if __name__ == "__main__":
    sys.exit(main())
