"""``python3 -m bench.compare A.json B.json`` — diff two benchmark documents.

``A`` is the base (parent commit), ``B`` the change; both come from
``python3 -m bench.run --out``.  Per workload, every end-to-end metric
gets a verdict under the bound ``BENCHMARK.json`` fixes for it:

* ``regression`` — B's median is worse than A's by more than the bound;
* ``improved``   — better by more than the bound;
* ``unchanged``  — within the bound, and the runs are steady enough to say so;
* ``unresolved`` — the run-to-run spread of either side exceeds the bound,
  so the medians cannot be told apart — unless every run of one side beats
  every run of the other, which settles it whatever the spread.

Every ratio is printed with its base.  Per-layer metrics are listed with
both values and their ratio; counts that must repeat exactly are flagged
when they differ.  Exit status is non-zero on any regression, on a higher
``error_rate``, or when outputs for the same seed differ.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence

from bench.run import load_contract


def _spread(runs: Sequence[float], centre: float) -> float:
    return (max(runs) - min(runs)) / abs(centre) if centre else 0.0


def verdict(
    base: Dict[str, object], new: Dict[str, object], *, better: str, bound: float
) -> Dict[str, object]:
    """Judge one end-to-end metric of one workload."""
    a, b = float(base["median"]), float(new["median"])
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b - a) / abs(a) if a else 0.0
    a_runs = [sign * float(v) for v in base["runs"]]
    b_runs = [sign * float(v) for v in new["runs"]]
    b_all_worse = min(b_runs) > max(a_runs)
    b_all_better = max(b_runs) < min(a_runs)
    spread = max(_spread(base["runs"], a), _spread(new["runs"], b))
    noisy = spread > bound
    if worse_by > bound and (b_all_worse or not noisy):
        label = "regression"
    elif noisy and not (b_all_worse or b_all_better):
        label = "unresolved"
    elif -worse_by > bound:
        label = "improved"
    else:
        label = "unchanged"
    return {
        "verdict": label,
        "base": a,
        "new": b,
        "ratio": b / a if a else float("nan"),
        "worse_by": worse_by,
        "spread": spread,
    }


def compare(
    a: Dict[str, object], b: Dict[str, object], contract: Dict[str, object]
) -> Dict[str, object]:
    """The full diff as data; ``failures`` lists what makes the exit non-zero."""
    bounds = {entry["name"]: entry for entry in contract["end_to_end"]}
    layer_units = {entry["name"]: entry["unit"] for entry in contract["per_layer"]}
    same_seed = a.get("seed") == b.get("seed")
    report: Dict[str, object] = {"workloads": {}, "failures": []}
    failures: List[str] = report["failures"]
    for name, base in a["workloads"].items():
        new = b["workloads"].get(name)
        if new is None:
            continue
        rows = {}
        for metric, entry in bounds.items():
            if metric not in base["end_to_end"] or metric not in new["end_to_end"]:
                continue
            row = verdict(
                base["end_to_end"][metric],
                new["end_to_end"][metric],
                better=entry["better"],
                bound=float(entry["bound"]),
            )
            row["unit"] = entry["unit"]
            row["bound"] = entry["bound"]
            rows[metric] = row
            if row["verdict"] == "regression":
                failures.append(
                    f"{name}: {metric} worse by {row['worse_by']:.1%} "
                    f"(bound {entry['bound']:.0%})"
                )
        layers = {}
        for metric in base["per_layer"]:
            if metric not in new["per_layer"]:
                continue
            x = float(base["per_layer"][metric]["value"])
            y = float(new["per_layer"][metric]["value"])
            exact = layer_units.get(metric) == "count" and same_seed
            layers[metric] = {
                "base": x,
                "new": y,
                "ratio": y / x if x else None,
                "unit": base["per_layer"][metric]["unit"],
                "count_changed": bool(exact and x != y),
            }
        digests_equal: Optional[bool] = None
        if same_seed:
            digests_equal = base["output_digest"] == new["output_digest"]
            if not digests_equal:
                failures.append(f"{name}: output_digest differs for seed {a.get('seed')}")
        if float(new["error_rate"]) > float(base["error_rate"]):
            failures.append(
                f"{name}: error_rate rose {base['error_rate']:.6g} -> {new['error_rate']:.6g}"
            )
        report["workloads"][name] = {
            "end_to_end": rows,
            "per_layer": layers,
            "error_rate": (base["error_rate"], new["error_rate"]),
            "digests_equal": digests_equal,
        }
    return report


def print_report(report: Dict[str, object], a: Dict[str, object], b: Dict[str, object]) -> None:
    print(
        f"base {a.get('commit')} ({a.get('date')}, seed {a.get('seed')})  ->  "
        f"new {b.get('commit')} ({b.get('date')}, seed {b.get('seed')})"
    )
    for name, body in report["workloads"].items():
        digest = {None: "n/a (seeds differ)", True: "equal", False: "DIFFER"}[
            body["digests_equal"]
        ]
        print(
            f"\n== {name}  error_rate {body['error_rate'][0]:.6g} -> "
            f"{body['error_rate'][1]:.6g}  output_digest {digest}"
        )
        for metric, row in body["end_to_end"].items():
            print(
                f"  {metric:<16} {row['verdict']:<10} ratio {row['ratio']:.3f} "
                f"(base {row['base']:.6g} {row['unit']}, new {row['new']:.6g}; "
                f"bound {row['bound']:.0%}, spread {row['spread']:.1%})"
            )
        print("  -- per layer")
        for metric, row in body["per_layer"].items():
            if row["base"] == 0 and row["new"] == 0:
                continue
            ratio = f"{row['ratio']:.3f}" if row["ratio"] is not None else "  n/a"
            flag = "  COUNT CHANGED" if row["count_changed"] else ""
            print(
                f"  {metric:<38} ratio {ratio} (base {row['base']:.6g} "
                f"{row['unit']}, new {row['new']:.6g}){flag}"
            )
    if report["failures"]:
        print("\nFAIL")
        for line in report["failures"]:
            print(f"  {line}")
    else:
        print("\nOK: no regression, no higher error_rate")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="bench.compare", description=__doc__.split("\n")[0])
    parser.add_argument("base", help="document of the parent commit (A.json)")
    parser.add_argument("new", help="document of the change (B.json)")
    args = parser.parse_args(argv)
    with open(args.base) as handle:
        a = json.load(handle)
    with open(args.new) as handle:
        b = json.load(handle)
    report = compare(a, b, load_contract())
    print_report(report, a, b)
    return 1 if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
