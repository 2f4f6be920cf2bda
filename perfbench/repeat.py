#!/usr/bin/env python3
"""Repeat runner: steadiness of the benchmark, or parent-vs-change pairs.

Run from the repository root::

    # N runs per workload, one seed each, alternating workload order;
    # prints each metric's median, quartiles and spread against its bound
    python3 perfbench/repeat.py --runs 10

    # the same with --trace 1: work counts must not drift between runs
    python3 perfbench/repeat.py --runs 3 --trace

    # pairs against another checkout (the parent), alternating which
    # side runs first; gain / regression verdicts per metric
    python3 perfbench/repeat.py --runs 10 --other ../parent-checkout

The spread of a metric is the distance between its first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of its
median.  A spread above the metric's bound is UNSTEADY; above a third of
the bound it is flagged ``~``.  Exits 1 if any run failed or was
incorrect, any metric is unsteady, or (with ``--trace``) a work count
drifted.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(root: Path, workload: str, seed: int, seconds: int,
         trace: bool) -> Dict:
    cmd = [sys.executable, str(root / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    stamp = next((line for line in lines if line.startswith("stamp ")), "")
    sys.stderr.write(f"{root.name} {workload} seed {seed}: "
                     + " ".join(f"{k}={v['value']:.4g}"
                                for k, v in result["metrics"].items())
                     + " | " + stamp + "\n")
    if proc.returncode != 0 or not result["correct"]:
        sys.stderr.write(f"{root.name} {workload} seed {seed}: exit "
                         f"{proc.returncode}\n{proc.stdout[-2000:]}"
                         f"{proc.stderr[-2000:]}\n")
        result["correct"] = False
    return result


def _quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(values: List[float]) -> float:
    q1, q2, q3 = _quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def steadiness(spec, runs: Dict[str, List[Dict]], trace: bool) -> bool:
    ok = True
    names = spec["per_layer" if trace else "end_to_end"]
    for workload, results in runs.items():
        print(f"\n== {workload}: {len(results)} runs")
        ok &= all(r["correct"] for r in results)
        print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'bound':>6s}")
        for entry in names:
            values = [r["metrics"][entry["name"]]["value"]
                      for r in results if entry["name"] in r["metrics"]]
            if not values:
                continue
            q1, q2, q3 = _quartiles(values)
            spread = _spread(values)
            bound = entry.get("bound")
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "UNSTEADY"
                    ok = False
                elif spread > bound / 3:
                    flag = "~"
            print(f"{entry['name']:28s} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.3f} {bound if bound is not None else '':>6} "
                  f"{flag}")
        if trace:
            counts = json.loads((HERE / "data" / "work_counts.json")
                                .read_text()).get(workload, {})
            for name in counts:
                seen = {r["metrics"][name]["value"] for r in results
                        if name in r["metrics"]}
                if len(seen) > 1:
                    print(f"  DRIFT {name}: {sorted(seen)}")
                    ok = False
    return ok


def pairs(spec, mine: Dict[str, List[Dict]],
          theirs: Dict[str, List[Dict]]) -> bool:
    """choosing-metrics §8: gain needs >= 9/10 wins and a median shift
    beyond the parent's own quartile spread; regression is a median
    worse than the parent's by more than the bound."""
    ok = True
    for workload in mine:
        print(f"\n== {workload}: change vs parent, {len(mine[workload])} "
              "pairs")
        ok &= all(r["correct"] for r in mine[workload] + theirs[workload])
        for entry in spec["end_to_end"]:
            name, lower = entry["name"], entry["better"] == "lower"
            new = [r["metrics"][name]["value"] for r in mine[workload]]
            old = [r["metrics"][name]["value"] for r in theirs[workload]]
            wins = sum((a < b) if lower else (a > b)
                       for a, b in zip(new, old))
            q1, med_old, q3 = _quartiles(old)
            med_new = statistics.median(new)
            worse = (med_new - med_old) if lower else (med_old - med_new)
            if worse > entry["bound"] * abs(med_old):
                verdict = "REGRESSION"
                ok = False
            elif (wins >= 0.9 * len(new) and -worse > q3 - q1):
                verdict = "gain"
            elif _spread(old) > entry["bound"]:
                verdict = "unresolved"
            else:
                verdict = "no change"
            print(f"{name:16s} parent {med_old:12.6g} [{q1:.6g}, {q3:.6g}]"
                  f"  change {med_new:12.6g}  wins {wins}/{len(new)}  "
                  f"{verdict}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--other", type=Path, default=None,
                        help="checkout to pair against (the parent)")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    sides = [ROOT] + ([args.other.resolve()] if args.other else [])
    runs = {side: {w: [] for w in workloads} for side in sides}
    for index in range(args.runs):
        seed = args.first_seed + index
        order = workloads if index % 2 == 0 else workloads[::-1]
        for workload in order:
            for side in (sides if index % 2 == 0 else sides[::-1]):
                result = _run(side, workload, seed, seconds, args.trace)
                runs[side][workload].append(result)
        print(f"run {index + 1}/{args.runs} done (seed {seed})",
              file=sys.stderr)
    if args.other:
        ok = pairs(spec, runs[ROOT], runs[sides[1]])
    else:
        ok = steadiness(spec, runs[ROOT], args.trace)
    print("\nverdict:", "OK" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
