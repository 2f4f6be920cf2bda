#!/usr/bin/env python3
"""Regenerate the benchmark's reference data in ``perfbench/data``.

Run from the repository root, on the commit whose outputs are the
reference::

    python3 perfbench/regen.py            # every file
    python3 perfbench/regen.py counts     # work_counts.json only

Reference outputs come from the serial in-process paths with the cache
off; the work counts come from ``run.py --trace 1`` of each workload.
Regenerating is a benchmark change: a change that claims a gain must
not do it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import asdict
from pathlib import Path

import inputs
from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

#: Size of the Monte-Carlo seed pool.
MC_POOL = 160
#: The deterministic work counters recorded per workload.
COUNT_KEYS = ("circuit.compile_calls", "newton.solves", "mna.assemblies",
              "lu.calls", "trust.certify_calls", "dc.op_calls",
              "sweep.points", "tran.accepted_steps", "tran.rejected_steps",
              "recovery.dc_rescues", "recovery.tran_rescues", "cache.hits",
              "cache.misses", "pg.bet_calls", "serve.backend_executions")


def _dump(name: str, data) -> None:
    path = inputs.DATA / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")


def regen_points() -> None:
    from repro.cells import PowerDomain
    from repro.characterize.runner import characterize_cell
    from repro.characterize.store import derive_store_biases
    from repro.devices.mtj import MTJ_FIG9B, MTJ_TABLE1
    from repro.pg.modes import OperatingConditions

    base = OperatingConditions()
    cards = {
        "table1": (base, MTJ_TABLE1),
        # Fig. 9(b): 1 GHz, low-Jc card, store biases derived as
        # run_fig9(panel="b") derives them.
        "fig9b": (derive_store_biases(base.fast_variant(),
                                      PowerDomain(32, 32),
                                      mtj_params=MTJ_FIG9B), MTJ_FIG9B),
    }
    points = {}
    for card, (cond, mtj) in cards.items():
        for kind in ("nv", "6t"):
            for depth in inputs.DEPTHS:
                domain = PowerDomain(depth, 32)
                cell = characterize_cell(kind, cond, domain, mtj_params=mtj,
                                         cache_dir=None, validate=True)
                points[inputs.point_id(kind, depth, card)] = {
                    "kind": kind, "cond": asdict(cond),
                    "domain": asdict(domain), "mtj": asdict(mtj),
                    "expected": json.loads(cell.to_json()),
                }
    _dump("points.json", {"points": points})


def regen_mc() -> None:
    from repro.characterize.variability import (read_snm_distribution,
                                                store_yield_analysis)

    margin, snm, skipped = {}, {}, []
    for seed in range(1, MC_POOL + 1):
        store = store_yield_analysis(n_samples=1, seed=seed)
        dist = read_snm_distribution(n_samples=1, seed=seed)
        if store.n_failed or dist.n_failed:
            skipped.append(seed)   # an op that fails is not a workload op
            continue
        margin[seed] = float(store.margins[0])
        snm[seed] = float(dist.snm[0])
    _dump("mc.json", {"margin": margin, "snm": snm, "skipped": skipped})


def regen_scorecard() -> None:
    from repro.experiments import ExperimentContext
    from repro.experiments.summary import run_summary

    with tempfile.TemporaryDirectory() as cache:
        ctx = ExperimentContext(cache_dir=Path(cache))
        text = run_summary(ctx, include_figures=False).render() + "\n"
    (inputs.DATA / "scorecard.txt").write_text(text)
    print("wrote perfbench/data/scorecard.txt")


def regen_counts() -> None:
    _dump("work_counts.json", {})
    counts = {}
    for workload in ("cold-char", "mc-yield", "serve-mix", "warm-report"):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", "0", "--seconds", "1", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts[workload] = {k: metrics[k]["value"] for k in COUNT_KEYS}
    _dump("work_counts.json", counts)


def main(argv) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # The same pinned environment the harness gives the program.
        env = dict(os.environ, PYTHONHASHSEED="0")
        env.update({var: "1" for var in THREAD_VARS})
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    steps = {"points": regen_points, "mc": regen_mc,
             "scorecard": regen_scorecard, "counts": regen_counts}
    for name in argv or list(steps):
        steps[name]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
