"""Program process of the in-process workloads (cold-char, mc-yield, and
the traced half of warm-report).

The harness (``run.py``) launches this script, which does the workload's
set-up (``import repro``, building the seeded inputs) and then prints
``READY``.  Launch-to-``READY`` is one set-up sample.  The harness then
writes ``go`` (run the workload and print one JSON result line) or
``exit`` on stdin.

Usage (the harness does this; by hand only for debugging)::

    PYTHONPATH=src python3 perfbench/program.py cold-char \
        --seed 1 --seconds 5 --trace 0 --work .perfbench/tmp
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional

import inputs

#: Reports timed per pass in the traced warm-report run.
WARM_TRACE_REPORTS = 30


def _cpu_s() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


class Workload(NamedTuple):
    """What a set-up hands to the run."""

    op: Callable                 # item -> output
    check: Callable              # (item, output) -> mismatch or None
    stream: Optional[Iterator]   # items of the timed run
    traced: List                 # the fixed items of the traced run


# -- workload set-ups -----------------------------------------------------

def _cold_char(args):
    from repro.cells import PowerDomain
    from repro.characterize import runner
    from repro.devices.mtj import MTJParams
    from repro.pg.modes import OperatingConditions

    pool = inputs.points()
    specs = {pid: (p["kind"], OperatingConditions(**p["cond"]),
                   PowerDomain(**p["domain"]), MTJParams(**p["mtj"]))
             for pid, p in pool.items()}
    counter = itertools.count()

    def characterize(pid):
        kind, cond, domain, mtj = specs[pid]
        # A fresh directory per call: every characterisation is a cache
        # miss followed by a cache write.
        cache_dir = args.work / f"cache-{next(counter)}"
        cell = runner.characterize_cell(kind, cond, domain, mtj_params=mtj,
                                        cache_dir=cache_dir, validate=True)
        return json.loads(cell.to_json())

    def op(pair):
        return [characterize(pid) for pid in inputs.pair_points(pair)]

    def check(pair, out):
        for pid, cell in zip(inputs.pair_points(pair), out):
            if not inputs.close(cell, pool[pid]["expected"]):
                return f"{pid}: characterisation differs from points.json"
        return None

    stream = inputs.cold_char_stream(args.seed, pool)
    traced = inputs.shuffled(args.seed, inputs.COLD_TRACE_SET)
    return Workload(op, check, stream, traced)


def _mc_yield(args):
    from repro.characterize.variability import (read_snm_distribution,
                                                store_yield_analysis)

    ref = inputs.load("mc.json")
    margin_ref = {int(s): v for s, v in ref["margin"].items()}
    snm_ref = {int(s): v for s, v in ref["snm"].items()}
    mc_seeds = sorted(margin_ref)

    def op(seed):
        store = store_yield_analysis(n_samples=1, seed=seed)
        snm = read_snm_distribution(n_samples=1, seed=seed)
        if store.n_failed or snm.n_failed:
            raise RuntimeError(f"MC seed {seed}: sample skipped")
        return float(store.margins[0]), float(snm.snm[0])

    def check(seed, out):
        if out != (margin_ref[seed], snm_ref[seed]):
            return f"MC seed {seed}: {out} differs from mc.json"
        return None

    stream = inputs.mc_stream(args.seed, mc_seeds)
    traced = inputs.shuffled(args.seed, mc_seeds[:inputs.MC_TRACE_COUNT])
    return Workload(op, check, stream, traced)


def _warm_report(args):
    from repro.experiments import ExperimentContext, summary

    expected = inputs.load("scorecard.txt")

    def op(_):
        ctx = ExperimentContext(cache_dir=Path(args.cache_dir))
        text = summary.run_summary(ctx, include_figures=False).render()
        # A FAIL row is a failed op, as in the reports run.py times.
        failing = [row for row in text.splitlines()
                   if row.startswith("FAIL")]
        if failing:
            raise RuntimeError(f"scorecard FAIL row: {failing[0].strip()}")
        return text + "\n"

    def check(_, out):
        return None if out == expected else "scorecard differs"

    return Workload(op, check, None, [None] * WARM_TRACE_REPORTS)


SETUPS: Dict[str, Callable] = {
    "cold-char": _cold_char,
    "mc-yield": _mc_yield,
    "warm-report": _warm_report,
}


# -- runs -------------------------------------------------------------------

def _attempt(op, item):
    start = time.perf_counter()
    try:
        out, err = op(item), None
    except Exception as exc:  # one failed op is counted, not fatal
        out, err = None, f"{item}: {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, (item, out, err)


def _verdict(done, check) -> Dict[str, object]:
    errors = [err for _, _, err in done if err is not None]
    mismatches = [m for item, out, err in done if err is None
                  for m in [check(item, out)] if m]
    return {"attempted": len(done), "failed": len(errors),
            "errors": errors[:5], "mismatches": mismatches[:5]}


def run_timed(w: Workload, seconds: float):
    """Closed loop with one caller until ``seconds`` have passed."""
    latencies: List[float] = []
    done = []
    cpu0, start = _cpu_s(), time.perf_counter()
    deadline = start + seconds
    while time.perf_counter() < deadline:
        latency, record = _attempt(w.op, next(w.stream))
        if record[2] is None:   # only completed ops are timed
            latencies.append(latency)
        done.append(record)
    elapsed = time.perf_counter() - start
    result = {"latencies_s": latencies, "elapsed_s": elapsed,
              "cpu_s": _cpu_s() - cpu0}
    result.update(_verdict(done, w.check))
    return result


def run_traced(w: Workload, trace_path: Path):
    """Each fixed item untraced, then traced; per-layer numbers.

    Alternating per item keeps slow drifts of the host out of the
    tracing overhead.
    """
    from tracer import Tracer

    _attempt(w.op, w.traced[0])   # lazy imports and first-call set-up
    tracer = Tracer()
    plain_s = traced_s = 0.0
    done = []
    for item in w.traced:
        latency, record = _attempt(w.op, item)
        plain_s += latency
        done.append(record)
        tracer.install()
        latency, record = _attempt(w.op, item)
        tracer.uninstall()
        traced_s += latency
        done.append(record)
    tracer.write(trace_path)
    result = _verdict(done, w.check)
    result["layers"] = tracer.layer_metrics()
    result["overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--cache-dir", default=None)
    parser.add_argument("--trace-file", type=Path, default=None)
    args = parser.parse_args(argv)

    workload = SETUPS[args.workload](args)
    print("READY", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if args.trace:
        result = run_traced(workload, args.trace_file)
    else:
        result = run_timed(workload, args.seconds)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
