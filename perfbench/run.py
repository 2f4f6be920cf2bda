#!/usr/bin/env python3
"""Benchmark harness for the repro package (see perfbench/README.md).

Run from the repository root::

    python3 perfbench/run.py --workload cold-char --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric of ``BENCHMARK.json``;
``--trace 1`` prints every per-layer metric from a separate traced run.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any output that differs from
the reference data, or work counts that drift from the recorded ones,
make the run exit 1.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch space inside the checkout; removed after every run except
#: for the last traced run's span files.
STATE = ROOT / ".perfbench"
#: Independent set-ups per run; ``setup_s`` is their median.
SETUP_BOOTS = 3
#: Fresh processes timing ``import repro`` in a traced run.
IMPORT_PROBES = 3
#: Upper bound on any single wait for a child process.
CHILD_TIMEOUT_S = 150.0
#: Environment variables pinning BLAS/OpenMP pools to one thread.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

import inputs  # noqa: E402  (perfbench/ is sys.path[0])


class BenchError(RuntimeError):
    """The benchmark could not run (as opposed to wrong outputs)."""


def _pin_environment(work: Path) -> Dict[str, str]:
    """Environment for this process and every child it starts."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = src
    if src not in sys.path:
        sys.path.insert(0, src)
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(work / "default-cache")
    return env


def _stamp() -> Dict[str, object]:
    """Host stamp plus a fixed calibration kernel (reported, not gated)."""
    import platform

    import numpy as np

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError):
        pass
    a = np.random.default_rng(0).standard_normal((24, 24)) + 24 * np.eye(24)
    b = np.ones(24)
    start = time.perf_counter()
    for _ in range(2000):
        np.linalg.solve(a, b)
    dense = (time.perf_counter() - start) / 2000
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    loop = time.perf_counter() - start
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "calib_dense_solve_us": round(dense * 1e6, 3),
            "calib_python_loop_ms": round(loop * 1e3, 3)}


# -- small statistics ------------------------------------------------------

def _pct(values: List[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- child processes -------------------------------------------------------

class Children:
    """Every process the harness starts; all are stopped on exit."""

    def __init__(self) -> None:
        self.procs: List[subprocess.Popen] = []

    def start(self, cmd: List[str], env, **kwargs) -> subprocess.Popen:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, text=True,
                                **kwargs)
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, sig=signal.SIGTERM) -> None:
        if proc.poll() is None:
            proc.send_signal(sig)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait(timeout=30)
        if proc.stdin is not None:
            proc.stdin.close()

    def stop_all(self) -> None:
        for proc in self.procs:
            self.stop(proc, signal.SIGKILL)


def _read_line(proc: subprocess.Popen, timeout: float) -> str:
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        raise BenchError(f"no output from {proc.args[:4]} in {timeout} s")
    return proc.stdout.readline()


def _boot_program(children: Children, env, args, work: Path, boots: int,
                  extra: List[str] = ()):
    """Start ``program.py`` ``boots`` times; keep the last one.

    Returns the live process and the launch-to-READY times.
    """
    cmd = [sys.executable, str(HERE / "program.py"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work", str(work),
           "--trace-file", str(STATE / f"trace-{args.workload}.jsonl"),
           *extra]
    samples = []
    for boot in range(boots):
        start = time.perf_counter()
        proc = children.start(cmd, env, stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE)
        line = _read_line(proc, CHILD_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
        if line.strip() != "READY":
            raise BenchError(f"program set-up failed: {line!r}")
        if boot < boots - 1:
            proc.communicate("exit\n", timeout=CHILD_TIMEOUT_S)
    return proc, samples


def _finish_program(children: Children, proc) -> Dict[str, object]:
    out, _ = proc.communicate("go\n", timeout=CHILD_TIMEOUT_S)
    children.stop(proc)
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"program exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _import_probe(env) -> List[float]:
    code = ("import time; t = time.perf_counter(); import repro; "
            "print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                                 env=env, capture_output=True, text=True,
                                 check=True, timeout=CHILD_TIMEOUT_S
                                 ).stdout)
            for _ in range(IMPORT_PROBES)]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _children_cpu_s() -> float:
    t = os.times()
    return t.children_user + t.children_system


def _own_cpu_s() -> float:
    t = os.times()
    return t.user + t.system


# -- in-process workloads (cold-char, mc-yield) ----------------------------

def run_program(children, env, args, work) -> Dict[str, object]:
    boots = 1 if args.trace else SETUP_BOOTS
    proc, setup = _boot_program(children, env, args, work, boots)
    res = _finish_program(children, proc)
    res["setup_s"] = setup
    return res


# -- serve-mix ---------------------------------------------------------------

class Server:
    """One ``python -m repro serve --workers 1`` on a fresh cache."""

    def __init__(self, children: Children, env, cache_dir: Path):
        from repro.serve.client import ServeClient

        start = time.perf_counter()
        senv = dict(env, PYTHONUNBUFFERED="1")
        self.proc = children.start(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", "1", "--cache-dir", str(cache_dir)],
            senv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        self.children = children
        port = None
        deadline = start + CHILD_TIMEOUT_S
        while port is None:
            line = _read_line(self.proc, max(deadline - time.perf_counter(),
                                             0.1))
            if not line:
                raise BenchError("repro serve exited during start-up")
            if "serving on http://" in line:
                port = int(line.split("http://", 1)[1].split()[0]
                           .rsplit(":", 1)[1].rstrip("/"))
        # Keep reading the server's log so that it never blocks on a
        # full pipe.
        self._drain = threading.Thread(target=self.proc.stdout.read,
                                       daemon=True)
        self._drain.start()
        self.client = ServeClient(port=port, timeout=CHILD_TIMEOUT_S)
        while self.client.readyz().code != 200:
            if time.perf_counter() > deadline:
                raise BenchError("repro serve never became ready")
            time.sleep(0.01)
        self.setup_s = time.perf_counter() - start

    def cpu_s(self) -> float:
        """CPU of the server and the workers it has reaped."""
        with open(f"/proc/{self.proc.pid}/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        ticks = sum(int(f) for f in fields[11:15])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        self.children.stop(self.proc)
        self._drain.join(timeout=30)
        self.proc.stdout.close()


class Mix:
    """The shared closed-loop request stream of the serve-mix clients.

    A repeat is sent only after its point's first response arrived, so
    it must be a memo hit; a novel point waits for the previous novel
    point, so one miss runs at a time; a ``pair`` copy is sent at once
    so that the two coalesce.  Either of the two may reach the server
    first and lead.
    """

    def __init__(self, stream, deadline: Optional[float]):
        self.lock = threading.Lock()
        self.stream = stream
        self.deadline = deadline
        self.first_done: Dict[str, threading.Event] = {}
        self.last_novel = threading.Event()
        self.last_novel.set()

    def next(self):
        with self.lock:
            if self.deadline and time.perf_counter() > self.deadline:
                return None
            try:
                pid, role = next(self.stream)
            except StopIteration:
                return None
            if role == "novel":
                gate, self.last_novel = self.last_novel, threading.Event()
                self.first_done[pid] = self.last_novel
            elif role == "pair":
                gate = None
            else:
                gate = self.first_done[pid]
            return pid, role, gate


def _drive(server: Server, pool, stream, deadline) -> Dict[str, object]:
    """Two client threads, closed loop, until the stream or time ends."""
    mix = Mix(stream, deadline)
    records: List[tuple] = []
    errors: List[str] = []

    def client() -> None:
        while True:
            item = mix.next()
            if item is None:
                return
            pid, role, gate = item
            if gate is not None:
                gate.wait(CHILD_TIMEOUT_S)
            point = pool[pid]
            body = {"kind": point["kind"], "cond": point["cond"],
                    "domain": point["domain"], "mtj": point["mtj"],
                    "deadline_s": 120}
            start = time.perf_counter()
            try:
                resp = server.client.characterize(**body)
            except Exception as exc:  # counted as a failed request
                errors.append(f"{pid}: {exc!r}")
                continue
            finally:
                if role == "novel":
                    mix.first_done[pid].set()
            records.append((pid, role, time.perf_counter() - start,
                            resp.code, resp.body))

    cpu0, server_cpu0 = _own_cpu_s(), server.cpu_s()
    threads = [threading.Thread(target=client) for _ in range(2)]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(CHILD_TIMEOUT_S)
        if t.is_alive():
            raise BenchError("serve-mix client did not finish")
    elapsed = time.perf_counter() - start
    cpu = _own_cpu_s() - cpu0 + server.cpu_s() - server_cpu0
    return _classify(records, errors, pool, elapsed, cpu,
                     server.client.metrics())


def _classify(records, errors, pool, elapsed, cpu, metrics):
    hits, misses, dispatch, task = [], [], [], []
    raised = len(errors)   # requests that got no response at all
    mismatches, failed, coalesced = [], raised, 0
    leaders: Dict[str, int] = {}   # backend executions answered per point
    for pid, role, latency, code, body in records:
        if code != 200 or body.get("status") != "ok":
            failed += 1
            errors.append(f"{pid} {role}: {body.get('status')} "
                          f"{body.get('detail', '')}")
            continue
        by = body.get("served_by")
        allowed = ("memo",) if role == "repeat" else ("backend", "memo")
        if by not in allowed:
            mismatches.append(f"{pid} {role}: served by {by}")
        if not inputs.close(body.get("result"), pool[pid]["expected"]):
            mismatches.append(f"{pid} {role}: payload differs")
        if by == "memo":
            hits.append(latency)
        elif body.get("coalesced"):
            coalesced += 1
        else:
            leaders[pid] = leaders.get(pid, 0) + 1
            misses.append(latency)
            task.append(body.get("elapsed_s", 0.0))
            dispatch.append(latency - body.get("elapsed_s", 0.0))
    # The first request for a point runs on the backend; its pair copy
    # coalesces onto it or hits the memo, so each point leads once.
    for pid in {r[0] for r in records if r[1] == "novel"}:
        if leaders.get(pid, 0) != 1:
            mismatches.append(f"{pid}: {leaders.get(pid, 0)} uncoalesced "
                              "backend responses, want 1")
    latencies = [r[2] for r in records
                 if r[3] == 200 and r[4].get("status") == "ok"]
    backend = metrics.get("backend", {}).get("executions", 0)
    shed = metrics.get("responses", {}).get("shed", 0)
    return {
        "latencies_s": latencies, "elapsed_s": elapsed, "cpu_s": cpu,
        "attempted": len(records) + raised, "failed": failed,
        "errors": errors[:5], "mismatches": mismatches[:5],
        "hits_s": hits, "misses_s": misses,
        "task_s": task, "dispatch_s": dispatch, "coalesced": coalesced,
        "backend_executions": backend, "shed": shed,
    }


def run_serve(children, env, args, work) -> Dict[str, object]:
    pool = inputs.points()
    if args.trace:
        return _serve_traced(children, env, args, work, pool)
    setup = []
    for boot in range(SETUP_BOOTS):
        if boot:
            server.stop()
        server = Server(children, env, work / f"serve-cache-{boot}")
        setup.append(server.setup_s)
    try:
        stream = inputs.serve_stream(args.seed,
                                     inputs.serve_novel(args.seed, pool))
        res = _drive(server, pool, stream,
                     time.perf_counter() + args.seconds)
    finally:
        server.stop()
    res["setup_s"] = setup
    return res


def _serve_traced(children, env, args, work, pool) -> Dict[str, object]:
    """The fixed stream on one server untraced, then on a second server
    with the client calls traced."""
    from repro.serve.client import ServeClient
    from tracer import Tracer

    fixed = inputs.shuffled(args.seed, inputs.SERVE_TRACE_SET)
    server = Server(children, env, work / "serve-cache-plain")
    try:
        plain = _drive(server, pool, inputs.serve_stream(args.seed, fixed),
                       None)
        health = []
        for _ in range(50):
            start = time.perf_counter()
            server.client.healthz()
            health.append(time.perf_counter() - start)
    finally:
        server.stop()
    tracer = Tracer()
    tracer.wrap_method(ServeClient, "characterize", "serve.request")
    server = Server(children, env, work / "serve-cache-traced")
    try:
        traced = _drive(server, pool, inputs.serve_stream(args.seed, fixed),
                        None)
    finally:
        server.stop()
        tracer.uninstall()
    tracer.write(STATE / f"trace-{args.workload}.jsonl")
    hits, executions = plain["hits_s"], plain["backend_executions"]
    answered = len(plain["misses_s"]) + plain["coalesced"]
    plain["layers"] = {
        "serve.hits_memo": len(hits),
        "serve.misses": len(plain["misses_s"]),
        "serve.coalesced": plain["coalesced"],
        "serve.backend_executions": executions,
        "serve.shed": plain["shed"],
        "serve.coalesce_ratio": answered / executions if executions else 0.0,
        "serve.hit_overhead_ms": (_median(hits) - _median(health)) * 1e3,
        "exec.task_s": _median(plain["task_s"]),
        "exec.dispatch_s": _median(plain["dispatch_s"]),
        "hit_p50_ms": _median(hits) * 1e3,
        "hit_p90_ms": _pct(hits, 90) * 1e3 if hits else 0.0,
        "miss_p50_ms": _median(plain["misses_s"]) * 1e3,
    }
    for key in ("attempted", "failed", "errors", "mismatches"):
        plain[key] = plain[key] + traced[key]
    plain["overhead_pct"] = (traced["elapsed_s"] / plain["elapsed_s"]
                             - 1.0) * 100.0
    return plain


# -- warm-report -------------------------------------------------------------

def _report(env, cache_dir: Path):
    """One ``python -m repro all --scorecard-only``.

    Returns ``(seconds, failure, mismatch)``: a non-zero exit or a FAIL
    row is a failed op; any other difference from
    ``data/scorecard.txt`` is a wrong output.
    """
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "all", "--scorecard-only"],
        cwd=ROOT, env=dict(env, REPRO_CACHE_DIR=str(cache_dir)),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        return elapsed, f"exit {proc.returncode}: {proc.stderr[-300:]}", None
    rows = [line for line in proc.stdout.splitlines()
            if line.startswith("FAIL")]
    if rows:
        return elapsed, f"scorecard FAIL row: {rows[0].strip()}", None
    if proc.stdout != inputs.load("scorecard.txt"):
        return elapsed, None, "scorecard differs from data/scorecard.txt"
    return elapsed, None, None


def run_warm(children, env, args, work) -> Dict[str, object]:
    setup, errors, mismatches = [], [], []
    boots = 1 if args.trace else SETUP_BOOTS
    for boot in range(boots):
        cache_dir = work / f"report-cache-{boot}"
        elapsed, failure, mismatch = _report(env, cache_dir)
        setup.append(elapsed)
        if failure:
            raise BenchError(f"cache pre-fill failed: {failure}")
        if mismatch:
            mismatches.append(f"cache pre-fill: {mismatch}")
    if args.trace:
        proc, _ = _boot_program(children, env, args, work, 1,
                                ["--cache-dir", str(cache_dir)])
        return _finish_program(children, proc)
    entries = sorted(p.name for p in cache_dir.iterdir())
    latencies, attempted = [], 0
    cpu0, start = _children_cpu_s() + _own_cpu_s(), time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline:
        elapsed, failure, mismatch = _report(env, cache_dir)
        attempted += 1
        if failure:
            errors.append(failure)
        else:
            latencies.append(elapsed)
        if mismatch:
            mismatches.append(mismatch)
    elapsed = time.perf_counter() - start
    cpu = _children_cpu_s() + _own_cpu_s() - cpu0
    if sorted(p.name for p in cache_dir.iterdir()) != entries:
        mismatches.append("a warm report wrote the cache")
    return {"latencies_s": latencies, "elapsed_s": elapsed, "cpu_s": cpu,
            "attempted": attempted, "failed": len(errors),
            "errors": errors[:5], "mismatches": mismatches[:5],
            "setup_s": setup}


RUNNERS = {
    "cold-char": run_program,
    "mc-yield": run_program,
    "serve-mix": run_serve,
    "warm-report": run_warm,
}


# -- reporting ---------------------------------------------------------------

def _end_to_end(res) -> Dict[str, tuple]:
    """name -> (value, samples)."""
    lat = res["latencies_s"]
    ops = len(lat)
    return {
        "setup_s": (_median(res["setup_s"]), len(res["setup_s"])),
        "ops_per_s": (ops / res["elapsed_s"], ops),
        "op_p50_ms": (_median(lat) * 1e3, ops),
        "op_p90_ms": (_pct(lat, 90) * 1e3, ops),
        "cpu_ms_per_op": (res["cpu_s"] / ops * 1e3, ops),
        "peak_rss_mb": (_peak_rss_mb(), 1),
    }


def _per_layer(res, env) -> Dict[str, tuple]:
    values = dict(res.get("layers", {}))
    values["import.repro_s"] = _median(_import_probe(env))
    values["trace.overhead_pct"] = res["overhead_pct"]
    values["error_rate"] = res["failed"] / max(res["attempted"], 1)
    return {name: (value, 1) for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}; run "
              "from the root of a repository checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = STATE / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = _pin_environment(work)
    children = Children()
    # A terminated harness still stops its children and removes ``work``.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        stamp = _stamp()
        res = RUNNERS[args.workload](children, env, args, work)
        if res["failed"] >= res["attempted"] or not (
                args.trace or res["latencies_s"]):
            raise BenchError(f"no op completed; first errors: "
                             f"{res['errors'][:2]}")
        measured = _per_layer(res, env) if args.trace else _end_to_end(res)
    except (BenchError, subprocess.SubprocessError, OSError) as err:
        print(f"perfbench: {args.workload}: {err}", file=sys.stderr)
        return 2
    finally:
        children.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print("stamp " + " ".join(f"{k}={v}" for k, v in stamp.items()))
    print(f"{'metric':28s} {'value':>14s} {'unit':8s} samples")
    metrics = {}
    for entry in wanted:
        value, samples = measured.get(entry["name"], (0, 0))
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']:28s} {value:14.6g} {entry['unit']:8s} "
              f"{samples}")
    problems = list(res["mismatches"])
    recorded = inputs.load("work_counts.json").get(args.workload)
    if args.trace and recorded is not None:
        problems += inputs.diff_counts(
            recorded, {k: v["value"] for k, v in metrics.items()})
    print(f"error_rate {res['failed']}/{res['attempted']}")
    for line in res["errors"] + problems:
        print(f"  ! {line}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
