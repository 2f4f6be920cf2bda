"""Fault injection: stress the recovery ladder with broken circuits.

The NV-SRAM corner sweeps only matter if the solver survives pathological
inputs, so this harness deliberately breaks decks the way silicon (and
variation models) break them:

* ``vth_shift`` — a FinFET threshold pushed far off its card;
* ``device_open`` — a FinFET's current factor collapsed to ~zero (an
  open device: floating gates and cut-off stacks downstream);
* ``mtj_drift`` — an MTJ RA product scaled orders of magnitude (toward
  open or short);
* ``node_short`` — a low-ohmic short from an internal node to ground;
* ``node_bridge`` — a low-ohmic bridge between two internal nodes;
* ``bad_ic`` — a corrupted initial-condition entry (e.g. a storage node
  "remembered" outside the rails).

:func:`chaos_operating_points` is the chaos mode used by the stress
tests and the ``python -m repro chaos`` CLI: every injected fault must
either converge (possibly via a ladder rung) or end as a structured
skip — never an unhandled exception, never a silent abort of the
remaining points.  Each suite here returns the one
:func:`~repro.recovery.forensics.chaos_report` shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..circuit import Resistor
from ..devices.finfet import FinFET
from ..devices.mtj import MTJ
from ..errors import AnalysisError
from .forensics import chaos_report, chaos_row

#: All fault kinds the sampler draws from.
FAULT_KINDS = ("vth_shift", "device_open", "mtj_drift", "node_short",
               "node_bridge", "bad_ic")

#: Resistance of injected shorts/bridges (ohms).
_R_SHORT = 1.0


@dataclass(frozen=True)
class FaultSpec:
    """One injectable fault.

    ``target`` names an element (parameter faults) or a node (shorts,
    corrupted ICs); ``aux`` carries the second node of a bridge.
    """

    kind: str
    target: str
    magnitude: float = 0.0
    aux: str = ""

    def describe(self) -> str:
        if self.kind == "vth_shift":
            return f"vth of {self.target} shifted {self.magnitude:+.2f} V"
        if self.kind == "device_open":
            return f"{self.target} opened (i_spec x {self.magnitude:g})"
        if self.kind == "mtj_drift":
            return f"{self.target} RA product x {self.magnitude:g}"
        if self.kind == "node_short":
            return f"{self.target} shorted to ground ({_R_SHORT:g} ohm)"
        if self.kind == "node_bridge":
            return f"{self.target} bridged to {self.aux} ({_R_SHORT:g} ohm)"
        if self.kind == "bad_ic":
            return f"ic[{self.target}] corrupted to {self.magnitude:.2f} V"
        return f"{self.kind} on {self.target}"


def _fets(circuit) -> List[FinFET]:
    return [e for e in circuit.elements() if isinstance(e, FinFET)]


def _mtjs(circuit) -> List[MTJ]:
    return [e for e in circuit.elements() if isinstance(e, MTJ)]


def _internal_nodes(circuit) -> List[str]:
    """Nodes that belong to the cell under test, not the ideal sources."""
    circuit.compile()
    driven = set()
    for element in circuit.elements():
        if type(element).__name__ == "VoltageSource":
            driven.add(element.node_names[0])
    return [n for n in circuit.node_names() if n not in driven]


def sample_fault(circuit, rng: np.random.Generator,
                 kinds: Sequence[str] = FAULT_KINDS) -> FaultSpec:
    """Draw one random fault applicable to ``circuit``."""
    kinds = list(kinds)
    rng.shuffle(kinds)
    for kind in kinds:
        spec = _try_sample(circuit, rng, kind)
        if spec is not None:
            return spec
    raise ValueError("no fault kind applicable to this circuit")


def _try_sample(circuit, rng: np.random.Generator,
                kind: str) -> Optional[FaultSpec]:
    if kind == "vth_shift":
        fets = _fets(circuit)
        if not fets:
            return None
        shift = float(rng.uniform(0.15, 0.45)) * (1 if rng.random() < 0.5
                                                  else -1)
        return FaultSpec(kind, str(rng.choice([f.name for f in fets])),
                         magnitude=shift)
    if kind == "device_open":
        fets = _fets(circuit)
        if not fets:
            return None
        return FaultSpec(kind, str(rng.choice([f.name for f in fets])),
                         magnitude=1e-9)
    if kind == "mtj_drift":
        mtjs = _mtjs(circuit)
        if not mtjs:
            return None
        scale = float(10.0 ** rng.uniform(1.0, 3.0))
        if rng.random() < 0.5:
            scale = 1.0 / scale
        return FaultSpec(kind, str(rng.choice([m.name for m in mtjs])),
                         magnitude=scale)
    if kind == "node_short":
        nodes = _internal_nodes(circuit)
        if not nodes:
            return None
        return FaultSpec(kind, str(rng.choice(nodes)))
    if kind == "node_bridge":
        nodes = _internal_nodes(circuit)
        if len(nodes) < 2:
            return None
        a, b = rng.choice(nodes, size=2, replace=False)
        return FaultSpec(kind, str(a), aux=str(b))
    if kind == "bad_ic":
        nodes = _internal_nodes(circuit)
        if not nodes:
            return None
        level = float(rng.uniform(-0.9, 1.8))
        return FaultSpec(kind, str(rng.choice(nodes)), magnitude=level)
    return None


_FAULT_COUNTER = 0


def inject_fault(circuit, fault: FaultSpec) -> Dict[str, float]:
    """Apply ``fault`` to ``circuit`` in place.

    Returns an initial-condition override map (non-empty only for
    ``bad_ic`` faults) the caller must merge into its ``ic`` mapping.
    """
    global _FAULT_COUNTER
    if fault.kind == "vth_shift":
        element = circuit[fault.target]
        element.params = element.params.with_(
            vth0=max(element.params.vth0 + fault.magnitude, 0.01))
        return {}
    if fault.kind == "device_open":
        element = circuit[fault.target]
        element.params = element.params.with_(
            i_spec=element.params.i_spec * fault.magnitude)
        return {}
    if fault.kind == "mtj_drift":
        element = circuit[fault.target]
        element.params = element.params.with_(
            ra_product=element.params.ra_product * fault.magnitude)
        return {}
    if fault.kind in ("node_short", "node_bridge"):
        _FAULT_COUNTER += 1
        other = fault.aux if fault.kind == "node_bridge" else "0"
        circuit.add(Resistor(f"rfault{_FAULT_COUNTER}", fault.target,
                             other, _R_SHORT))
        return {}
    if fault.kind == "bad_ic":
        return {fault.target: fault.magnitude}
    raise ValueError(f"unknown fault kind: {fault.kind}")


# ---------------------------------------------------------------------------
# chaos driver
# ---------------------------------------------------------------------------

def _solver_row(fault: FaultSpec, rung: Optional[str],
                err: Optional[AnalysisError]) -> dict:
    """Audit one faulted solve.

    Every structured outcome passes: a clean solve, a rescue by a ladder
    rung, or an analysis error kept as a skip.  Anything else escapes
    as an exception and aborts the suite.
    """
    if err is not None:
        actual, detail = "skipped", f"{type(err).__name__}: {err}"
    elif rung is not None:
        actual, detail = "recovered", f"rung: {rung}"
    else:
        actual, detail = "converged", ""
    return chaos_row(f"{fault.kind}: {fault.describe()}",
                     "converged|recovered|skipped", actual, True, detail)


def _chaos_testbench(target: str, cond=None, domain=None):
    """Build a fresh deck for a chaos target (lazy heavy imports)."""
    from ..characterize.testbench import build_cell_testbench

    if target in ("nv", "6t"):
        return build_cell_testbench(target, cond, domain)
    if target == "nvff":
        from ..characterize.ff_runner import _build_ff_bench
        from ..devices.mtj import MTJ_TABLE1
        from ..devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP
        from ..pg.modes import OperatingConditions

        circuit, _ff = _build_ff_bench(cond or OperatingConditions(),
                                       NFET_20NM_HP, PFET_20NM_HP,
                                       MTJ_TABLE1)
        return circuit
    raise ValueError(f"unknown chaos target: {target}")


def chaos_operating_points(
    target: str = "nv",
    n_faults: int = 20,
    seed: int = 2015,
    cond=None,
    domain=None,
    kinds: Sequence[str] = FAULT_KINDS,
) -> dict:
    """Inject ``n_faults`` faults into fresh decks and solve each one.

    For the cell targets (``"nv"``, ``"6t"``) every faulted deck is
    solved in the standby mode and — NV only — the H-store mode, the two
    DC corners the Fig. 3–4 sweeps hammer.  Each fault yields exactly one
    row of a :func:`~repro.recovery.forensics.chaos_report`; analysis
    failures become ``skipped`` rows, so the loop never aborts early and
    the report always holds ``n_faults`` rows.
    """
    from ..analysis import operating_point
    from ..devices.mtj import MTJState
    from ..pg.modes import Mode

    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_faults):
        bench = _chaos_testbench(target, cond, domain)
        is_cell = target in ("nv", "6t")
        circuit = bench.circuit if is_cell else bench
        fault = sample_fault(circuit, rng, kinds)
        ic_override = inject_fault(circuit, fault)

        rung: Optional[str] = None
        err: Optional[AnalysisError] = None
        modes = ([Mode.STANDBY] + ([Mode.STORE_H] if target == "nv" else [])
                 if is_cell else [None])
        for mode in modes:
            ic = None
            if mode is not None:
                bench.apply_mode(mode)
                if mode is Mode.STORE_H:
                    bench.nv_cell.set_mtj_states(
                        circuit, MTJState.PARALLEL, MTJState.ANTIPARALLEL)
                ic = bench.initial_conditions(True)
                ic.update(ic_override)
            try:
                sol = operating_point(circuit, ic=ic)
            except AnalysisError as exc:
                err = exc
                break
            rung = getattr(sol, "recovery_rung", None) or rung
        rows.append(_solver_row(fault, rung, err))
    return chaos_report(f"dc:{target}", seed, n_faults, len(rows), rows)


def chaos_store_transient(
    n_faults: int = 5,
    seed: int = 2015,
    cond=None,
    domain=None,
    kinds: Sequence[str] = FAULT_KINDS,
) -> dict:
    """Transient chaos: a shortened two-step store on faulted NV decks.

    Heavier than :func:`chaos_operating_points` (each fault costs a
    transient), so the stress suite and the ``--transient`` CLI flag use
    small fault counts.
    """
    from ..analysis import transient
    from ..analysis.transient import TransientOptions
    from ..pg.modes import Mode, OperatingConditions
    from ..pg.scheduler import Schedule, ScheduleStep

    cond = cond or OperatingConditions()
    rng = np.random.default_rng(seed)
    rows = []
    for _ in range(n_faults):
        tb = _chaos_testbench("nv", cond, domain)
        fault = sample_fault(tb.circuit, rng, kinds)
        ic_override = inject_fault(tb.circuit, fault)

        schedule = Schedule(
            [ScheduleStep(Mode.STANDBY, 0.5e-9),
             ScheduleStep(Mode.STORE_H, cond.t_store_step / 4),
             ScheduleStep(Mode.STORE_L, cond.t_store_step / 4)],
            cond, volatile=False,
        )
        tb.apply_waveforms(schedule.line_waveforms())
        tb.set_mtj_data(False)
        ic = tb.initial_conditions(True)
        ic.update(ic_override)

        rung: Optional[str] = None
        err: Optional[AnalysisError] = None
        try:
            result = transient(tb.circuit, schedule.total_duration, ic=ic,
                               options=TransientOptions(dt_initial=20e-12))
            if result.recoveries:
                rung = result.recoveries[-1]["rung"]
        except AnalysisError as exc:
            err = exc
        rows.append(_solver_row(fault, rung, err))
    return chaos_report("transient:nv", seed, n_faults, len(rows), rows)


# ---------------------------------------------------------------------------
# executor chaos: faults against the campaign engine itself
# ---------------------------------------------------------------------------

#: Process-level fault kinds injected into :mod:`repro.exec` workers by
#: the executor chaos harness (``repro chaos --executor``).  These break
#: the *execution substrate*, not the circuit: the campaign engine must
#: classify each one and still deliver an N-in/N-out accounting.
EXEC_FAULT_KINDS = ("worker_crash", "worker_hang", "slow_task",
                    "flaky_crash", "task_error", "conv_skip")

#: The terminal state the executor must drive each fault kind to.
#: ``None`` (healthy) and ``slow_task`` complete; a ``flaky_crash``
#: completes *after* a retry; deterministic convergence failures are
#: record-and-skip; hard crashes/hangs exhaust the retry budget and
#: poison errors quarantine immediately.
EXEC_FAULT_EXPECTED = {
    None: "completed",
    "slow_task": "completed",
    "flaky_crash": "completed",
    "conv_skip": "skipped",
    "worker_crash": "quarantined",
    "worker_hang": "quarantined",
    "task_error": "quarantined",
}


def build_executor_chaos_campaign(scratch, n_healthy: int = 4,
                                  seed: int = 2015,
                                  kinds: Sequence[str] = EXEC_FAULT_KINDS):
    """Campaign mixing healthy tasks with one task per executor fault.

    ``scratch`` is a writable directory the ``flaky_crash`` tasks use
    for their crash-once markers; it also namespaces the campaign key,
    so each chaos run journals as its own campaign.
    """
    from ..exec import Campaign, make_task

    tasks = []
    index = 0
    for kind in kinds:
        params = {"index": index, "fault": kind, "scratch": str(scratch)}
        if kind == "slow_task":
            params["delay"] = 0.2
        tasks.append(make_task(params, label=f"fault:{kind}"))
        index += 1
    rng = np.random.default_rng(seed)
    for _ in range(n_healthy):
        tasks.append(make_task(
            {"index": index, "fault": None, "scratch": str(scratch),
             "work": round(float(rng.uniform(0.0, 0.05)), 4)},
            label=f"healthy {index}"))
        index += 1
    return Campaign(name="exec-chaos", fn="repro.exec.tasks:chaos_task",
                    tasks=tasks)


def chaos_executor(scratch, n_healthy: int = 4, workers: int = 2,
                   seed: int = 2015, task_timeout: float = 5.0,
                   max_retries: int = 1, journal=None,
                   kinds: Sequence[str] = EXEC_FAULT_KINDS,
                   progress=None) -> dict:
    """Run the executor chaos campaign and audit the outcomes.

    Every injected fault must land in exactly the terminal state of
    :data:`EXEC_FAULT_EXPECTED` — N tasks in, N classified outcomes out,
    no unhandled exception, no lost task.  Returns a
    :func:`~repro.recovery.forensics.chaos_report` with one row per
    task, its expected vs actual terminal state and its attempt count.
    """
    from ..exec import CampaignOptions, run_campaign

    campaign = build_executor_chaos_campaign(scratch, n_healthy, seed,
                                             kinds)
    options = CampaignOptions(
        workers=workers,
        task_timeout=task_timeout,
        max_retries=max_retries,
        backoff_base=0.05,
        backoff_cap=0.5,
        resume=journal is not None,
        progress=progress,
    )
    result = run_campaign(campaign, journal=journal, options=options)

    rows = []
    for task in campaign.tasks:
        fault = task.params.get("fault")
        expected = EXEC_FAULT_EXPECTED.get(fault, "completed")
        outcome = result.outcome(task.task_id)
        actual = outcome.status if outcome is not None else "missing"
        attempts = outcome.attempts if outcome is not None else 0
        row_ok = actual == expected
        if fault == "flaky_crash":
            row_ok = row_ok and attempts >= 2   # must have actually retried
        rows.append(chaos_row(task.label, expected, actual, row_ok,
                              f"{attempts} attempt(s)"))
    return chaos_report("executor", seed, len(campaign.tasks),
                        len(result.outcomes), rows)
