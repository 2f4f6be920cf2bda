"""Failure forensics: render, dump and reload solver post-mortems.

The solver attaches structured context to every
:class:`~repro.errors.ConvergenceError` / :class:`~repro.errors.TimestepError`
(true KCL residual vector, worst-offending nodes, damped-step streak,
time point, dt history, ladder trace).  This module turns those payloads
— and the :class:`~repro.recovery.partial.SkipRecord` lists produced by
partial-result sweeps — into human-readable reports, and persists them
as JSON for the ``python -m repro diagnose`` CLI.  It also owns the one
report shape every ``python -m repro chaos`` suite returns
(:func:`chaos_report`) and its renderer (:func:`render_chaos`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

from ..errors import ConvergenceError, StampError, TimestepError
from ..units import format_eng

PayloadLike = Union[ConvergenceError, StampError, TimestepError,
                    Dict[str, Any]]


def failure_payload(obj: PayloadLike) -> Dict[str, Any]:
    """Normalise an error or an already-dumped dict to a payload dict."""
    if isinstance(obj, (ConvergenceError, StampError, TimestepError)):
        return obj.to_dict()
    if isinstance(obj, dict):
        return obj
    raise TypeError(f"cannot diagnose object of type {type(obj).__name__}")


def dump_failure(obj: PayloadLike, path: Union[str, Path]) -> Path:
    """Write a failure payload as JSON; returns the path written."""
    path = Path(path)
    path.write_text(json.dumps(failure_payload(obj), indent=2))
    return path


def load_failure(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a payload previously written by :func:`dump_failure` (or any
    of the skip-record / chaos-report JSON files this package emits)."""
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def _render_ladder_trace(trace: Iterable[Dict[str, Any]],
                         indent: str = "  ") -> List[str]:
    lines = []
    for attempt in trace:
        status = "ok" if attempt.get("ok") else "failed"
        detail = attempt.get("detail") or ""
        if detail:
            detail = f" — {detail}"
        lines.append(f"{indent}[{status:6s}] {attempt.get('rung')}{detail}")
    return lines


def _render_convergence(payload: Dict[str, Any]) -> List[str]:
    lines = [f"convergence failure: {payload.get('message', '')}"]
    mode = payload.get("mode", "dc")
    time = payload.get("time", 0.0)
    lines.append(f"  analysis:       {mode}"
                 + (f" @ t = {format_eng(time, 's')}" if mode == "tran" else ""))
    lines.append(f"  iterations:     {payload.get('iterations', 0)}")
    streak = payload.get("damped_streak", 0)
    if streak:
        lines.append(f"  damped streak:  {streak} consecutive damped steps "
                     "(damping-starved solve)")
    residual = payload.get("residual")
    if residual is not None and residual == residual:   # not NaN
        lines.append(f"  KCL residual:   {format_eng(residual, 'A')} (inf-norm)")
    cond = payload.get("cond_estimate")
    if cond is not None and cond == cond:   # not NaN
        lines.append(f"  cond estimate:  {cond:.3g} (1-norm"
                     + ("; numerically hopeless system)" if cond > 1e15
                        else ")"))
    worst = payload.get("worst_nodes") or []
    if worst:
        lines.append("  worst offenders:")
        for name, value in worst:
            lines.append(f"    {name:24s} {format_eng(value, 'A')}")
    trace = payload.get("ladder_trace") or []
    if trace:
        lines.append("  recovery ladder:")
        lines.extend(_render_ladder_trace(trace, indent="    "))
    return lines


def _render_timestep(payload: Dict[str, Any]) -> List[str]:
    lines = [f"timestep failure: {payload.get('message', '')}"]
    lines.append(f"  time:           {format_eng(payload.get('time', 0.0), 's')}")
    lines.append(f"  dt at failure:  {format_eng(payload.get('dt', 0.0), 's')}")
    lines.append(f"  rejected steps: {payload.get('rejected_steps', 0)}")
    history = payload.get("dt_history") or []
    if history:
        shown = ", ".join(format_eng(dt, "s") for dt in history[-8:])
        lines.append(f"  dt history:     {shown}")
    cause = payload.get("cause")
    if cause:
        lines.append("  final Newton failure:")
        lines.extend("  " + line for line in _render_convergence(cause))
    return lines


def _render_stamp(payload: Dict[str, Any]) -> List[str]:
    lines = [f"stamp failure: {payload.get('message', '')}"]
    mode = payload.get("mode", "dc")
    time = payload.get("time", 0.0)
    lines.append(f"  analysis:       {mode}"
                 + (f" @ t = {format_eng(time, 's')}" if mode == "tran" else ""))
    offenders = payload.get("offenders") or []
    if offenders:
        lines.append("  offending elements:")
        for entry in offenders:
            rows = entry.get("rows") or []
            where = f" @ rows [{', '.join(map(str, rows))}]" if rows else ""
            err = entry.get("error")
            suffix = f" ({err})" if err else ""
            lines.append(f"    {entry.get('element')}{where}{suffix}")
    return lines


def _render_skip_records(payload: Dict[str, Any]) -> List[str]:
    records = payload.get("records") or []
    lines = [f"skip records: {len(records)} point(s) skipped "
             f"(stage: {payload.get('stage', 'unknown')})"]
    for record in records:
        label = record.get("label") or f"#{record.get('index')}"
        lines.append(f"  [{record.get('index')}] {label}: "
                     f"{record.get('error_type')}: {record.get('reason')}")
        worst = record.get("worst_nodes") or []
        if worst:
            names = ", ".join(f"{n} ({format_eng(v, 'A')})"
                              for n, v in worst[:3])
            lines.append(f"      worst nodes: {names}")
        trace = record.get("ladder_trace") or []
        if trace:
            lines.extend(_render_ladder_trace(trace, indent="      "))
    return lines


def chaos_row(name: str, expected: str, actual: str, ok: bool,
              detail: str = "") -> Dict[str, Any]:
    """One audited fault of a ``repro chaos`` suite."""
    return {"name": name, "expected": expected, "actual": actual,
            "ok": bool(ok), "detail": detail}


def chaos_report(suite: str, seed: Optional[int], n_in: int, n_out: int,
                 rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The one report shape every ``repro chaos`` suite returns.

    ``n_in`` counts the faults (tasks, requests, scenarios) injected and
    ``n_out`` the classified outcomes that came back; the suite passes
    only when nothing was lost and every row met its expectation.
    """
    return {"kind": "chaos_report", "suite": suite, "seed": seed,
            "n_in": n_in, "n_out": n_out,
            "ok": n_in == n_out and all(row["ok"] for row in rows),
            "rows": rows}


def render_chaos(report: Dict[str, Any]) -> str:
    """Human-readable chaos report (``repro chaos`` and ``diagnose``)."""
    rows = report.get("rows") or []
    verdict = "PASS" if report.get("ok") else "FAIL"
    lines = [f"chaos report: {report.get('suite', '?')} "
             f"(seed {report.get('seed')}): {report.get('n_in')} in, "
             f"{report.get('n_out')} out — {verdict}"]
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["actual"]] = counts.get(row["actual"], 0) + 1
        line = (f"  [{'ok ' if row['ok'] else 'BAD'}] {row['name']:44s} "
                f"{row['actual']}")
        if not row["ok"]:
            line += f" (want {row['expected']})"
        if row.get("detail"):
            line += f" — {row['detail']}"
        lines.append(line)
    lines.append("  -> " + ", ".join(f"{k}: {v}"
                                     for k, v in sorted(counts.items())))
    return "\n".join(lines)


def render_failure(obj: PayloadLike) -> str:
    """Human-readable report of any forensics payload this package emits."""
    payload = failure_payload(obj)
    kind = payload.get("kind")
    if kind == "convergence_failure":
        return "\n".join(_render_convergence(payload))
    if kind == "timestep_failure":
        return "\n".join(_render_timestep(payload))
    if kind == "stamp_failure":
        return "\n".join(_render_stamp(payload))
    if kind == "skip_records":
        return "\n".join(_render_skip_records(payload))
    if kind == "chaos_report":
        return render_chaos(payload)
    return json.dumps(payload, indent=2)
