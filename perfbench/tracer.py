"""Layer tracer for the benchmark: wraps the program's public functions.

Nothing here lives in ``src/``: the tracer replaces each traced function
with a timing wrapper in *every* loaded ``repro`` module that binds it
(``newton_solve`` is bound in ``analysis.solver``, ``analysis.transient``
and lazily in ``recovery.ladder``; one shared wrapper serves them all, so
a call is counted once whichever name it went through).  Spans are kept
in memory and written out by :meth:`Tracer.write` when the run ends.

A span's *self* time is its duration minus the part covered by traced
child spans; a name's *total* time counts only its outermost spans, so a
recursive call (the recovery ladder re-entering ``newton_solve``) is not
counted twice.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Modules imported before wrapping so their bindings exist to patch.
_MODULES = (
    "repro.circuit.netlist",
    "repro.analysis.mna",
    "repro.analysis.solver",
    "repro.analysis.trust",
    "repro.analysis.dc",
    "repro.analysis.sweep",
    "repro.analysis.transient",
    "repro.recovery.ladder",
    "repro.characterize.cache",
    "repro.characterize.runner",
    "repro.characterize.variability",
    "repro.pg.bet",
    "repro.experiments.summary",
)


class _Stat:
    __slots__ = ("calls", "total", "self_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Span recorder plus per-name aggregates and plain counters."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {}
        self.counters: Dict[str, int] = {}
        #: ``(name, start, end, parent_index)`` per finished span.
        self.spans: List[tuple] = []
        self._stack: List[list] = []   # [span_index, child_seconds]
        self._undo: List[tuple] = []

    # -- recording -------------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrapper(self, name: str, fn: Callable,
                 after: Optional[Callable[[Any, tuple, dict], None]] = None,
                 skip: Optional[Callable[[tuple], bool]] = None) -> Callable:
        stat = self.stats.setdefault(name, _Stat())
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            stat.depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                elapsed = end - start
                stack.pop()
                stat.depth -= 1
                if stack:
                    stack[-1][1] += elapsed
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stat.depth == 0:
                    stat.total += elapsed
                spans[frame[0]] = (name, start, end, parent)
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # -- installation ----------------------------------------------------

    def _rebind(self, original: Any, replacement: Any) -> None:
        """Point every ``repro`` module attribute bound to ``original``
        at ``replacement``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._undo.append((module, attr, original))

    def wrap_function(self, module_name: str, attr: str, name: str,
                      after=None) -> None:
        original = getattr(importlib.import_module(module_name), attr)
        self._rebind(original, self._wrapper(name, original, after))

    def wrap_method(self, cls: type, attr: str, name: str,
                    skip=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(name, original, skip=skip))
        self._undo.append((cls, attr, original))

    def count_method(self, cls: type, attr: str, counter: str) -> None:
        original = cls.__dict__[attr]
        bump = self.count

        @functools.wraps(original)
        def counted(*args, **kwargs):
            bump(counter)
            return original(*args, **kwargs)

        setattr(cls, attr, counted)
        self._undo.append((cls, attr, original))

    def install(self) -> "Tracer":
        """Wrap every layer boundary the benchmark reports."""
        import numpy as np

        for module_name in _MODULES:
            importlib.import_module(module_name)
        from repro.analysis.mna import Stamper
        from repro.circuit.netlist import Circuit

        count = self.count

        def after_op(sol, args, kwargs):
            if getattr(sol, "recovery_rung", None) is not None:
                count("recovery.dc_rescues")

        def after_sweep(result, args, kwargs):
            values = args[2] if len(args) > 2 else kwargs["values"]
            count("sweep.points", len(values))

        def after_tran(result, args, kwargs):
            stats = result.stats
            count("tran.accepted_steps", int(stats.get("accepted_steps", 0)))
            count("tran.rejected_steps", int(stats.get("rejected_steps", 0)))
            count("recovery.tran_rescues",
                  int(stats.get("ladder_recoveries", 0)))

        def after_load(result, args, kwargs):
            count("cache.hits" if result is not None else "cache.misses")

        # Circuit.compile is idempotent; only calls that do work count.
        self.wrap_method(Circuit, "compile", "circuit.compile",
                         skip=lambda args: getattr(args[0], "_compiled",
                                                   False))
        self.count_method(Stamper, "clear", "mna.assemblies")
        lu = np.linalg.solve
        traced_lu = self._wrapper("lu", lu)
        np.linalg.solve = traced_lu
        self._undo.append((np.linalg, "solve", lu))
        self._rebind(lu, traced_lu)
        self.wrap_function("repro.analysis.solver", "newton_solve", "newton")
        self.wrap_function("repro.analysis.trust", "certify", "trust.certify")
        self.wrap_function("repro.analysis.dc", "operating_point", "dc.op",
                           after_op)
        self.wrap_function("repro.analysis.sweep", "dc_sweep", "sweep",
                           after_sweep)
        self.wrap_function("repro.analysis.transient", "transient", "tran",
                           after_tran)
        self.wrap_function("repro.characterize.cache", "load", "cache.load",
                           after_load)
        self.wrap_function("repro.characterize.cache", "store", "cache.store")
        self.wrap_function("repro.characterize.runner", "characterize_cell",
                           "characterize.cell")
        self.wrap_function("repro.pg.bet", "break_even_time", "pg.bet")
        self.wrap_function("repro.experiments.summary", "run_summary",
                           "experiments.summary")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output ----------------------------------------------------------

    def layer_metrics(self) -> Dict[str, float]:
        """The per-layer numbers the benchmark reports for this trace."""
        def stat(name):
            return self.stats.get(name, _Stat())

        def counter(name):
            return self.counters.get(name, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        newton, lu, cert = stat("newton"), stat("lu"), stat("trust.certify")
        load, store = stat("cache.load"), stat("cache.store")
        cell, summary = stat("characterize.cell"), stat("experiments.summary")
        tran, sweep, op = stat("tran"), stat("sweep"), stat("dc.op")
        accepted = counter("tran.accepted_steps")
        rejected = counter("tran.rejected_steps")
        hits = counter("cache.hits")
        return {
            "circuit.compile_calls": stat("circuit.compile").calls,
            "circuit.compile_s": stat("circuit.compile").total,
            "newton.solves": newton.calls,
            "newton.s": newton.total,
            "newton.self_s": newton.self_s,
            "mna.assemblies": counter("mna.assemblies"),
            "mna.assemblies_per_solve": ratio(counter("mna.assemblies"),
                                              newton.calls),
            "lu.calls": lu.calls,
            "lu.s": lu.total,
            "trust.certify_calls": cert.calls,
            "trust.certify_s": cert.total,
            "trust.certify_share": ratio(cert.total, newton.total),
            "dc.op_calls": op.calls,
            "dc.op_s": op.total,
            "sweep.calls": sweep.calls,
            "sweep.points": counter("sweep.points"),
            "sweep.s": sweep.total,
            "tran.runs": tran.calls,
            "tran.s": tran.total,
            "tran.accepted_steps": accepted,
            "tran.rejected_steps": rejected,
            "tran.accept_ratio": ratio(accepted, accepted + rejected),
            "recovery.dc_rescues": counter("recovery.dc_rescues"),
            "recovery.tran_rescues": counter("recovery.tran_rescues"),
            "characterize.cell_s": cell.total,
            "characterize.self_s": cell.self_s,
            "cache.loads": load.calls,
            "cache.load_s": load.total,
            "cache.hits": hits,
            "cache.misses": counter("cache.misses"),
            "cache.hit_ratio": ratio(hits, load.calls),
            "cache.stores": store.calls,
            "cache.store_s": store.total,
            "pg.bet_calls": stat("pg.bet").calls,
            "pg.bet_s": stat("pg.bet").total,
            "experiments.summary_s": summary.total,
            "experiments.self_s": summary.self_s,
        }

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name,
                                      "start": start, "end": end,
                                      "parent": parent}) + "\n")
