"""Command-line interface: regenerate any paper artefact from a shell.

Usage::

    python -m repro table1
    python -m repro fig3 --points 21
    python -m repro fig7a
    python -m repro fig9 --panel b
    python -m repro characterize --kind nv --wordlines 512
    python -m repro bet --n-rw 100 --wordlines 512 [--store-free]
    python -m repro snm [--read] [--wl-underdrive 0.1]
    python -m repro retention
    python -m repro lint examples/decks/*.sp nv 6t [--format sarif]
    python -m repro lint-source src/repro [--format sarif]
    python -m repro equiv run --strict      # solver-equivalence gate
    python -m repro equiv update            # refreeze the golden corpus
    python -m repro diagnose failure.json   # or --demo
    python -m repro chaos --target nv --faults 20 [--json report.json]
    python -m repro chaos --executor --workers 2
    python -m repro chaos --crashpoints     # crash-safety validation
    python -m repro chaos --serve           # serving-layer chaos suite
    python -m repro serve --port 8023 --journal serve.jsonl
    python -m repro campaign run demo --workers 2 --journal run.jsonl
    python -m repro campaign resume demo --journal run.jsonl
    python -m repro campaign status run.jsonl
    python -m repro fig7b --workers 4 --journal fig7b.jsonl

Every subcommand prints the same rows/series the paper reports; see
``benchmarks/`` for the timed versions with archived artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import List, Optional

from .cells import PowerDomain
from .pg.modes import OperatingConditions
from .pg.sequences import Architecture
from .units import format_eng


def _conditions(args) -> OperatingConditions:
    cond = OperatingConditions()
    overrides = {}
    if getattr(args, "frequency", None):
        overrides["frequency"] = float(args.frequency)
    if getattr(args, "wl_underdrive", None):
        overrides["wl_underdrive"] = float(args.wl_underdrive)
    return cond.with_(**overrides) if overrides else cond


def _domain(args) -> PowerDomain:
    return PowerDomain(
        n_wordlines=getattr(args, "wordlines", 512),
        word_bits=getattr(args, "word_bits", 32),
    )


def _cmd_table1(args) -> int:
    from .experiments import run_table1

    print(run_table1(_conditions(args)).render())
    return 0


def _cmd_fig1(args) -> int:
    from .experiments import ExperimentContext, run_fig1

    ctx = ExperimentContext(cond=_conditions(args))
    print(run_fig1(ctx, _domain(args)).render())
    return 0


def _cmd_fig3(args) -> int:
    from .experiments import run_fig3

    print(run_fig3(_conditions(args), _domain(args),
                   points=args.points).render())
    return 0


def _cmd_fig4(args) -> int:
    from .experiments import run_fig4

    print(run_fig4(_conditions(args), _domain(args)).render())
    return 0


def _cmd_fig5(args) -> int:
    from .experiments import run_fig5

    print(run_fig5(_conditions(args)).render())
    return 0


def _cmd_fig6(args) -> int:
    from .experiments import ExperimentContext, run_fig6

    ctx = ExperimentContext(cond=_conditions(args))
    print(run_fig6(ctx, _domain(args)).render())
    return 0


def _campaign_kwargs(args) -> dict:
    """``--workers/--journal`` pass-through for campaign-aware runners."""
    return {"workers": getattr(args, "workers", None),
            "journal": getattr(args, "journal", None)}


def _cmd_fig7(args, panel: str) -> int:
    from .experiments import (
        ExperimentContext,
        run_fig7a,
        run_fig7b,
        run_fig7c,
    )

    ctx = ExperimentContext(cond=_conditions(args))
    runner = {"a": run_fig7a, "b": run_fig7b, "c": run_fig7c}[panel]
    if panel == "b":
        print(runner(ctx, **_campaign_kwargs(args)).render())
    else:
        print(runner(ctx, _domain(args), **_campaign_kwargs(args)).render())
    return 0


def _cmd_fig8(args) -> int:
    from .experiments import ExperimentContext, run_fig8

    ctx = ExperimentContext(cond=_conditions(args))
    print(run_fig8(ctx, _domain(args), **_campaign_kwargs(args)).render())
    return 0


def _cmd_fig9(args) -> int:
    from .experiments import ExperimentContext, run_fig9

    ctx = ExperimentContext(cond=_conditions(args))
    print(run_fig9(ctx, panel=args.panel,
                   **_campaign_kwargs(args)).render())
    return 0


def _cmd_characterize(args) -> int:
    from .characterize import characterize_cell

    result = characterize_cell(args.kind, _conditions(args), _domain(args))
    print(result.to_json())
    return 0


def _cmd_bet(args) -> int:
    from .experiments import ExperimentContext
    from .pg.bet import break_even_time

    ctx = ExperimentContext(cond=_conditions(args))
    model = ctx.energy_model(_domain(args))
    arch = Architecture(args.architecture)
    result = break_even_time(model, arch, n_rw=args.n_rw,
                             t_sl=args.t_sl, store_free=args.store_free)
    print(f"architecture:     {arch.value}")
    print(f"n_RW:             {result.n_rw}")
    print(f"store-free:       {args.store_free}")
    print(f"overhead energy:  {format_eng(result.overhead_energy, 'J')}")
    print(f"saving power:     {format_eng(result.saving_power, 'W')}")
    print(f"break-even time:  {format_eng(result.bet, 's')}")
    return 0


def _cmd_snm(args) -> int:
    from .characterize.snm import butterfly_curve

    curve = butterfly_curve(_conditions(args), read_mode=args.read)
    print(f"{curve.mode} SNM: {curve.snm * 1e3:.1f} mV "
          f"(lobes: {curve.lobe_margins[0] * 1e3:.1f} / "
          f"{curve.lobe_margins[1] * 1e3:.1f} mV)")
    return 0


def _cmd_variability(args) -> int:
    from .characterize.variability import (
        read_snm_distribution,
        store_yield_analysis,
    )

    cond = _conditions(args)
    yield_result = store_yield_analysis(cond, _domain(args),
                                        n_samples=args.samples,
                                        **_campaign_kwargs(args))
    print(f"store-yield Monte Carlo ({args.samples} samples):")
    print(f"  switching yield (I > Ic):   "
          f"{yield_result.switching_yield:.1%}")
    print(f"  full-margin yield (>= "
          f"{yield_result.target_margin:g} x Ic): "
          f"{yield_result.margin_yield:.1%}")
    print(f"  margin p1 / p50:            "
          f"{yield_result.percentile(1):.2f} / "
          f"{yield_result.percentile(50):.2f} x Ic")
    if yield_result.n_failed:
        print(f"  !! {yield_result.n_failed} sample(s) skipped after "
              "recovery-ladder exhaustion (counted as failing)")
    snm = read_snm_distribution(cond, n_samples=args.samples,
                                **_campaign_kwargs(args))
    print(f"read-SNM Monte Carlo: mean {snm.mean * 1e3:.0f} mV, "
          f"sigma {snm.std * 1e3:.0f} mV, "
          f"bistable yield {snm.stability_yield:.1%}")
    if snm.n_failed:
        print(f"  !! {snm.n_failed} sample(s) skipped after "
              "recovery-ladder exhaustion (counted as unstable)")
    return 0


def _cmd_ff(args) -> int:
    from .characterize.ff_runner import characterize_nvff
    from .pg.registers import RegisterBankModel

    ff = characterize_nvff(_conditions(args))
    print(ff.to_json())
    bank = RegisterBankModel(ff, num_ffs=args.bits)
    print(f"\n{args.bits}-bit register bank:")
    print(f"  idle power:      {format_eng(bank.idle_power(), 'W')}")
    print(f"  shutdown power:  {format_eng(bank.shutdown_power(), 'W')}")
    print(f"  gating overhead: {format_eng(bank.gating_overhead, 'J')}")
    print(f"  break-even time: "
          f"{format_eng(bank.break_even_time(), 's')}")
    return 0


def _cmd_wer(args) -> int:
    from .devices.mtj import MTJ_TABLE1
    from .units import parse_quantity

    duration = parse_quantity(args.duration)
    ic = MTJ_TABLE1.critical_current
    print(f"store window: {format_eng(duration, 's')}, "
          f"Ic = {format_eng(ic, 'A')}")
    for mult in (1.1, 1.2, 1.5, 2.0, 3.0):
        wer = MTJ_TABLE1.write_error_rate(mult * ic, duration)
        print(f"  I = {mult:.1f} x Ic: WER = {wer:.3g}")
    required = MTJ_TABLE1.required_current_for_wer(duration, args.target)
    print(f"WER <= {args.target:g} needs I >= "
          f"{format_eng(required, 'A')} ({required / ic:.2f} x Ic)")
    return 0


def _cmd_all(args) -> int:
    from .experiments import ExperimentContext
    from .experiments.summary import run_summary

    ctx = ExperimentContext(cond=_conditions(args))
    result = run_summary(ctx, include_figures=not args.scorecard_only)
    print(result.render())
    return 0 if result.all_passed else 1


#: Built-in lint targets: aliases for the shipped cell testbenches.
LINT_ALIASES = ("nv", "6t", "nvff", "array")


def _lint_alias_circuit(alias: str):
    """Build the circuit behind a ``repro lint`` cell alias."""
    from .characterize.testbench import build_cell_testbench

    if alias in ("nv", "6t"):
        return build_cell_testbench(alias).circuit
    if alias == "nvff":
        from .characterize.ff_runner import _build_ff_bench
        from .devices.mtj import MTJ_TABLE1
        from .devices.ptm20 import NFET_20NM_HP, PFET_20NM_HP

        circuit, _ff = _build_ff_bench(OperatingConditions(), NFET_20NM_HP,
                                       PFET_20NM_HP, MTJ_TABLE1)
        return circuit
    if alias == "array":
        from .cells.array import build_cell_array

        return build_cell_array(2, 2).circuit
    raise ValueError(f"unknown lint alias: {alias}")


def _lint_config(args):
    """Layered lint policy: pyproject < REPRO_LINT_DISABLE < --disable."""
    from .verify.config import effective_config

    disable = frozenset(
        token.strip() for spec in args.disable
        for token in spec.split(",") if token.strip()
    )
    return effective_config(cli_disable=disable)


def _list_rules() -> int:
    from .verify import REGISTRY

    for rule_ in REGISTRY.rules():
        print(f"{rule_.code}  {rule_.severity.value:7s} "
              f"[{rule_.scope}] {rule_.name}: {rule_.description}")
    return 0


def _apply_lint_baseline(args, report):
    """Baseline handling shared by ``lint`` and ``lint-source``.

    Returns ``(report, exit code | None)``: ``--update-baseline``
    records the current findings and short-circuits; ``--baseline``
    filters known findings out (reporting how many were suppressed and
    how many baseline entries are stale); ``--prune`` first deletes
    stale entries from the baseline file in place (it never adds any,
    so regressions stay visible — unlike re-recording).
    """
    from .verify import (apply_baseline, load_baseline, prune_baseline,
                         write_baseline)

    if getattr(args, "update_baseline", None):
        count = write_baseline(args.update_baseline, report)
        print(f"recorded {count} finding(s) into {args.update_baseline}")
        return report, 0
    if getattr(args, "prune", False):
        if not getattr(args, "baseline", None):
            print("repro lint: --prune requires --baseline FILE",
                  file=sys.stderr)
            return report, 2
        try:
            removed = prune_baseline(args.baseline, report)
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return report, 2
        print(f"baseline: pruned {removed} stale entr(y/ies) from "
              f"{args.baseline}", file=sys.stderr)
    if getattr(args, "baseline", None):
        try:
            fingerprints = load_baseline(args.baseline)
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return report, 2
        report, suppressed, stale = apply_baseline(report, fingerprints)
        if suppressed:
            print(f"baseline: suppressed {suppressed} known finding(s)",
                  file=sys.stderr)
        if stale:
            print(f"baseline: {stale} entr(y/ies) matched nothing — "
                  "fixed findings, prune them with --update-baseline",
                  file=sys.stderr)
    return report, None


def _cmd_lint(args) -> int:
    from .verify import (
        Report,
        render_json,
        render_sarif,
        render_text,
        verify_circuit,
        verify_deck_file,
    )

    if args.list_rules:
        return _list_rules()
    if not args.targets:
        print("repro lint: no targets (deck paths or one of "
              + "/".join(LINT_ALIASES) + ")", file=sys.stderr)
        return 2
    config = _lint_config(args)
    report = Report(target=", ".join(args.targets))
    for target in args.targets:
        if target in LINT_ALIASES:
            part = verify_circuit(_lint_alias_circuit(target),
                                  config=config, target=f"cell:{target}")
        else:
            try:
                part = verify_deck_file(target, config=config)
            except OSError as exc:
                print(f"repro lint: cannot read {target!r}: "
                      f"{exc.strerror or exc}", file=sys.stderr)
                return 2
        report.extend(part)
    report, short_circuit = _apply_lint_baseline(args, report)
    if short_circuit is not None:
        return short_circuit
    renderer = {"text": render_text, "json": render_json,
                "sarif": render_sarif}[args.format]
    print(renderer(report))
    failed = report.has_errors or (args.strict and report.warnings())
    return 1 if failed else 0


def _cmd_lint_source(args) -> int:
    from .verify import (
        default_source_paths,
        render_json,
        render_sarif,
        render_text,
        verify_source,
    )
    from .verify.cache import default_lint_cache_dir

    if args.list_rules:
        return _list_rules()
    paths = args.paths or default_source_paths()
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print("repro lint-source: no such path: "
              + ", ".join(repr(p) for p in missing), file=sys.stderr)
        return 2
    try:
        from .exec.registry import task_function_refs
        task_refs = task_function_refs()
    except ImportError:         # lint must not die on exec-side drift
        task_refs = []
    cache_dir = None if args.no_cache else default_lint_cache_dir()
    report = verify_source(paths, config=_lint_config(args),
                           cache_dir=cache_dir,
                           extra_task_refs=task_refs)
    report, short_circuit = _apply_lint_baseline(args, report)
    if short_circuit is not None:
        return short_circuit
    renderer = {"text": render_text, "json": render_json,
                "sarif": render_sarif}[args.format]
    print(renderer(report))
    failed = report.has_errors or (args.strict and report.warnings())
    return 1 if failed else 0


#: Rewrites to these subtrees can shift solver numerics; ``repro fix
#: --apply`` refuses to keep them unless the equivalence gate passes.
_EQUIV_RELEVANT = ("src/repro/analysis", "src/repro/devices",
                   "src/repro/circuit", "src/repro/recovery")


def _cmd_fix(args) -> int:
    from .verify import default_source_paths, verify_source
    from .verify import fix as fixmod
    from .verify.cache import default_lint_cache_dir

    if args.check and args.apply:
        print("repro fix: --check and --apply are mutually exclusive",
              file=sys.stderr)
        return 2
    paths = args.paths or default_source_paths()
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print("repro fix: no such path: "
              + ", ".join(repr(p) for p in missing), file=sys.stderr)
        return 2
    rules = None
    if args.rules:
        rules = {token.strip() for spec in args.rules
                 for token in spec.split(",") if token.strip()}
        unknown = rules - set(fixmod.FIXABLE_RULES)
        if unknown:
            print("repro fix: no codemod for "
                  + ", ".join(sorted(unknown)) + " (have: "
                  + ", ".join(fixmod.FIXABLE_RULES) + ")",
                  file=sys.stderr)
            return 2
    cache_dir = None if args.no_cache else default_lint_cache_dir()
    report = verify_source(paths, config=_lint_config(args),
                           cache_dir=cache_dir)
    report, short_circuit = _apply_lint_baseline(args, report)
    if short_circuit is not None:
        return short_circuit

    plans = fixmod.plan_fixes(report, rules)
    for plan in plans:
        print(plan.render())
    fixable = [p for p in plans if p.fixable]
    if not fixable:
        print("nothing mechanically fixable")
        return 0
    texts = fixmod.rewritten_texts(plans)

    if not args.apply:
        for path, (before, after) in texts.items():
            print(fixmod.unified_diff(path, before, after), end="")
        print(f"\n{len(fixable)} finding(s) mechanically fixable in "
              f"{len(texts)} file(s); re-run with --apply to rewrite")
        return 1

    for path, (_before, after) in texts.items():
        Path(path).write_text(after, encoding="utf-8")
        print(f"rewrote {path}")
    touchy = [p for p in texts
              if any(sub in p.replace("\\", "/")
                     for sub in _EQUIV_RELEVANT)]
    if touchy and not args.no_equiv:
        print("equivalence gate: solver-relevant module(s) rewritten "
              "(" + ", ".join(touchy) + "); running repro equiv run")
        # Fresh interpreter, not in-process: this process imported the
        # solver modules *before* the rewrite, so an in-process gate
        # would certify the stale code.  The timeout guards against a
        # rewrite that makes a solve spin instead of drift (a clean run
        # takes ~1 s).
        import subprocess
        try:
            gate = subprocess.run(
                [sys.executable, "-m", "repro", "equiv", "run",
                 "--strict"],
                capture_output=True, text=True, timeout=300,
                env=os.environ.copy())
            sys.stdout.write(gate.stdout)
            sys.stderr.write(gate.stderr)
            gate_ok = gate.returncode == 0
        except subprocess.TimeoutExpired:
            print("repro fix: equiv gate timed out after 300 s — "
                  "treating the rewrite as non-equivalent",
                  file=sys.stderr)
            gate_ok = False
        if not gate_ok:
            for path, (before, _after) in texts.items():
                Path(path).write_text(before, encoding="utf-8")
            print("equivalence gate FAILED — all rewrites reverted",
                  file=sys.stderr)
            return 2
        print("equivalence gate passed")
    print(f"applied {len(fixable)} fix(es) across {len(texts)} file(s)")
    return 0


def _cmd_equiv(args) -> int:
    # Imported lazily: equiv pulls in the characterisation benches.
    from .verify import equiv

    try:
        if args.action == "update":
            written = equiv.update_corpus(args.case or None,
                                          _corpus_dir(args))
            for path in written:
                print(f"wrote {path}")
            return 0
        report = equiv.run_suite(args.case or None, _corpus_dir(args),
                                 checks=not args.no_checks)
    except equiv.EquivError as exc:
        print(f"repro equiv: {exc}", file=sys.stderr)
        return 2
    print(report.render(verbose=args.action == "diff"))
    if args.json:
        Path(args.json).write_text(
            json.dumps(report.to_dict(), indent=2) + "\n",
            encoding="utf-8")
        print(f"report written to {args.json}")
    if report.ok:
        return 0
    # Without --strict, harness-level errors (e.g. a corpus entry not
    # yet generated) only warn; measured drift always fails the gate.
    drift = any(r.failures for r in report.cases if r.error is None)
    bad_checks = any(not c.ok for c in report.checks)
    if args.strict or drift or bad_checks:
        return 1
    return 0


def _corpus_dir(args):
    return Path(args.corpus) if args.corpus else None


def _cmd_diagnose(args) -> int:
    from .recovery import load_failure, render_failure

    if args.demo:
        return _diagnose_demo()
    if not args.path:
        print("repro diagnose: need a JSON failure dump (or --demo)",
              file=sys.stderr)
        return 2
    try:
        payload = load_failure(args.path)
    except OSError as exc:
        print(f"repro diagnose: cannot read {args.path!r}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 2
    print(render_failure(payload))
    return 0


def _diagnose_demo() -> int:
    """Run a deliberately unsolvable deck and show the forensics live."""
    from .analysis import operating_point
    from .analysis.dc import OperatingPointOptions
    from .circuit import Circuit, Resistor, VoltageSource
    from .devices import FinFET, NFET_20NM_HP, PFET_20NM_HP
    from .errors import ConvergenceError
    from .recovery import render_failure
    from .recovery.ladder import RecoveryOptions

    # A latch with a starved Newton budget and every rung disabled: the
    # textbook hopeless solve.
    c = Circuit("diagnose-demo latch")
    c.add(VoltageSource("vdd", "vdd", "0", dc=0.9))
    c.add(Resistor("rload", "vdd", "q", 1e5))
    c.add(FinFET("pu1", "q", "qb", "vdd", PFET_20NM_HP))
    c.add(FinFET("pd1", "q", "qb", "0", NFET_20NM_HP))
    c.add(FinFET("pu2", "qb", "q", "vdd", PFET_20NM_HP))
    c.add(FinFET("pd2", "qb", "q", "0", NFET_20NM_HP))
    opts = OperatingPointOptions(recovery=RecoveryOptions(
        damping_factors=(0.5,), damping_iteration_boost=1,
        gmin_steps=(), source_steps=(),
        pseudo_transient=False, source_ramp=False))
    opts.newton.max_iterations = 2
    print("demo: solving a cross-coupled latch with a 2-iteration Newton "
          "budget and the ladder mostly disabled...\n")
    try:
        operating_point(c, options=opts)
    except ConvergenceError as err:
        print(render_failure(err))
        return 0
    print("demo unexpectedly converged (solver got too good!)")
    return 1


def _cmd_campaign(args) -> int:
    from .exec import (
        CampaignError,
        CampaignInterrupted,
        CampaignOptions,
        available_campaigns,
        build_campaign,
        journal_status,
        render_status,
        run_campaign,
    )

    if args.action == "list":
        for name in available_campaigns():
            print(name)
        return 0
    if args.action == "status":
        try:
            status = journal_status(args.journal)
        except (OSError, CampaignError) as exc:
            print(f"repro campaign status: cannot read {args.journal!r}: "
                  f"{exc}", file=sys.stderr)
            return 2
        print(render_status(status))
        return 0

    # run / resume
    resume = args.action == "resume" or args.resume
    if resume and not args.journal:
        print("repro campaign: --resume needs --journal PATH",
              file=sys.stderr)
        return 2
    options = {k: v for k, v in (
        ("tasks", args.tasks), ("samples", args.samples),
        ("seed", args.seed), ("scratch", args.scratch),
    ) if v is not None}
    try:
        campaign = build_campaign(args.name, **options)
    except CampaignError as exc:
        print(f"repro campaign: {exc}", file=sys.stderr)
        return 2
    opts = CampaignOptions(
        workers=args.workers,
        task_timeout=args.timeout,
        max_retries=args.retries,
        forensics_dir=args.forensics_dir,
        resume=resume,
        progress=print,
    )
    try:
        result = run_campaign(campaign, journal=args.journal, options=opts)
    except CampaignInterrupted as exc:
        print(exc.result.render())
        if args.journal:
            print(f"\ninterrupted — resume with: python -m repro campaign "
                  f"resume {args.name} --journal {args.journal}",
                  file=sys.stderr)
        return 130
    print(result.render())
    return 1 if result.quarantined else 0


def _chaos_suite(args) -> dict:
    """Run the suite the ``repro chaos`` flags select; one report shape."""
    import tempfile

    from .recovery import faults

    if args.transient:
        return faults.chaos_store_transient(n_faults=args.faults,
                                            seed=args.seed)
    if not (args.executor or args.serve or args.crashpoints):
        return faults.chaos_operating_points(target=args.target,
                                             n_faults=args.faults,
                                             seed=args.seed)
    scratch = args.scratch or tempfile.mkdtemp(prefix="repro-chaos-")
    if args.executor:
        return faults.chaos_executor(
            scratch, n_healthy=args.faults, seed=args.seed,
            workers=2 if args.workers is None else args.workers,
            progress=print)
    if args.serve:
        from .serve.chaos import chaos_serve
        return chaos_serve(scratch, n_clients=args.clients, seed=args.seed,
                           workers=args.workers or 0, progress=print)
    from .verify.crashcheck import run_crashpoints
    return run_crashpoints(scratch, progress=print)


def _cmd_chaos(args) -> int:
    from .recovery import dump_failure, render_chaos

    report = _chaos_suite(args)
    print(render_chaos(report))
    if args.json:
        dump_failure(report, args.json)
        print(f"\nreport written to {args.json}")
    return 0 if report["ok"] else 1


def _cmd_serve(args) -> int:
    """``repro serve``: run the characterisation HTTP service.

    First SIGTERM/SIGINT starts a graceful drain (``/readyz`` flips,
    in-flight work finishes, the journal is flushed); a second signal
    stops immediately.
    """
    import asyncio
    import signal

    from .serve.server import ReproServer, ServeOptions

    options = ServeOptions(
        host=args.host,
        port=args.port,
        extra_routes=tuple(args.extra_routes),
        workers=args.workers,
        max_retries=args.retries,
        journal=args.journal,
        cache_dir=None if args.no_cache else (args.cache_dir or "auto"),
        forensics_dir=args.forensics_dir,
        interactive_slots=args.interactive_slots,
        campaign_slots=args.campaign_slots,
        drain_grace=args.drain_grace,
        progress=print,
    )

    async def _serve() -> None:
        server = ReproServer(options)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.begin_drain)
        await server.run()

    asyncio.run(_serve())
    return 0


def _cmd_retention(args) -> int:
    from .characterize.retention import retention_voltage_sweep

    sweep = retention_voltage_sweep(_conditions(args))
    for rail, snm in sweep.rows():
        print(f"  rail {rail:5.3f} V   hold SNM {snm * 1e3:6.1f} mV")
    if sweep.retention_voltage is None:
        print("retention voltage: not reached in the swept range")
    else:
        print(f"retention voltage (DRV): {sweep.retention_voltage:.3f} V")
        print(f"sleep rail headroom:     {sweep.sleep_headroom:.3f} V")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of the DATE 2015 NV-SRAM power-gating "
            "comparative study: regenerate tables, figures and "
            "characterisations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, domain=True):
        p.add_argument("--frequency", type=float, default=None,
                       help="read/write frequency in Hz (default Table I)")
        p.add_argument("--wl-underdrive", type=float, default=None,
                       help="word-line underdrive in volts")
        if domain:
            p.add_argument("--wordlines", type=int, default=512,
                           help="domain depth N (default 512)")
            p.add_argument("--word-bits", type=int, default=32,
                           help="word length M in bits (default 32)")

    def campaign_opts(p):
        p.add_argument("--workers", type=int, default=None,
                       help="prewarm characterisations through a "
                            "fault-tolerant parallel campaign with N "
                            "workers (default: serial)")
        p.add_argument("--journal", default=None, metavar="PATH",
                       help="campaign journal (JSONL) for crash-safe "
                            "checkpoint/resume")

    common(sub.add_parser("table1", help="regenerate Table I"),
           domain=False)
    common(sub.add_parser("fig1", help="conceptual power timelines"))

    p = sub.add_parser("fig3", help="leakage & store-current curves")
    common(p)
    p.add_argument("--points", type=int, default=31)

    common(sub.add_parser("fig4", help="virtual-VDD vs N_FSW"))
    common(sub.add_parser("fig5", help="benchmark sequence timelines"),
           domain=False)
    common(sub.add_parser("fig6", help="power traces & static power"))
    for name, help_ in (("fig7a", "E_cyc vs n_RW (t_SL family)"),
                        ("fig7b", "E_cyc vs n_RW (N family)"),
                        ("fig7c", "E_cyc vs n_RW (t_SD family)"),
                        ("fig8", "E_cyc vs t_SD and BET")):
        p = sub.add_parser(name, help=help_)
        common(p)
        campaign_opts(p)

    p = sub.add_parser("fig9", help="BET vs domain depth")
    common(p, domain=False)
    p.add_argument("--panel", choices=("a", "b"), default="a")
    campaign_opts(p)

    p = sub.add_parser("characterize", help="characterise one cell")
    common(p)
    p.add_argument("--kind", choices=("nv", "6t"), default="nv")

    p = sub.add_parser("bet", help="closed-form break-even time")
    common(p)
    p.add_argument("--architecture", choices=("nvpg", "nof"),
                   default="nvpg")
    p.add_argument("--n-rw", type=int, default=100)
    p.add_argument("--t-sl", type=float, default=100e-9)
    p.add_argument("--store-free", action="store_true")

    p = sub.add_parser("snm", help="static noise margin")
    common(p, domain=False)
    p.add_argument("--read", action="store_true",
                   help="read mode (default: hold)")

    common(sub.add_parser("retention", help="data-retention voltage"),
           domain=False)

    p = sub.add_parser("variability", help="Monte-Carlo yield analysis")
    common(p)
    p.add_argument("--samples", type=int, default=100)
    campaign_opts(p)

    p = sub.add_parser("ff", help="NV flip-flop characterisation")
    common(p, domain=False)
    p.add_argument("--bits", type=int, default=1024,
                   help="register-bank width (default 1024)")

    p = sub.add_parser("all", help="full reproduction report + scorecard")
    common(p, domain=False)
    p.add_argument("--scorecard-only", action="store_true",
                   help="skip the per-figure bodies")

    p = sub.add_parser("lint", help="static-analyse decks / cell benches")
    p.add_argument("targets", nargs="*", metavar="TARGET",
                   help="SPICE deck path or cell alias "
                        "(nv, 6t, nvff, array)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="output format (default text)")
    p.add_argument("--disable", action="append", default=[],
                   metavar="RULES",
                   help="comma-separated rule codes/names to skip "
                        "(repeatable)")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on warnings too")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--baseline", metavar="FILE",
                   help="suppress findings recorded in this baseline "
                        "file; only new findings remain")
    p.add_argument("--update-baseline", metavar="FILE",
                   help="record the current findings as the baseline "
                        "and exit 0")
    p.add_argument("--prune", action="store_true",
                   help="with --baseline: delete stale entries from "
                        "the file in place (never adds entries)")

    p = sub.add_parser("lint-source",
                       help="static-analyse the simulator's own "
                            "Python source (RV4xx-RV7xx)")
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="Python files or directories "
                        "(default: the installed repro package)")
    p.add_argument("--format", choices=("text", "json", "sarif"),
                   default="text", help="output format (default text)")
    p.add_argument("--disable", action="append", default=[],
                   metavar="RULES",
                   help="comma-separated rule codes/names to skip "
                        "(repeatable)")
    p.add_argument("--strict", action="store_true",
                   help="exit non-zero on warnings too")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalog and exit")
    p.add_argument("--baseline", metavar="FILE",
                   help="suppress findings recorded in this baseline "
                        "file; only new findings remain")
    p.add_argument("--update-baseline", metavar="FILE",
                   help="record the current findings as the baseline "
                        "and exit 0")
    p.add_argument("--prune", action="store_true",
                   help="with --baseline: delete stale entries from "
                        "the file in place (never adds entries)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the incremental result cache")

    p = sub.add_parser("fix",
                       help="apply mechanical codemods for RV702/"
                            "RV703/RV803/RV900 lint findings")
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="Python files or directories "
                        "(default: the installed repro package)")
    p.add_argument("--check", action="store_true",
                   help="plan + diff only, exit 1 if anything is "
                        "fixable (the default mode, spelled out)")
    p.add_argument("--apply", action="store_true",
                   help="rewrite the files (default: print plans and "
                        "diffs only, exit 1 if anything is fixable)")
    p.add_argument("--rules", action="append", default=[],
                   metavar="RULES",
                   help="comma-separated rule codes to fix "
                        "(default: all of RV702,RV703,RV803,RV900)")
    p.add_argument("--disable", action="append", default=[],
                   metavar="RULES",
                   help="comma-separated rule codes/names to skip "
                        "during the lint pass (repeatable)")
    p.add_argument("--baseline", metavar="FILE",
                   help="ignore findings recorded in this baseline "
                        "file; only new findings are fixed")
    p.add_argument("--no-equiv", action="store_true",
                   help="skip the solver-equivalence gate after "
                        "--apply (not recommended)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the incremental result cache")

    p = sub.add_parser("equiv",
                       help="solver-equivalence gate: golden corpus + "
                            "metamorphic invariants")
    p.add_argument("action", choices=("run", "update", "diff"),
                   help="run = compare against the corpus; update = "
                        "refreeze the golden files; diff = run, "
                        "printing every quantity")
    p.add_argument("--case", action="append", default=[], metavar="NAME",
                   help="restrict to one corpus case (repeatable)")
    p.add_argument("--corpus", default=None, metavar="DIR",
                   help="corpus directory (default: the committed "
                        "src/repro/verify/equiv_corpus)")
    p.add_argument("--strict", action="store_true",
                   help="also fail on missing/corrupt corpus entries")
    p.add_argument("--no-checks", action="store_true",
                   help="skip the metamorphic invariant checks")
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also dump the machine-readable report")

    p = sub.add_parser("diagnose",
                       help="render a solver-failure JSON dump")
    p.add_argument("path", nargs="?", default=None,
                   help="JSON file written by repro.recovery.dump_failure")
    p.add_argument("--demo", action="store_true",
                   help="run a deliberately failing solve and render "
                        "its forensics live")

    p = sub.add_parser("chaos",
                       help="fault-injection suites; every suite writes "
                            "one chaos report shape")
    p.add_argument("--target", choices=("nv", "6t", "nvff"), default="nv")
    p.add_argument("--faults", type=int, default=20,
                   help="number of faults to inject (default 20)")
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument("--json", default=None, metavar="PATH",
                   help="also dump the chaos report as JSON")
    suite = p.add_mutually_exclusive_group()
    suite.add_argument("--transient", action="store_true",
                       help="run shortened store transients instead of "
                            "DC operating points (slower; NV only)")
    suite.add_argument("--executor", action="store_true",
                       help="fault-inject the campaign engine itself "
                            "(worker crash/hang/slow/flaky faults) "
                            "instead of the solver")
    suite.add_argument("--crashpoints", action="store_true",
                       help="kill child writers at each atomic-write "
                            "protocol boundary and assert reader-side "
                            "recovery (RV900/RV901 cross-validation)")
    suite.add_argument("--serve", action="store_true",
                       help="chaos-test the serving layer: coalescing, "
                            "storm, shedding, breaker and drain phases "
                            "against an in-process server")
    p.add_argument("--clients", type=int, default=24,
                   help="concurrent clients for --serve (default 24)")
    p.add_argument("--workers", type=int, default=None,
                   help="worker processes (default 2 for --executor, "
                        "0 = inline for --serve)")
    p.add_argument("--scratch", default=None, metavar="DIR",
                   help="scratch directory for --executor/--serve/"
                        "--crashpoints state (default: a fresh temp dir)")

    p = sub.add_parser("serve",
                       help="run the characterisation HTTP service "
                            "(coalescing, backpressure, deadlines, "
                            "graceful drain)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8023,
                   help="listen port (0 = ephemeral; default 8023)")
    p.add_argument("--workers", type=int, default=1,
                   help="executor processes per request (0 = inline, "
                        "fast but no crash isolation; default 1)")
    p.add_argument("--retries", type=int, default=1,
                   help="retry budget per request (default 1)")
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="append-only JSONL journal shared by all "
                        "served executions")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="characterisation disk cache "
                        "(default: the repo cache)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without the disk cache")
    p.add_argument("--forensics-dir", default=None, metavar="DIR",
                   help="dump per-failure forensics JSON here")
    p.add_argument("--interactive-slots", type=int, default=4,
                   help="concurrent interactive executions (default 4)")
    p.add_argument("--campaign-slots", type=int, default=1,
                   help="concurrent campaign runs (default 1)")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   help="seconds in-flight work gets after SIGTERM "
                        "(default 10)")
    p.add_argument("--extra-routes", nargs="*", default=(),
                   choices=("demo", "chaos"),
                   help="also mount the demo/chaos test routes")

    p = sub.add_parser("campaign",
                       help="run / inspect fault-tolerant task campaigns")
    csub = p.add_subparsers(dest="action", required=True)
    csub.add_parser("list", help="list the named campaigns")
    pc = csub.add_parser("status",
                         help="summarise a campaign journal")
    pc.add_argument("journal", help="journal JSONL path")
    for action in ("run", "resume"):
        pc = csub.add_parser(
            action,
            help=("execute a named campaign" if action == "run"
                  else "continue a journalled campaign run"))
        pc.add_argument("name", help="campaign name (see: campaign list)")
        pc.add_argument("--workers", type=int, default=2,
                        help="worker processes (0 = in-process, "
                             "default 2)")
        pc.add_argument("--journal", default=None, metavar="PATH",
                        help="append-only JSONL journal for "
                             "checkpoint/resume")
        pc.add_argument("--timeout", type=float, default=None,
                        help="per-task wall-clock watchdog in seconds")
        pc.add_argument("--retries", type=int, default=2,
                        help="retry budget per task (default 2)")
        pc.add_argument("--forensics-dir", default=None, metavar="DIR",
                        help="dump per-failure forensics JSON here")
        pc.add_argument("--tasks", type=int, default=None,
                        help="task count (demo / chaos campaigns)")
        pc.add_argument("--samples", type=int, default=None,
                        help="sample count (store-yield / snm campaigns)")
        pc.add_argument("--seed", type=int, default=None,
                        help="Monte-Carlo seed (default 2015)")
        pc.add_argument("--scratch", default=None, metavar="DIR",
                        help="scratch directory (chaos campaign)")
        if action == "run":
            pc.add_argument("--resume", action="store_true",
                            help="replay finished tasks from --journal "
                                 "and run only the rest")
        else:
            pc.set_defaults(resume=True)

    p = sub.add_parser("wer", help="MTJ write-error-rate model")
    common(p, domain=False)
    p.add_argument("--duration", default="10n",
                   help="store window, SPICE units (default 10n)")
    p.add_argument("--target", type=float, default=1e-6,
                   help="target write error rate (default 1e-6)")
    return parser


_HANDLERS = {
    "table1": _cmd_table1,
    "fig1": _cmd_fig1,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig7a": lambda a: _cmd_fig7(a, "a"),
    "fig7b": lambda a: _cmd_fig7(a, "b"),
    "fig7c": lambda a: _cmd_fig7(a, "c"),
    "fig8": _cmd_fig8,
    "fig9": _cmd_fig9,
    "characterize": _cmd_characterize,
    "bet": _cmd_bet,
    "snm": _cmd_snm,
    "retention": _cmd_retention,
    "variability": _cmd_variability,
    "ff": _cmd_ff,
    "wer": _cmd_wer,
    "all": _cmd_all,
    "lint": _cmd_lint,
    "lint-source": _cmd_lint_source,
    "fix": _cmd_fix,
    "equiv": _cmd_equiv,
    "diagnose": _cmd_diagnose,
    "chaos": _cmd_chaos,
    "campaign": _cmd_campaign,
    "serve": _cmd_serve,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _HANDLERS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
