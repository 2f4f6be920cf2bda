"""Crash-injection cross-validator for the RV9xx band (RV900/RV901).

Static rules claim *"this write pattern tears on a crash"*; this
harness demonstrates it.  ``python -m repro chaos --crashpoints`` runs
each durable-write pattern in a **real child process** that is killed
(``os._exit``) at every instrumented boundary of the
:mod:`repro.exec.atomicio` protocol — ``post-write``, ``pre-fsync``,
``pre-rename``, ``post-rename`` — and then checks the survivor's view
of the file:

* **bare-overwrite** — the RV900 *pre-fix* pattern (``open(path,
  "w")`` over live data).  The kill mid-write must leave a torn or
  truncated file: the hazard the rule reports, demonstrated.
* **atomic-replace** — the fixed pattern
  (:func:`repro.exec.atomicio.atomic_write_text`).  At every
  crashpoint the reader must see *either* the complete old value or
  the complete new value — never a mixture.
* **journal-append** — a child is killed halfway through appending a
  record; :meth:`repro.exec.journal.Journal.replay` must recover every
  fully-appended record and drop at most the torn tail.

Process death does **not** empty the OS page cache, so the RV901
fsync-ordering hazard (rename durable, data blocks not) cannot be
shown by killing a child.  The two ``*-rename`` scenarios instead use
an explicit *disk model*: data written without ``fsync`` is treated as
lost on power failure (the file's blocks are truncated after the
rename), data written with ``fsync`` as durable.  This emulates the
journalled-metadata/unflushed-data state a machine crash leaves behind
— the standard crash-consistency failure mode — and is labelled
``emulated`` in the report rows.

The harness fails (exit 1) if a *fixed* pattern loses data **or** a
*pre-fix* pattern fails to demonstrate its hazard — either direction
means the static rules and reality have drifted apart.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from ..exec import atomicio
from ..exec.journal import Journal
from ..recovery.forensics import chaos_report, chaos_row

#: Child exit status at an armed crashpoint — distinguishable from a
#: normal exit (0) and from an import/usage failure (1/2).
CRASH_EXIT = 9

OLD_PAYLOAD = {"value": "old", "rev": 1}
NEW_PAYLOAD = {"value": "new", "rev": 2}

#: ``python -c`` crash vehicle.  The child loads ``atomicio`` straight
#: from its file (no package import: the vehicle must stay stdlib-light
#: and die only where it is told to), arms the crash hook, and runs one
#: writer.  argv: atomicio_path scenario crashpoint target payload.
_CHILD_SCRIPT = r"""
import importlib.util, json, os, sys
atomicio_path, scenario, point, target, payload = sys.argv[1:6]
spec = importlib.util.spec_from_file_location("_atomicio", atomicio_path)
atomicio = importlib.util.module_from_spec(spec)
spec.loader.exec_module(atomicio)

def die(at):
    if at == point:
        os._exit(9)

if scenario == "bare-overwrite":
    with open(target, "w", encoding="utf-8") as fh:
        fh.write(payload[: len(payload) // 2])
        fh.flush()
        die("post-write")          # torn: half the new, none of the old
        fh.write(payload[len(payload) // 2:])
elif scenario == "atomic-replace":
    atomicio._CRASH_HOOK = die
    atomicio.atomic_write_text(target, payload)
elif scenario == "journal-append":
    line = json.dumps({"event": "torn", "seq": 99}) + "\n"
    with open(target, "a", encoding="utf-8") as fh:
        fh.write(line[: len(line) // 2])
        fh.flush()
        die("post-write")
else:
    sys.exit(2)
sys.exit(0)
"""


def _spawn_child(scenario: str, point: str, target: Path,
                 payload: str) -> int:
    """Run one crash vehicle to its armed crashpoint; return exit code."""
    argv = [sys.executable, "-c", _CHILD_SCRIPT, atomicio.__file__,
            scenario, point, str(target), payload]
    return subprocess.run(argv, capture_output=True,
                          timeout=60).returncode


def _classify(target: Path) -> str:
    """Reader-side view: ``old`` / ``new`` / ``missing`` / ``torn``."""
    try:
        payload = json.loads(target.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return "missing"
    except (json.JSONDecodeError, OSError):
        return "torn"
    if payload == OLD_PAYLOAD:
        return "old"
    if payload == NEW_PAYLOAD:
        return "new"
    return "torn"


def _result(scenario: str, point: str, state: str, expected: str,
            ok: bool, detail: str = "") -> Dict[str, Any]:
    return chaos_row(f"{scenario}@{point}", expected, state, ok, detail)


def _check_bare_overwrite(scratch: Path) -> List[Dict[str, Any]]:
    """RV900 pre-fix pattern: the kill must destroy the old value."""
    target = scratch / "bare.json"
    atomicio.atomic_write_text(target, json.dumps(OLD_PAYLOAD))
    code = _spawn_child("bare-overwrite", "post-write", target,
                        json.dumps(NEW_PAYLOAD))
    state = _classify(target)
    ok = code == CRASH_EXIT and state == "torn"
    return [_result(
        "bare-overwrite", "post-write", state, "torn", ok,
        detail="open('w') truncates before writing: the old value is "
               "gone the moment the crash lands")]


def _check_atomic_replace(scratch: Path) -> List[Dict[str, Any]]:
    """Fixed pattern: old-or-new at every protocol boundary."""
    results = []
    for point in atomicio.CRASHPOINTS:
        target = scratch / f"atomic-{point}.json"
        atomicio.atomic_write_text(target, json.dumps(OLD_PAYLOAD))
        code = _spawn_child("atomic-replace", point, target,
                            json.dumps(NEW_PAYLOAD))
        state = _classify(target)
        expected = "new" if point == "post-rename" else "old"
        ok = code == CRASH_EXIT and state == expected
        results.append(_result("atomic-replace", point, state,
                               expected, ok))
    return results


def _check_journal_append(scratch: Path) -> List[Dict[str, Any]]:
    """Torn append: replay keeps every complete record, drops the tail."""
    path = scratch / "crash.journal"
    journal = Journal(path)
    journal.append({"event": "begin", "seq": 1})
    journal.append({"event": "task_end", "seq": 2})
    code = _spawn_child("journal-append", "post-write", path, "")
    records = journal.replay()
    seqs = [r.get("seq") for r in records]
    ok = code == CRASH_EXIT and seqs == [1, 2]
    return [_result(
        "journal-append", "post-write",
        f"{len(records)} records", "2 records", ok,
        detail="crash mid-append loses at most the torn record")]


def _disk_model_rename(scratch: Path, *, fsync: bool) -> Dict[str, Any]:
    """RV901 disk model: stage + rename, power lost right after.

    The rename itself is treated as durable (journalled metadata); the
    staged file's *data blocks* survive only if they were fsynced
    before the rename.  Without the fsync the reader finds the new
    name pointing at zero-length contents — the torn state RV901
    reports.
    """
    name = "fsync-rename" if fsync else "nofsync-rename"
    target = scratch / f"{name}.json"
    fd, tmp = tempfile.mkstemp(dir=scratch)
    with os.fdopen(fd, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(NEW_PAYLOAD))
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    os.replace(tmp, target)
    if not fsync:                   # power failure: unflushed data lost
        with open(target, "r+b") as handle:
            handle.truncate(0)
    state = _classify(target)
    expected = "new" if fsync else "torn"
    return _result(name, "post-rename", state, expected,
                   state == expected,
                   detail="machine-crash page-cache drop (emulated)")


def _check_disk_model(scratch: Path) -> List[Dict[str, Any]]:
    """RV901 both ways: the unsynced rename tears, the synced one holds."""
    return [_disk_model_rename(scratch, fsync=fsync)
            for fsync in (False, True)]


def run_crashpoints(scratch: Optional[str] = None,
                    progress: Optional[Callable[[str], None]] = None,
                    ) -> Dict[str, Any]:
    """Run every scenario; return a chaos report, one row per scenario.

    ``ok`` is true only when the fixed patterns survive **and** the
    pre-fix patterns demonstrably fail — both directions are asserted.
    The scenarios draw no random numbers, so the report's seed is None.
    """
    root = Path(scratch or tempfile.mkdtemp(prefix="repro-crashcheck-"))
    root.mkdir(parents=True, exist_ok=True)
    rows: List[Dict[str, Any]] = []
    for step in (_check_bare_overwrite, _check_atomic_replace,
                 _check_journal_append, _check_disk_model):
        for row in step(root):
            rows.append(row)
            if progress is not None:
                progress(f"  {row['name']}: {row['actual']}")
    return chaos_report("crashpoints", None, len(rows), len(rows), rows)
