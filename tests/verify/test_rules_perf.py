"""RV7xx hot-path perf inventory: per-pattern fixtures, the
interprocedural loop-called allocation check, and the acceptance
cross-check of the shipped RV701 inventory against a hand audit."""

import textwrap
from pathlib import Path

import pytest

from repro.verify import default_source_paths, verify_source, \
    verify_source_file

FIXTURES = Path(__file__).parent / "fixtures"

#: Every per-element stamping loop shipped in analysis/ and devices/,
#: audited by hand (see ROADMAP item 1).  The RV701 band must report
#: exactly these — a new stamping loop extends this list consciously,
#: a vectorized one strikes it.
HAND_AUDITED_STAMP_LOOPS = {
    ("analysis/ac.py", 118),       # element.stamp() over the netlist
    ("analysis/ac.py", 132),       # per-capacitor conductance stamps
    ("analysis/dc.py", 126),       # clamp stamper in _make_clamp_stamper
    ("analysis/mna.py", 61),       # vccs quad fill
    ("analysis/solver.py", 87),    # _restamp element.stamp() loop
    ("devices/finfet.py", 264),    # FinFET 4x4 Jacobian entry fill
}


def codes(report):
    return [d.code for d in report]


def test_rv7xx_fixture_findings():
    report = verify_source_file(FIXTURES / "viol_rv70x.py")
    assert sorted(codes(report)) == ["RV701", "RV701", "RV702", "RV703"]
    by_subject = {}
    for d in report:
        by_subject.setdefault(d.subject.split(":")[1], d)
    assert ".stamp() per element" in by_subject["stamp_all"].message
    assert "entry-by-entry" in by_subject["fill_entries"].message
    assert "zeros() inside a loop" in by_subject["alloc_per_step"].message
    assert ".compile() inside a loop" in \
        by_subject["reassemble_per_point"].message
    # hoisted_is_fine allocates and compiles outside the loop: quiet.
    assert "hoisted_is_fine" not in by_subject
    assert all(d.severity.value == "info" for d in report)


def test_rv702_flags_loop_called_function(tmp_path):
    """The allocation sits in a helper; the loop is in another module."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "alloc.py").write_text(textwrap.dedent('''\
        import numpy as np


        def fresh_state(n):
            return np.zeros(n)
        '''))
    (pkg / "sweep.py").write_text(textwrap.dedent('''\
        from pkg.alloc import fresh_state


        def run(points, n):
            out = []
            for _ in range(points):
                out.append(fresh_state(n))
            return out
        '''))
    report = verify_source([str(pkg)])
    hits = [d for d in report if d.code == "RV702"]
    assert len(hits) == 1
    # Attributed to the *calling loop* (like RV701), naming the callee:
    # that is where the per-iteration cost is paid and where the fix
    # (hoist or thread a buffer) lands.
    assert hits[0].target.endswith("sweep.py")
    assert hits[0].subject == "pkg.sweep:run"
    assert "loop calls pkg.alloc:fresh_state per iteration" \
        in hits[0].message
    assert "zeros() at line 5" in hits[0].message


def test_rv702_stays_quiet_without_looping_caller(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "alloc.py").write_text(textwrap.dedent('''\
        import numpy as np


        def fresh_state(n):
            return np.zeros(n)
        '''))
    (pkg / "once.py").write_text(textwrap.dedent('''\
        from pkg.alloc import fresh_state


        def run(n):
            return fresh_state(n)
        '''))
    report = verify_source([str(pkg)])
    assert [d for d in report if d.code == "RV702"] == []


def test_rv701_inventory_matches_hand_audit():
    """Acceptance: the shipped RV701 inventory is exactly the audited
    stamping-loop list for analysis/ and devices/."""
    report = verify_source(default_source_paths())
    found = set()
    for d in report:
        if d.code != "RV701":
            continue
        target = d.target.replace("\\", "/")
        if "/analysis/" in target or "/devices/" in target:
            rel = target.split("/repro/", 1)[1]
            found.add((rel, d.location.line))
    assert found == HAND_AUDITED_STAMP_LOOPS, (
        "RV701 inventory drifted from the hand audit.\n"
        f"  unexpected: {sorted(found - HAND_AUDITED_STAMP_LOOPS)}\n"
        f"  missing:    {sorted(HAND_AUDITED_STAMP_LOOPS - found)}\n"
        "A new stamping loop must be added to the audit list above; a "
        "vectorized one must be struck from it.")
