"""The crashpoint cross-validator: every scenario must land where the
RV900/RV901 rules say it lands — pre-fix patterns tear, the shared
protocol survives."""

import json

from repro.cli import main
from repro.verify.crashcheck import (
    CRASH_EXIT,
    _classify,
    run_crashpoints,
)
from repro.recovery.forensics import render_chaos


def by_scenario(report):
    out = {}
    for row in report["rows"]:
        scenario, point = row["name"].split("@")
        out.setdefault(scenario, []).append(dict(row, crashpoint=point))
    return out


def test_full_run_passes(tmp_path):
    report = run_crashpoints(str(tmp_path))
    assert report["ok"], render_chaos(report)
    scenarios = by_scenario(report)

    # RV900 hazard demonstrated: the bare overwrite really tears.
    (bare,) = scenarios["bare-overwrite"]
    assert bare["actual"] == "torn"

    # The fixed pattern holds old-or-new at all four boundaries.
    atomic = {e["crashpoint"]: e["actual"]
              for e in scenarios["atomic-replace"]}
    assert atomic == {"post-write": "old", "pre-fsync": "old",
                      "pre-rename": "old", "post-rename": "new"}

    # RV901 hazard (emulated page-cache drop) and its fsync cure.
    (nofsync,) = scenarios["nofsync-rename"]
    (fsync,) = scenarios["fsync-rename"]
    assert nofsync["actual"] == "torn" and "emulated" in nofsync["detail"]
    assert fsync["actual"] == "new"

    # Journal: a torn append costs at most the torn record.
    (journal,) = scenarios["journal-append"]
    assert journal["actual"] == "2 records"


def test_children_died_at_armed_points(tmp_path):
    report = run_crashpoints(str(tmp_path))
    # Every subprocess scenario reports ok, which requires the child
    # to have exited with CRASH_EXIT, not completed normally.
    assert CRASH_EXIT == 9
    assert all(row["ok"] for row in report["rows"]
               if "emulated" not in row["detail"])


def test_classify_views(tmp_path):
    target = tmp_path / "probe.json"
    assert _classify(target) == "missing"
    target.write_text("{not json")
    assert _classify(target) == "torn"
    target.write_text(json.dumps({"value": "old", "rev": 1}))
    assert _classify(target) == "old"


def test_cli_chaos_crashpoints(tmp_path, capsys):
    out_json = tmp_path / "report.json"
    code = main(["chaos", "--crashpoints",
                 "--scratch", str(tmp_path / "scratch"),
                 "--json", str(out_json)])
    assert code == 0
    assert "chaos report: crashpoints" in capsys.readouterr().out
    payload = json.loads(out_json.read_text())
    assert payload["ok"] is True
    assert [row["name"] for row in payload["rows"]
            if row["name"].startswith("atomic-replace@")] == [
        "atomic-replace@post-write", "atomic-replace@pre-fsync",
        "atomic-replace@pre-rename", "atomic-replace@post-rename"]
