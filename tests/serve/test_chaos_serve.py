"""The full serving-layer chaos suite (stress job)."""

import pytest

from repro.recovery.forensics import render_chaos
from repro.serve.chaos import chaos_serve


@pytest.mark.stress
def test_serve_chaos_suite_passes(tmp_path):
    report = chaos_serve(str(tmp_path), n_clients=24, seed=2015,
                         workers=0)
    assert report["ok"], render_chaos(report)
    assert report["n_in"] == report["n_out"]
    names = [row["name"] for row in report["rows"]]
    assert names == ["coalesce", "storm", "shed", "breaker", "drain",
                     "journal"]
    coalesce = report["rows"][0]["detail"]
    assert "backend_executions=1," in coalesce
    assert "leaders=1" in coalesce
