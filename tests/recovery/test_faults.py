"""Fault-injection tests.

The quick tests check the injection mechanics and the chaos invariant on
a small fault count; the ``stress``-marked test is the ISSUE acceptance
run: >= 20 faults, zero unhandled exceptions, every fault accounted for.
"""

import json

import numpy as np
import pytest

from repro.characterize.testbench import build_cell_testbench
from repro.circuit import Resistor
from repro.devices.finfet import FinFET
from repro.devices.mtj import MTJ
from repro.recovery.faults import (
    FAULT_KINDS,
    FaultSpec,
    chaos_operating_points,
    chaos_store_transient,
    inject_fault,
    sample_fault,
)
from repro.recovery.forensics import render_chaos

OUTCOMES = {"converged", "recovered", "skipped"}


def _nv_circuit():
    return build_cell_testbench("nv").circuit


class TestInjectFault:
    def test_vth_shift_moves_threshold(self):
        c = _nv_circuit()
        fet = next(e for e in c.elements() if isinstance(e, FinFET))
        before = fet.params.vth0
        ic = inject_fault(c, FaultSpec("vth_shift", fet.name, magnitude=0.3))
        assert ic == {}
        assert fet.params.vth0 == pytest.approx(before + 0.3)

    def test_device_open_collapses_current(self):
        c = _nv_circuit()
        fet = next(e for e in c.elements() if isinstance(e, FinFET))
        before = fet.params.i_spec
        inject_fault(c, FaultSpec("device_open", fet.name, magnitude=1e-9))
        assert fet.params.i_spec == pytest.approx(before * 1e-9)

    def test_mtj_drift_scales_resistance(self):
        c = _nv_circuit()
        mtj = next(e for e in c.elements() if isinstance(e, MTJ))
        before = mtj.params.ra_product
        inject_fault(c, FaultSpec("mtj_drift", mtj.name, magnitude=100.0))
        assert mtj.params.ra_product == pytest.approx(before * 100.0)

    def test_node_short_adds_resistor(self):
        c = _nv_circuit()
        n_before = len(list(c.elements()))
        inject_fault(c, FaultSpec("node_short", "q"))
        shorts = [e for e in c.elements()
                  if isinstance(e, Resistor) and e.name.startswith("rfault")]
        assert len(list(c.elements())) == n_before + 1
        assert shorts and shorts[-1].resistance == pytest.approx(1.0)

    def test_bad_ic_returns_override(self):
        c = _nv_circuit()
        ic = inject_fault(c, FaultSpec("bad_ic", "q", magnitude=1.7))
        assert ic == {"q": 1.7}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            inject_fault(_nv_circuit(), FaultSpec("gamma_ray", "q"))

    def test_sample_fault_deterministic_and_applicable(self):
        c = _nv_circuit()
        rng = np.random.default_rng(7)
        specs = [sample_fault(c, rng) for _ in range(10)]
        assert all(s.kind in FAULT_KINDS for s in specs)
        rng2 = np.random.default_rng(7)
        again = [sample_fault(c, rng2) for _ in range(10)]
        assert [s.kind for s in specs] == [s.kind for s in again]


class TestChaosQuick:
    def test_every_fault_accounted_for(self):
        """The core property: N faults in, N structured outcomes out —
        converged, recovered, or skipped; never a silent drop."""
        report = chaos_operating_points(target="nv", n_faults=6, seed=3)
        assert report["n_in"] == report["n_out"] == 6
        assert len(report["rows"]) == 6
        assert report["ok"]
        assert all(r["actual"] in OUTCOMES for r in report["rows"])
        for r in report["rows"]:
            if r["actual"] == "skipped":
                assert "Error" in r["detail"]
            if r["actual"] == "recovered":
                assert r["detail"].startswith("rung: ")

    def test_report_round_trips_to_dict(self):
        report = chaos_operating_points(target="6t", n_faults=3, seed=5)
        assert report["kind"] == "chaos_report"
        assert report["suite"] == "dc:6t"
        assert report["seed"] == 5
        assert len(report["rows"]) == 3
        assert json.loads(json.dumps(report)) == report
        text = render_chaos(report)
        assert "chaos" in text.lower()

    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError):
            chaos_operating_points(target="dram", n_faults=1)


@pytest.mark.stress
class TestChaosStress:
    def test_twenty_faults_dc(self):
        """ISSUE acceptance: >= 20 faults, zero unhandled exceptions."""
        report = chaos_operating_points(target="nv", n_faults=20, seed=2015)
        assert len(report["rows"]) == 20
        assert all(r["actual"] in OUTCOMES for r in report["rows"])
        # The harness must exercise several distinct failure modes.
        kinds = {r["name"].split(":")[0] for r in report["rows"]}
        assert len(kinds) >= 3

    def test_transient_chaos(self):
        report = chaos_store_transient(n_faults=4, seed=2015)
        assert len(report["rows"]) == 4
        assert all(r["actual"] in OUTCOMES for r in report["rows"])
