"""Netlist-hygiene rules RV001-RV005 through :func:`repro.verify.verify_circuit`."""

from repro.circuit import Capacitor, Circuit, Resistor, VoltageSource
from repro.characterize.testbench import build_cell_testbench
from repro.verify import Diagnostic, Severity, VerifyConfig, verify_circuit

#: floating-node, no-dc-path, shorted-element, voltage-loop,
#: parallel-sources.
HYGIENE = VerifyConfig(only=frozenset(
    {"RV001", "RV002", "RV003", "RV004", "RV005"}))


def lint(circuit):
    return list(verify_circuit(circuit, config=HYGIENE))


def codes(findings):
    return {f.code for f in findings}


class TestCleanCircuits:
    def test_divider_is_clean(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=1.0))
        c.add(Resistor("r1", "in", "mid", 1e3))
        c.add(Resistor("r2", "mid", "0", 1e3))
        assert lint(c) == []

    def test_full_cell_testbench_is_clean(self):
        tb = build_cell_testbench("nv")
        report = verify_circuit(tb.circuit, config=HYGIENE)
        assert not report.has_errors
        assert list(report) == []


class TestFloatingNode:
    def test_detected(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=1.0))
        c.add(Resistor("r1", "in", "typo_node", 1e3))
        findings = lint(c)
        assert "RV001" in codes(findings)
        subject = [f for f in findings if f.code == "RV001"][0]
        assert subject.name == "floating-node"
        assert subject.subject == "typo_node"
        assert subject.severity is Severity.WARNING
        assert "r1" in subject.message


class TestNoDcPath:
    def test_cap_only_node_flagged(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=1.0))
        c.add(Resistor("r", "in", "0", 1e3))
        c.add(Capacitor("c1", "in", "float", 1e-12))
        c.add(Capacitor("c2", "float", "0", 1e-12))
        assert "RV002" in codes(lint(c))

    def test_cap_with_resistor_not_flagged(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=1.0))
        c.add(Resistor("r", "in", "out", 1e3))
        c.add(Capacitor("c1", "out", "0", 1e-12))
        assert "RV002" not in codes(lint(c))


class TestShortedElement:
    def test_detected(self):
        c = Circuit()
        c.add(VoltageSource("v", "a", "0", dc=1.0))
        c.add(Resistor("rshort", "a", "a", 1e3))
        c.add(Resistor("rload", "a", "0", 1e3))
        assert "RV003" in codes(lint(c))


class TestSourceTopology:
    def test_parallel_sources_error(self):
        c = Circuit()
        c.add(VoltageSource("v1", "a", "0", dc=1.0))
        c.add(VoltageSource("v2", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "0", 1e3))
        report = verify_circuit(c, config=HYGIENE)
        assert "RV005" in codes(report)
        assert report.has_errors

    def test_voltage_loop_error(self):
        c = Circuit()
        c.add(VoltageSource("v1", "a", "0", dc=1.0))
        c.add(VoltageSource("v2", "b", "a", dc=0.5))
        c.add(VoltageSource("v3", "b", "0", dc=1.5))
        c.add(Resistor("r", "b", "0", 1e3))
        assert "RV004" in codes(lint(c))

    def test_series_sources_fine(self):
        c = Circuit()
        c.add(VoltageSource("v1", "a", "0", dc=1.0))
        c.add(VoltageSource("v2", "b", "a", dc=0.5))
        c.add(Resistor("r", "b", "0", 1e3))
        assert lint(c) == []


class TestOrderingAndHelpers:
    def test_errors_sort_first(self):
        c = Circuit()
        c.add(VoltageSource("v1", "a", "0", dc=1.0))
        c.add(VoltageSource("v2", "a", "0", dc=1.0))
        c.add(Resistor("r", "a", "dangling", 1e3))
        findings = lint(c)
        assert findings[0].severity is Severity.ERROR
        assert findings[-1].severity is Severity.WARNING

    def test_str_rendering(self):
        d = Diagnostic("RV001", "floating-node", Severity.WARNING, "msg",
                       "n1")
        assert "[warning] RV001 floating-node: msg" in str(d)

    def test_has_errors_false_for_warnings(self):
        c = Circuit()
        c.add(VoltageSource("v", "in", "0", dc=1.0))
        c.add(Resistor("r1", "in", "dangle", 1e3))
        assert not verify_circuit(c, config=HYGIENE).has_errors
