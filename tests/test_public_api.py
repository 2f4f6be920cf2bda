"""Public-API stability and documentation checks.

Downstream code imports from ``repro`` and the subpackage roots; these
tests pin that surface so refactors cannot silently drop names, and
enforce the documentation bar (every public module, class and function
carries a docstring).
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

TOP_LEVEL_EXPORTS = [
    # errors
    "ReproError", "NetlistError", "AnalysisError", "ConvergenceError",
    "DeviceError", "CharacterizationError", "SequenceError",
    # circuit + analysis
    "Circuit", "Resistor", "Capacitor", "VoltageSource",
    "operating_point", "dc_sweep", "transient",
    # devices
    "FinFET", "FinFETParams", "MTJ", "MTJParams", "MTJState",
    "MTJ_TABLE1", "NFET_20NM_HP", "PFET_20NM_HP",
    # cells
    "PowerDomain", "add_nvsram", "add_sram6t", "add_power_switch",
    "build_cell_array",
    # pg
    "Architecture", "BenchmarkSpec", "CellEnergyModel", "Mode",
    "OperatingConditions", "benchmark_sequence", "break_even_time",
    # characterisation / experiments / spice
    "CellCharacterization", "characterize_cell", "build_cell_testbench",
    "ExperimentContext", "parse_deck", "run_deck",
]

SUBPACKAGE_EXPORTS = {
    "repro.circuit": ["Sine", "Exponential", "SubCircuit"],
    "repro.analysis": ["ac_analysis", "TransientOptions"],
    "repro.cells": ["add_nvff", "add_senseamp", "add_inverter"],
    "repro.pg": [
        "PowerDomainSimulator", "RegisterBankModel", "SystemModel",
        "CacheLevel", "epochs_from_access_times", "zipf_domain_trace",
    ],
    "repro.characterize": [
        "leakage_vs_vctrl", "store_current_vs_vsr", "derive_store_biases",
        "vvdd_vs_nfsw", "butterfly_curve", "retention_voltage_sweep",
        "store_yield_analysis", "characterize_nvff",
        "nof_access_disturb",
    ],
    "repro.experiments": [
        "run_table1", "run_fig1", "run_fig3", "run_fig4", "run_fig5",
        "run_fig6", "run_fig7a", "run_fig7b", "run_fig7c", "run_fig8",
        "run_fig9", "run_summary",
    ],
    "repro.verify": [
        "REGISTRY", "Diagnostic", "Finding", "Report", "Rule",
        "Severity", "VerifyConfig", "assert_clean", "lint_enabled",
        "render_json", "render_sarif", "render_text", "rule",
        "run_rules", "verify_circuit", "verify_deck",
        "verify_deck_file",
    ],
}


class TestTopLevel:
    @pytest.mark.parametrize("name", TOP_LEVEL_EXPORTS)
    def test_export_present(self, name):
        assert hasattr(repro, name), f"repro.{name} missing"
        assert name in repro.__all__

    def test_version(self):
        assert repro.__version__

    def test_all_entries_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None


class TestSubpackages:
    @pytest.mark.parametrize("module,names", sorted(
        SUBPACKAGE_EXPORTS.items()))
    def test_exports(self, module, names):
        mod = importlib.import_module(module)
        for name in names:
            assert hasattr(mod, name), f"{module}.{name} missing"


def _walk_modules():
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        if info.name.endswith("__main__"):
            continue   # importing it would execute the CLI
        yield importlib.import_module(info.name)


class TestDocumentation:
    def test_every_module_has_docstring(self):
        undocumented = [
            m.__name__ for m in _walk_modules()
            if not (m.__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_public_callables_documented(self):
        missing = []
        for module in _walk_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not (obj.__doc__ or "").strip():
                        missing.append(f"{module.__name__}.{name}")
        assert missing == []
