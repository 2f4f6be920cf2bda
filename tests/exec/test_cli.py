"""CLI surface of the campaign engine: ``repro campaign`` and friends."""

import json

import pytest

from repro.cli import build_parser, main


class TestParsing:
    def test_campaign_actions_parse(self):
        args = build_parser().parse_args(
            ["campaign", "run", "demo", "--workers", "0",
             "--journal", "j.jsonl", "--resume"])
        assert args.command == "campaign"
        assert args.action == "run"
        assert args.name == "demo"
        assert args.workers == 0
        assert args.resume is True

    def test_resume_action_implies_resume(self):
        args = build_parser().parse_args(
            ["campaign", "resume", "demo", "--journal", "j.jsonl"])
        assert args.resume is True

    def test_campaign_requires_action(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign"])

    def test_figures_accept_campaign_flags(self):
        for command in ("fig7a", "fig7b", "fig7c", "fig8", "fig9",
                        "variability"):
            args = build_parser().parse_args(
                [command, "--workers", "2", "--journal", "j.jsonl"])
            assert args.workers == 2
            assert args.journal == "j.jsonl"

    def test_chaos_executor_flags(self):
        args = build_parser().parse_args(
            ["chaos", "--executor", "--workers", "3", "--scratch", "/tmp/x"])
        assert args.executor is True
        assert args.workers == 3


class TestCampaignCommand:
    def test_list(self, capsys):
        assert main(["campaign", "list"]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "store-yield" in out

    def test_unknown_name_is_usage_error(self, capsys):
        assert main(["campaign", "run", "nope", "--workers", "0"]) == 2
        assert "unknown campaign" in capsys.readouterr().err

    def test_resume_without_journal_is_usage_error(self, capsys):
        assert main(["campaign", "resume", "demo"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_run_status_resume_round_trip(self, tmp_path, capsys):
        journal = str(tmp_path / "demo.jsonl")
        assert main(["campaign", "run", "demo", "--tasks", "3",
                     "--workers", "0", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "3/3 completed" in out

        assert main(["campaign", "status", journal]) == 0
        out = capsys.readouterr().out
        assert "demo" in out
        assert "complete" in out

        assert main(["campaign", "resume", "demo", "--tasks", "3",
                     "--workers", "0", "--journal", journal]) == 0
        out = capsys.readouterr().out
        assert "3 replayed from journal" in out

    def test_status_on_missing_journal_is_usage_error(self, tmp_path,
                                                      capsys):
        missing = str(tmp_path / "none.jsonl")
        assert main(["campaign", "status", missing]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_quarantine_exits_nonzero(self, tmp_path, capsys, monkeypatch):
        """A campaign ending with quarantined tasks fails the exit code."""
        from repro.exec import Campaign, make_task, registry

        def build_poison(options):
            return Campaign(
                name="poison", fn="repro.exec.tasks:chaos_task",
                tasks=[make_task({"index": 0, "fault": "task_error",
                                  "scratch": str(tmp_path)})])

        monkeypatch.setitem(registry._BUILDERS, "poison", build_poison)
        assert main(["campaign", "run", "poison", "--workers", "0"]) == 1
        assert "quarantined" in capsys.readouterr().out


class TestChaosExecutorCommand:
    def test_inline_matrix_and_json_report(self, tmp_path, capsys,
                                           monkeypatch):
        """--executor wires chaos_executor + render and the exit code.

        The CLI handler is exercised with the inline-safe fault subset
        (spawn faults belong to the stress job); ``chaos_executor`` is
        wrapped so the full matrix never runs in tier 1.
        """
        import repro.recovery.faults as faults

        real = faults.chaos_executor

        def inline_only(scratch, **kwargs):
            kwargs.update(workers=0, task_timeout=None,
                          kinds=("task_error", "conv_skip"))
            return real(scratch, **kwargs)

        monkeypatch.setattr(faults, "chaos_executor", inline_only)
        assert main(["chaos", "--executor", "--scratch", str(tmp_path),
                     "--faults", "1",
                     "--json", str(tmp_path / "report.json")]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["kind"] == "chaos_report"
        assert report["suite"] == "executor"
        assert report["ok"] is True


@pytest.mark.stress
class TestChaosExecutorSpawn:
    def test_full_cli_run(self, tmp_path, capsys):
        assert main(["chaos", "--executor", "--scratch", str(tmp_path),
                     "--faults", "1", "--workers", "2"]) == 0
        assert "PASS" in capsys.readouterr().out
