"""CLI surface of the analyzer: ``repro check`` exit codes and formats."""

import json

from repro.cli import main

VIOLATION = "import time\n\n\ndef stamp():\n    return time.time()\n"


def make_tree(tmp_path, source=VIOLATION):
    module = tmp_path / "src" / "repro" / "columnar" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(source)
    return str(tmp_path)


class TestCheckCommand:
    def test_clean_run_exits_zero(self, tmp_path, capsys):
        root = make_tree(tmp_path, source="x = 1\n")
        assert main(["check", root]) == 0
        assert "clean:" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        root = make_tree(tmp_path)
        assert main(["check", root]) == 1
        out = capsys.readouterr().out
        assert "[determinism]" in out
        assert "mod.py:5:" in out

    def test_json_format_and_output_file(self, tmp_path, capsys):
        root = make_tree(tmp_path)
        target = str(tmp_path / "report.json")
        assert (
            main(["check", root, "--format", "json", "--output", target])
            == 1
        )
        on_stdout = json.loads(capsys.readouterr().out)
        with open(target, encoding="utf-8") as handle:
            on_disk = json.loads(handle.read())
        assert on_stdout == on_disk
        assert on_disk["counts"] == {"determinism": 1}

    def test_ignore_silences_rule(self, tmp_path):
        root = make_tree(tmp_path)
        assert main(["check", root, "--ignore", "determinism"]) == 0

    def test_select_other_rule_passes(self, tmp_path):
        root = make_tree(tmp_path)
        assert main(["check", root, "--select", "mmap-safety"]) == 0

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        root = make_tree(tmp_path)
        assert main(["check", root, "--select", "no-such-rule"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "determinism",
            "mmap-safety",
            "dtype-discipline",
            "exception-hygiene",
            "picklability",
            "cache-invalidation",
        ):
            assert name in out

    def test_program_rules_listed(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "error-contract",
            "mmap-escape",
            "invalidation-reachability",
        ):
            assert name in out

    def test_nonexistent_path_exits_two_without_traceback(
        self, tmp_path, capsys
    ):
        missing = str(tmp_path / "misspelled")
        assert main(["check", missing]) == 2
        err = capsys.readouterr().err
        assert "misspelled" in err
        assert "Traceback" not in err

    def test_stats_flag_reports_cache_and_graph(self, tmp_path, capsys):
        root = make_tree(tmp_path, source="x = 1\n")
        cache_dir = str(tmp_path / "cache")
        assert (
            main(["check", root, "--stats", "--cache-dir", cache_dir])
            == 0
        )
        out = capsys.readouterr().out
        assert "stats:" in out
        assert "miss(es)" in out
        assert "module(s)" in out
        # Second run over the unchanged tree is all cache hits.
        assert (
            main(["check", root, "--stats", "--cache-dir", cache_dir])
            == 0
        )
        assert "1 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_no_cache_flag_disables_cache(self, tmp_path, capsys):
        root = make_tree(tmp_path, source="x = 1\n")
        assert main(["check", root, "--stats", "--no-cache"]) == 0
        assert "cache: disabled" in capsys.readouterr().out

    def test_missing_paths_exit_two(self, tmp_path, capsys, monkeypatch):
        empty = tmp_path / "elsewhere"
        empty.mkdir()
        monkeypatch.chdir(empty)
        assert main(["check"]) == 2
        assert "no paths" in capsys.readouterr().err

    def test_default_paths_from_working_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        make_tree(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["check"]) == 1
        assert "[determinism]" in capsys.readouterr().out
