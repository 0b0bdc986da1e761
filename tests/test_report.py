"""Unit tests for the one-shot report builder and its CLI command."""

import re
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.core import tables
from repro.core.report import SECTIONS, build_report, report_section_ids


class TestSectionCatalogue:
    def test_quick_sections_subset_of_full(self):
        quick = report_section_ids(full=False)
        full = report_section_ids(full=True)
        assert set(quick) < set(full)
        assert "T1" in quick and "T4" in quick
        assert "F4" in full and "F4" not in quick

    def test_full_report_is_every_experiments_table(self):
        """One section per ``## <id> —`` table of EXPERIMENTS.md, in its
        order, each printed by its own builder in repro.core.tables."""
        record = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"
        ids = re.findall(r"^## ([TFA]\d+) —", record.read_text(), re.M)
        assert report_section_ids(full=True) == ids
        names = [builder for _, _, builder, _ in SECTIONS]
        assert len(set(names)) == len(names)
        assert all(callable(getattr(tables, name)) for name in names)


class TestBuildReport:
    @pytest.fixture(scope="class")
    def quick_report(self):
        visited = []
        text = build_report(
            names=("li",), seed=1, scale=0.05,
            progress=visited.append,
        )
        return text, visited

    def test_contains_every_quick_section(self, quick_report):
        text, visited = quick_report
        for section in report_section_ids(full=False):
            assert f"[{section}]" in text
        assert visited == report_section_ids(full=False)

    def test_header_records_parameters(self, quick_report):
        text, _ = quick_report
        assert "seed=1" in text
        assert "scale=0.05" in text
        assert "benchmarks=li" in text

    def test_tables_rendered(self, quick_report):
        text, _ = quick_report
        assert "Table 1: baseline machine model" in text
        assert "Table 4: BTB-only return prediction" in text
        assert "hit rates by repair mechanism" in text


class TestCliReport:
    def test_stdout(self, capsys):
        assert cli_main(["report", "--names", "li", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "reproduction report" in out

    def test_to_file(self, tmp_path, capsys):
        path = tmp_path / "report.txt"
        assert cli_main([
            "report", "--names", "li", "--scale", "0.05",
            "--out", str(path),
        ]) == 0
        assert "written to" in capsys.readouterr().out
        assert "[T1]" in path.read_text()

    def test_unwritable_out_path_fails_cleanly(self, tmp_path, capsys,
                                               monkeypatch):
        monkeypatch.setattr("repro.core.report.build_report",
                            lambda **kwargs: "report text")
        path = tmp_path / "missing" / "report.txt"
        assert cli_main([
            "report", "--names", "li", "--no-telemetry", "--out", str(path),
        ]) == 1
        captured = capsys.readouterr()
        assert "written to" not in captured.out
        [line] = captured.err.splitlines()
        assert line.startswith(f"repro-sim: cannot write {path}: ")
