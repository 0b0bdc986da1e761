"""Tests for the documentation link-and-anchor checker.

The checker is a CI gate (the lint job runs ``python -m
repro.docscheck``), so beyond the clean-repo integration check these
tests hold both directions: every staleness class it exists to catch
(broken links, dead anchors, renumbered sections, missing files) must
be reported, and the template/generated-path idioms the docs
legitimately use must not be.
"""

import re
from pathlib import Path

import pytest

from repro import docscheck


@pytest.fixture
def repo(tmp_path):
    """A miniature doc tree: root with docs/, a source file, README."""
    (tmp_path / "docs").mkdir()
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "thing.py").write_text("x = 1\n")
    (tmp_path / "docs" / "other.md").write_text(
        "# Other notes\n\n## 1. First\n\ntext\n\n## 2. Second\n\ntext\n")
    return tmp_path


def _check(repo, body, name="docs/page.md"):
    page = repo / name
    page.write_text(body)
    return docscheck.check_file(page, repo)


class TestMarkdownLinks:
    def test_valid_relative_link_passes(self, repo):
        assert _check(repo, "See [other](other.md).") == []

    def test_root_relative_link_passes(self, repo):
        assert _check(repo, "See [thing](src/thing.py).") == []

    def test_broken_link_reported_with_line(self, repo):
        problems = _check(repo, "intro\n\nSee [gone](missing.md).")
        assert len(problems) == 1
        assert "docs/page.md:3" in problems[0]
        assert "missing.md" in problems[0]

    def test_external_links_skipped(self, repo):
        assert _check(repo, "[x](https://example.com/a.md)") == []

    def test_anchor_resolves_against_target_headings(self, repo):
        assert _check(repo, "[ok](other.md#1-first)") == []
        problems = _check(repo, "[bad](other.md#9-ninth)")
        assert len(problems) == 1
        assert "#9-ninth" in problems[0]

    def test_same_file_anchor(self, repo):
        body = "# Page\n\n## My Heading\n\n[jump](#my-heading)\n"
        assert _check(repo, body) == []
        assert len(_check(repo, "# Page\n\n[jump](#nope)\n")) == 1


class TestPathTokens:
    def test_existing_code_token_passes(self, repo):
        assert _check(repo, "Edit `src/thing.py` first.") == []

    def test_missing_code_token_reported(self, repo):
        problems = _check(repo, "Edit `src/gone.py` first.")
        assert len(problems) == 1
        assert "src/gone.py" in problems[0]

    def test_bare_md_mention_checked(self, repo):
        assert _check(repo, "see docs/other.md for more") == []
        problems = _check(repo, "see docs/vanished.md for more")
        assert "docs/vanished.md" in problems[0]

    def test_globs_templates_and_generated_paths_ignored(self, repo):
        body = ("`benchmarks/bench_*.py` and `traces/<name>.rastrace`\n"
                "`$REPRO_CACHE_DIR/ledger.jsonl` and `~/.cache/x.json`\n"
                "`benchmarks/out/table.txt` is generated\n")
        assert _check(repo, body) == []

    def test_pytest_node_id_suffix_stripped(self, repo):
        assert _check(repo, "`src/thing.py::TestX::test_y`") == []

    def test_directory_token(self, repo):
        assert _check(repo, "code in `src/`") == []
        assert len(_check(repo, "code in `lib/`")) == 1


class TestSectionRefs:
    def test_valid_cross_file_section_ref(self, repo):
        assert _check(repo, "see docs/other.md §2 for why") == []
        assert _check(repo, "see `other.md` section 2 for why",
                      name="docs/page.md") == []

    def test_stale_cross_file_section_ref_reported(self, repo):
        problems = _check(repo, "see docs/other.md §7 for why")
        assert len(problems) == 1
        assert "no section 7" in problems[0]
        assert "1..2" in problems[0]

    def test_bare_section_ref_checks_own_headings(self, repo):
        body = "# P\n\n## 1. Only\n\nas §1 said\n"
        assert _check(repo, body) == []
        bad = "# P\n\n## 1. Only\n\nas §4 said\n"
        problems = _check(repo, bad)
        assert len(problems) == 1
        assert "no section 4" in problems[0]

    def test_bare_refs_unchecked_without_numbered_headings(self, repo):
        # Prose quoting the *paper's* sections in a file that has no
        # numbered headings of its own must not be flagged.
        assert _check(repo, "# P\n\nthe paper's §5 result\n") == []


class TestFencedBlocks:
    def test_fenced_content_not_checked(self, repo):
        body = ("```\n[broken](gone.md) `src/absent.py` docs/no.md §9\n"
                "```\n")
        assert _check(repo, body) == []

    def test_checking_resumes_after_fence(self, repo):
        body = "```\nanything\n```\n\n[broken](gone.md)\n"
        assert len(_check(repo, body)) == 1


class TestRealRepo:
    def test_shipped_docs_are_clean(self):
        root = Path(__file__).resolve().parent.parent
        checked, problems = docscheck.run([], root)
        assert problems == []
        assert checked >= 8  # docs/*.md + README + CONTRIBUTING

    def test_main_exit_codes(self, repo, monkeypatch, capsys):
        monkeypatch.chdir(repo)
        (repo / "README.md").write_text("[gone](missing.md)\n")
        assert docscheck.main([]) == 1
        assert "missing.md" in capsys.readouterr().err
        (repo / "README.md").write_text("fine\n")
        assert docscheck.main([]) == 0
        assert "ok" in capsys.readouterr().out


class TestKnobInventory:
    def test_performance_knob_table_lists_every_env_name(self):
        """docs/performance.md §3 is the one complete list of the
        ``REPRO_*`` variables the package reads: a knob added, removed
        or merely mentioned under src/repro must show up there."""
        root = Path(__file__).resolve().parent.parent
        used = set()
        for path in (root / "src" / "repro").rglob("*.py"):
            used.update(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
        text = (root / "docs" / "performance.md").read_text()
        section = text.split("\n## 3. ", 1)[1].split("\n## ", 1)[0]
        rows = set(re.findall(r"^\| *`(REPRO_[A-Z_]+)`", section, re.M))
        assert used == rows
