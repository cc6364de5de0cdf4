"""Tests for the paper-vs-measured summary report."""

import pytest

from repro.errors import AnalysisError
from repro.reporting.summary import Finding, render_markdown, study_summary


def test_summary_covers_every_section(cache):
    findings = study_summary(cache)
    sections = {f.section for f in findings}
    for section in ("§3.1", "§3.2", "§3.3.1", "§3.3.2", "§3.3.4",
                    "§3.4.1", "§3.4.3", "§3.4.4", "§3.5", "§3.7",
                    "§3.8", "§4.1"):
        assert section in sections


def test_summary_mostly_holds(cache):
    findings = study_summary(cache)
    checked = [f for f in findings if f.holds is not None]
    passing = sum(1 for f in checked if f.holds)
    # The reproduction must carry the vast majority of shape checks.
    assert passing / len(checked) > 0.8


def test_summary_needs_multiple_years():
    from repro import AnalysisContext, run_study
    study = run_study(scale=0.02, seed=3, years=(2015,))
    with pytest.raises(AnalysisError):
        study_summary(AnalysisContext(study))


def test_render_markdown():
    findings = [
        Finding("§3.1", "a claim", "1", "2", True),
        Finding("§3.2", "another", "3", "4", False),
        Finding("§3.7", "info only", "x", "y", None),
    ]
    text = render_markdown(findings, title="T")
    assert text.startswith("# T")
    assert "| §3.1 | a claim | 1 | 2 | ✓ |" in text
    assert "| §3.2 | another | 3 | 4 | ✗ |" in text
    assert "Shape checks passing: 1/2." in text


def test_cli_report(tmp_path, capsys):
    from repro.cli import main
    out = tmp_path / "report.md"
    assert main(["report", "--scale", "0.02", "--seed", "3",
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert text.startswith("# Study summary")
    assert "Shape checks passing" in text
