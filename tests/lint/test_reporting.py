"""Text and JSON reporters, and report-order determinism."""

from __future__ import annotations

import json

from repro.lint import render_json, render_text

SNIPPET = """
import time
import os

def stamp():
    return time.time()

def configured():
    return os.getenv("JOBS")
"""


def test_text_report_has_clickable_locations_and_summary(lint_snippet):
    result = lint_snippet(SNIPPET, rules=["det-wallclock", "det-env-read"])
    text = render_text(result)
    lines = text.splitlines()
    assert any(":6:12: det-wallclock:" in line for line in lines)
    assert any(": det-env-read:" in line for line in lines)
    assert lines[-1] == "2 findings (1 files, 0 suppressed)"


def test_json_report_schema(lint_snippet):
    result = lint_snippet(SNIPPET, rules=["det-wallclock", "det-env-read"])
    document = json.loads(render_json(result))
    assert set(document) == {
        "version", "files_checked", "suppressed", "unused_suppressions",
        "findings",
    }
    assert document["version"] == 1
    assert document["files_checked"] == 1
    assert document["suppressed"] == 0
    assert len(document["findings"]) == 2
    for finding in document["findings"]:
        assert set(finding) == {"rule", "path", "line", "column", "message"}


def test_findings_render_in_canonical_path_line_order(lint_snippet):
    result = lint_snippet(SNIPPET, rules=["det-wallclock", "det-env-read"])
    positions = [(f.path, f.line) for f in result.findings]
    assert positions == sorted(positions)
    # det-wallclock (line 6) before det-env-read (line 9).
    assert [f.rule_id for f in result.findings] == [
        "det-wallclock", "det-env-read"
    ]


def test_clean_run_renders_zero_findings(lint_snippet):
    result = lint_snippet("x = 1\n", rules=["det-wallclock"])
    assert render_text(result) == "0 findings (1 files, 0 suppressed)"
    assert json.loads(render_json(result))["findings"] == []
