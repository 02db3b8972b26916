"""Unused suppressions.

Exemptions rot: a ``lint: ignore`` comment outlives the diagnostic it
silenced.  These tests pin how that drift is reported.
"""

from __future__ import annotations

import io
import json
import textwrap

from repro.cli import main
from repro.lint import lint_paths, render_json, render_text


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return path


# -- unused suppressions ---------------------------------------------------


def test_unused_inline_suppression_is_reported(tmp_path):
    target = _write(
        tmp_path,
        "mod.py",
        """
        def stamp():
            return 1  # lint: ignore[det-wallclock]
        """,
    )
    result = lint_paths([str(target)])
    assert result.findings == []
    assert result.unused_suppressions == [(str(target), 3, "det-wallclock")]
    assert "unused suppression (silences nothing):" in render_text(result)


def test_unused_file_wide_suppression_is_reported(tmp_path):
    target = _write(
        tmp_path,
        "mod.py",
        """
        # lint: ignore-file[det-env-read]
        x = 1
        """,
    )
    result = lint_paths([str(target)])
    assert result.unused_suppressions == [(str(target), None, "det-env-read")]
    document = json.loads(render_json(result))
    assert document["unused_suppressions"] == [
        {"path": str(target), "line": None, "rule": "det-env-read"}
    ]


def test_used_suppression_is_not_reported_as_unused(tmp_path):
    target = _write(
        tmp_path,
        "mod.py",
        """
        import time

        def stamp():
            return time.time()  # lint: ignore[det-wallclock]
        """,
    )
    result = lint_paths([str(target)])
    assert result.suppressed == 1
    assert result.unused_suppressions == []


def test_unused_accounting_is_skipped_under_a_partial_rule_pack(tmp_path):
    # A --rules run cannot tell "stale" from "not selected", so the
    # hygiene pass must stay quiet rather than cry wolf.
    target = _write(
        tmp_path,
        "mod.py",
        """
        import time

        def stamp():
            return time.time()  # lint: ignore[det-wallclock]
        """,
    )
    result = lint_paths([str(target)], rule_ids=["det-env-read"])
    assert result.unused_suppressions == []


# -- CLI surface -----------------------------------------------------------


def test_cli_reports_unused_suppressions_on_stderr(tmp_path, capsys):
    target = _write(
        tmp_path,
        "mod.py",
        """
        def stamp():
            return 1  # lint: ignore[det-wallclock]
        """,
    )
    assert main(["lint", str(target)], out=io.StringIO()) == 0
    err = capsys.readouterr().err
    assert "lint: unused suppression:" in err
    assert "det-wallclock" in err
