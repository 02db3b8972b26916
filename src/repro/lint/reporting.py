"""Rendering lint results: text, machine-readable JSON, and SARIF.

The JSON form is what CI consumes (stable key order, one object per
finding); the text form is for humans at the terminal, with clickable
``path:line:col`` locations; the SARIF form (2.1.0) is what GitHub
code scanning ingests, turning findings into inline PR annotations.
All three render findings in the canonical ``(path, line, column,
rule)`` order so output is byte-stable across runs — the linter holds
itself to the determinism bar it enforces.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.lint.core import RULE_REGISTRY
from repro.lint.runner import PARSE_ERROR_RULE, LintResult, SuppressionEntry


def _entry_text(entry: SuppressionEntry) -> str:
    path, line, rule = entry
    where = f"{path}:{line}" if line is not None else f"{path} (file-wide)"
    return f"{where} [{rule}]"


def render_text(result: LintResult) -> str:
    """Human-readable report, one line per finding plus a summary.

    Suppression comments that silenced nothing render above the
    summary, so a "clean" run with rotting exemptions still says so.
    """
    lines: List[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.path}:{finding.line}:{finding.column + 1}: "
            f"{finding.rule_id}: {finding.message}"
        )
    for entry in result.unused_suppressions:
        lines.append(
            f"unused suppression (silences nothing): {_entry_text(entry)}"
        )
    noun = "finding" if len(result.findings) == 1 else "findings"
    lines.append(
        f"{len(result.findings)} {noun} "
        f"({result.files_checked} files, {result.suppressed} suppressed)"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """CI-facing JSON document; schema documented in docs/LINTING.md.

    Each finding object carries exactly ``rule/path/line/column/
    message`` (columns 1-based); unused suppressions are reported at
    the document level so finding consumers never see surprise keys.
    """
    payload = {
        "version": 1,
        "files_checked": result.files_checked,
        "suppressed": result.suppressed,
        "unused_suppressions": [
            {"path": path, "line": line, "rule": rule}
            for path, line, rule in result.unused_suppressions
        ],
        "findings": [
            {
                "rule": finding.rule_id,
                "path": finding.path,
                "line": finding.line,
                "column": finding.column + 1,
                "message": finding.message,
            }
            for finding in result.findings
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_rules() -> List[Dict[str, Any]]:
    """Reporting descriptors for every finding id the packs can emit.

    Rules that report under sub-ids (``det-taint`` emitting
    ``det-taint-clock``) publish one descriptor per emitted id, since
    SARIF results reference the id that appears on the finding.
    """
    descriptors: Dict[str, str] = {
        PARSE_ERROR_RULE: "file could not be parsed",
    }
    for rule_id in sorted(RULE_REGISTRY):
        cls = RULE_REGISTRY[rule_id]
        if cls.emits:
            for emitted in sorted(cls.emits):
                descriptors[emitted] = f"{cls.description} [{emitted}]"
        else:
            descriptors[rule_id] = cls.description
    return [
        {
            "id": rule_id,
            "shortDescription": {"text": text},
            "defaultConfiguration": {"level": "error"},
        }
        for rule_id, text in sorted(descriptors.items())
    ]


def render_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 document for GitHub code-scanning upload."""
    results: List[Dict[str, Any]] = []
    for finding in result.findings:
        results.append({
            "ruleId": finding.rule_id,
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.column + 1,
                    },
                },
            }],
        })
    document = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": _sarif_rules(),
                },
            },
            "results": results,
        }],
    }
    return json.dumps(document, indent=2, sort_keys=True)
