"""Driving the rule packs over a source tree.

:func:`lint_paths` is the single entry point the CLI and the tests
share: collect ``.py`` files (sorted, so reports are byte-stable),
parse each once, run every selected file-scope rule per file and every
project-scope rule once, then apply suppression comments.  Parse
failures become findings (rule ``parse-error``) rather than crashes —
a file the linter cannot read is a finding in itself, and CI should
say so with a location.

An inline ``# lint: ignore[rule]`` comment is the one way to accept a
finding.  Suppressions that silenced nothing are reported on the
result, so they cannot quietly rot as the code they excused is fixed.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import LintError
from repro.lint.core import (
    FileContext,
    Finding,
    LintConfig,
    RULE_REGISTRY,
    Rule,
)

PARSE_ERROR_RULE = "parse-error"

#: A declared/used suppression entry: (path, line-or-None, rule id).
SuppressionEntry = Tuple[str, Optional[int], str]


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Findings silenced by ``lint: ignore`` comments.
    suppressed: int = 0
    #: Suppression comments that silenced nothing: ``(path, line,
    #: rule)`` with ``line=None`` for ``ignore-file`` entries.  Only
    #: populated when every rule ran (a partial ``--rules`` run cannot
    #: tell stale from not-selected).
    unused_suppressions: List[SuppressionEntry] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """Whether the run should exit 0."""
        return not self.findings


def collect_files(paths: Sequence[str]) -> List[Tuple[str, str]]:
    """``(path, rel_path)`` for every ``.py`` under ``paths``, sorted.

    ``rel_path`` is posix-style and relative to the scanned root the
    file came from — the identity rules use for layout checks ("is
    this ``games/registry.py``"), independent of where the scan root
    itself lives.
    """
    out: List[Tuple[str, str]] = []
    for root in paths:
        if os.path.isfile(root):
            if root.endswith(".py"):
                out.append((root, os.path.basename(root)))
            continue
        if not os.path.isdir(root):
            raise LintError(f"no such file or directory: {root}")
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(
                name for name in dirnames if name != "__pycache__"
            )
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                full = os.path.join(dirpath, name)
                rel = os.path.relpath(full, root).replace(os.sep, "/")
                out.append((full, rel))
    return sorted(out)


def select_rules(
    config: LintConfig, rule_ids: Optional[Iterable[str]] = None
) -> List[Rule]:
    """Instantiate the requested rules (all registered ones by default)."""
    if rule_ids is None:
        chosen = sorted(RULE_REGISTRY)
    else:
        chosen = sorted(set(rule_ids))
        unknown = [rule_id for rule_id in chosen if rule_id not in RULE_REGISTRY]
        if unknown:
            raise LintError(
                f"unknown rule id(s): {', '.join(unknown)}; "
                f"known: {', '.join(sorted(RULE_REGISTRY))}"
            )
    return [RULE_REGISTRY[rule_id](config) for rule_id in chosen]


def _entry_sort_key(entry: SuppressionEntry) -> Tuple[str, int, str]:
    path, line, rule = entry
    return (path, -1 if line is None else line, rule)


def _apply_suppressions(
    raw: Sequence[Finding], by_path: Dict[str, FileContext]
) -> Tuple[List[Finding], int, List[SuppressionEntry]]:
    """Split findings into (visible, silenced count, entries used)."""
    visible: List[Finding] = []
    used: List[SuppressionEntry] = []
    silenced = 0
    for finding in raw:
        ctx = by_path.get(finding.path)
        if ctx is not None:
            entries = ctx.suppressions.covering_entries(
                finding.rule_id, finding.line
            )
            if entries:
                silenced += 1
                used.extend(
                    (finding.path, line, rule) for line, rule in entries
                )
                continue
        visible.append(finding)
    return visible, silenced, sorted(set(used), key=_entry_sort_key)


def lint_paths(
    paths: Sequence[str],
    config: Optional[LintConfig] = None,
    rule_ids: Optional[Iterable[str]] = None,
) -> LintResult:
    """Run the rule pack over ``paths`` and return the report."""
    config = config or LintConfig()
    selected = sorted(set(rule_ids)) if rule_ids is not None else None
    rules = select_rules(config, selected)
    file_rules = [rule for rule in rules if rule.scope == "file"]
    project_rules = [rule for rule in rules if rule.scope == "project"]
    result = LintResult()

    raw: List[Finding] = []
    contexts: List[FileContext] = []
    for path, rel_path in collect_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        try:
            ctx = FileContext.parse(path, source, rel_path)
        except LintError as exc:
            raw.append(Finding(
                rule_id=PARSE_ERROR_RULE,
                path=path,
                line=1,
                column=0,
                message=str(exc),
            ))
            continue
        contexts.append(ctx)
        raw.extend(f for rule in file_rules for f in rule.check(ctx))
    raw.extend(
        f for rule in project_rules for f in rule.check_project(contexts)
    )

    by_path = {ctx.path: ctx for ctx in contexts}
    visible, result.suppressed, used = _apply_suppressions(raw, by_path)
    result.files_checked = len(contexts)
    if selected is None:
        declared = {
            (ctx.path, line, rule)
            for ctx in contexts
            for line, rule in ctx.suppressions.declared_entries()
        }
        result.unused_suppressions = sorted(
            declared.difference(used), key=_entry_sort_key
        )
    result.findings = sorted(visible, key=Finding.sort_key)
    return result
