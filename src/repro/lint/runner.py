"""Driving the rule packs over a source tree.

:func:`lint_paths` is the single entry point the CLI and the tests
share: collect ``.py`` files (sorted, so reports are byte-stable),
parse each once, run every selected file-scope rule per file and every
project-scope rule once, apply suppression comments, then subtract the
optional baseline.  Parse failures become findings (rule
``parse-error``) rather than crashes — a file the linter cannot read
is a finding in itself, and CI should say so with a location.

Two optional layers wrap that core:

* an :class:`~repro.lint.cache.AnalysisCache` replays per-file and
  project outcomes keyed by content hash, so a warm run parses only
  what changed (nothing, usually);
* hygiene accounting — suppression comments that silenced nothing and
  baseline entries no finding consumed are reported on the result, so
  ``--baseline`` files and ``# lint: ignore`` comments cannot quietly
  rot as the code they excused is fixed.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import BaselineError, LintError
from repro.lint.cache import (
    AnalysisCache,
    FileOutcome,
    ProjectOutcome,
    SuppressionEntry,
    content_hash,
    engine_fingerprint,
    policy_fingerprint,
)
from repro.lint.core import (
    FileContext,
    Finding,
    LintConfig,
    RULE_REGISTRY,
    Rule,
)
from repro.storage import atomic_write

PARSE_ERROR_RULE = "parse-error"


@dataclass
class LintResult:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Findings silenced by ``lint: ignore`` comments.
    suppressed: int = 0
    #: Findings present in, and absorbed by, the ``--baseline`` file.
    baselined: int = 0
    #: Baseline keys whose allowance was not (fully) consumed — the
    #: finding they excused no longer exists.
    stale_baseline: List[str] = field(default_factory=list)
    #: Baseline key -> count actually consumed this run (what a
    #: ``--prune`` rewrite keeps).
    baseline_consumed: Dict[str, int] = field(default_factory=dict)
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
    baseline: Optional[Dict[str, int]] = None,
    cache: Optional[AnalysisCache] = None,
) -> LintResult:
    """Run the rule pack over ``paths`` and return the report."""
    config = config or LintConfig()
    selected = sorted(set(rule_ids)) if rule_ids is not None else None
    rules = select_rules(config, selected)
    file_rules = [rule for rule in rules if rule.scope == "file"]
    project_rules = [rule for rule in rules if rule.scope == "project"]
    result = LintResult()

    engine = policy = ""
    cache_valid = False
    if cache is not None:
        engine = engine_fingerprint()
        policy = policy_fingerprint(config, selected)
        cache_valid = cache.matches(engine, policy)

    ordered: List[str] = []
    rel_paths: Dict[str, str] = {}
    sources: Dict[str, str] = {}
    hashes: Dict[str, str] = {}
    for path, rel_path in collect_files(paths):
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        ordered.append(path)
        rel_paths[path] = rel_path
        sources[path] = source
        hashes[path] = content_hash(source)

    # Parse lazily and at most once: a fully warm cache never parses.
    parsed: Dict[str, Optional[FileContext]] = {}
    parse_errors: Dict[str, str] = {}

    def get_context(path: str) -> Optional[FileContext]:
        if path not in parsed:
            try:
                parsed[path] = FileContext.parse(
                    path, sources[path], rel_paths[path]
                )
            except LintError as exc:
                parsed[path] = None
                parse_errors[path] = str(exc)
        return parsed[path]

    # File-scope layer: replay cached outcomes, recompute the rest.
    outcomes: Dict[str, FileOutcome] = {}
    for path in ordered:
        cached = (
            cache.lookup_file(path, hashes[path])
            if cache is not None and cache_valid
            else None
        )
        if cached is not None:
            outcomes[path] = cached
            continue
        ctx = get_context(path)
        if ctx is None:
            message = parse_errors[path]
            outcomes[path] = FileOutcome(
                file_hash=hashes[path],
                findings=[Finding(
                    rule_id=PARSE_ERROR_RULE,
                    path=path,
                    line=1,
                    column=0,
                    message=message,
                )],
            )
            continue
        raw = [f for rule in file_rules for f in rule.check(ctx)]
        visible, silenced, used = _apply_suppressions(raw, {path: ctx})
        outcomes[path] = FileOutcome(
            file_hash=hashes[path],
            findings=visible,
            suppressed=silenced,
            used=used,
            declared=[
                (path, line, rule)
                for line, rule in ctx.suppressions.declared_entries()
            ],
        )

    # Project-scope layer: one outcome keyed on every input hash.
    inputs = dict(hashes)
    project = (
        cache.lookup_project(inputs)
        if cache is not None and cache_valid
        else None
    )
    if project is None:
        contexts = [
            ctx
            for path in ordered
            for ctx in [get_context(path)]
            if ctx is not None
        ]
        raw = [
            f for rule in project_rules for f in rule.check_project(contexts)
        ]
        by_path = {ctx.path: ctx for ctx in contexts}
        visible, silenced, used = _apply_suppressions(raw, by_path)
        project = ProjectOutcome(
            inputs=inputs, findings=visible, suppressed=silenced, used=used
        )

    if cache is not None:
        cache.save(engine, policy, outcomes, project)

    # Assemble the result from both layers.
    result.files_checked = sum(
        1
        for path in ordered
        if not any(
            f.rule_id == PARSE_ERROR_RULE for f in outcomes[path].findings
        )
    )
    visible = [
        finding for path in ordered for finding in outcomes[path].findings
    ]
    visible.extend(project.findings)
    result.suppressed = (
        sum(outcomes[path].suppressed for path in ordered)
        + project.suppressed
    )
    if selected is None:
        declared = {
            entry for path in ordered for entry in outcomes[path].declared
        }
        used_entries = {
            entry for path in ordered for entry in outcomes[path].used
        }
        used_entries.update(project.used)
        result.unused_suppressions = sorted(
            declared - used_entries, key=_entry_sort_key
        )
    if baseline:
        remaining = dict(baseline)
        consumed: Dict[str, int] = {}
        unbaselined: List[Finding] = []
        for finding in sorted(visible, key=Finding.sort_key):
            key = finding.baseline_key
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                consumed[key] = consumed.get(key, 0) + 1
                result.baselined += 1
            else:
                unbaselined.append(finding)
        visible = unbaselined
        result.stale_baseline = sorted(
            key for key, count in remaining.items() if count > 0
        )
        result.baseline_consumed = dict(sorted(consumed.items()))
    result.findings = sorted(visible, key=Finding.sort_key)
    return result


# -- baseline files --------------------------------------------------------


def load_baseline(path: str) -> Dict[str, int]:
    """Read a baseline file into a ``key -> allowed count`` map."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except FileNotFoundError:
        raise BaselineError(f"baseline file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise BaselineError(f"baseline file {path} is not valid JSON: {exc}") from exc
    if not isinstance(document, dict) or document.get("version") != 1:
        raise BaselineError(
            f"baseline file {path} is not a version-1 lint baseline"
        )
    counts = document.get("findings")
    if not isinstance(counts, dict) or not all(
        isinstance(key, str) and isinstance(value, int)
        for key, value in counts.items()
    ):
        raise BaselineError(
            f"baseline file {path}: 'findings' must map keys to counts"
        )
    return dict(counts)


def write_baseline(path: str, result: LintResult) -> int:
    """Persist the run's findings as the accepted baseline.

    Returns the number of distinct baseline keys written.  Keys omit
    line numbers (see :attr:`Finding.baseline_key`) so edits elsewhere
    in a file do not invalidate accepted findings.
    """
    counts: Dict[str, int] = {}
    for finding in result.findings:
        counts[finding.baseline_key] = counts.get(finding.baseline_key, 0) + 1
    return _store_baseline(path, counts)


def write_pruned_baseline(path: str, result: LintResult) -> int:
    """Rewrite ``path`` keeping only the entries this run consumed.

    The ``--prune`` half of baseline hygiene: stale allowances (the
    excused finding was fixed) drop out; everything a finding still
    matched survives with its consumed count.  Returns the number of
    keys written.
    """
    counts = {
        key: count
        for key, count in sorted(result.baseline_consumed.items())
        if count > 0
    }
    return _store_baseline(path, counts)


def _store_baseline(path: str, counts: Dict[str, int]) -> int:
    """Atomically replace ``path`` with a version-1 baseline document.

    ``--prune`` rewrites the user's baseline in place, so a failed write
    must leave the previous file whole. Returns the number of keys.
    """
    document = {"version": 1, "findings": counts}
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    atomic_write(path, text.encode("utf-8"))
    return len(counts)
