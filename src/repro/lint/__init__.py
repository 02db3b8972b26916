"""`repro.lint`: the project's own static-analysis pass.

An AST-walking linter that machine-checks the invariants the fleet
engine and the SNIP accuracy contract rely on but ordinary tests only
probe: determinism (no ambient clocks/RNG/env/set-order), pickling
safety of worker payloads, unit-suffix hygiene in energy arithmetic,
and game/scheme registration contracts.  Run it as ``repro-snip lint``
or through :func:`lint_paths`; ``tests/lint/test_self_clean.py`` keeps
the shipped tree at zero findings.

Importing this package registers every rule pack (registration happens
at class-definition time via ``@register_rule``).
"""

from repro.lint.core import (
    ALL_RULES,
    FileContext,
    Finding,
    LintConfig,
    RULE_REGISTRY,
    Rule,
    Suppressions,
    iter_rule_ids,
    register_rule,
)
from repro.lint import rules_contracts  # noqa: F401  (registers rules)
from repro.lint import rules_determinism  # noqa: F401  (registers rules)
from repro.lint import rules_pickling  # noqa: F401  (registers rules)
from repro.lint import rules_units  # noqa: F401  (registers rules)
from repro.lint import rules_concurrency  # noqa: F401  (registers rules)
from repro.lint import taint  # noqa: F401  (registers rules)
from repro.lint.callgraph import ProjectGraph, ProjectIndex, project_graph
from repro.lint.reporting import render_json, render_sarif, render_text
from repro.lint.runner import (
    LintResult,
    collect_files,
    lint_paths,
    select_rules,
)

__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "LintConfig",
    "LintResult",
    "ProjectGraph",
    "ProjectIndex",
    "RULE_REGISTRY",
    "Rule",
    "Suppressions",
    "collect_files",
    "iter_rule_ids",
    "lint_paths",
    "project_graph",
    "register_rule",
    "render_json",
    "render_sarif",
    "render_text",
    "select_rules",
]
