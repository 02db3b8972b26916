"""docs/LINTING.md's rule-pack section names exactly the registered rules."""

from __future__ import annotations

import re
from pathlib import Path

from repro.lint import RULE_REGISTRY, iter_rule_ids

LINTING_MD = Path(__file__).resolve().parents[2] / "docs" / "LINTING.md"

#: A backticked rule id, optionally with a brace list of suffixes
#: (``det-taint-{clock,env}`` names ``det-taint-clock`` and
#: ``det-taint-env``).
_RULE_ID = re.compile(r"`([a-z]+(?:-[a-z]+)+)(?:-\{([a-z,]+)\})?`")


def _documented_ids():
    text = LINTING_MD.read_text(encoding="utf-8")
    section = text[text.index("## The rule pack"):text.index("## Suppressions")]
    ids = set()
    for match in _RULE_ID.finditer(section):
        stem, suffixes = match.groups()
        if suffixes:
            ids.update(f"{stem}-{suffix}" for suffix in suffixes.split(","))
        else:
            ids.add(stem)
    return ids


def test_rule_pack_section_matches_the_registry():
    registered = set(iter_rule_ids())
    emitted = {rule_id for cls in RULE_REGISTRY.values() for rule_id in cls.emits}
    documented = _documented_ids()
    assert registered | emitted <= documented
    assert documented <= registered | emitted
