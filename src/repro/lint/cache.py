"""Incremental analysis cache for the lint runner.

A full lint of the tree parses every file and builds the project call
graph; in CI and pre-commit that cost is paid on every run even though
almost nothing changed.  The cache keys each file's **outcome** (its
post-suppression findings, suppression accounting, declared
suppression entries) by a content hash, and the whole project pass by
the hash map of every input, so:

* a warm run with no edits replays both layers without parsing a
  single file;
* an edit re-runs the file rules for the changed files only, plus the
  project pass (whose inputs — by definition — changed).

Two fingerprints guard staleness the content hashes cannot see: the
**engine** fingerprint (a digest over ``repro/lint``'s own sources, so
editing a rule invalidates everything) and the **policy** fingerprint
(the :class:`~repro.lint.core.LintConfig` plus the rule selection).
A cache written by a different engine or policy is ignored wholesale.

The file format is a single JSON document, written atomically; a
missing, corrupt, or mismatched cache is silently treated as cold —
the cache can only ever make a run faster, never change its result.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.lint.core import Finding, LintConfig
from repro.storage import atomic_write

CACHE_VERSION = 1

#: A declared/used suppression entry: (path, line-or-None, rule id).
SuppressionEntry = Tuple[str, Optional[int], str]


def content_hash(source: str) -> str:
    """Stable digest of one file's text."""
    return hashlib.blake2b(
        source.encode("utf-8"), digest_size=16
    ).hexdigest()


_ENGINE_FINGERPRINT: Optional[str] = None


def engine_fingerprint() -> str:
    """Digest over the lint package's own sources.

    Editing any rule, the runner, or this module must invalidate every
    cached outcome — the cheapest correct definition of "the analyzer
    changed" is "its bytes changed".
    """
    global _ENGINE_FINGERPRINT
    if _ENGINE_FINGERPRINT is None:
        package_dir = os.path.dirname(os.path.abspath(__file__))
        digest = hashlib.blake2b(digest_size=16)
        for name in sorted(os.listdir(package_dir)):
            if not name.endswith(".py"):
                continue
            digest.update(name.encode("utf-8"))
            digest.update(b"\x00")
            with open(os.path.join(package_dir, name), "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\x01")
        _ENGINE_FINGERPRINT = digest.hexdigest()
    return _ENGINE_FINGERPRINT


def policy_fingerprint(
    config: LintConfig, rule_ids: Optional[List[str]]
) -> str:
    """Digest of the config knobs and the rule selection."""
    payload = json.dumps(
        {
            "config": repr(config),
            "rules": sorted(rule_ids) if rule_ids is not None else "<all>",
        },
        sort_keys=True,
    )
    return hashlib.blake2b(
        payload.encode("utf-8"), digest_size=16
    ).hexdigest()


def _encode_finding(finding: Finding) -> List[Any]:
    return [
        finding.rule_id, finding.path, finding.line,
        finding.column, finding.message,
    ]


def _decode_finding(row: List[Any]) -> Finding:
    rule_id, path, line, column, message = row
    return Finding(
        rule_id=str(rule_id), path=str(path), line=int(line),
        column=int(column), message=str(message),
    )


def _encode_entries(entries: List[SuppressionEntry]) -> List[List[Any]]:
    return [[path, line, rule] for path, line, rule in entries]


def _decode_entries(rows: List[Any]) -> List[SuppressionEntry]:
    return [
        (str(path), None if line is None else int(line), str(rule))
        for path, line, rule in rows
    ]


@dataclass
class FileOutcome:
    """Everything the runner learned about one file (post-suppression)."""

    file_hash: str
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    used: List[SuppressionEntry] = field(default_factory=list)
    declared: List[SuppressionEntry] = field(default_factory=list)

    def to_doc(self) -> Dict[str, Any]:
        return {
            "hash": self.file_hash,
            "findings": [_encode_finding(f) for f in self.findings],
            "suppressed": self.suppressed,
            "used": _encode_entries(self.used),
            "declared": _encode_entries(self.declared),
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "FileOutcome":
        return cls(
            file_hash=str(doc["hash"]),
            findings=[_decode_finding(row) for row in doc["findings"]],
            suppressed=int(doc["suppressed"]),
            used=_decode_entries(doc["used"]),
            declared=_decode_entries(doc["declared"]),
        )


@dataclass
class ProjectOutcome:
    """The project-scope pass over one exact set of input hashes."""

    inputs: Dict[str, str] = field(default_factory=dict)
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    used: List[SuppressionEntry] = field(default_factory=list)

    def to_doc(self) -> Dict[str, Any]:
        return {
            "inputs": dict(sorted(self.inputs.items())),
            "findings": [_encode_finding(f) for f in self.findings],
            "suppressed": self.suppressed,
            "used": _encode_entries(self.used),
        }

    @classmethod
    def from_doc(cls, doc: Dict[str, Any]) -> "ProjectOutcome":
        return cls(
            inputs={str(k): str(v) for k, v in doc["inputs"].items()},
            findings=[_decode_finding(row) for row in doc["findings"]],
            suppressed=int(doc["suppressed"]),
            used=_decode_entries(doc["used"]),
        )


class AnalysisCache:
    """Content-addressed store of per-file and project lint outcomes."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._files: Dict[str, FileOutcome] = {}
        self._project: Optional[ProjectOutcome] = None
        self._valid_for: Optional[Tuple[str, str]] = None
        self._load()

    def _load(self) -> None:
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
            if not isinstance(doc, dict) or doc.get("version") != CACHE_VERSION:
                return
            engine = str(doc["engine"])
            policy = str(doc["policy"])
            files = {
                str(path): FileOutcome.from_doc(entry)
                for path, entry in doc["files"].items()
            }
            project = (
                ProjectOutcome.from_doc(doc["project"])
                if doc.get("project") is not None
                else None
            )
        except (OSError, ValueError, KeyError, TypeError):
            # Missing or corrupt cache: start cold.  The next save
            # rewrites the file wholesale, so no repair is needed.
            return
        self._valid_for = (engine, policy)
        self._files = files
        self._project = project

    def matches(self, engine: str, policy: str) -> bool:
        """Whether stored outcomes were produced by this exact analyzer."""
        return self._valid_for == (engine, policy)

    def lookup_file(self, path: str, file_hash: str) -> Optional[FileOutcome]:
        """The cached outcome for ``path`` iff its content is unchanged."""
        outcome = self._files.get(path)
        if outcome is not None and outcome.file_hash == file_hash:
            return outcome
        return None

    def lookup_project(
        self, inputs: Dict[str, str]
    ) -> Optional[ProjectOutcome]:
        """The cached project pass iff every input hash matches."""
        if self._project is not None and self._project.inputs == inputs:
            return self._project
        return None

    def save(
        self,
        engine: str,
        policy: str,
        files: Dict[str, FileOutcome],
        project: Optional[ProjectOutcome],
    ) -> None:
        """Atomically replace the cache with this run's outcomes."""
        doc = {
            "version": CACHE_VERSION,
            "engine": engine,
            "policy": policy,
            "files": {
                path: files[path].to_doc() for path in sorted(files)
            },
            "project": project.to_doc() if project is not None else None,
        }
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        atomic_write(
            self.path,
            json.dumps(doc, separators=(",", ":"), sort_keys=True).encode("utf-8"),
        )
        self._valid_for = (engine, policy)
        self._files = dict(files)
        self._project = project
