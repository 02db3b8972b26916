"""Analysis framework for the :mod:`repro.lint` rule packs.

The linter exists because the fleet engine's byte-identical-report
contract (see ``docs/INTERNALS.md`` §Determinism contract) is too easy
to break silently: one ``time.time()`` in an aggregation path or one
iteration over an unsorted ``set`` survives every test that happens not
to exercise it.  This module supplies the machinery the rules share:

* :class:`Finding` — one diagnostic;
* :class:`Rule` — the per-file / whole-project rule interface plus the
  ``@register_rule`` registry;
* :class:`FileContext` — a parsed source file (AST, lines, import map,
  suppression table) handed to every rule;
* suppression parsing for ``# lint: ignore[rule-id]`` (same line) and
  ``# lint: ignore-file[rule-id]`` (whole file).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Type

from repro.errors import LintError

#: Matches the ``lint: ignore`` / ``lint: ignore[a, b]`` comment forms
#: and the file-scoped ``lint: ignore-file[a]`` variant (each written
#: after a ``#`` in real code — spelling them out here would register
#: this very comment as a suppression).  The bracket list is optional
#: for the inline form (bare ``ignore`` silences every rule on the
#: line); ``ignore-file`` requires explicit rule ids so a whole file
#: can never be silenced wholesale by accident.
_SUPPRESS_RE = re.compile(
    r"#\s*lint:\s*(?P<scope>ignore-file|ignore)\s*(?:\[(?P<rules>[^\]]*)\])?"
)

#: Sentinel rule-id set meaning "every rule" for a bare inline ignore.
ALL_RULES = "*"


@dataclass(frozen=True)
class Finding:
    """One diagnostic emitted by a rule."""

    rule_id: str
    path: str
    line: int
    column: int
    message: str

    @property
    def location(self) -> str:
        """Clickable ``file:line`` form used by the text reporter."""
        return f"{self.path}:{self.line}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        """Canonical report order: path, then position, then rule."""
        return (self.path, self.line, self.column, self.rule_id)


class Suppressions:
    """Per-file suppression table parsed from magic comments.

    Tokenises rather than scanning raw lines so the magic syntax only
    counts inside real ``#`` comments — a string literal that happens
    to contain the marker (this module has one) must not suppress.
    """

    def __init__(self, source: str) -> None:
        self._by_line: Dict[int, Set[str]] = {}
        self._file_wide: Set[str] = set()
        for lineno, text in self._comments(source):
            match = _SUPPRESS_RE.search(text)
            if not match:
                continue
            raw = match.group("rules")
            rule_ids = {
                chunk.strip() for chunk in (raw or "").split(",") if chunk.strip()
            }
            if match.group("scope") == "ignore-file":
                if not rule_ids:
                    raise LintError(
                        f"line {lineno}: '# lint: ignore-file' requires an "
                        f"explicit rule list, e.g. ignore-file[det-wallclock]"
                    )
                self._file_wide |= rule_ids
            else:
                self._by_line.setdefault(lineno, set()).update(
                    rule_ids or {ALL_RULES}
                )

    @staticmethod
    def _comments(source: str) -> List[Tuple[int, str]]:
        """``(line, text)`` for every ``#`` comment in the source."""
        reader = io.StringIO(source).readline
        out: List[Tuple[int, str]] = []
        try:
            for token in tokenize.generate_tokens(reader):
                if token.type == tokenize.COMMENT:
                    out.append((token.start[0], token.string))
        except (tokenize.TokenError, IndentationError):  # pragma: no cover
            # The caller ast-parsed the file already; tokenize failing
            # afterwards means no further comments, not a lint crash.
            pass
        return out

    def covers(self, rule_id: str, line: int) -> bool:
        """Whether a finding from ``rule_id`` at ``line`` is silenced."""
        if rule_id in self._file_wide:
            return True
        on_line = self._by_line.get(line, ())
        return rule_id in on_line or ALL_RULES in on_line

    def declared_entries(self) -> List[Tuple[Optional[int], str]]:
        """Every suppression entry in the file, sorted.

        Inline entries are ``(line, rule_id)``; file-wide entries are
        ``(None, rule_id)``.  The runner diffs this against the entries
        that actually silenced something to report stale suppressions.
        """
        out: List[Tuple[Optional[int], str]] = [
            (None, rule_id) for rule_id in sorted(self._file_wide)
        ]
        for line in sorted(self._by_line):
            out.extend((line, rule_id) for rule_id in sorted(self._by_line[line]))
        return out

    def covering_entries(
        self, rule_id: str, line: int
    ) -> List[Tuple[Optional[int], str]]:
        """The declared entries that silence ``rule_id`` at ``line``."""
        out: List[Tuple[Optional[int], str]] = []
        if rule_id in self._file_wide:
            out.append((None, rule_id))
        on_line = self._by_line.get(line, ())
        if rule_id in on_line:
            out.append((line, rule_id))
        if ALL_RULES in on_line:
            out.append((line, ALL_RULES))
        return out

    @property
    def file_wide(self) -> Set[str]:
        """Rule ids silenced for the whole file."""
        return set(self._file_wide)


class ImportMap:
    """Resolves local names to the modules/attributes they import.

    Rules match *semantic* targets ("a call of ``time.monotonic``"), so
    they must see through aliases: ``import time as t`` then
    ``t.monotonic()``, or ``from time import monotonic``.
    """

    def __init__(self, tree: ast.Module) -> None:
        #: local alias -> dotted module path (``import numpy as np``).
        self.modules: Dict[str, str] = {}
        #: local name -> (module, original name) for ``from X import Y``.
        self.members: Dict[str, Tuple[str, str]] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.modules[alias.asname or alias.name.split(".")[0]] = (
                        alias.name
                    )
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    self.members[alias.asname or alias.name] = (
                        node.module, alias.name
                    )

    def resolve(self, node: ast.expr) -> Optional[str]:
        """Dotted origin of a Name/Attribute expression, or ``None``.

        ``t.monotonic`` with ``import time as t`` resolves to
        ``"time.monotonic"``; ``monotonic`` after ``from time import
        monotonic`` resolves the same way.  Anything the import map
        cannot see (locals, call results) resolves to ``None``.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        head = node.id
        if head in self.members:
            module, original = self.members[head]
            return ".".join([module, original] + list(reversed(parts)))
        if head in self.modules:
            return ".".join([self.modules[head]] + list(reversed(parts)))
        return None


@dataclass
class FileContext:
    """One parsed source file as seen by every rule."""

    path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions
    imports: ImportMap
    #: Path relative to the scanned root, posix-style — what rules use
    #: for module-identity checks like "is this cli.py".
    rel_path: str

    @property
    def module_basename(self) -> str:
        """File name alone (``cli.py``), for allow-list style rules."""
        return self.rel_path.rsplit("/", 1)[-1]

    @classmethod
    def parse(cls, path: str, source: str, rel_path: str) -> "FileContext":
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            raise LintError(f"{path}: cannot parse: {exc}") from exc
        return cls(
            path=path,
            source=source,
            tree=tree,
            suppressions=Suppressions(source),
            imports=ImportMap(tree),
            rel_path=rel_path,
        )


@dataclass
class LintConfig:
    """Knobs the rule packs read; defaults encode this repo's policy."""

    #: Module basenames allowed to read process environment variables.
    env_allowed_basenames: Tuple[str, ...] = ("cli.py",)
    #: Dotted roots whose reachable payload classes must stay picklable.
    pickle_roots: Tuple[str, ...] = (
        "repro/fleet/work.py::ShardTask",
        "repro/fleet/work.py::ShardResult",
        "repro/analysis/fig12_continuous_learning.py::EpochTask",
        "repro/core/learning.py::EpochResult",
        "repro/core/profiler.py::SnipPackage",
    )
    #: Functions whose bodies are canonical-serialisation sinks for the
    #: interprocedural taint pass (``rel/path.py::func`` or
    #: ``rel/path.py::Class.method``).
    taint_sink_functions: Tuple[str, ...] = (
        "repro/fleet/engine.py::FleetReport.to_dict",
        "repro/fleet/engine.py::FleetReport.to_json",
        "repro/registry/records.py::RegistryState.to_dict",
        # The serve daemon's persisted artifacts: the cycle ledger and
        # the report-queue batches are resume/replay surfaces, so any
        # wall-clock (or other nondeterminism) reaching their
        # serialisers breaks the byte-identical-resume contract.
        "repro/service/ledger.py::CycleLedger.to_dict",
        "repro/service/ledger.py::CycleLedger.to_json",
        "repro/service/ledger.py::CycleLedger.record_stage",
        "repro/service/reports.py::ReportBatch.to_dict",
        "repro/service/reports.py::DeviceReport.to_dict",
    )
    #: Classes whose constructed instances cross the process boundary;
    #: any function instantiating one is a taint sink.
    taint_sink_classes: Tuple[str, ...] = (
        "repro/fleet/work.py::ShardResult",
        "repro/fleet/work.py::DeviceResult",
    )
    #: Methods (including subclass overrides) that fold shard results
    #: into the aggregate report — the reduction sinks.
    taint_sink_methods: Tuple[str, ...] = (
        "repro/fleet/reducers.py::Accumulator.update",
        "repro/fleet/reducers.py::Accumulator.finalize",
    )
    #: Entry points executed inside worker processes; everything they
    #: reach is subject to the concurrency rules.
    worker_roots: Tuple[str, ...] = (
        "repro/fleet/work.py::run_shard",
    )
    #: Identifier suffix -> canonical unit for the units-hygiene rule.
    unit_suffixes: Dict[str, str] = field(default_factory=lambda: {
        "mj": "millijoule",
        "mw": "milliwatt",
        "mah": "milliamp-hour",
        "s": "second",
        "ms": "millisecond",
        "seconds": "second",
        "hours": "hour",
        "joules": "joule",
        "watts": "watt",
        "bytes": "byte",
        "cycles": "cycle",
        "hz": "hertz",
    })


class Rule:
    """One analysis.  Subclasses register with :func:`register_rule`.

    ``scope`` selects the interface the runner calls:

    * ``"file"`` — :meth:`check` once per parsed file;
    * ``"project"`` — :meth:`check_project` once with every file, for
      rules that relate files (registry conformance, pickle tracing).
    """

    id: str = "abstract"
    description: str = ""
    scope: str = "file"
    #: Finding rule-ids this rule emits when they differ from ``id``
    #: (e.g. the taint pass registers as ``det-taint`` but reports
    #: ``det-taint-clock`` findings).  Reporters use this to publish
    #: complete rule metadata; suppressions match the emitted id.
    emits: Tuple[str, ...] = ()

    def __init__(self, config: LintConfig) -> None:
        self.config = config

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file (``scope == "file"``)."""
        raise NotImplementedError  # pragma: no cover - interface

    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        """Yield findings across files (``scope == "project"``)."""
        raise NotImplementedError  # pragma: no cover - interface


#: rule-id -> rule class; populated by the ``@register_rule`` decorator
#: as the rule modules import (see ``repro/lint/__init__.py``).
RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to :data:`RULE_REGISTRY`."""
    if cls.id in RULE_REGISTRY:
        raise LintError(f"duplicate rule id {cls.id!r}")
    if cls.scope not in ("file", "project"):
        raise LintError(f"rule {cls.id!r} has invalid scope {cls.scope!r}")
    RULE_REGISTRY[cls.id] = cls
    return cls


def iter_rule_ids() -> List[str]:
    """Registered rule ids in canonical (sorted) order."""
    return sorted(RULE_REGISTRY)
