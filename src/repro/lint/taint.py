"""Interprocedural nondeterminism-taint pass.

The per-file determinism rules (``rules_determinism.py``) see one
module at a time, so a helper that returns ``time.time()`` stops being
a finding the moment the read moves behind a function call.  This pass
closes that hole over the whole program: it marks **sources** of
nondeterminism inside function bodies, propagates them along the
project call graph, and reports every source a **sink** — code that
feeds the byte-identical artefacts (shard payloads, accumulator folds,
canonical JSON) — can actually reach.

Kinds and their finding ids (the registered rule id is ``det-taint``):

=================  ====================================================
``det-taint-clock``   wall-clock reads (``time.*``, ``datetime.now``)
``det-taint-random``  unseeded global-RNG calls
``det-taint-env``     ``os.environ`` / ``os.getenv`` reads
``det-taint-order``   iteration over sets — literal, set-typed local,
                      or the return value of a set-returning function
``det-taint-id``      ``id(...)`` and object-identity ``hash(...)``
=================  ====================================================

Findings anchor at the **source** site (that is where the fix goes and
where a ``# lint: ignore[det-taint-*]`` must sit), and the message
carries the full sink-to-source call chain so the reader does not have
to rediscover why a deep helper matters.  Messages are line-free, so
an edit elsewhere in a file does not change them.

Dead code is exonerated structurally: a source in a function no sink
reaches is simply never visited.  That asymmetry — sources are cheap
to mark, reachability decides — is what keeps the pass quiet on
utility code while staying loud on the reduction paths.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import (
    FunctionInfo,
    ProjectGraph,
    iter_return_values,
    project_graph,
    resolve_method_roots,
)
from repro.lint.core import FileContext, Finding, Rule, register_rule
from repro.lint.rules_determinism import (
    _ENV_ORIGINS,
    _SEEDED_RANDOM_OK,
    _WALLCLOCK_ORIGINS,
    _is_set_producing,
    set_typed_locals,
)

#: kind -> finding rule id.
TAINT_KINDS: Dict[str, str] = {
    "clock": "det-taint-clock",
    "random": "det-taint-random",
    "env": "det-taint-env",
    "order": "det-taint-order",
    "id": "det-taint-id",
}


@dataclass(frozen=True)
class SourceSite:
    """One nondeterminism source found in a function body."""

    kind: str
    line: int
    column: int
    detail: str


def _returns_set_functions(graph: ProjectGraph) -> Set[str]:
    """Qualnames of functions that (can) return a set.

    Fixpoint over three clauses: a return of a set-producing
    expression, a return of a set-typed local, or a return of a call
    whose callee is itself set-returning.  The last clause is what
    carries taint through return values across modules.
    """
    returns_set: Set[str] = set()
    # Pre-resolve each function's returned call expressions once.
    returned_calls: Dict[str, List[str]] = {}
    for qualname in sorted(graph.functions):
        fn = graph.functions[qualname]
        locals_ = set_typed_locals(fn.node)
        calls: List[str] = []
        for value in iter_return_values(fn.node):
            if _is_set_producing(value):
                returns_set.add(qualname)
            elif isinstance(value, ast.Name) and value.id in locals_:
                returns_set.add(qualname)
            elif isinstance(value, ast.Call):
                callee = _edge_at(graph, qualname, value)
                if callee is not None:
                    calls.append(callee)
        if calls:
            returned_calls[qualname] = calls
    changed = True
    while changed:
        changed = False
        for qualname in sorted(returned_calls):
            if qualname in returns_set:
                continue
            if any(callee in returns_set for callee in returned_calls[qualname]):
                returns_set.add(qualname)
                changed = True
    return returns_set


def _edge_at(graph: ProjectGraph, caller: str, call: ast.Call) -> Optional[str]:
    """The resolved callee of one specific call site, if the graph has it."""
    for edge in graph.callees(caller):
        if edge.line == call.lineno and edge.column == call.col_offset:
            return edge.callee
    return None


def _function_sources(
    fn: FunctionInfo,
    graph: ProjectGraph,
    returns_set: Set[str],
) -> List[SourceSite]:
    """Every direct nondeterminism source in ``fn``'s body."""
    sites: List[SourceSite] = []
    imports = fn.ctx.imports

    def call_returns_set(call: ast.Call) -> bool:
        callee = _edge_at(graph, fn.qualname, call)
        return callee is not None and callee in returns_set

    locals_ = set_typed_locals(fn.node, call_returns_set=call_returns_set)
    in_hash_dunder = fn.name == "__hash__"
    for node in ast.walk(fn.node):
        if isinstance(node, (ast.Attribute, ast.Name)):
            origin = imports.resolve(node)
            if origin in _WALLCLOCK_ORIGINS:
                sites.append(SourceSite(
                    "clock", node.lineno, node.col_offset,
                    f"wall-clock read of {origin}",
                ))
            elif origin in _ENV_ORIGINS:
                sites.append(SourceSite(
                    "env", node.lineno, node.col_offset,
                    f"environment read via {origin}",
                ))
        if isinstance(node, ast.Call):
            origin = imports.resolve(node.func)
            if (
                origin is not None
                and origin not in _SEEDED_RANDOM_OK
                and (
                    origin.startswith("random.")
                    or origin.startswith("numpy.random.")
                )
            ):
                sites.append(SourceSite(
                    "random", node.lineno, node.col_offset,
                    f"unseeded global-RNG call {origin}",
                ))
            if isinstance(node.func, ast.Name):
                if node.func.id == "id" and node.args:
                    sites.append(SourceSite(
                        "id", node.lineno, node.col_offset,
                        "object identity via id(...)",
                    ))
                elif (
                    node.func.id == "hash"
                    and node.args
                    and not in_hash_dunder
                ):
                    sites.append(SourceSite(
                        "id", node.lineno, node.col_offset,
                        "salted/object hash via hash(...)",
                    ))
        iter_expr: Optional[ast.expr] = None
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iter_expr = node.iter
        elif isinstance(node, ast.comprehension):
            iter_expr = node.iter
        if iter_expr is not None:
            ordered = False
            what = ""
            if _is_set_producing(iter_expr):
                ordered, what = True, "a set expression"
            elif isinstance(iter_expr, ast.Name) and iter_expr.id in locals_:
                ordered, what = True, f"set-typed local {iter_expr.id!r}"
            elif isinstance(iter_expr, ast.Call) and call_returns_set(iter_expr):
                callee = _edge_at(graph, fn.qualname, iter_expr)
                ordered, what = True, f"set returned by {callee}"
            if ordered:
                sites.append(SourceSite(
                    "order", iter_expr.lineno, iter_expr.col_offset,
                    f"unordered iteration over {what}",
                ))
    sites.sort(key=lambda s: (s.line, s.column, s.kind, s.detail))
    return sites


@register_rule
class DeterminismTaintRule(Rule):
    """Whole-program taint: nondeterminism sources reaching fleet sinks.

    Sinks come from :class:`~repro.lint.core.LintConfig`:

    * ``taint_sink_functions`` — canonical-serialisation bodies
      (``FleetReport.to_dict``/``to_json``, registry state);
    * ``taint_sink_classes`` — payload classes crossing the process
      boundary; any function constructing one is a sink;
    * ``taint_sink_methods`` — accumulator fold methods, including
      every subclass override.
    """

    id = "det-taint"
    description = (
        "nondeterminism source reaching a determinism sink "
        "through the call graph"
    )
    scope = "project"
    emits = tuple(TAINT_KINDS[kind] for kind in sorted(TAINT_KINDS))

    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        graph = project_graph(contexts)
        sink_roots = self._sink_roots(graph)
        if not sink_roots:
            return
        parents = graph.reachable_from(sorted(sink_roots))
        returns_set = _returns_set_functions(graph)
        best: Dict[Tuple[str, str, int, int], Tuple[List[str], SourceSite, FunctionInfo]] = {}
        for qualname in sorted(parents):
            fn = graph.functions[qualname]
            sources = _function_sources(fn, graph, returns_set)
            if not sources:
                continue
            chain = graph.call_chain(parents, qualname)
            for site in sources:
                key = (site.kind, fn.ctx.path, site.line, site.column)
                prior = best.get(key)
                if prior is None or len(chain) < len(prior[0]):
                    best[key] = (chain, site, fn)
        for key in sorted(best):
            chain, site, fn = best[key]
            sink = chain[0]
            path = " -> ".join(chain)
            suffix = "" if len(chain) == 1 else f" via {path}"
            yield Finding(
                rule_id=TAINT_KINDS[site.kind],
                path=fn.ctx.path,
                line=site.line,
                column=site.column,
                message=(
                    f"{site.detail} reaches determinism sink {sink}{suffix}"
                ),
            )

    def _sink_roots(self, graph: ProjectGraph) -> Set[str]:
        """Resolve the configured sink specs against this project."""
        roots: Set[str] = set()
        index = graph.index
        for spec in self.config.taint_sink_functions:
            fn = index.function_by_spec(spec)
            if fn is not None:
                roots.add(fn.qualname)
        roots |= resolve_method_roots(index, self.config.taint_sink_methods)
        for spec in self.config.taint_sink_classes:
            cls = index.class_by_spec(spec)
            if cls is None:
                continue
            for caller in sorted(graph.instantiations):
                for inst in graph.instantiations[caller]:
                    if inst.class_qualname == cls.qualname:
                        roots.add(caller)
        return roots
