"""Concurrency rule over the project call graph.

The streaming engine runs ``run_shard`` inside pool workers:
anything it reaches executes under fork/spawn.  One hazard survives
the per-file rule packs because it needs the call graph to even see:

* ``conc-global-mutation`` — a worker-reachable function mutating
  module-level state.  Each worker mutates its *own copy*, the parent
  never sees it, and ``--jobs 1`` silently disagrees with ``--jobs 4``.

The two other worker-boundary hazards each have one owner: a closure
stored on a payload class is a ``pck-lambda`` of ``pck-payload``
(``rules_pickling.py``), and iteration in hash or OS order on the
reducer fold surface is a ``det-taint-order`` of ``det-taint``
(``taint.py``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set

from repro.lint.callgraph import FunctionInfo, ProjectGraph, project_graph
from repro.lint.core import FileContext, Finding, Rule, register_rule

#: Methods that mutate their receiver in place.
_MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear",
    "appendleft", "extendleft",
})


def _module_level_names(ctx: FileContext) -> Set[str]:
    """Names bound by assignment at a module's top level."""
    names: Set[str] = set()
    for node in ctx.tree.body:
        targets: List[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            for inner in ast.walk(target):
                if isinstance(inner, ast.Name):
                    names.add(inner.id)
    return names


def _chain_suffix(graph: ProjectGraph, parents: Dict[str, Optional[object]], qualname: str) -> str:
    chain = graph.call_chain(parents, qualname)  # type: ignore[arg-type]
    if len(chain) == 1:
        return ""
    return f" (worker path: {' -> '.join(chain)})"


@register_rule
class GlobalMutationRule(Rule):
    """No module-level state mutation anywhere a worker can reach.

    Workers are forked/spawned copies: a global a worker mutates is
    updated in the child and silently unchanged in the parent, so the
    mutation "works" serially and vanishes under ``--jobs N``.  State
    that must travel between processes belongs in the payload or the
    result, never in a module.
    """

    id = "conc-global-mutation"
    description = "worker-reachable function mutates module-level state"
    scope = "project"

    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        graph = project_graph(contexts)
        roots = {
            fn.qualname
            for spec in self.config.worker_roots
            for fn in [graph.index.function_by_spec(spec)]
            if fn is not None
        }
        if not roots:
            return
        parents = graph.reachable_from(sorted(roots))
        module_names: Dict[str, Set[str]] = {}
        for qualname in sorted(parents):
            fn = graph.functions[qualname]
            if fn.ctx.path not in module_names:
                module_names[fn.ctx.path] = _module_level_names(fn.ctx)
            suffix = _chain_suffix(graph, parents, qualname)
            for finding in self._mutations(fn, module_names[fn.ctx.path]):
                yield Finding(
                    rule_id=self.id,
                    path=finding.path,
                    line=finding.line,
                    column=finding.column,
                    message=finding.message + suffix,
                )

    def _mutations(
        self, fn: FunctionInfo, module_names: Set[str]
    ) -> Iterator[Finding]:
        declared_global: Set[str] = set()
        locals_: Set[str] = {
            arg.arg
            for arg in (
                list(fn.node.args.posonlyargs)
                + list(fn.node.args.args)
                + list(fn.node.args.kwonlyargs)
            )
        }
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.For)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    for inner in ast.walk(target):
                        if isinstance(inner, ast.Name):
                            locals_.add(inner.id)
        for node in ast.walk(fn.node):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    name = self._rebound_global(
                        target, declared_global, module_names, locals_
                    )
                    if name is not None:
                        yield Finding(
                            rule_id=self.id,
                            path=fn.ctx.path,
                            line=node.lineno,
                            column=node.col_offset,
                            message=f"{fn.qualname} writes module-level "
                            f"state {name!r} inside a worker",
                        )
            elif isinstance(node, ast.Call):
                name = self._mutating_call(node, module_names, locals_)
                if name is not None:
                    yield Finding(
                        rule_id=self.id,
                        path=fn.ctx.path,
                        line=node.lineno,
                        column=node.col_offset,
                        message=f"{fn.qualname} mutates module-level "
                        f"container {name!r} inside a worker",
                    )

    @staticmethod
    def _rebound_global(
        target: ast.expr,
        declared_global: Set[str],
        module_names: Set[str],
        locals_: Set[str],
    ) -> Optional[str]:
        if isinstance(target, ast.Name) and target.id in declared_global:
            return target.id
        if isinstance(target, ast.Subscript) and isinstance(
            target.value, ast.Name
        ):
            name = target.value.id
            if name in module_names and name not in locals_:
                return name
        return None

    @staticmethod
    def _mutating_call(
        node: ast.Call, module_names: Set[str], locals_: Set[str]
    ) -> Optional[str]:
        func = node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in _MUTATOR_METHODS
            and isinstance(func.value, ast.Name)
        ):
            name = func.value.id
            if name in module_names and name not in locals_:
                return name
        return None
