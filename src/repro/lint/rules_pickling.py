"""Pickling-safety rules for fleet process-boundary payloads.

:class:`~repro.fleet.executors.QueueFleetExecutor` ships
:class:`~repro.fleet.work.ShardTask` out and
:class:`~repro.fleet.work.ShardResult` back via ``pickle``.  A lambda,
a locally-defined function, or an open OS handle stored on any class
reachable from those payloads turns into a runtime ``PicklingError`` —
but only on ``--jobs > 1`` runs, which is why a static trace is worth
having.  This rule rebuilds the payload closure the way a reviewer
would: start at the configured root classes, follow the dataclass
field annotations through the import graph, and audit every class the
payload can transitively hold.  A closure that arrives through a
helper (``self.on_event = make_handler()``) is caught too: the call
graph proves, by fixpoint over return statements, which functions
return a lambda or a nested function.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.lint.callgraph import (
    ClassInfo,
    FunctionInfo,
    ProjectGraph,
    ProjectIndex,
    Symbol,
    functions_returning,
    local_function_defs,
    project_graph,
)
from repro.lint.core import FileContext, Finding, Rule, register_rule

#: Constructors whose results hold OS or thread state that ``pickle``
#: rejects (or silently resurrects wrongly) across a process boundary.
_HANDLE_ORIGINS = frozenset({
    "threading.Lock",
    "threading.RLock",
    "threading.Condition",
    "threading.Event",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "socket.socket",
})

_STREAM_ORIGINS = frozenset({"sys.stdout", "sys.stderr", "sys.stdin"})


#: Typing scaffolding and builtin containers: these name *shapes*, not
#: payload classes, and must never be looked up as project symbols (a
#: project class that happens to be called ``Set`` would otherwise be
#: shadowed by the wrapper).
_TYPING_WRAPPERS = frozenset({
    "Optional", "Union", "Any", "ClassVar", "Final", "Annotated",
    "Literal", "List", "Sequence", "MutableSequence", "Tuple", "Dict",
    "Mapping", "MutableMapping", "OrderedDict", "DefaultDict",
    "Counter", "Deque", "Set", "FrozenSet", "AbstractSet",
    "MutableSet", "Iterable", "Iterator", "Generator", "Type",
    "Callable", "list", "dict", "set", "frozenset", "tuple", "type",
    "None",
})

#: Generic heads whose arguments are *not* stored instance state and
#: therefore end the trace: ``ClassVar`` fields never pickle with the
#: instance, ``Type[X]``/``Literal`` hold references and values, and a
#: ``Callable`` annotation's signature classes are never stored.
_OPAQUE_HEADS = frozenset({"ClassVar", "Literal", "Type", "Callable"})

#: A class reference from an annotation: ``("bare", "SnipTable")`` for
#: a plain name, ``("dotted", "repro.core.table.SnipTable")`` for an
#: attribute reference already resolved through the import map.
_ClassRef = Tuple[str, str]


def _head_name(node: ast.expr) -> Optional[str]:
    """The identifier a generic subscription is applied to."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _annotation_refs(node: ast.expr, ctx: FileContext) -> List[_ClassRef]:
    """Candidate class references stored by a field annotation.

    Walks the annotation *structurally* instead of collecting every
    identifier: ``Optional[X]``, ``Sequence[X]``, ``Mapping[K, V]``,
    PEP 604 ``X | None``, ``Annotated[X, ...]``, and quoted forward
    references all reduce to the payload classes they can actually
    store, while typing wrappers, ``Literal`` values, ``ClassVar``
    scaffolding, and ``Callable`` signatures contribute nothing.
    Dotted references (``work.ShardResult``) resolve through the
    import map so the trace follows them across modules.
    """
    refs: List[_ClassRef] = []
    if isinstance(node, ast.Constant):
        if isinstance(node.value, str):
            # Quoted forward reference: re-parse and recurse.
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                return []
            return _annotation_refs(quoted.body, ctx)
        return []  # None / Ellipsis / literal values
    if isinstance(node, ast.Name):
        if node.id in _TYPING_WRAPPERS:
            return []
        return [("bare", node.id)]
    if isinstance(node, ast.Attribute):
        if node.attr in _TYPING_WRAPPERS:
            return []
        dotted = ctx.imports.resolve(node)
        if dotted is None:
            return []
        return [("dotted", dotted)]
    if isinstance(node, ast.Subscript):
        head = _head_name(node.value)
        if head in _OPAQUE_HEADS:
            return []
        if head == "Annotated":
            # Annotated[X, metadata...]: only X is the stored type.
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                return _annotation_refs(inner.elts[0], ctx)
            return _annotation_refs(inner, ctx)
        # A parametrised project class (``Holder[int]``) stores state
        # of its own: trace the head as well as the arguments.
        refs.extend(_annotation_refs(node.value, ctx))
        inner = node.slice
        elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
        for element in elements:
            refs.extend(_annotation_refs(element, ctx))
        return refs
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        # PEP 604 union: ``X | None`` / ``X | Y``.
        return (
            _annotation_refs(node.left, ctx)
            + _annotation_refs(node.right, ctx)
        )
    return refs


def _lambda_findings(
    value: ast.expr, ctx: FileContext, class_name: str, where: str
) -> Iterator[Finding]:
    """Findings for lambdas stored (not merely used) in ``value``.

    A ``field(default_factory=lambda: ...)`` is exempt: the factory
    runs at ``__init__`` time and only its *result* lands on the
    instance, so the payload still pickles.
    """
    skip: Set[int] = set()
    for child in ast.walk(value):
        if (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "field"
        ):
            for keyword in child.keywords:
                if keyword.arg == "default_factory":
                    skip.update(id(n) for n in ast.walk(keyword.value))
    for child in ast.walk(value):
        if isinstance(child, ast.Lambda) and id(child) not in skip:
            yield Finding(
                rule_id="pck-lambda",
                path=ctx.path,
                line=child.lineno,
                column=child.col_offset,
                message=f"class {class_name} stores a lambda {where}; "
                f"lambdas cannot cross the worker-process pickle boundary",
            )


def _handle_findings(
    value: ast.expr, ctx: FileContext, class_name: str, where: str
) -> Iterator[Finding]:
    for child in ast.walk(value):
        origin = None
        if isinstance(child, ast.Call):
            if isinstance(child.func, ast.Name) and child.func.id == "open":
                origin = "open(...)"
            else:
                resolved = ctx.imports.resolve(child.func)
                if resolved in _HANDLE_ORIGINS:
                    origin = resolved
        elif isinstance(child, (ast.Attribute, ast.Name)):
            resolved = ctx.imports.resolve(child)
            if resolved in _STREAM_ORIGINS:
                origin = resolved
        if origin:
            yield Finding(
                rule_id="pck-handle",
                path=ctx.path,
                line=child.lineno,
                column=child.col_offset,
                message=f"class {class_name} stores {origin} {where}; "
                f"OS handles cannot cross the worker-process pickle boundary",
            )


def _returns_closure(fn: FunctionInfo, values: List[ast.expr]) -> bool:
    """Whether ``fn`` returns a lambda or a function defined in its body
    (:func:`~repro.lint.callgraph.functions_returning` adds the
    functions returning a call of such a function)."""
    nested = local_function_defs(fn.node)
    return any(
        isinstance(value, ast.Lambda)
        or (isinstance(value, ast.Name) and value.id in nested)
        for value in values
    )


def _audit_class(
    cls: ClassInfo, graph: ProjectGraph, returns_closure: Set[str]
) -> Iterator[Finding]:
    """Check one payload class for unpicklable stored state."""
    node, ctx = cls.node, cls.ctx
    for stmt in node.body:
        value = None
        if isinstance(stmt, ast.Assign):
            value = stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            value = stmt.value
        if value is not None:
            yield from _lambda_findings(value, ctx, node.name, "as a field default")
            yield from _handle_findings(value, ctx, node.name, "as a field default")
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local_defs = local_function_defs(stmt)
        qualname = f"{cls.qualname}.{stmt.name}"
        for inner in ast.walk(stmt):
            targets: List[ast.expr] = []
            value = None
            if isinstance(inner, ast.Assign):
                targets, value = inner.targets, inner.value
            elif isinstance(inner, ast.AnnAssign) and inner.value is not None:
                targets, value = [inner.target], inner.value
            if value is None or not any(
                isinstance(t, ast.Attribute)
                and isinstance(t.value, ast.Name)
                and t.value.id == "self"
                for t in targets
            ):
                continue
            where = "on an instance attribute"
            yield from _lambda_findings(value, ctx, node.name, where)
            yield from _handle_findings(value, ctx, node.name, where)
            stored: Optional[str] = None
            if isinstance(value, ast.Name) and value.id in local_defs:
                stored = f"locally-defined function {value.id!r}"
            elif isinstance(value, ast.Call):
                callee = graph.callee_at(qualname, value)
                if callee is not None and callee in returns_closure:
                    stored = f"a closure returned by {callee}"
            if stored is not None:
                yield Finding(
                    rule_id="pck-lambda",
                    path=ctx.path,
                    line=value.lineno,
                    column=value.col_offset,
                    message=f"class {node.name} stores {stored} on an "
                    f"instance attribute; lambdas and local functions "
                    f"cannot cross the worker-process pickle boundary",
                )


@register_rule
class PicklingSafetyRule(Rule):
    """Trace fleet payload types and audit every reachable class."""

    id = "pck-payload"
    description = "unpicklable state reachable from fleet payload classes"
    scope = "project"

    #: The sub-rule ids this project rule emits under (suppression and
    #: ``--rules`` filtering treat them as children of ``pck-payload``).
    emits = ("pck-lambda", "pck-handle")

    def check_project(
        self, contexts: Sequence[FileContext]
    ) -> Iterator[Finding]:
        graph = project_graph(contexts)
        index = graph.index
        queue: List[ClassInfo] = []
        for root in self.config.pickle_roots:
            found = index.class_by_spec(root)
            if found is not None:
                queue.append(found)
        if not queue:
            return
        returns_closure = functions_returning(graph, _returns_closure)
        visited: Set[Tuple[str, str]] = set()
        while queue:
            cls = queue.pop()
            key = (cls.ctx.rel_path, cls.name)
            if key in visited:
                continue
            visited.add(key)
            yield from _audit_class(cls, graph, returns_closure)
            queue.extend(_referenced_classes(cls, index))


def _referenced_classes(cls: ClassInfo, index: ProjectIndex) -> List[ClassInfo]:
    """Classes the payload's field annotations reach: a bare name
    resolves in the class's own module (a local class, or an import
    followed through re-exports), a dotted one through the index."""
    out: List[ClassInfo] = []
    for stmt in cls.node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        for kind, ref in _annotation_refs(stmt.annotation, cls.ctx):
            target: Optional[Symbol] = (
                index.resolve_dotted(ref)
                if kind == "dotted"
                else index.resolve_member(cls.module, ref)
            )
            if isinstance(target, ClassInfo):
                out.append(target)
    return out
