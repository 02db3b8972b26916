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
payload can transitively hold.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

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


def _dotted_module(rel_path: str) -> str:
    """``fleet/work.py`` -> ``fleet.work`` (posix rel path assumed)."""
    return rel_path[: -len(".py")].replace("/", ".")


class _ModuleIndex:
    """Resolves dotted module paths to parsed file contexts.

    Registered under both the scan-relative dotted name and its
    ``repro.``-prefixed form, so the trace works whether the linter was
    pointed at ``src``, ``src/repro``, or a test fixture tree that
    mimics the package layout without the top-level package directory.
    """

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self._by_module: Dict[str, FileContext] = {}
        for ctx in contexts:
            if not ctx.rel_path.endswith(".py"):
                continue
            dotted = _dotted_module(ctx.rel_path)
            self._by_module.setdefault(dotted, ctx)
            if not dotted.startswith("repro."):
                self._by_module.setdefault(f"repro.{dotted}", ctx)

    def lookup(self, module: str) -> Optional[FileContext]:
        ctx = self._by_module.get(module)
        if ctx is None and module.startswith("repro."):
            ctx = self._by_module.get(module[len("repro."):])
        return ctx


def _class_defs(ctx: FileContext) -> Dict[str, ast.ClassDef]:
    return {
        node.name: node
        for node in ctx.tree.body
        if isinstance(node, ast.ClassDef)
    }


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


def _audit_class(
    node: ast.ClassDef, ctx: FileContext
) -> Iterator[Finding]:
    """Check one payload class for unpicklable stored state."""
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
        local_defs = {
            inner.name
            for inner in ast.walk(stmt)
            if isinstance(inner, (ast.FunctionDef, ast.AsyncFunctionDef))
            and inner is not stmt
        }
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
            if isinstance(value, ast.Name) and value.id in local_defs:
                yield Finding(
                    rule_id="pck-lambda",
                    path=ctx.path,
                    line=value.lineno,
                    column=value.col_offset,
                    message=f"class {node.name} stores locally-defined "
                    f"function {value.id!r} on an instance attribute; local "
                    f"functions cannot cross the worker-process pickle "
                    f"boundary",
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
        index = _ModuleIndex(contexts)
        queue: List[Tuple[FileContext, ast.ClassDef]] = []
        for root in self.config.pickle_roots:
            rel_suffix, _, class_name = root.partition("::")
            rel_suffix = rel_suffix.removeprefix("repro/")
            for ctx in contexts:
                if ctx.rel_path.removeprefix("repro/") != rel_suffix:
                    continue
                node = _class_defs(ctx).get(class_name)
                if node is not None:
                    queue.append((ctx, node))
        visited: Set[Tuple[str, str]] = set()
        while queue:
            ctx, node = queue.pop()
            key = (ctx.rel_path, node.name)
            if key in visited:
                continue
            visited.add(key)
            yield from _audit_class(node, ctx)
            queue.extend(self._referenced_classes(node, ctx, index))

    def _referenced_classes(
        self, node: ast.ClassDef, ctx: FileContext, index: _ModuleIndex
    ) -> List[Tuple[FileContext, ast.ClassDef]]:
        """Classes the payload's field annotations reach."""
        local = _class_defs(ctx)
        out: List[Tuple[FileContext, ast.ClassDef]] = []
        for stmt in node.body:
            if not isinstance(stmt, ast.AnnAssign):
                continue
            for kind, ref in _annotation_refs(stmt.annotation, ctx):
                if kind == "bare":
                    if ref in local:
                        out.append((ctx, local[ref]))
                        continue
                    member = ctx.imports.members.get(ref)
                    if member is None:
                        continue
                    module, original = member
                    target_ctx = index.lookup(module)
                    if target_ctx is None:
                        continue
                    target = _class_defs(target_ctx).get(original)
                    if target is not None:
                        out.append((target_ctx, target))
                else:
                    resolved = self._resolve_dotted(ref, index)
                    if resolved is not None:
                        out.append(resolved)
        return out

    @staticmethod
    def _resolve_dotted(
        dotted: str, index: _ModuleIndex
    ) -> Optional[Tuple[FileContext, ast.ClassDef]]:
        """``pkg.mod.Class`` -> its definition, longest module prefix
        first (so ``fleet.work.ShardResult`` finds module
        ``fleet.work`` even though ``fleet`` is also a package)."""
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            target_ctx = index.lookup(".".join(parts[:cut]))
            if target_ctx is None:
                continue
            if cut != len(parts) - 1:
                continue  # trailing attribute chain, not a class name
            target = _class_defs(target_ctx).get(parts[-1])
            if target is not None:
                return (target_ctx, target)
        return None
