"""Project-wide symbol table and call graph for whole-program rules.

The per-file rule packs see one module at a time, so a helper that
returns ``time.time()`` is invisible once it is called from a reducer
two modules away.  This module builds the shared substrate the
interprocedural passes (``taint.py``, ``rules_concurrency.py``) run on:

* :class:`ProjectIndex` — every module, class, and function in the
  scanned tree, with alias/re-export resolution and a base-class map;
* :class:`ProjectGraph` — the call graph over those functions, binding
  ``foo()``, ``mod.foo()``, ``self.method()``, constructor calls, and
  calls through parameters annotated with project classes;
* reachability with parent chains, so findings can print the full
  ``sink -> helper -> source`` path a reviewer would otherwise have to
  reconstruct by hand.

Binding is deliberately conservative and purely syntactic: dynamic
dispatch through untyped values, ``getattr``, or callables stored in
containers resolves to nothing (and therefore never *adds* findings).
That under-approximation is the right polarity for the taint pass —
an edge we miss can only hide a hazard, never invent one, and the
fixtures in ``tests/lint/test_callgraph.py`` pin the cases we promise
to see.
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.core import FileContext

#: Re-export chains longer than this are cut off (cycles aside, real
#: code never forwards a name through more than a couple of modules).
_MAX_REEXPORT_HOPS = 8


def module_name(rel_path: str) -> str:
    """Dotted module identity of a scan-relative path.

    ``fleet/work.py`` -> ``fleet.work``; package ``__init__`` files
    collapse onto the package (``registry/__init__.py`` ->
    ``registry``); a top-level ``__init__.py`` becomes ``""``.
    """
    dotted = rel_path[: -len(".py")].replace("/", ".")
    if dotted.endswith(".__init__"):
        return dotted[: -len(".__init__")]
    if dotted == "__init__":
        return ""
    return dotted


@dataclass
class FunctionInfo:
    """One module-level function or class method."""

    qualname: str
    module: str
    name: str
    class_name: Optional[str]
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ctx: FileContext


@dataclass
class ClassInfo:
    """One class definition and its directly-declared methods."""

    qualname: str
    module: str
    name: str
    node: ast.ClassDef
    ctx: FileContext
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """One parsed module's top-level symbols."""

    name: str
    ctx: FileContext
    functions: Dict[str, FunctionInfo] = field(default_factory=dict)
    classes: Dict[str, ClassInfo] = field(default_factory=dict)


Symbol = Union[FunctionInfo, ClassInfo]


class ProjectIndex:
    """Symbol table over every parsed file in the run.

    Modules register under their scan-relative dotted name and, when
    not already so prefixed, under ``repro.<name>``, so the table works
    whether the linter was pointed at ``src``, ``src/repro``, or a
    fixture tree mimicking the package layout. The pickling trace
    resolves payload classes through it too.
    """

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self._modules: Dict[str, ModuleInfo] = {}
        self.modules: List[ModuleInfo] = []
        for ctx in sorted(contexts, key=lambda c: c.rel_path):
            if not ctx.rel_path.endswith(".py"):
                continue
            info = self._index_module(ctx)
            self.modules.append(info)
            self._modules.setdefault(info.name, info)
            if info.name and not info.name.startswith("repro."):
                self._modules.setdefault(f"repro.{info.name}", info)
            elif not info.name:
                self._modules.setdefault("repro", info)

    @staticmethod
    def _index_module(ctx: FileContext) -> ModuleInfo:
        name = module_name(ctx.rel_path)
        info = ModuleInfo(name=name, ctx=ctx)
        prefix = f"{name}." if name else ""
        for node in ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.functions[node.name] = FunctionInfo(
                    qualname=f"{prefix}{node.name}",
                    module=name,
                    name=node.name,
                    class_name=None,
                    node=node,
                    ctx=ctx,
                )
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    qualname=f"{prefix}{node.name}",
                    module=name,
                    name=node.name,
                    node=node,
                    ctx=ctx,
                )
                for stmt in node.body:
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        cls.methods[stmt.name] = FunctionInfo(
                            qualname=f"{cls.qualname}.{stmt.name}",
                            module=name,
                            name=stmt.name,
                            class_name=node.name,
                            node=stmt,
                            ctx=ctx,
                        )
                info.classes[node.name] = cls
        return info

    def module(self, name: str) -> Optional[ModuleInfo]:
        """The module registered under ``name``, or ``None``."""
        info = self._modules.get(name)
        if info is None and name.startswith("repro."):
            info = self._modules.get(name[len("repro."):])
        return info

    def resolve_member(self, module: str, name: str) -> Optional[Symbol]:
        """``from <module> import <name>`` resolved to its definition.

        Follows re-export chains (a package ``__init__`` forwarding a
        symbol it itself imported) up to :data:`_MAX_REEXPORT_HOPS`.
        """
        seen: Set[Tuple[str, str]] = set()
        for _ in range(_MAX_REEXPORT_HOPS):
            if (module, name) in seen:
                return None
            seen.add((module, name))
            info = self.module(module)
            if info is None:
                return None
            if name in info.functions:
                return info.functions[name]
            if name in info.classes:
                return info.classes[name]
            forwarded = info.ctx.imports.members.get(name)
            if forwarded is None:
                # ``from X import Y`` where Y is X's submodule rather
                # than a symbol: nothing further to follow here.
                return None
            module, name = forwarded
        return None

    def resolve_dotted(self, dotted: str) -> Optional[Symbol]:
        """A fully-dotted reference (``pkg.mod.func``) to its symbol.

        Splits on the longest registered module prefix, so
        ``fleet.work.run_shard`` finds module ``fleet.work`` even
        though ``fleet`` is also a registered (package) module.
        """
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            info = self.module(".".join(parts[:cut]))
            if info is None:
                continue
            member = parts[cut]
            remainder = parts[cut + 1:]
            symbol: Optional[Symbol]
            symbol = info.functions.get(member) or info.classes.get(member)
            if symbol is None:
                symbol = self.resolve_member(info.name, member)
            if symbol is None:
                continue
            if not remainder:
                return symbol
            if isinstance(symbol, ClassInfo) and len(remainder) == 1:
                return self.method_on(symbol, remainder[0])
        return None

    def class_by_spec(self, spec: str) -> Optional[ClassInfo]:
        """``rel/path.py::ClassName`` (config format) to its ClassInfo."""
        rel_suffix, _, class_name = spec.partition("::")
        rel_suffix = rel_suffix.removeprefix("repro/")
        for info in self.modules:
            if info.ctx.rel_path.removeprefix("repro/") != rel_suffix:
                continue
            found = info.classes.get(class_name)
            if found is not None:
                return found
        return None

    def function_by_spec(self, spec: str) -> Optional[FunctionInfo]:
        """``rel/path.py::func`` or ``rel/path.py::Class.method``."""
        rel_suffix, _, name = spec.partition("::")
        rel_suffix = rel_suffix.removeprefix("repro/")
        class_name, _, method = name.partition(".")
        for info in self.modules:
            if info.ctx.rel_path.removeprefix("repro/") != rel_suffix:
                continue
            if method:
                cls = info.classes.get(class_name)
                if cls is not None and method in cls.methods:
                    return cls.methods[method]
            elif name in info.functions:
                return info.functions[name]
        return None

    # -- class hierarchy ---------------------------------------------------

    def base_classes(self, cls: ClassInfo) -> List[ClassInfo]:
        """Directly-declared bases resolvable inside the project."""
        out: List[ClassInfo] = []
        module = self.module(cls.module) or ModuleInfo(cls.module, cls.ctx)
        for base in cls.node.bases:
            resolved = self._resolve_class_expr(base, module)
            if resolved is not None:
                out.append(resolved)
        return out

    def _resolve_class_expr(
        self, node: ast.expr, module: ModuleInfo
    ) -> Optional[ClassInfo]:
        if isinstance(node, ast.Subscript):
            # ``Accumulator[FleetTotals]`` — the generic parametrisation
            # is irrelevant to dispatch.
            return self._resolve_class_expr(node.value, module)
        if isinstance(node, ast.Name):
            local = module.classes.get(node.id)
            if local is not None:
                return local
            member = module.ctx.imports.members.get(node.id)
            if member is not None:
                symbol = self.resolve_member(member[0], member[1])
                if isinstance(symbol, ClassInfo):
                    return symbol
            return None
        if isinstance(node, ast.Attribute):
            dotted = module.ctx.imports.resolve(node)
            if dotted is not None:
                symbol = self.resolve_dotted(dotted)
                if isinstance(symbol, ClassInfo):
                    return symbol
        return None

    def method_on(self, cls: ClassInfo, name: str) -> Optional[FunctionInfo]:
        """Method lookup through the resolvable part of the MRO (BFS)."""
        queue: List[ClassInfo] = [cls]
        seen: Set[str] = set()
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if name in current.methods:
                return current.methods[name]
            queue.extend(self.base_classes(current))
        return None

    def subclasses_of(self, base: ClassInfo) -> List[ClassInfo]:
        """Every project class inheriting (transitively) from ``base``."""
        out: List[ClassInfo] = []
        for info in self.modules:
            for cls in info.classes.values():
                if cls.qualname == base.qualname:
                    continue
                if self._inherits(cls, base):
                    out.append(cls)
        return out

    def _inherits(self, cls: ClassInfo, base: ClassInfo) -> bool:
        queue = self.base_classes(cls)
        seen: Set[str] = set()
        while queue:
            current = queue.pop(0)
            if current.qualname in seen:
                continue
            seen.add(current.qualname)
            if current.qualname == base.qualname:
                return True
            queue.extend(self.base_classes(current))
        return False


@dataclass(frozen=True)
class CallEdge:
    """One resolved call site."""

    caller: str
    callee: str
    line: int
    column: int


@dataclass(frozen=True)
class Instantiation:
    """One resolved constructor call."""

    caller: str
    class_qualname: str
    line: int
    column: int


class ProjectGraph:
    """The call graph over a :class:`ProjectIndex`."""

    def __init__(self, contexts: Sequence[FileContext]) -> None:
        self.index = ProjectIndex(contexts)
        #: qualname -> FunctionInfo for every function in the project.
        self.functions: Dict[str, FunctionInfo] = {}
        #: caller qualname -> resolved outgoing call edges, code order.
        self.calls: Dict[str, List[CallEdge]] = {}
        #: caller qualname -> project classes it constructs.
        self.instantiations: Dict[str, List[Instantiation]] = {}
        for info in self.index.modules:
            for fn in info.functions.values():
                self._add_function(fn, info, None)
            for cls in info.classes.values():
                for method in cls.methods.values():
                    self._add_function(method, info, cls)

    # -- construction ------------------------------------------------------

    def _add_function(
        self,
        fn: FunctionInfo,
        module: ModuleInfo,
        enclosing: Optional[ClassInfo],
    ) -> None:
        self.functions[fn.qualname] = fn
        edges: List[CallEdge] = []
        constructed: List[Instantiation] = []
        local_types = self._local_types(fn, module, enclosing)
        for node in ast.walk(fn.node):
            if not isinstance(node, ast.Call):
                continue
            symbol = self._resolve_callable(
                node.func, module, enclosing, local_types
            )
            if symbol is None:
                continue
            if isinstance(symbol, FunctionInfo):
                edges.append(CallEdge(
                    caller=fn.qualname,
                    callee=symbol.qualname,
                    line=node.lineno,
                    column=node.col_offset,
                ))
            else:
                constructed.append(Instantiation(
                    caller=fn.qualname,
                    class_qualname=symbol.qualname,
                    line=node.lineno,
                    column=node.col_offset,
                ))
                init = self.index.method_on(symbol, "__init__")
                if init is not None:
                    edges.append(CallEdge(
                        caller=fn.qualname,
                        callee=init.qualname,
                        line=node.lineno,
                        column=node.col_offset,
                    ))
        self.calls[fn.qualname] = edges
        self.instantiations[fn.qualname] = constructed

    def _local_types(
        self,
        fn: FunctionInfo,
        module: ModuleInfo,
        enclosing: Optional[ClassInfo],
    ) -> Dict[str, ClassInfo]:
        """Names with a statically-known project class: ``self``,
        parameters annotated with a project class, and locals assigned
        a constructor call."""
        types: Dict[str, ClassInfo] = {}
        if enclosing is not None and fn.node.args.args:
            types[fn.node.args.args[0].arg] = enclosing
        for arg in list(fn.node.args.args) + list(fn.node.args.kwonlyargs):
            if arg.annotation is None:
                continue
            resolved = self._annotation_class(arg.annotation, module)
            if resolved is not None:
                types[arg.arg] = resolved
        for node in ast.walk(fn.node):
            target: Optional[ast.expr] = None
            value: Optional[ast.expr] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            if not isinstance(target, ast.Name) or not isinstance(value, ast.Call):
                continue
            symbol = self._resolve_callable(value.func, module, enclosing, {})
            if isinstance(symbol, ClassInfo):
                types[target.id] = symbol
        return types

    def _annotation_class(
        self, node: ast.expr, module: ModuleInfo
    ) -> Optional[ClassInfo]:
        """A parameter annotation's project class, seeing through
        ``Optional[...]``/quoted forms; ``None`` for everything else."""
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                node = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(node, ast.Subscript):
            head = node.value
            head_name = head.attr if isinstance(head, ast.Attribute) else (
                head.id if isinstance(head, ast.Name) else None
            )
            if head_name == "Optional":
                return self._annotation_class(node.slice, module)
            return None
        return self.index._resolve_class_expr(node, module)

    def _resolve_callable(
        self,
        func: ast.expr,
        module: ModuleInfo,
        enclosing: Optional[ClassInfo],
        local_types: Dict[str, ClassInfo],
    ) -> Optional[Symbol]:
        if isinstance(func, ast.Name):
            name = func.id
            if name in local_types:
                return None  # an instance; calling it is __call__, unbound
            if name in module.functions:
                return module.functions[name]
            if name in module.classes:
                return module.classes[name]
            member = module.ctx.imports.members.get(name)
            if member is not None:
                return self.index.resolve_member(member[0], member[1])
            return None
        if isinstance(func, ast.Attribute):
            base = func.value
            if isinstance(base, ast.Name):
                owner = local_types.get(base.id)
                if owner is not None:
                    return self.index.method_on(owner, func.attr)
            dotted = module.ctx.imports.resolve(func)
            if dotted is not None:
                return self.index.resolve_dotted(dotted)
        return None

    # -- queries -----------------------------------------------------------

    def callees(self, qualname: str) -> List[CallEdge]:
        """Outgoing resolved call edges of one function."""
        return self.calls.get(qualname, [])

    def reachable_from(
        self, roots: Sequence[str]
    ) -> Dict[str, Optional[CallEdge]]:
        """Functions reachable from ``roots``, with BFS parent edges.

        The returned map's keys are reachable qualnames; each value is
        the edge through which BFS first discovered it (``None`` for a
        root).  :func:`call_chain` turns that into a printable path.
        """
        parents: Dict[str, Optional[CallEdge]] = {}
        queue: List[str] = []
        for root in sorted(set(roots)):
            if root in self.functions and root not in parents:
                parents[root] = None
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for edge in self.calls.get(current, []):
                if edge.callee in parents or edge.callee not in self.functions:
                    continue
                parents[edge.callee] = edge
                queue.append(edge.callee)
        return parents

    def call_chain(
        self, parents: Dict[str, Optional[CallEdge]], target: str
    ) -> List[str]:
        """Root-to-target qualname path from a ``reachable_from`` map."""
        chain: List[str] = [target]
        seen: Set[str] = {target}
        edge = parents.get(target)
        while edge is not None:
            if edge.caller in seen:  # pragma: no cover - defensive
                break
            chain.append(edge.caller)
            seen.add(edge.caller)
            edge = parents.get(edge.caller)
        chain.reverse()
        return chain


def resolve_method_roots(
    index: ProjectIndex, specs: Sequence[str]
) -> Set[str]:
    """Qualnames for ``rel/path.py::Class.method`` specs, including the
    overrides every project subclass declares for the same method."""
    roots: Set[str] = set()
    for spec in specs:
        fn = index.function_by_spec(spec)
        if fn is None:
            continue
        roots.add(fn.qualname)
        rel, _, name = spec.partition("::")
        class_name, _, method = name.partition(".")
        if not method:
            continue
        base = index.class_by_spec(f"{rel}::{class_name}")
        if base is None:
            continue
        for sub in index.subclasses_of(base):
            override = sub.methods.get(method)
            if override is not None:
                roots.add(override.qualname)
    return roots


# -- shared syntactic helpers ----------------------------------------------


def iter_return_values(
    fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]
) -> Iterator[ast.expr]:
    """Non-``None`` return expressions of ``fn`` (nested defs excluded).

    Returns only live in statements, so walking the statement tree —
    skipping nested function/class bodies, whose returns belong to
    them — finds every one.
    """
    stack: List[ast.stmt] = list(fn.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if isinstance(node, ast.Return):
            if node.value is not None:
                yield node.value
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                stack.append(child)


def local_function_defs(
    fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]
) -> Set[str]:
    """Names of functions defined inside ``fn``'s body."""
    return {
        node.name
        for node in ast.walk(fn)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node is not fn
    }


# -- memoized construction -------------------------------------------------

_GRAPH_CACHE: Dict[str, ProjectGraph] = {}


def _contexts_key(contexts: Sequence[FileContext]) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for ctx in sorted(contexts, key=lambda c: c.path):
        digest.update(ctx.path.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(ctx.source.encode("utf-8"))
        digest.update(b"\x01")
    return digest.hexdigest()


def project_graph(contexts: Sequence[FileContext]) -> ProjectGraph:
    """Build (or reuse) the call graph for one set of parsed files.

    Several project-scope rules run over the same contexts in one lint
    invocation; the graph is content-keyed so they share a single
    build, while edited files (different bytes) can never alias a
    stale graph.  Only the most recent graph is retained.
    """
    key = _contexts_key(contexts)
    cached = _GRAPH_CACHE.get(key)
    if cached is not None:
        return cached
    graph = ProjectGraph(contexts)
    _GRAPH_CACHE.clear()
    _GRAPH_CACHE[key] = graph
    return graph
