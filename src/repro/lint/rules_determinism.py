"""Determinism rules: the fleet engine's byte-identical-report contract.

``repro.fleet`` promises that the aggregate report of a fleet run is
identical across ``--jobs`` settings and shard sizes.  Anything that
reads ambient machine state — the wall clock, the process environment,
an unseeded global RNG, or hash-randomised ``set`` iteration order —
can leak into an aggregate and break that promise on exactly the runs
the determinism tests do not cover.  These rules make the hazards
structural: they flag the *pattern*, not the bug it eventually causes.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, List, Optional, Set, Union

from repro.lint.core import FileContext, Finding, ImportMap, Rule, register_rule

#: Wall-clock reads; referencing one (not just calling it) is flagged,
#: because passing ``time.monotonic`` as a default argument smuggles the
#: clock just as effectively as calling it.
_WALLCLOCK_ORIGINS = frozenset({
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
})

#: Constructors on the ``random`` / ``numpy.random`` modules that take an
#: explicit seed and therefore stay reproducible.
_SEEDED_RANDOM_OK = frozenset({
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.Philox",
})

_ENV_ORIGINS = frozenset({"os.environ", "os.getenv", "os.environb"})


def _is_set_producing(node: ast.expr) -> bool:
    """Whether an expression syntactically yields a ``set``.

    Recognises set displays, set comprehensions, ``set(...)`` /
    ``frozenset(...)`` calls, and binary set algebra (``|  & - ^``)
    where either operand is itself set-producing.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_set_producing(node.left) or _is_set_producing(node.right)
    return False


#: Annotation heads that type a name as a set.
_SET_ANNOTATION_NAMES = frozenset({
    "set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet",
})


def sorted_only_clauses(tree: ast.AST, imports: ImportMap) -> Set[ast.comprehension]:
    """Comprehension clauses whose iteration order no result can carry.

    A generator or list comprehension that is the only argument of the
    builtin ``sorted`` (``reverse=`` aside) becomes a list in
    ``sorted``'s order, whatever order its own clauses iterate in. Not
    so with ``key=``: ``sorted`` is stable, so elements with equal keys
    keep the iteration order, and such a call stays reported.
    Comprehensions nested inside the element expression are not exempt.
    """
    clauses: Set[ast.comprehension] = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "sorted"
            and imports.resolve(node.func) is None
            and len(node.args) == 1
            and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
            and all(keyword.arg == "reverse" for keyword in node.keywords)
        ):
            clauses.update(node.args[0].generators)
    return clauses


def _is_set_annotation(node: ast.expr) -> bool:
    """Whether an annotation expression names a set type."""
    if isinstance(node, ast.Subscript):
        return _is_set_annotation(node.value)
    if isinstance(node, ast.Name):
        return node.id in _SET_ANNOTATION_NAMES
    if isinstance(node, ast.Attribute):
        return node.attr in _SET_ANNOTATION_NAMES
    return False


Scope = Union[ast.Module, ast.FunctionDef, ast.AsyncFunctionDef]


def _scope_statements(scope: Scope) -> Iterator[ast.stmt]:
    """Statements belonging to ``scope``, excluding nested def/class
    bodies (those are their own binding scopes)."""
    stack: List[ast.stmt] = list(scope.body)
    while stack:
        node = stack.pop(0)
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt):
                stack.append(child)


def set_typed_locals(
    scope: Scope,
    call_returns_set: Optional[Callable[[ast.Call], bool]] = None,
) -> Set[str]:
    """Names in ``scope`` whose every binding is a set.

    A name qualifies when all of its bindings are set-producing
    expressions, ``Set``-annotated, or (when the caller can resolve
    calls, via ``call_returns_set``) calls of set-returning functions.
    Any binding of unknown type — a loop target, an unpacking, an
    ordinary assignment — disqualifies the name, and ``AugAssign`` is
    neutral (``|=`` does not change what the name holds).  Conservative
    by construction: one doubtful binding and the name drops out.
    """
    set_bound: Set[str] = set()
    disqualified: Set[str] = set()

    def classify(name: str, is_set: bool) -> None:
        (set_bound if is_set else disqualified).add(name)

    def value_is_set(value: Optional[ast.expr]) -> bool:
        if value is None:
            return False
        if _is_set_producing(value):
            return True
        if (
            call_returns_set is not None
            and isinstance(value, ast.Call)
            and call_returns_set(value)
        ):
            return True
        return False

    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if arg.annotation is not None and _is_set_annotation(arg.annotation):
                set_bound.add(arg.arg)
            else:
                disqualified.add(arg.arg)
        for vararg in (args.vararg, args.kwarg):
            if vararg is not None:
                disqualified.add(vararg.arg)

    for node in _scope_statements(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    classify(target.id, value_is_set(node.value))
                else:
                    for inner in ast.walk(target):
                        if isinstance(inner, ast.Name):
                            disqualified.add(inner.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            annotated_set = _is_set_annotation(node.annotation)
            classify(
                node.target.id, annotated_set or value_is_set(node.value)
            )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            for inner in ast.walk(node.target):
                if isinstance(inner, ast.Name):
                    disqualified.add(inner.id)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    for inner in ast.walk(item.optional_vars):
                        if isinstance(inner, ast.Name):
                            disqualified.add(inner.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                disqualified.add(alias.asname or alias.name.split(".")[0])
        # Walrus bindings inside expressions: disqualify their targets.
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                for inner in ast.walk(child):
                    if isinstance(inner, ast.NamedExpr) and isinstance(
                        inner.target, ast.Name
                    ):
                        if not value_is_set(inner.value):
                            disqualified.add(inner.target.id)
                        else:
                            set_bound.add(inner.target.id)
    return set_bound - disqualified


def iter_scopes(tree: ast.Module) -> Iterator[Scope]:
    """The module scope, then every (possibly nested) function scope."""
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


@register_rule
class WallClockRule(Rule):
    """No wall-clock reads inside ``src/repro``.

    Simulated time lives on the SoC (``soc.advance_time``); a real
    clock read in library code either skews an aggregate or hides a
    dependency on host speed.  Telemetry display is the one legitimate
    use — suppress those sites with a justification comment.
    """

    id = "det-wallclock"
    description = "wall-clock read (time.*/datetime.now) in library code"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            # Only flag the outermost match: for `time.monotonic()` the
            # walk also visits the inner Name("time"), which resolves to
            # just "time" and is not in the origin set.
            origin = ctx.imports.resolve(node)
            if origin in _WALLCLOCK_ORIGINS:
                yield Finding(
                    rule_id=self.id,
                    path=ctx.path,
                    line=node.lineno,
                    column=node.col_offset,
                    message=f"wall-clock read of {origin}",
                )


@register_rule
class UnseededRandomRule(Rule):
    """No unseeded global-RNG calls (``random.*``, ``numpy.random.*``).

    The global RNGs are process-wide mutable state: results depend on
    import order and on how many draws other code made first, which is
    exactly what varies between ``--jobs 1`` and ``--jobs 4``.  Seeded
    generator objects (``random.Random(seed)``,
    ``numpy.random.default_rng(seed)``) are the sanctioned alternative.
    """

    id = "det-unseeded-random"
    description = "module-level random.* / numpy.random.* call"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            origin = ctx.imports.resolve(node.func)
            if origin is None:
                continue
            if origin in _SEEDED_RANDOM_OK:
                continue
            if origin.startswith("random.") or origin.startswith("numpy.random."):
                yield Finding(
                    rule_id=self.id,
                    path=ctx.path,
                    line=node.lineno,
                    column=node.col_offset,
                    message=f"call of global-RNG function {origin}",
                )


@register_rule
class EnvReadRule(Rule):
    """Environment reads only in the CLI layer.

    ``os.environ`` is per-host configuration; reading it deep in the
    library makes two machines disagree on the same spec.  The CLI may
    translate environment into explicit arguments — nothing else may.
    """

    id = "det-env-read"
    description = "os.environ / os.getenv read outside the CLI layer"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.module_basename in self.config.env_allowed_basenames:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)):
                continue
            origin = ctx.imports.resolve(node)
            if origin in _ENV_ORIGINS:
                yield Finding(
                    rule_id=self.id,
                    path=ctx.path,
                    line=node.lineno,
                    column=node.col_offset,
                    message=f"environment read via {origin}",
                )


@register_rule
class SetIterationRule(Rule):
    """Iteration over a set must go through ``sorted(...)``.

    Set iteration order depends on string hash randomisation
    (``PYTHONHASHSEED``), so a loop over ``set(a) | set(b)`` visits
    elements in a different order in every worker process.  Counting
    survives that; float accumulation, first-wins merges, and rendered
    output do not.  Wrapping in ``sorted`` is cheap and makes the order
    canonical (see ``fleet/reducers.py`` for the idiom); a generator or
    list comprehension that is ``sorted``'s only argument, without
    ``key=``, is therefore not reported (:func:`sorted_only_clauses`).
    """

    id = "det-set-iter"
    description = "iteration over an unsorted set expression or set-typed local"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        exempt = sorted_only_clauses(ctx.tree, ctx.imports)
        for node in ast.walk(ctx.tree):
            iter_expr = _iterated_expr(node)
            if (
                iter_expr is not None
                and node not in exempt
                and _is_set_producing(iter_expr)
            ):
                yield Finding(
                    rule_id=self.id,
                    path=ctx.path,
                    line=iter_expr.lineno,
                    column=iter_expr.col_offset,
                    message="iteration over a set without sorted(...); "
                    "order varies with PYTHONHASHSEED",
                )
        # Second pass per binding scope: locals that can only hold a
        # set (every assignment is set-producing or Set-annotated) are
        # just as hash-ordered as a literal set expression.
        for scope in iter_scopes(ctx.tree):
            locals_ = set_typed_locals(scope)
            if not locals_:
                continue
            for node in _walk_scope(scope):
                iter_expr = _iterated_expr(node)
                if (
                    isinstance(iter_expr, ast.Name)
                    and iter_expr.id in locals_
                    and node not in exempt
                ):
                    yield Finding(
                        rule_id=self.id,
                        path=ctx.path,
                        line=iter_expr.lineno,
                        column=iter_expr.col_offset,
                        message=f"iteration over set-typed local "
                        f"{iter_expr.id!r} without sorted(...); "
                        "order varies with PYTHONHASHSEED",
                    )


def _iterated_expr(node: ast.AST) -> Optional[ast.expr]:
    """The iterable of a ``for`` / comprehension clause, else ``None``."""
    if isinstance(node, (ast.For, ast.AsyncFor)):
        return node.iter
    if isinstance(node, ast.comprehension):
        return node.iter
    return None


def _walk_scope(scope: Scope) -> Iterator[ast.AST]:
    """Every node in ``scope`` excluding nested def/class bodies."""
    for stmt in _scope_statements(scope):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        yield stmt
        for child in ast.iter_child_nodes(stmt):
            if not isinstance(child, ast.stmt):
                yield from ast.walk(child)
