"""Interprocedural exception-escape analysis for whole-program passes.

The call graph (:mod:`repro.checks.graph`) answers *which code can run
where*; the passes built on it directly are reachability arguments. The
typed failure taxonomy is a *flow* property instead: it depends on which
exception types can leave each function, not merely on which functions
a campaign entry reaches.

:class:`EscapeAnalysis` computes per-function sets of exception *type
names* that can escape the function, propagated bottom-up across call
edges to a fixpoint and filtered through lexically enclosing
``try``/``except`` blocks. A handler absorbs the types it catches
(subclass-aware, resolved through the analysed tree's class hierarchy
down to the real builtin MRO) — unless its body re-raises, in which case
it is transparent. The ``exception-contract`` verifier
(:mod:`repro.checks.contracts`) consumes it.

The analysis **over**-approximates reachability of raise sites (it
inherits the call graph's conservative resolution) but does not model
exceptions raised from dynamic expressions (``raise factory()`` with an
unresolvable factory) or ``assert`` statements. Nested function and
class definitions are opaque: their bodies belong to scopes the call
graph does not model.
"""

from __future__ import annotations

import ast
import builtins
from collections import deque
from dataclasses import dataclass
from typing import Mapping

from repro.checks.graph import FunctionInfo, ProjectGraph

__all__ = [
    "RaiseOrigin",
    "EscapeAnalysis",
]


# ----------------------------------------------------------------------
# Exception escape
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class RaiseOrigin:
    """The source location of the raise statement behind an escape."""

    path: str
    line: int
    col: int
    qualname: str

    def key(self) -> tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.qualname)


def _builtin_exception(name: str) -> type | None:
    candidate = getattr(builtins, name, None)
    if isinstance(candidate, type) and issubclass(candidate, BaseException):
        return candidate
    return None


class EscapeAnalysis:
    """Which exception types can escape each function.

    ``escapes(qualname)`` maps exception *type names* — class qualnames
    for types defined in the analysed tree, bare builtin names otherwise —
    to the :class:`RaiseOrigin` of one representative raise site (the
    lexicographically smallest, for deterministic findings).
    """

    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self._ancestor_cache: dict[str, frozenset[str]] = {}
        self._escapes: dict[str, dict[str, RaiseOrigin]] = {
            qual: {} for qual in graph.functions
        }
        self._prepared = {
            qual: self._prepare(info) for qual, info in graph.functions.items()
        }
        self._solve()

    def escapes(self, qualname: str) -> Mapping[str, RaiseOrigin]:
        """Exception type names escaping ``qualname``, with origins."""
        return self._escapes.get(qualname, {})

    # -- class hierarchy ------------------------------------------------
    def ancestors(self, name: str) -> frozenset[str]:
        """``name`` plus every base class name, internal and builtin.

        Internal classes are walked through the analysed tree's ``bases``
        until builtin names are reached; builtin names expand through the
        real exception MRO (so ``except OSError`` absorbs a
        ``FileNotFoundError`` escape).
        """
        cached = self._ancestor_cache.get(name)
        if cached is not None:
            return cached
        self._ancestor_cache[name] = frozenset({name})  # cycle guard
        result = {name}
        cls = self.graph.classes.get(name)
        if cls is not None:
            mod_name = cls.module.name or cls.module.path.stem
            for base in cls.node.bases:
                base_name: str | None = None
                if isinstance(base, ast.Name):
                    base_name = (
                        self.graph._class_for_name(mod_name, base.id) or base.id
                    )
                elif isinstance(base, ast.Attribute):
                    dotted = self.graph._dotted_external(mod_name, base)
                    if dotted is not None and dotted in self.graph.classes:
                        base_name = dotted
                    else:
                        base_name = base.attr
                if base_name is not None:
                    result |= self.ancestors(base_name)
        else:
            builtin = _builtin_exception(name)
            if builtin is not None:
                result |= {c.__name__ for c in builtin.__mro__}
        frozen = frozenset(result)
        self._ancestor_cache[name] = frozen
        return frozen

    def _catches(self, caught: str, raised: str) -> bool:
        return caught in self.ancestors(raised)

    def _absorbed(
        self, raised: str, protectors: tuple[tuple[str, ...], ...]
    ) -> bool:
        return any(
            self._catches(caught, raised)
            for entry in protectors
            for caught in entry
        )

    # -- per-function preparation ---------------------------------------
    def _prepare(self, info: FunctionInfo) -> dict:
        """Raise sites and call protection contexts for one function.

        ``protectors`` is the stack of absorbing handler-name tuples from
        the lexically enclosing ``try`` bodies. Handlers whose body
        re-raises the caught exception (bare ``raise`` or ``raise <name>``)
        are transparent: they are dropped from the protector entry, so the
        absorbed types keep propagating — which also makes bare re-raise
        statements themselves need no separate accounting.
        """
        mod_name = info.module.name or info.module.path.stem
        raises: list[tuple[ast.Raise, tuple[tuple[str, ...], ...]]] = []
        call_protectors: dict[int, tuple[tuple[str, ...], ...]] = {}

        def handler_names(handler: ast.ExceptHandler) -> tuple[str, ...]:
            if handler.type is None:
                return ("BaseException",)
            exprs = (
                handler.type.elts
                if isinstance(handler.type, ast.Tuple)
                else [handler.type]
            )
            names: list[str] = []
            for expr in exprs:
                if isinstance(expr, ast.Name):
                    names.append(
                        self.graph._class_for_name(mod_name, expr.id) or expr.id
                    )
                elif isinstance(expr, ast.Attribute):
                    dotted = self.graph._dotted_external(mod_name, expr)
                    if dotted is not None and dotted in self.graph.classes:
                        names.append(dotted)
                    else:
                        names.append(expr.attr)
            return tuple(names)

        def handler_reraises(handler: ast.ExceptHandler) -> bool:
            for node in ast.walk(handler):
                if isinstance(node, ast.Raise):
                    if node.exc is None:
                        return True
                    if (
                        isinstance(node.exc, ast.Name)
                        and handler.name is not None
                        and node.exc.id == handler.name
                    ):
                        return True
            return False

        def visit(node: ast.AST, protectors: tuple[tuple[str, ...], ...]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node is not info.node:
                    return  # nested defs are opaque
            if isinstance(node, ast.Raise):
                raises.append((node, protectors))
            elif isinstance(node, ast.Call):
                call_protectors[id(node)] = protectors
            if isinstance(node, ast.Try):
                absorbing = tuple(
                    name
                    for handler in node.handlers
                    if not handler_reraises(handler)
                    for name in handler_names(handler)
                )
                inner = protectors + ((absorbing,) if absorbing else ())
                for child in node.body:
                    visit(child, inner)
                for handler in node.handlers:
                    for child in handler.body:
                        visit(child, protectors)
                for child in [*node.orelse, *node.finalbody]:
                    visit(child, protectors)
                return
            for child in ast.iter_child_nodes(node):
                visit(child, protectors)

        visit(info.node, ())
        return {"raises": raises, "call_protectors": call_protectors}

    def _raised_names(self, info: FunctionInfo, node: ast.Raise) -> tuple[str, ...]:
        """Type names a raise statement can throw (empty when dynamic).

        Bare re-raises resolve to nothing here by design: a re-raising
        handler is already transparent in :meth:`_prepare`, so the
        original escape keeps flowing without double counting.
        """
        mod_name = info.module.name or info.module.path.stem
        exc = node.exc
        if exc is None:
            return ()
        if isinstance(exc, ast.Call):
            quals = self.graph._callee_instance_classes(info, exc)
            if quals:
                return quals
            func = exc.func
            if isinstance(func, ast.Name) and _builtin_exception(func.id):
                return (func.id,)
            if isinstance(func, ast.Attribute) and _builtin_exception(func.attr):
                return (func.attr,)
            return ()
        if isinstance(exc, ast.Name):
            qual = self.graph._class_for_name(mod_name, exc.id)
            if qual is not None:
                return (qual,)
            if _builtin_exception(exc.id):
                return (exc.id,)
            return ()
        if isinstance(exc, ast.Attribute):
            dotted = self.graph._dotted_external(mod_name, exc)
            if dotted is not None and dotted in self.graph.classes:
                return (dotted,)
            if _builtin_exception(exc.attr):
                return (exc.attr,)
        return ()

    # -- fixpoint -------------------------------------------------------
    def _transfer(self, qual: str) -> dict[str, RaiseOrigin]:
        info = self.graph.functions[qual]
        prepared = self._prepared[qual]
        out: dict[str, RaiseOrigin] = {}

        def merge(name: str, origin: RaiseOrigin) -> None:
            current = out.get(name)
            if current is None or origin.key() < current.key():
                out[name] = origin

        path = str(info.module.path)
        for node, protectors in prepared["raises"]:
            for name in self._raised_names(info, node):
                if not self._absorbed(name, protectors):
                    merge(
                        name,
                        RaiseOrigin(path, node.lineno, node.col_offset, qual),
                    )
        for site in info.calls:
            protectors = prepared["call_protectors"].get(id(site.node), ())
            for target in site.targets:
                for name, origin in self._escapes.get(target, {}).items():
                    if not self._absorbed(name, protectors):
                        merge(name, origin)
        return out

    def _solve(self) -> None:
        callers: dict[str, set[str]] = {}
        for qual, info in self.graph.functions.items():
            for site in info.calls:
                for target in site.targets:
                    callers.setdefault(target, set()).add(qual)
        pending = deque(sorted(self.graph.functions))
        queued = set(pending)
        while pending:
            qual = pending.popleft()
            queued.discard(qual)
            new = self._transfer(qual)
            if new != self._escapes[qual]:
                self._escapes[qual] = new
                for caller in sorted(callers.get(qual, ())):
                    if caller not in queued:
                        pending.append(caller)
                        queued.add(caller)
