"""Interprocedural forward-dataflow engine for whole-program passes.

The call graph (:mod:`repro.checks.graph`) answers *which code can run
where*; the passes built on it directly are reachability arguments.
Golden/faulty separation and the typed failure taxonomy are *flow*
properties instead: they depend on which **values** reach which program
points, not merely on which functions do. This module provides the shared machinery:

* :class:`ForwardTaintAnalysis` — a summary-based forward taint analysis.
  Facts are sets of atoms drawn from a finite alphabet: string *labels*
  (taint minted by a source) and :class:`Param` markers ("whatever taint
  parameter *i* carries"). Each function gets a **summary**: the fact of
  its return value expressed over its own parameters. Summaries are
  substituted at call sites (``Param(i)`` is replaced by the fact of the
  i-th argument) and computed to a least fixpoint with a worklist over
  the call graph's reverse edges, so recursion and call cycles terminate
  (the lattice is a finite powerset; transfer functions only join).

* :class:`EscapeAnalysis` — per-function sets of exception *type names*
  that can escape the function, propagated bottom-up across call edges
  and filtered through lexically enclosing ``try``/``except`` blocks. A
  handler absorbs the types it catches (subclass-aware, resolved through
  the analysed tree's class hierarchy down to the real builtin MRO) —
  unless its body re-raises, in which case it is transparent.

Both analyses are deliberately conservative in opposite directions, and
the passes that consume them document which way they lean:

* taint **over**-approximates value flow (no strong updates — facts only
  grow; attribute/subscript stores taint the whole receiver; external
  calls propagate argument taint through) but **under**-approximates
  aliasing through protocol indirection (a call through a ``Protocol``
  stub contributes the stub's empty summary) and side effects on
  arguments (only constructors and in-place mutators transfer taint into
  a receiver);
* escape analysis **over**-approximates reachability of raise sites (it
  inherits the call graph's conservative resolution) but does not model
  exceptions raised from dynamic expressions (``raise factory()`` with an
  unresolvable factory) or ``assert`` statements.

Nested function and class definitions are opaque to both analyses: their
bodies belong to scopes the call graph does not model.
"""

from __future__ import annotations

import ast
import builtins
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.checks.graph import (
    MUTATING_METHODS,
    FunctionInfo,
    ProjectGraph,
)

__all__ = [
    "BOTTOM",
    "Fact",
    "Param",
    "join",
    "param_names",
    "ForwardTaintAnalysis",
    "RaiseOrigin",
    "EscapeAnalysis",
]


@dataclass(frozen=True)
class Param:
    """Summary atom: the taint carried by the enclosing function's
    parameter number ``index`` (positional order, then ``*args``, then
    keyword-only, then ``**kwargs``)."""

    index: int


#: A dataflow fact: a set of atoms (``str`` labels and :class:`Param`\ s).
Fact = frozenset

#: The bottom element of the fact lattice (no taint).
BOTTOM: Fact = frozenset()


def join(*facts: Fact) -> Fact:
    """Lattice join: set union."""
    if not facts:
        return BOTTOM
    return frozenset().union(*facts)


def param_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """Parameter names in summary-index order (see :class:`Param`)."""
    args = node.args
    names = [a.arg for a in [*args.posonlyargs, *args.args]]
    if args.vararg is not None:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg is not None:
        names.append(args.kwarg.arg)
    return names


def _decorator_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


# ----------------------------------------------------------------------
# Forward taint
# ----------------------------------------------------------------------


class ForwardTaintAnalysis:
    """Summary-based interprocedural forward taint analysis.

    Parameters
    ----------
    graph:
        The project graph to analyse.
    source_classes:
        Class qualnames whose *construction* mints the taint label.
    label:
        The string label minted by sources.
    """

    def __init__(
        self,
        graph: ProjectGraph,
        *,
        source_classes: Iterable[str] = (),
        label: str = "taint",
    ) -> None:
        self.graph = graph
        self.label = label
        self.source_classes = frozenset(source_classes)
        self._summaries: dict[str, Fact] = {
            qual: BOTTOM for qual in graph.functions
        }
        self._return_sites: dict[str, tuple[tuple[ast.Return, Fact], ...]] = {}
        self._module_env = self._build_module_env()
        self._solve()

    # -- public queries -------------------------------------------------
    def summary(self, qualname: str) -> Fact:
        """The return-value fact of ``qualname`` over its parameters.

        A constant label in the summary means the function returns
        tainted data *regardless* of what its callers pass in.
        """
        return self._summaries.get(qualname, BOTTOM)

    def return_sites(self, qualname: str) -> tuple[tuple[ast.Return, Fact], ...]:
        """``(return statement, fact)`` pairs from the final fixpoint."""
        return self._return_sites.get(qualname, ())

    # -- module-level constants -----------------------------------------
    def _build_module_env(self) -> dict[str, dict[str, Fact]]:
        """Facts of module-level names (``NO_FAULTS = FaultInjector()``).

        Only direct constructions and name aliases are modelled — enough
        to prove the sanctioned golden constants clean and to catch a
        module-level source construction. Two passes resolve one level of
        cross-module reference.
        """
        env: dict[str, dict[str, Fact]] = {
            name: {} for name in self.graph.modules
        }
        for _ in range(2):
            for mod_name, module in self.graph.modules.items():
                for node in module.tree.body:
                    if isinstance(node, ast.Assign):
                        targets = node.targets
                        value = node.value
                    elif isinstance(node, ast.AnnAssign) and node.value is not None:
                        targets = [node.target]
                        value = node.value
                    else:
                        continue
                    fact = self._module_value(mod_name, value, env)
                    for target in targets:
                        if isinstance(target, ast.Name):
                            current = env[mod_name].get(target.id, BOTTOM)
                            env[mod_name][target.id] = current | fact
        return env

    def _module_value(
        self, mod_name: str, value: ast.expr, env: dict[str, dict[str, Fact]]
    ) -> Fact:
        if isinstance(value, ast.Name):
            return self._global_lookup(mod_name, value.id, env)
        if isinstance(value, ast.Call):
            cls_qual = self._class_of_callee(mod_name, value.func)
            if cls_qual is None:
                return BOTTOM
            parts = [
                self._module_value(mod_name, arg, env)
                for arg in value.args
                if not isinstance(arg, ast.Starred)
            ]
            parts.extend(
                self._module_value(mod_name, kw.value, env)
                for kw in value.keywords
            )
            fact = join(*parts)
            if cls_qual in self.source_classes:
                fact |= {self.label}
            return fact
        return BOTTOM

    def _global_lookup(
        self,
        mod_name: str,
        name: str,
        env: dict[str, dict[str, Fact]] | None = None,
    ) -> Fact:
        env = self._module_env if env is None else env
        own = env.get(mod_name, {})
        if name in own:
            return own[name]
        entry = self.graph.from_imports.get(mod_name, {}).get(name)
        if entry is not None:
            source, attr = entry
            return env.get(source, {}).get(attr, BOTTOM)
        return BOTTOM

    # -- resolution helpers ---------------------------------------------
    def _class_of_callee(self, mod_name: str, func: ast.expr) -> str | None:
        """The class qualname a callee expression names, if any."""
        if isinstance(func, ast.Name):
            return self.graph._class_for_name(mod_name, func.id)
        if isinstance(func, ast.Attribute):
            dotted = self.graph._dotted_external(mod_name, func)
            if dotted is not None and dotted in self.graph.classes:
                return dotted
        return None

    # -- fixpoint -------------------------------------------------------
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
            info = self.graph.functions[qual]
            evaluator = _TaintEvaluator(self, info)
            evaluator.run()
            summary = join(*(fact for _, fact in evaluator.returns))
            self._return_sites[qual] = tuple(evaluator.returns)
            if summary != self._summaries[qual]:
                self._summaries[qual] = summary
                for caller in sorted(callers.get(qual, ())):
                    if caller not in queued:
                        pending.append(caller)
                        queued.add(caller)

    def _instantiate(
        self,
        callee: FunctionInfo,
        facts_by_index: Mapping[int, Fact],
        extra: Fact,
    ) -> Fact:
        """Substitute call-site argument facts into a callee summary."""
        result = BOTTOM
        for atom in self._summaries.get(callee.qualname, BOTTOM):
            if isinstance(atom, Param):
                result |= facts_by_index.get(atom.index, BOTTOM) | extra
            else:
                result |= {atom}
        return result


class _TaintEvaluator:
    """One abstract-interpretation pass over one function body.

    The local environment maps names to facts and only ever grows (no
    strong updates); the body is re-walked until it stabilises, so taint
    carried backwards by loops is observed.
    """

    #: Safety cap on the per-function stabilisation loop. The env is
    #: monotone over a finite lattice, so this is never the terminator in
    #: practice — it bounds pathological inputs.
    MAX_PASSES = 10

    def __init__(self, analysis: ForwardTaintAnalysis, info: FunctionInfo) -> None:
        self.analysis = analysis
        self.graph = analysis.graph
        self.info = info
        self.mod_name = info.module.name or info.module.path.stem
        self.sites = {id(site.node): site for site in info.calls}
        names = param_names(info.node)
        self.env: dict[str, Fact] = {
            name: frozenset({Param(i)}) for i, name in enumerate(names)
        }
        self.returns: list[tuple[ast.Return, Fact]] = []

    def run(self) -> "_TaintEvaluator":
        for _ in range(self.MAX_PASSES):
            before = dict(self.env)
            self.returns = []
            for stmt in self.info.node.body:
                self.visit(stmt)
            if self.env == before:
                break
        return self

    # -- statements -----------------------------------------------------
    def visit(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested scopes are opaque (module docstring)
        if isinstance(stmt, ast.Return):
            fact = self.eval(stmt.value) if stmt.value is not None else BOTTOM
            self.returns.append((stmt, fact))
        elif isinstance(stmt, ast.Assign):
            fact = self.eval(stmt.value)
            for target in stmt.targets:
                self.bind(target, fact)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.AugAssign):
            self.bind(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.bind(stmt.target, self.eval(stmt.iter))
            for child in [*stmt.body, *stmt.orelse]:
                self.visit(child)
        elif isinstance(stmt, (ast.While, ast.If)):
            self.eval(stmt.test)
            for child in [*stmt.body, *stmt.orelse]:
                self.visit(child)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                fact = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self.bind(item.optional_vars, fact)
            for child in stmt.body:
                self.visit(child)
        elif isinstance(stmt, ast.Try):
            for child in stmt.body:
                self.visit(child)
            for handler in stmt.handlers:
                for child in handler.body:
                    self.visit(child)
            for child in [*stmt.orelse, *stmt.finalbody]:
                self.visit(child)
        elif isinstance(stmt, ast.Match):
            self.eval(stmt.subject)
            for case in stmt.cases:
                for child in case.body:
                    self.visit(child)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, ast.Raise):
            self.eval(stmt.exc)
            self.eval(stmt.cause)
        elif isinstance(stmt, ast.Assert):
            self.eval(stmt.test)
            self.eval(stmt.msg)
        # Delete/Pass/Break/Continue/Import/Global/Nonlocal carry no taint.

    def bind(self, target: ast.expr, fact: Fact) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = self.env.get(target.id, BOTTOM) | fact
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self.bind(element, fact)
        elif isinstance(target, ast.Starred):
            self.bind(target.value, fact)
        elif isinstance(target, (ast.Attribute, ast.Subscript)):
            # A store into an object taints the whole object (weak update).
            self._taint_root(target, fact)

    def _taint_root(self, expr: ast.expr, fact: Fact) -> None:
        node = expr
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        if isinstance(node, ast.Name):
            self.env[node.id] = self.env.get(node.id, BOTTOM) | fact

    # -- expressions ----------------------------------------------------
    def eval(self, expr: ast.expr | None) -> Fact:
        if expr is None:
            return BOTTOM
        if isinstance(expr, ast.Constant):
            return BOTTOM
        if isinstance(expr, ast.Name):
            return self.lookup(expr.id)
        if isinstance(expr, ast.Call):
            return self.eval_call(expr)
        if isinstance(expr, ast.Attribute):
            fact = self._module_constant(expr)
            if fact is not None:
                return fact
            return self.eval(expr.value)
        if isinstance(expr, ast.Subscript):
            return self.eval(expr.value) | self.eval(expr.slice)
        if isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            return join(*(self.eval(e) for e in expr.elts))
        if isinstance(expr, ast.Dict):
            parts = [self.eval(v) for v in expr.values]
            parts.extend(self.eval(k) for k in expr.keys if k is not None)
            return join(*parts)
        if isinstance(expr, ast.BoolOp):
            return join(*(self.eval(v) for v in expr.values))
        if isinstance(expr, ast.BinOp):
            return self.eval(expr.left) | self.eval(expr.right)
        if isinstance(expr, ast.UnaryOp):
            return self.eval(expr.operand)
        if isinstance(expr, ast.Compare):
            return join(self.eval(expr.left), *(self.eval(c) for c in expr.comparators))
        if isinstance(expr, ast.IfExp):
            self.eval(expr.test)
            return self.eval(expr.body) | self.eval(expr.orelse)
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self._bind_comprehensions(expr.generators)
            return self.eval(expr.elt)
        if isinstance(expr, ast.DictComp):
            self._bind_comprehensions(expr.generators)
            return self.eval(expr.key) | self.eval(expr.value)
        if isinstance(expr, ast.NamedExpr):
            fact = self.eval(expr.value)
            self.bind(expr.target, fact)
            return fact
        if isinstance(expr, ast.Starred):
            return self.eval(expr.value)
        if isinstance(expr, ast.Await):
            return self.eval(expr.value)
        if isinstance(expr, ast.JoinedStr):
            return join(*(self.eval(v) for v in expr.values))
        if isinstance(expr, ast.FormattedValue):
            return self.eval(expr.value)
        if isinstance(expr, ast.Lambda):
            return BOTTOM  # opaque nested scope
        if isinstance(expr, ast.Slice):
            return join(
                self.eval(expr.lower), self.eval(expr.upper), self.eval(expr.step)
            )
        return BOTTOM

    def _bind_comprehensions(self, generators: Sequence[ast.comprehension]) -> None:
        # Comprehension scopes are folded into the local env — an
        # over-approximation that keeps the evaluator one-pass.
        for comp in generators:
            self.bind(comp.target, self.eval(comp.iter))
            for cond in comp.ifs:
                self.eval(cond)

    def lookup(self, name: str) -> Fact:
        if name in self.env:
            return self.env[name]
        return self.analysis._global_lookup(self.mod_name, name)

    def _module_constant(self, expr: ast.Attribute) -> Fact | None:
        """Fact of a ``module.CONSTANT`` chain, if it resolves to one."""
        dotted = self.graph._dotted_external(self.mod_name, expr)
        if dotted is None:
            return None
        head, _, tail = dotted.rpartition(".")
        if head in self.graph.modules:
            return self.analysis._module_env.get(head, {}).get(tail, BOTTOM)
        return None

    # -- calls ----------------------------------------------------------
    def eval_call(self, call: ast.Call) -> Fact:
        positional: list[Fact] = []
        extra = BOTTOM
        for arg in call.args:
            if isinstance(arg, ast.Starred):
                extra |= self.eval(arg.value)
            else:
                positional.append(self.eval(arg))
        keywords: dict[str, Fact] = {}
        for kw in call.keywords:
            if kw.arg is None:
                extra |= self.eval(kw.value)
            else:
                keywords[kw.arg] = self.eval(kw.value)
        all_args = join(*positional, *keywords.values(), extra)

        func = call.func
        # Direct construction of an internal class: the instance carries
        # the join of its constructor arguments, plus the source label if
        # the class is a taint source.
        cls_qual = self.analysis._class_of_callee(self.mod_name, func)
        if cls_qual is not None:
            fact = all_args
            if cls_qual in self.analysis.source_classes:
                fact |= {self.analysis.label}
            return fact

        receiver_fact = BOTTOM
        receiver_is_class = False
        if isinstance(func, ast.Attribute):
            if self.analysis._class_of_callee(self.mod_name, func.value) is not None:
                receiver_is_class = True  # ClassName.method(...): cls is clean
            else:
                receiver_fact = self.eval(func.value)
            if func.attr in MUTATING_METHODS:
                # lst.append(tainted) taints lst.
                self._taint_root(func.value, all_args)

        site = self.sites.get(id(call))
        if site is not None and site.targets:
            results = []
            for target in site.targets:
                callee = self.graph.functions.get(target)
                if callee is None:
                    continue
                if callee.name in ("__init__", "__post_init__"):
                    # Construction reached through an alias the direct
                    # check above missed: same semantics.
                    fact = all_args
                    if callee.class_name in self.analysis.source_classes:
                        fact |= {self.analysis.label}
                    results.append(fact)
                    continue
                results.append(
                    self._apply_summary(
                        callee, positional, keywords, extra,
                        receiver_fact, receiver_is_class,
                        bool(isinstance(func, ast.Attribute)),
                    )
                )
            if results:
                return join(*results)
        # External or unresolved: conservatively propagate taint through.
        return all_args | receiver_fact

    def _apply_summary(
        self,
        callee: FunctionInfo,
        positional: Sequence[Fact],
        keywords: Mapping[str, Fact],
        extra: Fact,
        receiver_fact: Fact,
        receiver_is_class: bool,
        is_attribute_call: bool,
    ) -> Fact:
        names = param_names(callee.node)
        decorators = _decorator_names(callee.node)
        facts_by_index: dict[int, Fact] = {}
        offset = 0
        if (
            callee.class_name is not None
            and is_attribute_call
            and "staticmethod" not in decorators
            and names
        ):
            offset = 1
            if not receiver_is_class:  # bound call: param 0 is the receiver
                facts_by_index[0] = receiver_fact
        args = callee.node.args
        n_positional = len(args.posonlyargs) + len(args.args)
        vararg_index = n_positional if args.vararg is not None else None
        for i, fact in enumerate(positional):
            index = offset + i
            if index < n_positional:
                facts_by_index[index] = facts_by_index.get(index, BOTTOM) | fact
            elif vararg_index is not None:
                facts_by_index[vararg_index] = (
                    facts_by_index.get(vararg_index, BOTTOM) | fact
                )
        name_to_index = {name: i for i, name in enumerate(names)}
        kwarg_index = len(names) - 1 if args.kwarg is not None else None
        for name, fact in keywords.items():
            index = name_to_index.get(name, kwarg_index)
            if index is not None:
                facts_by_index[index] = facts_by_index.get(index, BOTTOM) | fact
        return self.analysis._instantiate(callee, facts_by_index, extra)


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
