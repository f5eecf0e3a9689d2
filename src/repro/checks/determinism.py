"""Fork-safety / determinism race detector for the campaign executor.

PR 2's parallel executor promises bit-identical results to the serial
path. That guarantee is an inductive property of *everything a worker
process can run*: one wall-clock read, one unseeded RNG draw, or one
unordered set iteration anywhere in the worker-reachable call graph and
the merged :class:`CampaignResult` silently stops being a pure function
of (workload, mesh, fault site). These rules statically prove the
absence of each hazard class; unseeded RNG draws and OS entropy are
banned in every module by the per-file ``unseeded-random`` rule, so no
worker-path rule repeats that.

Worker entry points are discovered, not configured:

* the callable arguments of ``pool.submit(f, …)`` / ``pool.map(f, …)``;
* the ``initializer=`` keyword of any pool constructor;
* the conventional names ``_init_worker`` / ``_adopt_setup`` /
  ``_run_shard`` (so the rules keep working on a tree where the
  submission site itself fails to parse).

The *pool-initializer protocol* is the one sanctioned exception: an
initializer's whole purpose is to write module-level state exactly once
per worker before any task runs, so initializers are exempt from
``worker-global-write`` (but not from the clock/ordering rules — an
initializer that reads the clock is just as nondeterministic).
``_adopt_setup`` — the executor's setup-token adoption, which every
shard runs first and which decodes a new setup into module state when
its key changes — is an initializer under this protocol.

The second sanctioned exception is *telemetry*: the observability
subsystem (:data:`SANCTIONED_TELEMETRY`, i.e. ``repro.obs``) exists to
measure how long worker code took, which requires clock reads on worker
paths by design. Its modules are allowlisted for ``worker-wall-clock``
only — every other rule in the battery still covers them, and clock
reads in results-path modules still fire. The safety argument is the bit-equivalence contract: observability never
feeds a value back into an experiment result (pinned by
``tests/core/test_obs_equivalence.py``), so a timestamp there cannot
make results depend on *when* they were computed.

Rules
-----
``worker-global-write``
    Module-level mutable state written on a worker-reachable path outside
    the initializer protocol: ``global`` rebinding, in-place mutating
    method calls, subscript or attribute stores on module-level names.
``worker-unordered-iter``
    Iteration over an unordered collection (set literal/comprehension,
    ``set()`` / ``frozenset()`` call, ``dict.keys()``) on a
    worker-reachable path. Worker output flows into merged campaign
    results, so the iteration order must be canonical — wrap the
    collection in ``sorted(...)``.
``merge-unordered-iter``
    A container filled inside a completion loop (a loop consuming
    ``future.result()``) holds results in *completion order*; iterating
    it directly afterwards leaks scheduling order into the merged result.
    Index it by a canonical key sequence or iterate ``sorted(...)``.
``worker-wall-clock``
    ``time.time()`` / ``datetime.now()``-style reads on worker-reachable
    paths make results depend on when — not what — was computed.
``worker-exception-swallow``
    A bare ``except:`` (or ``except Exception:`` / ``BaseException``)
    whose body only passes, on a worker-reachable path. The resilient
    executor's whole failure protocol — retry, bisection, quarantine —
    keys off worker exceptions propagating to the parent; a swallowed
    failure instead returns a silently incomplete or corrupt shard.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator

from repro.checks.engine import Finding, ProjectRule, Severity
from repro.checks.graph import MUTATING_METHODS, FunctionInfo, ProjectGraph

__all__ = [
    "CONVENTIONAL_ENTRIES",
    "INITIALIZER_ENTRIES",
    "WALL_CLOCK_CALLS",
    "SANCTIONED_TELEMETRY",
    "is_sanctioned_telemetry",
    "WorkerEntry",
    "discover_worker_entries",
    "WorkerGlobalWriteRule",
    "WorkerUnorderedIterRule",
    "MergeUnorderedIterRule",
    "WorkerWallClockRule",
    "WorkerExceptionSwallowRule",
    "DETERMINISM_RULES",
]

#: Conventional names that carry the initializer exemption (see the
#: module docstring).
INITIALIZER_ENTRIES = frozenset({"_init_worker", "_adopt_setup"})

#: Conventional worker entry-point names (see module docstring); naming
#: them keeps the shard closure inside the fork-safety battery even when
#: the ``pool.submit`` sweep misses an indirection.
CONVENTIONAL_ENTRIES = INITIALIZER_ENTRIES | {"_run_shard"}

#: Dotted external callables that read the wall clock.
WALL_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: Module prefixes whose clock reads are sanctioned telemetry.
#: The observability subsystem measures *how long* worker code took; it
#: never feeds a value into *what* the results are (the bit-equivalence
#: contract, pinned by ``tests/core/test_obs_equivalence.py``), so its
#: clock reads cannot make results time-dependent. The allowlist scopes
#: ``worker-wall-clock`` only — all other determinism rules still apply
#: to these modules in full.
SANCTIONED_TELEMETRY: tuple[str, ...] = ("repro.obs",)


def is_sanctioned_telemetry(module_name: str) -> bool:
    """Whether ``module_name`` falls under the telemetry allowlist."""
    return any(
        module_name == prefix or module_name.startswith(prefix + ".")
        for prefix in SANCTIONED_TELEMETRY
    )


@dataclass(frozen=True)
class WorkerEntry:
    """One discovered worker entry point."""

    qualname: str
    #: "submitted" | "initializer" | "conventional"
    kind: str


def discover_worker_entries(graph: ProjectGraph) -> tuple[WorkerEntry, ...]:
    """Every worker entry point in the project, deterministically ordered."""
    entries: dict[str, WorkerEntry] = {}

    def add(qualname: str | None, kind: str) -> None:
        if qualname is None or qualname not in graph.functions:
            return
        # initializer status wins over other kinds (it carries an
        # exemption, so it must not be shadowed by a duplicate discovery).
        current = entries.get(qualname)
        if current is None or (kind == "initializer" != current.kind):
            entries[qualname] = WorkerEntry(qualname=qualname, kind=kind)

    for info in graph.functions.values():
        mod_name = info.module.name or info.module.path.stem
        for site in info.calls:
            node = site.node
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("submit", "map")
                and node.args
            ):
                add(
                    graph.resolve_callable_ref(mod_name, node.args[0]),
                    "submitted",
                )
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    add(
                        graph.resolve_callable_ref(mod_name, keyword.value),
                        "initializer",
                    )
    for qualname, info in graph.functions.items():
        if info.name in CONVENTIONAL_ENTRIES and info.class_name is None:
            add(
                qualname,
                "initializer" if info.name in INITIALIZER_ENTRIES
                else "conventional",
            )
    return tuple(entries[q] for q in sorted(entries))


def _short(qualname: str) -> str:
    return qualname.removeprefix("repro.")


def _chain_note(chain: tuple[str, ...]) -> str:
    """Human-readable worker path, elided in the middle when long."""
    names = [_short(q) for q in chain]
    if len(names) > 4:
        names = names[:2] + ["…"] + names[-2:]
    return " -> ".join(names)


def _bound_names(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Every name bound in the local scope of ``fn`` (over-approximate)."""
    bound: set[str] = set()
    args = fn.args
    for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
        bound.add(arg.arg)
    if args.vararg is not None:
        bound.add(args.vararg.arg)
    if args.kwarg is not None:
        bound.add(args.kwarg.arg)
    for node in ast.walk(fn):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            for target in targets:
                bound.update(_names_in_target(target))
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            bound.update(_names_in_target(node.target))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    bound.update(_names_in_target(item.optional_vars))
        elif isinstance(node, ast.comprehension):
            bound.update(_names_in_target(node.target))
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        elif (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and node is not fn
        ):
            bound.add(node.name)
        elif isinstance(node, ast.NamedExpr) and isinstance(
            node.target, ast.Name
        ):
            bound.add(node.target.id)
    return bound


def _names_in_target(target: ast.expr) -> Iterator[str]:
    if isinstance(target, ast.Name):
        yield target.id
    elif isinstance(target, (ast.Tuple, ast.List)):
        for element in target.elts:
            yield from _names_in_target(element)
    elif isinstance(target, ast.Starred):
        yield from _names_in_target(target.value)


def _root_name(expr: ast.expr) -> str | None:
    """The leftmost ``Name`` of an attribute/subscript chain, if any."""
    node = expr
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


class _WorkerRule(ProjectRule):
    """Shared plumbing: entry discovery + reachability closure."""

    severity = Severity.ERROR

    def _closure(
        self, graph: ProjectGraph
    ) -> tuple[dict[str, tuple[str, ...]], frozenset[str]]:
        entries = discover_worker_entries(graph)
        chains = graph.reachable(e.qualname for e in entries)
        initializers = frozenset(
            e.qualname for e in entries if e.kind == "initializer"
        )
        return chains, initializers


class WorkerGlobalWriteRule(_WorkerRule):
    """No module-level mutable-state writes outside the initializer."""

    id = "worker-global-write"
    description = (
        "worker-reachable code must not write module-level state; only the "
        "pool initializer may (that is the one sanctioned protocol)"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        chains, initializers = self._closure(graph)
        for qualname in sorted(chains):
            if qualname in initializers:
                continue
            info = graph.functions[qualname]
            note = _chain_note(chains[qualname])
            yield from self._check_function(graph, info, note)

    def _check_function(
        self, graph: ProjectGraph, info: FunctionInfo, note: str
    ) -> Iterator[Finding]:
        mod_name = info.module.name or info.module.path.stem
        module_names = graph.module_level_names.get(mod_name, frozenset())
        local = _bound_names(info.node)
        declared_global: set[str] = set()
        for node in ast.walk(info.node):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in ast.walk(info.node):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    yield from self._check_store(
                        info, node, target, module_names, local,
                        declared_global, note,
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in MUTATING_METHODS
                    and isinstance(func.value, ast.Name)
                    and func.value.id in module_names
                    and func.value.id not in local
                ):
                    yield self.finding(
                        info.module,
                        node,
                        f"{_short(info.qualname)} mutates module-level "
                        f"{func.value.id!r} via .{func.attr}() on a worker "
                        f"path ({note}); move the write into the pool "
                        "initializer or pass state explicitly",
                    )

    def _check_store(
        self,
        info: FunctionInfo,
        stmt: ast.stmt,
        target: ast.expr,
        module_names: frozenset[str],
        local: set[str],
        declared_global: set[str],
        note: str,
    ) -> Iterator[Finding]:
        if isinstance(target, ast.Name):
            if target.id in declared_global:
                yield self.finding(
                    info.module,
                    stmt,
                    f"{_short(info.qualname)} rebinds global "
                    f"{target.id!r} on a worker path ({note}); only the "
                    "pool initializer may write worker state",
                )
        elif isinstance(target, (ast.Subscript, ast.Attribute)):
            root = _root_name(target)
            if (
                root is not None
                and root != "self"
                and root in module_names
                and root not in local
            ):
                kind = "item" if isinstance(target, ast.Subscript) else "attribute"
                yield self.finding(
                    info.module,
                    stmt,
                    f"{_short(info.qualname)} stores an {kind} into "
                    f"module-level {root!r} on a worker path ({note}); "
                    "only the pool initializer may write worker state",
                )
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from self._check_store(
                    info, stmt, element, module_names, local,
                    declared_global, note,
                )


def _iteration_sites(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.expr]:
    """Every expression that is directly iterated inside ``fn``."""
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, ast.comprehension):
            yield node.iter


def _unordered_kind(expr: ast.expr) -> str | None:
    """Classify an iterated expression as unordered, or None if fine."""
    if isinstance(expr, ast.Set):
        return "a set literal"
    if isinstance(expr, ast.SetComp):
        return "a set comprehension"
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
            return f"a {func.id}() call"
        if isinstance(func, ast.Attribute) and func.attr == "keys":
            return "dict.keys()"
    return None


class WorkerUnorderedIterRule(_WorkerRule):
    """Worker code must iterate in canonical, not hash, order."""

    id = "worker-unordered-iter"
    description = (
        "worker-reachable code must not iterate sets or dict.keys() "
        "directly; worker output flows into merged campaign results, so "
        "wrap the collection in sorted(...)"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        chains, _ = self._closure(graph)
        for qualname in sorted(chains):
            info = graph.functions[qualname]
            note = _chain_note(chains[qualname])
            for iterated in _iteration_sites(info.node):
                kind = _unordered_kind(iterated)
                if kind is not None:
                    yield self.finding(
                        info.module,
                        iterated,
                        f"{_short(info.qualname)} iterates {kind} on a "
                        f"worker path ({note}); wrap it in sorted(...) so "
                        "the order is canonical",
                    )


class MergeUnorderedIterRule(ProjectRule):
    """Completion-order containers must be merged in canonical order."""

    id = "merge-unordered-iter"
    severity = Severity.ERROR
    description = (
        "containers filled inside a future-completion loop hold results "
        "in completion order; iterate them via a canonical key sequence "
        "or sorted(...), never directly"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        for qualname in sorted(graph.functions):
            info = graph.functions[qualname]
            yield from self._check_function(info)

    def _check_function(self, info: FunctionInfo) -> Iterator[Finding]:
        loops = [
            node
            for node in ast.walk(info.node)
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While))
            and self._consumes_futures(node)
        ]
        if not loops:
            return
        tainted: dict[str, int] = {}  # container name -> loop end line
        for loop in loops:
            end = getattr(loop, "end_lineno", loop.lineno) or loop.lineno
            for name in self._mutated_names(loop):
                tainted[name] = max(tainted.get(name, 0), end)
        if not tainted:
            return
        for node in ast.walk(info.node):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterated = node.iter
            elif isinstance(node, ast.comprehension):
                iterated = node.iter
            else:
                continue
            name = self._iterated_container(iterated)
            if name is None or name not in tainted:
                continue
            if (iterated.lineno or 0) <= tainted[name]:
                continue  # inside/before the completion loop itself
            yield self.finding(
                info.module,
                iterated,
                f"{_short(info.qualname)} iterates {name!r} directly, but "
                f"{name!r} was filled in future-completion order; index it "
                "by a canonical site sequence or iterate sorted(...)",
            )

    @staticmethod
    def _consumes_futures(loop: ast.stmt) -> bool:
        for node in ast.walk(loop):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "result"
            ):
                return True
        return False

    @staticmethod
    def _mutated_names(loop: ast.stmt) -> set[str]:
        mutated: set[str] = set()
        for node in ast.walk(loop):
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript):
                        root = _root_name(target)
                        if root is not None:
                            mutated.add(root)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATING_METHODS
                and isinstance(node.func.value, ast.Name)
            ):
                mutated.add(node.func.value.id)
        return mutated

    @staticmethod
    def _iterated_container(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            return expr.id
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("keys", "values", "items")
            and isinstance(expr.func.value, ast.Name)
        ):
            return expr.func.value.id
        return None


class WorkerWallClockRule(_WorkerRule):
    """No wall-clock reads on worker-reachable paths.

    Functions living in a :data:`SANCTIONED_TELEMETRY` module are skipped:
    the clock reads there are the observability subsystem doing its job
    (see the module docstring). The skip is keyed on the *defining*
    module, so results-path code calling the clock directly still fires
    even when observability is also in the worker closure.
    """

    id = "worker-wall-clock"
    description = (
        "worker-reachable code must not read the wall clock (time.time, "
        "datetime.now, …); results must be a pure function of the inputs"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        chains, _ = self._closure(graph)
        for qualname in sorted(chains):
            info = graph.functions[qualname]
            mod_name = info.module.name or info.module.path.stem
            if is_sanctioned_telemetry(mod_name):
                continue
            note = _chain_note(chains[qualname])
            for site in info.calls:
                if site.external in WALL_CLOCK_CALLS:
                    yield self.finding(
                        info.module,
                        site.node,
                        f"{_short(info.qualname)} calls wall-clock "
                        f"function {site.external}() on a worker path "
                        f"({note})",
                    )


#: ``ast.TryStar`` (except*) exists only on Python >= 3.11.
_TRY_NODES: tuple[type, ...] = (
    (ast.Try, ast.TryStar) if hasattr(ast, "TryStar") else (ast.Try,)
)


class WorkerExceptionSwallowRule(_WorkerRule):
    """Worker code must let failures propagate to the parent."""

    id = "worker-exception-swallow"
    description = (
        "worker-reachable code must not swallow exceptions with a bare "
        "except:/except Exception: pass; the resilience protocol (retry, "
        "bisection, quarantine) keys off worker failures propagating"
    )

    _BROAD = frozenset({"Exception", "BaseException"})

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        chains, _ = self._closure(graph)
        for qualname in sorted(chains):
            info = graph.functions[qualname]
            note = _chain_note(chains[qualname])
            for node in ast.walk(info.node):
                if not isinstance(node, _TRY_NODES):
                    continue
                for handler in node.handlers:
                    label = self._broad_label(handler.type)
                    if label is None or not self._swallows(handler):
                        continue
                    yield self.finding(
                        info.module,
                        handler,
                        f"{_short(info.qualname)} swallows {label} on a "
                        f"worker path ({note}); a swallowed worker failure "
                        "silently corrupts the shard instead of triggering "
                        "retry/bisection/quarantine — let it propagate or "
                        "catch a specific exception type",
                    )

    def _broad_label(self, type_expr: ast.expr | None) -> str | None:
        """A display label when the handler is broad, else ``None``."""
        if type_expr is None:
            return "a bare 'except:'"
        clauses = (
            type_expr.elts if isinstance(type_expr, ast.Tuple) else [type_expr]
        )
        for clause in clauses:
            name = (
                clause.id
                if isinstance(clause, ast.Name)
                else clause.attr
                if isinstance(clause, ast.Attribute)
                else None
            )
            if name in self._BROAD:
                return f"'except {name}:'"
        return None

    @staticmethod
    def _swallows(handler: ast.ExceptHandler) -> bool:
        """True when the handler body discards the exception entirely."""
        return all(
            isinstance(stmt, (ast.Pass, ast.Continue, ast.Break))
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
            )
            for stmt in handler.body
        )


#: The determinism battery, in documentation order.
DETERMINISM_RULES: tuple[ProjectRule, ...] = (
    WorkerGlobalWriteRule(),
    WorkerUnorderedIterRule(),
    MergeUnorderedIterRule(),
    WorkerWallClockRule(),
    WorkerExceptionSwallowRule(),
)
