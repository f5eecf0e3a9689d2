"""Worker-path rules for the campaign executor.

Every tier of the executor promises results bit-identical to the serial
path, and its resilience protocol — retry, bisection, quarantine — keys
off worker failures reaching the parent. These rules guard the two
worker-path hazards no run-time comparison sees: a clock read (a result
that depends on *when* it was computed may still agree on the day the
suites run) and a swallowed exception (a shard that hides its failure
still returns records). Unseeded RNG draws and OS entropy are banned in
every module by the per-file ``unseeded-random`` rule, so no worker-path
rule repeats that. Hash-seed order, completion-order merges and state
shared by the shards of one worker are pinned at run time instead, by
``tests/core/test_determinism_harness.py``.

Worker entry points are discovered, not configured:

* the callable arguments of ``pool.submit(f, …)`` / ``pool.map(f, …)``;
* the ``initializer=`` keyword of any pool constructor;
* the conventional names ``_adopt_setup`` / ``_run_shard`` (so the rules
  keep working on a tree where the submission site itself fails to
  parse).

The one sanctioned exception is *telemetry*: the observability
subsystem (:data:`SANCTIONED_TELEMETRY`, i.e. ``repro.obs``) exists to
measure how long worker code took, which requires clock reads on worker
paths by design. Its modules are allowlisted for ``worker-wall-clock``
only, and clock reads in results-path modules still fire. The safety
argument is the bit-equivalence contract: observability never feeds a
value back into an experiment result (pinned by
``tests/core/test_obs_equivalence.py``), so a timestamp there cannot
make results depend on *when* they were computed.

Rules
-----
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
from repro.checks.graph import ProjectGraph

__all__ = [
    "CONVENTIONAL_ENTRIES",
    "WALL_CLOCK_CALLS",
    "SANCTIONED_TELEMETRY",
    "is_sanctioned_telemetry",
    "WorkerEntry",
    "discover_worker_entries",
    "WorkerWallClockRule",
    "WorkerExceptionSwallowRule",
    "DETERMINISM_RULES",
]

#: Conventional worker entry-point names (see module docstring); naming
#: them keeps the shard closure inside the worker-path rules even when
#: the ``pool.submit`` sweep misses an indirection.
CONVENTIONAL_ENTRIES = frozenset({"_adopt_setup", "_run_shard"})

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
#: ``worker-wall-clock`` only — ``worker-exception-swallow`` still
#: applies to these modules in full.
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
        if qualname is not None and qualname in graph.functions:
            entries.setdefault(qualname, WorkerEntry(qualname, kind))

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
            add(qualname, "conventional")
    return tuple(entries[q] for q in sorted(entries))


def _short(qualname: str) -> str:
    return qualname.removeprefix("repro.")


def _chain_note(chain: tuple[str, ...]) -> str:
    """Human-readable worker path, elided in the middle when long."""
    names = [_short(q) for q in chain]
    if len(names) > 4:
        names = names[:2] + ["…"] + names[-2:]
    return " -> ".join(names)


class _WorkerRule(ProjectRule):
    """Shared plumbing: entry discovery + reachability closure."""

    severity = Severity.ERROR

    def _closure(self, graph: ProjectGraph) -> dict[str, tuple[str, ...]]:
        """Each worker-reachable function's call chain from an entry."""
        entries = discover_worker_entries(graph)
        return graph.reachable(e.qualname for e in entries)


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
        chains = self._closure(graph)
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
        chains = self._closure(graph)
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


#: The worker-path battery, in documentation order.
DETERMINISM_RULES: tuple[ProjectRule, ...] = (
    WorkerWallClockRule(),
    WorkerExceptionSwallowRule(),
)
