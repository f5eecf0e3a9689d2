"""Socket discipline for the networked packages (``socket-discipline``).

The availability story of both networked tiers — the distributed fabric
(``docs/distributed.md``) and the campaign service (``docs/service.md``)
— rests on one invariant: **no I/O operation ever waits on a peer
without a deadline**. A single unbounded read in the coordinator, the
worker agent, or an HTTP connection handler turns a silent peer into a
hung campaign — precisely the failure mode leases and request timeouts
exist to convert into forward progress. This rule proves the invariant
statically, in two sweeps:

* **Async sweep** — in every module under the swept packages
  (``repro.core.fabric`` and ``repro.service``), an ``await`` of a
  stream/socket operation whose completion depends on a peer
  (``read``/``readline``/``readexactly``/``readuntil``, ``drain``,
  ``recv``, ``accept``, ``connect``, ``sendall``, ``open_connection``)
  must be wrapped *directly* in :func:`asyncio.wait_for` with a real
  timeout — and any ``wait_for`` whose timeout is literally ``None`` is
  flagged too, since that is an unbounded read with extra steps.
* **Worker/job-closure sync sweep** — the closure reachable from the
  discovered worker entries (the same entry discovery the worker-path
  rules of :mod:`repro.checks.determinism` use, so the fabric agent's
  pool shards are covered) *plus* the
  service's job entry (``repro.service.jobs._run_job``) must not open
  sockets at all: no ``socket.socket()``, no
  ``socket.create_connection()`` without an explicit ``timeout=``, no
  raw ``.recv``/``.accept``/``.connect``/``.sendall`` calls. Shard and
  job execution are pure compute; all networking belongs to the
  transport layers, where the async sweep governs it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.checks.determinism import discover_worker_entries
from repro.checks.engine import Finding, ProjectRule, Severity
from repro.checks.graph import ProjectGraph

__all__ = [
    "FABRIC_PACKAGE",
    "SERVICE_PACKAGE",
    "SWEPT_PACKAGES",
    "JOB_ENTRY_QUALNAMES",
    "PEER_BOUND_AWAITS",
    "SYNC_SOCKET_CALLS",
    "SYNC_SOCKET_METHODS",
    "SocketDisciplineRule",
    "SOCKET_RULES",
]

#: The distributed fabric package (the original swept tier).
FABRIC_PACKAGE = "repro.core.fabric"

#: The campaign service package (same discipline, same sweep).
SERVICE_PACKAGE = "repro.service"

#: Dotted packages whose modules the async sweep covers.
SWEPT_PACKAGES = (FABRIC_PACKAGE, SERVICE_PACKAGE)

#: Additional sync-sweep entry points beyond the discovered worker
#: entries: the service's job runner, whose reachable closure
#: executes campaigns on a thread and must stay socket-free likewise.
JOB_ENTRY_QUALNAMES = ("repro.service.jobs._run_job",)

#: Awaited attribute calls whose completion depends on a remote peer.
PEER_BOUND_AWAITS = frozenset(
    {
        "read",
        "readline",
        "readexactly",
        "readuntil",
        "drain",
        "recv",
        "accept",
        "connect",
        "sendall",
        "open_connection",
    }
)

#: Blocking socket constructors/methods banned from the worker closure.
SYNC_SOCKET_CALLS = frozenset(
    {
        "socket.socket",
        "socket.create_connection",
        "socket.create_server",
    }
)

#: Blocking socket *methods* banned from the worker closure (attribute
#: calls, matched by name — deliberately narrow so generic ``.read()``
#: file I/O does not false-positive).
SYNC_SOCKET_METHODS = frozenset({"recv", "recv_into", "accept", "sendall"})


def _is_wait_for(func: ast.expr) -> bool:
    """``asyncio.wait_for(...)`` or a from-imported ``wait_for(...)``."""
    if isinstance(func, ast.Name):
        return func.id == "wait_for"
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "wait_for"
        and isinstance(func.value, ast.Name)
        and func.value.id == "asyncio"
    )


def _wait_for_timeout(call: ast.Call) -> ast.expr | None:
    """The timeout expression of a ``wait_for`` call, or ``None``."""
    if len(call.args) >= 2:
        return call.args[1]
    for keyword in call.keywords:
        if keyword.arg == "timeout":
            return keyword.value
    return None


def _awaited_operation(call: ast.Call) -> str | None:
    """The peer-bound operation an awaited call performs, if any."""
    func = call.func
    if isinstance(func, ast.Attribute) and func.attr in PEER_BOUND_AWAITS:
        return func.attr
    if isinstance(func, ast.Name) and func.id in PEER_BOUND_AWAITS:
        return func.id
    return None


class SocketDisciplineRule(ProjectRule):
    """No peer-bound I/O without an explicit deadline (module docstring)."""

    id = "socket-discipline"
    severity = Severity.ERROR
    description = (
        "fabric and service code must bound every peer-facing await "
        "with asyncio.wait_for, and the worker/job-reachable closure "
        "must not touch sockets at all"
    )

    def check_project(self, graph: ProjectGraph) -> Iterator[Finding]:
        yield from self._check_fabric_awaits(graph)
        yield from self._check_worker_closure(graph)

    # -- async sweep (fabric + service) --------------------------------
    def _check_fabric_awaits(self, graph: ProjectGraph) -> Iterator[Finding]:
        for mod_name in sorted(graph.modules):
            if not any(
                mod_name == package or mod_name.startswith(package + ".")
                for package in SWEPT_PACKAGES
            ):
                continue
            module = graph.modules[mod_name]
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Await) or not isinstance(
                    node.value, ast.Call
                ):
                    continue
                call = node.value
                if _is_wait_for(call.func):
                    timeout = _wait_for_timeout(call)
                    if timeout is None or (
                        isinstance(timeout, ast.Constant)
                        and timeout.value is None
                    ):
                        yield self.finding(
                            module,
                            node,
                            "asyncio.wait_for without a real timeout is "
                            "an unbounded wait; pass a finite deadline",
                        )
                    continue
                operation = _awaited_operation(call)
                if operation is not None:
                    yield self.finding(
                        module,
                        node,
                        f"awaits peer-bound {operation}() without an "
                        f"asyncio.wait_for deadline; a silent peer "
                        f"hangs this coroutine forever",
                    )

    # -- worker-closure sync sweep -------------------------------------
    def _check_worker_closure(
        self, graph: ProjectGraph
    ) -> Iterator[Finding]:
        entries = [
            entry.qualname for entry in discover_worker_entries(graph)
        ]
        entries.extend(
            qualname
            for qualname in JOB_ENTRY_QUALNAMES
            if qualname in graph.functions
        )
        chains = graph.reachable(entries)
        for qualname in sorted(chains):
            info = graph.functions[qualname]
            for site in info.calls:
                message = self._classify_sync(site)
                if message is not None:
                    chain = " -> ".join(
                        part.rsplit(".", 1)[-1] for part in chains[qualname]
                    )
                    yield self.finding(
                        info.module,
                        site.node,
                        f"{message} on a worker-reachable path ({chain}); "
                        f"shard execution must not touch sockets",
                    )

    @staticmethod
    def _classify_sync(site) -> str | None:
        external = site.external
        if external in SYNC_SOCKET_CALLS:
            if external == "socket.create_connection" and any(
                kw.arg == "timeout" for kw in site.node.keywords
            ):
                return None
            return f"opens a socket via {external}()"
        func = site.node.func
        if (
            isinstance(func, ast.Attribute)
            and func.attr in SYNC_SOCKET_METHODS
        ):
            return f"calls blocking socket method .{func.attr}()"
        return None


#: The battery :func:`repro.checks.engine.project_rules` registers.
SOCKET_RULES = (SocketDisciplineRule(),)
