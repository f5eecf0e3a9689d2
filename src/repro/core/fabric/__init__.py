"""``repro.core.fabric`` — distributed campaign execution over sockets.

A coordinator/worker fabric built on the standard library alone
(:mod:`asyncio` streams + the length-prefixed framed-JSON protocol in
:mod:`repro.core.serialize`):

* :class:`DistributedExecutor` — a drop-in
  :class:`~repro.core.executor.CampaignExecutor` that listens for
  workers instead of forking a local pool; same checkpoint, resume,
  retry/bisection/quarantine, and bit-identical merge semantics as
  :class:`~repro.core.executor.ParallelExecutor`.
* :class:`Coordinator` — the asyncio server owning the shard queue
  (:mod:`repro.core.fabric.coordinator`). It tracks in-flight shards in
  the same :class:`~repro.core.resilience.LeaseTable` the pool
  dispatcher uses; here each lease is held by a worker and renewed by
  its heartbeats, which is the fabric's entire failure detector.
* :class:`WorkerAgent` — the elastic worker process behind
  ``repro-fi worker --connect HOST:PORT``
  (:mod:`repro.core.fabric.worker`).

See ``docs/distributed.md`` for the protocol frames, the lease state
machine, and the failure → recovery matrix.
"""

from __future__ import annotations

from repro.core.fabric.coordinator import Coordinator, DistributedExecutor
from repro.core.fabric.worker import WorkerAgent

__all__ = [
    "Coordinator",
    "DistributedExecutor",
    "WorkerAgent",
]
