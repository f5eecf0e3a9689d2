"""The fabric coordinator: one shard queue, many remote workers.

:class:`DistributedExecutor` is a :class:`~repro.core.executor.
ParallelExecutor` whose transport is a socket fleet instead of a local
process pool — it overrides exactly one method (``_dispatch``), so the
golden cache, checkpoint open/restore/close, observability spans,
progress line, and canonical merge are shared verbatim with the
single-machine tier. Inside ``_dispatch`` an asyncio
:class:`Coordinator` listens for :class:`~repro.core.fabric.worker.
WorkerAgent` connections, hands out shard **leases** in the same
:class:`~repro.core.resilience.LeaseTable` the in-process dispatcher
keeps its futures in (here each lease is held by a worker and renewed
by its heartbeats), ingests result frames straight into the same JSONL
checkpoint, fsynced before the lease is released, and feeds every
failure — worker lost, lease expired, protocol violation, or a typed
error reported by the agent — through the exact
:class:`~repro.core.resilience.FailureLadder` the in-process dispatcher
uses. Retry budgets, deterministic backoff, poison-site bisection, and
quarantine therefore behave identically across the wire; only the
transport differs. A checkpoint write that fails ends the campaign with
the write's :class:`OSError`, as on the pool tier.

Failure matrix (recovery is always requeue-through-the-ladder):

=====================  ==========================  ====================
observation            taxonomy kind               recovery
=====================  ==========================  ====================
connection error/EOF   ``worker-lost``             requeue held shards
lease deadline passed  ``lease-expired``           requeue, drop stale
torn/undecodable frame ``protocol-error``          requeue held shards
agent ``shard-error``  as reported (crash, ...)    ladder as usual
stale/duplicate result —                           drop frame, count it
``bye``                —                           requeue unpenalized
SIGINT/SIGTERM         ``CampaignInterrupted``     drain + ``--resume``
=====================  ==========================  ====================
"""

from __future__ import annotations

import asyncio
import signal as _signal_module
import threading
import time
from dataclasses import dataclass
from typing import IO, Any, Callable

import numpy as np

from repro.core.campaign import Campaign, ExperimentResult
from repro.core.executor import ParallelExecutor, _ShardIngest
from repro.core.fabric.protocol import (
    MSG_BYE,
    MSG_DRAIN,
    MSG_HEARTBEAT,
    MSG_HELLO,
    MSG_RESULT,
    MSG_SHARD,
    MSG_SHARD_ERROR,
    MSG_WELCOME,
    recv_frame,
    send_frame,
)
from repro.core.resilience import (
    CampaignExecutionError,
    FailureKind,
    FailureRecord,
    Lease,
    ProtocolError,
    ShardTask,
    WorkerLost,
)
from repro.core.serialize import fabric_setup_record
from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import TilingPlan

__all__ = ["Coordinator", "DistributedExecutor"]


@dataclass
class _WorkerConn:
    """One connected worker: its transport and announced capacity."""

    worker_id: int
    writer: asyncio.StreamWriter
    lock: asyncio.Lock
    jobs: int
    lost: bool = False


class Coordinator(_ShardIngest):
    """The asyncio server owning one campaign's shard queue.

    Single-threaded by construction: every mutation of the queue, the
    lease table, and the completed map happens on the event loop, so the
    scheduling is as deterministic as the in-process dispatcher's (up to
    network timing). The JSONL checkpoint stream remains the single
    source of truth — results are fsynced into it the moment they are
    accepted, before the lease is released; a write that fails ends the
    campaign with its :class:`OSError`.
    """

    def __init__(
        self,
        executor: "DistributedExecutor",
        campaign: Campaign,
        golden: np.ndarray,
        plan: TilingPlan,
        geometry: ConvGeometry | None,
        pending: list[tuple[int, int]],
        stream: IO[str] | None,
    ) -> None:
        super().__init__(
            executor, campaign, golden, plan, geometry, pending, stream,
            lease_seconds=executor.lease_seconds,
        )
        self.workers: dict[int, _WorkerConn] = {}
        self.setup = fabric_setup_record(
            campaign,
            chaos=executor.chaos,
            trace=self.obs.recorder.armed,
            shard_timeout=executor.shard_timeout,
        )
        self.port: int | None = None
        self._tick_seconds = min(
            self.TICK_SECONDS, executor.lease_seconds / 4.0
        )
        self._next_worker_id = 0
        self._next_shard_id = 0
        self._ever_joined = False
        self._abort: Exception | None = None
        self._done: asyncio.Event | None = None
        self._server: asyncio.AbstractServer | None = None
        self._handler_tasks: set[asyncio.Task] = set()

    # -- server lifecycle ----------------------------------------------
    async def serve(
        self,
    ) -> tuple[
        dict[tuple[int, int], ExperimentResult],
        dict[tuple[int, int], FailureRecord],
    ]:
        """Listen, lease, ingest; return ``(completed, failures)``."""
        self._done = asyncio.Event()
        self._join_deadline = time.monotonic() + self.executor.join_timeout
        loop = asyncio.get_running_loop()
        installed: list[int] = []
        if threading.current_thread() is threading.main_thread():
            for signum in (_signal_module.SIGINT, _signal_module.SIGTERM):
                try:
                    loop.add_signal_handler(
                        signum, self._capture_signal, signum
                    )
                    installed.append(signum)
                except (NotImplementedError, RuntimeError):
                    break
        server = self._server = await asyncio.start_server(
            self._serve_connection, self.executor.host, self.executor.port
        )
        self.port = server.sockets[0].getsockname()[1]
        if self.executor.announce is not None:
            self.executor.announce(self.executor.host, self.port)
        ticker = asyncio.create_task(self._ticker())
        try:
            await self._done.wait()
        finally:
            ticker.cancel()
            await asyncio.gather(ticker, return_exceptions=True)
            server.close()
            await self._drain_workers()
            handlers = list(self._handler_tasks)
            if handlers:
                try:
                    await asyncio.wait_for(
                        asyncio.gather(*handlers, return_exceptions=True),
                        self.executor.io_timeout,
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    for task in handlers:
                        task.cancel()
            await server.wait_closed()
            for signum in installed:
                loop.remove_signal_handler(signum)
        if self._abort is not None:
            raise self._abort
        if self._signum is not None:
            raise self._interrupted(self._signum)
        return self._hand_over()

    def _finish(self) -> None:
        """End the session. The listener closes before any ``drain`` is
        written, so an agent probing for the next campaign the moment
        it is drained finds the port closed instead of joining a
        coordinator on its way out."""
        assert self._done is not None
        if self._server is not None:
            self._server.close()
        self._done.set()

    def _capture_signal(self, signum: int) -> None:
        self._signum = signum
        self._finish()

    def _fail(self, exc: Exception) -> None:
        if self._abort is None:
            self._abort = exc
        self._finish()

    def _check_done(self) -> None:
        """Publish the lease gauge; end the session once nothing is
        queued or leased."""
        self._gauge_leases()
        if not self.queue and not self.leases:
            self._finish()

    async def _drain_workers(self) -> None:
        for worker in list(self.workers.values()):
            await self._send_drain(worker)

    async def _send_drain(
        self,
        worker: _WorkerConn,
        reader: asyncio.StreamReader | None = None,
    ) -> None:
        """Tell one worker the campaign is over, then hang up — after
        reading ``reader`` (when given) until the worker hangs up, so
        result frames already in flight, such as a replayed duplicate,
        are counted as the stale frames they are."""
        self.workers.pop(worker.worker_id, None)
        self._gauge_workers()
        try:
            await send_frame(
                worker.writer,
                {"type": MSG_DRAIN},
                self.executor.io_timeout,
                lock=worker.lock,
            )
        except (
            asyncio.TimeoutError,
            TimeoutError,
            ConnectionError,
            OSError,
        ):
            pass
        if reader is not None:
            try:
                while True:
                    frame = await recv_frame(reader, self.executor.io_timeout)
                    if frame.get("type") in (MSG_RESULT, MSG_SHARD_ERROR):
                        self._stale(worker, frame.get("shard_id"))
            except (
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
                TimeoutError,
                ConnectionError,
                OSError,
                ProtocolError,
            ):
                pass
        self._close_writer(worker.writer)

    @staticmethod
    def _close_writer(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass

    # -- per-connection protocol loop ----------------------------------
    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        worker: _WorkerConn | None = None
        assert self._done is not None
        try:
            hello = await recv_frame(reader, self.executor.io_timeout)
            if hello.get("type") != MSG_HELLO:
                raise ProtocolError(
                    f"expected a hello, got {hello.get('type')!r}"
                )
            jobs = int(hello.get("jobs", 1))
            if jobs < 1:
                raise ProtocolError(f"worker announced jobs={jobs}")
            worker = self._register(writer, jobs)
            await send_frame(
                writer,
                {
                    "type": MSG_WELCOME,
                    "worker_id": worker.worker_id,
                    "setup": self.setup,
                    "heartbeat_interval": self.executor.heartbeat_interval,
                },
                self.executor.io_timeout,
                lock=worker.lock,
            )
            await self._assign(worker)
            # Workers heartbeat on a fixed cadence (except under
            # injected stalls), so the longest legitimate read gap is
            # bounded; a silence past the lease horizon means the
            # connection itself is dead, not just slow.
            read_timeout = max(
                self.executor.io_timeout, self.executor.lease_seconds * 3.0
            )
            while not self._done.is_set():
                frame = await recv_frame(reader, read_timeout)
                kind = frame.get("type")
                if kind == MSG_HEARTBEAT:
                    self.leases.renew(worker.worker_id, time.monotonic())
                    await send_frame(
                        writer,
                        {"type": MSG_HEARTBEAT},
                        self.executor.io_timeout,
                        lock=worker.lock,
                    )
                    await self._assign(worker)
                elif kind in (MSG_RESULT, MSG_SHARD_ERROR):
                    self._ingest_frame(worker, frame)
                    self._check_done()
                    await self._assign(worker)
                elif kind == MSG_BYE:
                    self._release_worker(worker)
                    break
                else:
                    raise ProtocolError(
                        f"unexpected {kind!r} message from worker"
                    )
            else:
                # The campaign finished while this worker behaved: say
                # drain from here, before the connection is torn down —
                # serve()'s cleanup only reaches workers whose handlers
                # are still parked in a read.
                self._release_worker(worker)
                await self._send_drain(worker, reader)
        except (
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
            TimeoutError,
            ConnectionError,
            OSError,
            ProtocolError,
        ) as exc:
            if (
                worker is not None
                and not worker.lost
                and not self._done.is_set()
            ):
                self._worker_lost(worker, repr(exc))
                self._check_done()
        except CampaignExecutionError as exc:
            self._fail(exc)
        finally:
            if task is not None:
                self._handler_tasks.discard(task)
            self._close_writer(writer)

    # -- fleet bookkeeping ---------------------------------------------
    def _register(self, writer: asyncio.StreamWriter, jobs: int) -> _WorkerConn:
        self._next_worker_id += 1
        worker = _WorkerConn(
            worker_id=self._next_worker_id,
            writer=writer,
            lock=asyncio.Lock(),
            jobs=jobs,
        )
        self.workers[worker.worker_id] = worker
        self._ever_joined = True
        self.obs.metrics.counter(
            "repro_fabric_worker_joined_total",
            "Fabric workers that completed the join handshake.",
        ).inc()
        self._gauge_workers()
        return worker

    def _worker_lost(self, worker: _WorkerConn, reason: str) -> None:
        """The connection died while leases were (possibly) held: count
        the loss, forfeit every lease through the ladder."""
        if worker.lost:
            return
        worker.lost = True
        self.workers.pop(worker.worker_id, None)
        self.obs.metrics.counter(
            "repro_fabric_worker_lost_total",
            "Fabric workers that vanished (connection lost mid-session).",
        ).inc()
        self._gauge_workers()
        for shard_id in self.leases.held_by(worker.worker_id):
            self._count_requeue()
            self._fail_shard(
                self.leases.release(shard_id),
                FailureKind.WORKER_LOST,
                f"worker {worker.worker_id} lost: {reason}",
            )
        self._close_writer(worker.writer)

    def _release_worker(self, worker: _WorkerConn) -> None:
        """Graceful ``bye``: requeue held shards without penalty."""
        self.workers.pop(worker.worker_id, None)
        worker.lost = True
        for shard_id in self.leases.held_by(worker.worker_id):
            self._count_requeue()
            self.queue.appendleft(self.leases.release(shard_id))
        self._gauge_workers()

    def _gauge_workers(self) -> None:
        self.obs.metrics.gauge(
            "repro_fabric_workers_connected",
            "Fabric workers currently connected.",
        ).set(len(self.workers))

    def _gauge_leases(self) -> None:
        self.obs.metrics.gauge(
            "repro_fabric_leases_active",
            "Shard leases currently outstanding.",
        ).set(len(self.leases))

    def _count_requeue(self) -> None:
        self.obs.metrics.counter(
            "repro_fabric_requeues_total",
            "Shards requeued after a forfeited or returned lease.",
        ).inc()

    # -- scheduling ----------------------------------------------------
    async def _assign(self, worker: _WorkerConn) -> None:
        """Grant leases to ``worker`` up to its announced capacity."""
        assert self._done is not None
        if worker.lost or self._done.is_set():
            return
        now = time.monotonic()
        while len(self.leases.held_by(worker.worker_id)) < worker.jobs:
            task = self._pop_ready(now)
            if task is None:
                return
            self._next_shard_id += 1
            shard_id = self._next_shard_id
            self.leases.grant(shard_id, worker.worker_id, task, now)
            self._gauge_leases()
            try:
                await send_frame(
                    worker.writer,
                    {
                        "type": MSG_SHARD,
                        "shard_id": shard_id,
                        "sites": [list(site) for site in task.sites],
                    },
                    self.executor.io_timeout,
                    lock=worker.lock,
                )
            except (
                asyncio.TimeoutError,
                TimeoutError,
                ConnectionError,
                OSError,
            ) as exc:
                self._worker_lost(worker, repr(exc))
                return

    def _fail_shard(
        self, task: ShardTask, kind: FailureKind, error: str
    ) -> None:
        """Feed one exhausted attempt through the shared ladder; under
        ABORT the raised taxonomy error ends the campaign, and so does a
        quarantine record the checkpoint failed to write."""
        try:
            self.ladder.fail(task, kind, error)
        except (CampaignExecutionError, OSError) as exc:
            self._fail(exc)

    # -- frame ingestion -----------------------------------------------
    def _stale(self, worker: _WorkerConn, shard_id: Any) -> Lease | None:
        """The sender's lease a frame answers, or ``None`` for stale frames.

        A frame is stale when its lease expired, was reassigned, or was
        already released by an earlier copy (duplicate replay). Dropping
        it is what makes lease forfeiture idempotent.
        """
        lease = (
            self.leases.holder(shard_id) if isinstance(shard_id, int) else None
        )
        if lease is None or lease.worker_id != worker.worker_id:
            self.obs.metrics.counter(
                "repro_fabric_stale_results_total",
                "Result/error frames dropped because their lease was "
                "no longer held by the sender.",
            ).inc()
            return None
        return lease

    def _ingest_frame(self, worker: _WorkerConn, frame: dict) -> None:
        """Take in a ``result`` or ``shard-error`` frame for a lease."""
        shard_id = frame.get("shard_id")
        if self._stale(worker, shard_id) is None:
            return
        if frame["type"] == MSG_SHARD_ERROR:
            try:
                kind = FailureKind(frame.get("kind"))
            except ValueError:
                kind = FailureKind.CRASH
            error = str(frame.get("error", "unspecified worker failure"))
            self._fail_shard(self.leases.release(shard_id), kind, error)
            return
        try:
            self._ingest(
                shard_id,
                (frame.get("records"), frame.get("events") or []),
                undecodable=FailureKind.PROTOCOL_ERROR,
            )
        except OSError as exc:  # the checkpoint write, not the transport
            self._fail(exc)

    # -- background ticker ---------------------------------------------
    async def _ticker(self) -> None:
        """Expire silent leases, push backoff-gated work, watch the join
        deadline, and close the campaign when everything is accounted."""
        assert self._done is not None
        while not self._done.is_set():
            await asyncio.sleep(self._tick_seconds)
            interrupt = self.executor.interrupt
            if (
                self._signum is None
                and interrupt is not None
                and interrupt.is_set()
            ):
                # Cooperative interrupt (the service's cancel/drain seam):
                # same orderly drain a delivered SIGINT triggers.
                self._capture_signal(int(_signal_module.SIGINT))
            now = time.monotonic()
            for shard_id in self.leases.expired(now):
                lease = self.leases.holder(shard_id)
                self.leases.release(shard_id)
                self._count_requeue()
                self._fail_shard(
                    lease.task,
                    FailureKind.LEASE_EXPIRED,
                    f"worker {lease.worker_id} went silent past the "
                    f"{self.executor.lease_seconds:g}s lease deadline",
                )
            for worker in list(self.workers.values()):
                await self._assign(worker)
            if (
                not self._ever_joined
                and now >= self._join_deadline
                and (self.queue or len(self.leases))
            ):
                self._fail(
                    WorkerLost(
                        f"no worker joined within the "
                        f"{self.executor.join_timeout:g}s join deadline"
                    )
                )
            self._check_done()


class DistributedExecutor(ParallelExecutor):
    """Sharded campaign execution over a socket fleet.

    A drop-in :class:`~repro.core.executor.CampaignExecutor`:
    ``Campaign.run(executor=DistributedExecutor(...))`` behaves exactly
    like the parallel tier — same checkpoint format, same ``--resume``
    semantics, same canonical merge, bit-identical results — but shards
    are executed by :class:`~repro.core.fabric.worker.WorkerAgent`
    processes that join over TCP (``repro-fi worker``), on this machine
    or any other.

    Parameters (beyond :class:`~repro.core.executor.ParallelExecutor`'s)
    ----------
    host, port:
        Listening address; port ``0`` picks a free port (read it back
        through ``announce`` or ``Coordinator.port``).
    expected_workers:
        Anticipated fleet size — sizes the shard count
        (``expected_workers * shards_per_worker``), exactly as ``jobs``
        does for the local pool. Workers may join and leave freely; this
        is a granularity hint, never a requirement.
    lease_seconds:
        Shard lease duration; a worker silent this long forfeits its
        shards to the queue.
    heartbeat_interval:
        Cadence workers renew their leases at; must be comfortably
        shorter than ``lease_seconds``.
    io_timeout:
        Deadline for one protocol I/O operation.
    join_timeout:
        How long to wait for the *first* worker before giving up with
        :class:`~repro.core.resilience.WorkerLost`.
    announce:
        Optional ``callable(host, port)`` invoked once the server is
        listening — tests and scripts use it to learn the bound port
        and to spawn local workers.
    pooled:
        Every other :class:`~repro.core.executor.ParallelExecutor`
        keyword (checkpoint, resume, failure policy, chaos, obs,
        interrupt), passed through unchanged.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        expected_workers: int = 2,
        lease_seconds: float = 10.0,
        heartbeat_interval: float = 2.0,
        io_timeout: float = 30.0,
        join_timeout: float = 60.0,
        announce: Callable[[str, int], None] | None = None,
        **pooled: Any,
    ) -> None:
        super().__init__(jobs=expected_workers, **pooled)
        if lease_seconds <= 0:
            raise ValueError(
                f"lease_seconds must be positive, got {lease_seconds}"
            )
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be positive, got "
                f"{heartbeat_interval}"
            )
        if heartbeat_interval >= lease_seconds:
            raise ValueError(
                f"heartbeat_interval ({heartbeat_interval}) must be "
                f"shorter than lease_seconds ({lease_seconds}), or every "
                f"lease expires between renewals"
            )
        if io_timeout <= 0:
            raise ValueError(f"io_timeout must be positive, got {io_timeout}")
        if join_timeout <= 0:
            raise ValueError(
                f"join_timeout must be positive, got {join_timeout}"
            )
        self.host = host
        self.port = port
        self.lease_seconds = float(lease_seconds)
        self.heartbeat_interval = float(heartbeat_interval)
        self.io_timeout = float(io_timeout)
        self.join_timeout = float(join_timeout)
        self.announce = announce

    def _dispatch(
        self,
        campaign: Campaign,
        golden: np.ndarray,
        plan: TilingPlan,
        geometry: ConvGeometry | None,
        pending: list[tuple[int, int]],
        stream: IO[str] | None,
    ) -> tuple[
        dict[tuple[int, int], ExperimentResult],
        dict[tuple[int, int], FailureRecord],
    ]:
        coordinator = Coordinator(
            self, campaign, golden, plan, geometry, pending, stream
        )
        return asyncio.run(coordinator.serve())
