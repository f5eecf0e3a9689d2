"""The fabric worker agent: an elastic remote shard executor.

``repro-fi worker --connect HOST:PORT --jobs N`` runs one
:class:`WorkerAgent`: an asyncio client wrapped around the *exact*
process pool the single-machine executor uses
(:class:`repro.core.executor.WorkerPool`, whose children run
:func:`repro.core.executor._run_shard`). The agent joins a coordinator
elastically — any time before the campaign drains — computes the golden
run locally through the shared :data:`~repro.core.executor.GOLDEN_CACHE`,
executes leased shards in its pool, and forwards the experiment records
its pool children encode, as they are, plus drained trace events. One
pool serves the agent's whole life: a new campaign swaps the pool's
setup token, not its processes.

A lost connection is survivable by design: the agent reconnects with a
bounded retry budget, the coordinator requeues whatever the agent held
(lease forfeiture), and result ingestion is idempotent, so rejoining
never double-counts work.

Chaos: simulation kinds (``raise``/``hang``/``exit``/``corrupt``/
``sleep``) fire *inside* the pool workers exactly as on one machine;
network kinds (``drop``/``truncate``/``stall``/``replay``) are emulated
by the agent's transport layer via :meth:`ChaosSpec.fire_net`.
"""

from __future__ import annotations

import asyncio
import os
import signal as _signal_module
import threading
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.core.executor import GOLDEN_CACHE, WorkerPool, _validate_shard
from repro.core.fabric.protocol import (
    DEFAULT_IO_TIMEOUT,
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
from repro.core.resilience import FailureKind, ProtocolError
from repro.core.serialize import encode_frame, fabric_setup_from_record

__all__ = ["WorkerAgent"]

#: After a drain that ended a campaign the agent worked on, the next
#: coordinator on the endpoint usually listens within moments: probe it
#: on this doubling schedule (first step, cap; seconds), inside the one
#: ``reconnect_delay`` the probes stand in for.
_REJOIN_PROBE = (0.01, 0.2)


class WorkerAgent:
    """One fleet member: connects, leases shards, streams results.

    Parameters
    ----------
    host, port:
        The coordinator's listening address.
    jobs:
        Process-pool width — also the number of shard leases the agent
        holds concurrently.
    reconnect_attempts:
        Consecutive failed connections tolerated before giving up.
    reconnect_delay:
        Seconds between reconnection attempts.
    io_timeout:
        Deadline for one protocol I/O operation.
    stay:
        Keep rejoining after a campaign drains (fleet mode: the agent
        outlives individual campaigns, and its process pool and golden
        cache stay warm across them). After a drain that ended a
        campaign the agent leased shards in, it probes the endpoint on a
        short schedule for up to one ``reconnect_delay``, so it joins the
        next coordinator the moment that one listens; every other retry
        waits ``reconnect_delay``. Default is to exit cleanly on drain.
    """

    def __init__(
        self,
        host: str,
        port: int,
        jobs: int = 1,
        *,
        reconnect_attempts: int = 10,
        reconnect_delay: float = 1.0,
        io_timeout: float = DEFAULT_IO_TIMEOUT,
        stay: bool = False,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if reconnect_attempts < 0:
            raise ValueError(
                f"reconnect_attempts must be >= 0, got {reconnect_attempts}"
            )
        if reconnect_delay < 0:
            raise ValueError(
                f"reconnect_delay must be >= 0, got {reconnect_delay}"
            )
        if io_timeout <= 0:
            raise ValueError(f"io_timeout must be positive, got {io_timeout}")
        self.host = host
        self.port = port
        self.jobs = jobs
        self.reconnect_attempts = reconnect_attempts
        self.reconnect_delay = reconnect_delay
        self.io_timeout = io_timeout
        self.stay = stay
        self._pool: WorkerPool | None = None
        #: Pool restarts so far, and those the watchdog caused: a shard
        #: whose pool the watchdog killed under it reruns for free.
        self._restarts = 0
        self._watchdog_restarts: set[int] = set()
        self._chaos = None
        self._shard_timeout: float | None = None
        #: Monotonic instant until which heartbeat renewal is suppressed
        #: (injected ``stall`` chaos).
        self._stalled_until = 0.0
        #: Set by SIGINT/SIGTERM: say goodbye and exit cleanly.
        self._draining = False
        self._conn: tuple[asyncio.StreamWriter, asyncio.Lock] | None = None

    # -- entry points ---------------------------------------------------
    def run(self) -> int:
        """Serve until drained (or retries exhaust). Process exit code:
        0 on a clean drain, 1 when the coordinator stays unreachable."""
        try:
            return asyncio.run(self._main())
        finally:
            if self._pool is not None:
                self._pool.stop()

    async def _main(self) -> int:
        self._install_signal_handlers()
        failures = 0
        probe_until = 0.0
        probe = _REJOIN_PROBE[0]
        while True:
            try:
                outcome = await self._serve_once()
            except ConnectionRefusedError:
                outcome = "refused"
            except (
                asyncio.IncompleteReadError,
                asyncio.TimeoutError,
                TimeoutError,
                ConnectionError,
                OSError,
                ProtocolError,
            ):
                outcome = "lost"
            if self._draining:
                return 0
            now = time.monotonic()
            if outcome == "refused" and now < probe_until:
                # The next coordinator is not listening yet.
                await asyncio.sleep(min(probe, probe_until - now))
                probe = min(probe * 2.0, _REJOIN_PROBE[1])
                continue
            probe_until = 0.0
            if outcome in ("lost", "refused"):
                failures += 1
                if failures > self.reconnect_attempts:
                    return 1
            elif not self.stay:
                return 0
            else:
                failures = 0
                if outcome == "served":
                    probe_until = now + self.reconnect_delay
                    probe = _REJOIN_PROBE[0]
                    continue
            await asyncio.sleep(self.reconnect_delay)

    def _install_signal_handlers(self) -> None:
        """SIGINT/SIGTERM → graceful leave: send ``bye`` (held shards
        requeue unpenalized) and exit 0. Only legal on the main thread;
        thread-hosted agents (tests) keep default delivery."""
        if threading.current_thread() is not threading.main_thread():
            return
        loop = asyncio.get_running_loop()
        for signum in (_signal_module.SIGINT, _signal_module.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._begin_drain)
            except (NotImplementedError, RuntimeError):
                return

    def _begin_drain(self) -> None:
        self._draining = True
        if self._conn is not None:
            writer, lock = self._conn
            asyncio.ensure_future(self._say_bye(writer, lock))

    async def _say_bye(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock
    ) -> None:
        try:
            await send_frame(
                writer, {"type": MSG_BYE}, self.io_timeout, lock=lock
            )
        except (asyncio.TimeoutError, TimeoutError, ConnectionError, OSError):
            pass
        writer.close()

    # -- one connection -------------------------------------------------
    async def _serve_once(self) -> str:
        """One connection: ``"served"`` when a drain ended a campaign
        this connection leased shards in, ``"drained"`` when it leased
        none; a lost connection raises."""
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.io_timeout
        )
        lock = asyncio.Lock()
        self._conn = (writer, lock)
        heartbeat: asyncio.Task | None = None
        shard_tasks: set[asyncio.Task] = set()
        leased = False
        try:
            await send_frame(
                writer,
                {"type": MSG_HELLO, "jobs": self.jobs},
                self.io_timeout,
                lock=lock,
            )
            welcome = await recv_frame(reader, self.io_timeout)
            if welcome.get("type") != MSG_WELCOME:
                raise ProtocolError(
                    f"expected a welcome, got {welcome.get('type')!r}"
                )
            self._adopt(welcome)
            interval = float(welcome["heartbeat_interval"])
            heartbeat = asyncio.create_task(
                self._heartbeat(writer, lock, interval)
            )
            # The coordinator pongs every heartbeat, so the longest
            # legitimate read gap is one heartbeat interval.
            read_timeout = max(self.io_timeout, interval * 4.0)
            while True:
                frame = await recv_frame(reader, read_timeout)
                kind = frame.get("type")
                if kind == MSG_SHARD:
                    leased = True
                    task = asyncio.create_task(
                        self._execute(
                            writer,
                            lock,
                            int(frame["shard_id"]),
                            [tuple(site) for site in frame["sites"]],
                        )
                    )
                    shard_tasks.add(task)
                    task.add_done_callback(shard_tasks.discard)
                elif kind == MSG_HEARTBEAT:
                    continue  # the coordinator's pong
                elif kind == MSG_DRAIN:
                    return "served" if leased else "drained"
                else:
                    raise ProtocolError(
                        f"unexpected {kind!r} message from coordinator"
                    )
        finally:
            self._conn = None
            if heartbeat is not None:
                heartbeat.cancel()
            for task in shard_tasks:
                task.cancel()
            pending = [t for t in ([heartbeat] if heartbeat else [])] + list(
                shard_tasks
            )
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()

    def _adopt(self, welcome: dict[str, Any]) -> None:
        """Take the coordinator's setup: campaign, chaos, golden.

        The setup is plain JSON, decoded by the spec codec (a malformed
        one raises :class:`~repro.core.serialize.SpecError`). The golden
        run comes from the warm golden cache, and the setup becomes the
        pool's new token: the pool's processes stay, and each child
        decodes the new setup on its next shard. The first welcome
        creates the pool, which then lives as long as the agent.

        A ``spawn`` context, not the platform default ``fork``: forked
        pool children would inherit a duplicate of the coordinator
        socket fd, and the kernel only emits the FIN/RST once *every*
        copy of the fd closes — so after the agent severed (or lost)
        its connection, the coordinator would not observe the
        disconnect until the lease horizon instead of immediately.
        Spawned children inherit no fds at all; shard workers must hold
        no sockets anyway (the ``socket-discipline`` rule is the static
        half of this contract).
        """
        campaign, chaos, trace, shard_timeout = fabric_setup_from_record(
            welcome.get("setup")
        )
        self._chaos = chaos
        self._shard_timeout = shard_timeout
        golden, plan, geometry = GOLDEN_CACHE.golden_run(campaign)
        if self._pool is None:
            self._pool = WorkerPool(self.jobs, context="spawn")
            self._pool.start()
        self._pool.adopt(campaign, golden, plan, geometry, chaos, trace)

    async def _heartbeat(
        self, writer: asyncio.StreamWriter, lock: asyncio.Lock, interval: float
    ) -> None:
        while True:
            await asyncio.sleep(interval)
            if time.monotonic() < self._stalled_until:
                continue  # injected stall: forfeit renewal on schedule
            await send_frame(
                writer, {"type": MSG_HEARTBEAT}, self.io_timeout, lock=lock
            )

    # -- shard execution ------------------------------------------------
    async def _execute(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        shard_id: int,
        sites: list[tuple[int, int]],
    ) -> None:
        action = None
        if self._chaos is not None:
            for site in sites:
                action = self._chaos.fire_net(site)
                if action is not None:
                    break
        if action is not None and action.kind == "drop":
            # The remote analogue of a hard worker kill: sever the
            # transport mid-lease and die without a goodbye. Pool
            # children are killed first — ``os._exit`` alone would
            # orphan them, and they hold inherited copies of this
            # process's stdio pipes.
            writer.transport.abort()
            self._pool.stop(kill=True)
            os._exit(1)
        payload, problem, kind = await self._run_in_pool(sites)
        if problem is not None:
            await send_frame(
                writer,
                {
                    "type": MSG_SHARD_ERROR,
                    "shard_id": shard_id,
                    "kind": kind,
                    "error": problem,
                },
                self.io_timeout,
                lock=lock,
            )
            return
        records, events = payload
        message = {
            "type": MSG_RESULT,
            "shard_id": shard_id,
            "records": records,
            "events": events,
        }
        if action is not None and action.kind == "stall":
            # Go silent past the lease deadline — no heartbeats, result
            # held back — then deliver late. The coordinator must have
            # requeued the shard and must drop this stale frame.
            self._stalled_until = time.monotonic() + action.seconds
            await asyncio.sleep(action.seconds)
        if action is not None and action.kind == "truncate":
            await self._send_truncated(writer, lock, message)
            return
        if action is not None and action.kind == "replay":
            # Both copies in one write: a drain after the first cannot
            # cancel this task before the second, which the lease check drops.
            frame = encode_frame(message)
            async with lock:
                writer.write(frame + frame)
                await asyncio.wait_for(writer.drain(), self.io_timeout)
            return
        await send_frame(writer, message, self.io_timeout, lock=lock)

    async def _send_truncated(
        self,
        writer: asyncio.StreamWriter,
        lock: asyncio.Lock,
        message: dict[str, Any],
    ) -> None:
        """Injected ``truncate``: tear the result frame mid-payload and
        abort the connection, forcing a reconnect."""
        frame = encode_frame(message)
        async with lock:
            writer.write(frame[: max(5, len(frame) // 2)])
            try:
                await asyncio.wait_for(writer.drain(), self.io_timeout)
            except (asyncio.TimeoutError, TimeoutError, ConnectionError, OSError):
                pass
            writer.transport.abort()

    async def _run_in_pool(
        self, sites: list[tuple[int, int]]
    ) -> tuple[Any, str | None, str | None]:
        """One shard attempt: ``(payload, problem, failure-kind value)``.

        Mirrors the single-machine dispatcher's outcome taxonomy: a
        raise is a ``crash``, a dead pool is ``pool-broken`` and a
        watchdog expiry is a ``timeout`` (for both the agent restarts
        its pool, like the executor does), and a payload that fails
        validation is ``corrupt-result``; a sound payload is forwarded
        untouched. A sibling shard the watchdog's restart killed is an
        innocent bystander, even if its own deadline passes before the
        broken pool reports in: it reruns on the new pool, unpenalized,
        as the executor requeues it. The coordinator feeds whichever
        kind comes back into the shared failure ladder.
        """
        assert self._pool is not None
        generation = self._restarts
        try:
            future = self._pool.submit(sites)
            awaitable = asyncio.wrap_future(future)
            if self._shard_timeout is not None:
                payload = await asyncio.wait_for(
                    awaitable, self._shard_timeout
                )
            else:
                payload = await awaitable
        except (asyncio.TimeoutError, TimeoutError):
            if generation in self._watchdog_restarts:
                # A sibling's watchdog killed this pool first: a bystander.
                return await self._run_in_pool(sites)
            self._restart_pool(generation, watchdog=True)
            return (
                None,
                f"shard exceeded the {self._shard_timeout:g}s watchdog "
                f"deadline on the worker agent",
                FailureKind.TIMEOUT.value,
            )
        except BrokenProcessPool:
            if generation in self._watchdog_restarts:
                return await self._run_in_pool(sites)
            self._restart_pool(generation)
            return (
                None,
                "a worker process died abruptly; the agent reconstituted "
                "its pool",
                FailureKind.POOL_BROKEN.value,
            )
        except Exception as exc:  # the pool worker raised for this shard
            return None, repr(exc), FailureKind.CRASH.value
        problem = _validate_shard(payload, sites)
        if problem is not None:
            return None, problem, FailureKind.CORRUPT_RESULT.value
        return payload, None, None

    def _restart_pool(self, generation: int, watchdog: bool = False) -> None:
        """Restart the pool that ``generation`` ran on, unless a sibling
        shard already did: every shard on a dead pool sees it die, and
        only the first may restart it."""
        if generation != self._restarts:
            return
        if watchdog:
            self._watchdog_restarts.add(generation)
        self._restarts += 1
        self._pool.restart()
