"""Job lifecycle behind the campaign service's HTTP API.

A *job* is one submitted campaign spec plus its lifecycle state::

    queued -> running -> done | failed | cancelled
       \\______________________________/
                 cancel / drain

The manager owns a bounded FIFO queue and runs one job at a time on a
worker thread (each job already fans out internally — a process pool or
a socket fleet — so service-level concurrency is queueing, not another
layer of parallelism). Every state transition is appended, as a *full*
snapshot, to an fsynced JSONL registry with the checkpoint stream's
torn-write hygiene, so ``serve --resume`` can rebuild the queue after a
crash: terminal jobs come back as history, queued and running jobs are
re-queued, and a re-run job resumes from its own campaign checkpoint —
the same file a Ctrl-C'd CLI campaign resumes from.

Cancellation and shutdown ride the executors' cooperative ``interrupt``
event: the running campaign drains in-flight shards to its checkpoint
and raises ``CampaignInterrupted``, which the manager records as
``cancelled`` (client asked) or back to ``queued`` (server draining).

``parallel`` jobs share one resident :class:`~repro.core.executor.
WorkerPool`, built on the first such job and stopped by :meth:`JobManager.
close`, so a job costs a setup swap rather than a pool start. Its
children are spawned, not forked: a forked child would inherit the
listening socket and every client connection open at fork time, and a
resident child would hold them for the server's life. A finished job's
result lives in its fsynced artefact only, never in memory.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any

from repro.core.campaign import Campaign, CampaignResult
from repro.core.chaos import ChaosSpec
from repro.core.executor import WorkerPool, build_executor
from repro.core.resilience import CampaignExecutionError, CampaignInterrupted
from repro.core.serialize import (
    JOB_STATES,
    campaign_result_record,
    decode_campaign_spec,
    job_record,
    job_registry_header,
    open_jsonl_stream,
    read_job_registry,
)
from repro.obs import MetricsRegistry, Observability
from repro.obs.progress import progress_snapshot

__all__ = [
    "QUEUED",
    "RUNNING",
    "DONE",
    "FAILED",
    "CANCELLED",
    "TERMINAL_STATES",
    "QueueFull",
    "UnknownJob",
    "JobConflict",
    "Job",
    "JobManager",
]

QUEUED, RUNNING, DONE, FAILED, CANCELLED = JOB_STATES
TERMINAL_STATES = frozenset({DONE, FAILED, CANCELLED})


class QueueFull(RuntimeError):
    """The bounded job queue is at capacity; submit again later."""


class UnknownJob(KeyError):
    """No job with the requested id exists."""


class JobConflict(RuntimeError):
    """The requested action is invalid for the job's current state."""


@dataclass
class Job:
    """One submitted campaign and its lifecycle state."""

    job_id: str
    spec: dict[str, Any]
    state: str = QUEUED
    seq: int = 0
    error: str | None = None
    #: Per-job metrics registry — the SSE progress feed reads it live.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Cooperative-interrupt event threaded into the job's executor.
    interrupt: threading.Event = field(default_factory=threading.Event)
    cancel_requested: bool = False
    started_at: float | None = None
    #: Set (and replaced by a fresh one) on every state transition, so
    #: an SSE stream sends ``end`` without waiting for its next tick.
    changed: asyncio.Event = field(default_factory=asyncio.Event)


def _run_job(manager: "JobManager", job: Job) -> tuple[str, str | None]:
    """Execute one job to completion on the worker thread.

    Module-level by design: the ``socket-discipline`` pass sweeps the
    call closure reachable from here for raw socket use, the same way it
    sweeps the fabric's worker entries.

    Returns ``(outcome, error)`` with outcome one of ``"done"``,
    ``"failed"``, ``"interrupted"`` — the manager (on the event-loop
    thread) turns that into the recorded state transition.
    """
    try:
        campaign, executor = manager._build(job)
        result = campaign.run(executor)
    except CampaignInterrupted:
        return "interrupted", None
    except CampaignExecutionError as exc:
        return "failed", str(exc)
    except (ValueError, OSError, RuntimeError) as exc:
        return "failed", f"{type(exc).__name__}: {exc}"
    manager._write_result(job, result)
    return "done", None


class JobManager:
    """Bounded job queue, lifecycle registry, and executor dispatch.

    All registry appends and state transitions happen on the event-loop
    thread (submit/cancel handlers and the scheduler both live there);
    the worker thread only executes the campaign and writes the result
    artefact — single-writer by construction, no locks needed.
    """

    #: Longest scheduler wait while the queue is empty (a submit wakes
    #: it at once; the tick bounds how late ``stop`` is noticed).
    TICK_SECONDS = 0.05

    def __init__(
        self,
        state_dir: str | Path,
        *,
        max_queued: int = 16,
        job_chaos: ChaosSpec | None = None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.registry_path = self.state_dir / "jobs.jsonl"
        self.checkpoint_dir = self.state_dir / "checkpoints"
        self.results_dir = self.state_dir / "results"
        self.max_queued = max_queued
        #: Test-only chaos schedule wired into every job's executor.
        self.job_chaos = job_chaos
        self._jobs: dict[str, Job] = {}
        self._queue: list[str] = []
        self._next_id = 1
        self._stream: IO[str] | None = None
        self._draining = False
        #: The resident pool of ``parallel`` jobs (built on the first).
        self.pool: WorkerPool | None = None
        self._submitted = asyncio.Event()

    # -- registry stream (checkpoint torn-write hygiene) ----------------
    def open(self, resume: bool = False) -> int:
        """Open the registry for appending; optionally restore jobs.

        Returns the number of jobs re-queued from a previous life. A
        torn trailing line is healed before appending; a torn or alien
        header is refused with
        :class:`~repro.core.resilience.CheckpointCorrupt`.
        """
        for directory in (self.state_dir, self.checkpoint_dir, self.results_dir):
            directory.mkdir(parents=True, exist_ok=True)
        self._stream = open_jsonl_stream(
            self.registry_path, job_registry_header()
        )
        try:
            restored = self._restore() if resume else 0
        except BaseException:
            self.close()
            raise
        if restored:
            # The restored queued/running jobs go back to queued — as
            # fresh snapshots, so a second crash still sees them.
            for job_id in self._queue:
                self._append(self._jobs[job_id])
        return restored

    def close(self) -> None:
        pool, self.pool = self.pool, None
        if pool is not None:
            pool.stop()
        stream, self._stream = self._stream, None
        if stream is not None:
            try:
                stream.flush()
                os.fsync(stream.fileno())
            finally:
                stream.close()

    def _sync(self) -> None:
        assert self._stream is not None
        self._stream.flush()
        os.fsync(self._stream.fileno())

    def _append(self, job: Job) -> None:
        if self._stream is None:
            return
        self._stream.write(json.dumps(job_record(
            job.job_id, job.seq, job.state, job.spec, job.error
        )) + "\n")
        self._sync()

    def _restore(self) -> int:
        """Fold the registry into live jobs: last snapshot per id wins."""
        latest: dict[str, dict[str, Any]] = {}
        for record in read_job_registry(self.registry_path):
            latest[record["job_id"]] = record
        requeued = 0
        for job_id in sorted(latest):
            record = latest[job_id]
            state = record["state"]
            job = Job(
                job_id=job_id,
                spec=record["spec"],
                state=state,
                seq=record["seq"],
                error=record["error"],
            )
            if state in (QUEUED, RUNNING):
                # A job that was running when the server died resumes
                # from its own campaign checkpoint; from the queue's
                # point of view it is simply queued again.
                job.state = QUEUED
                job.seq += 1
                job.error = None
                self._queue.append(job_id)
                requeued += 1
            self._jobs[job_id] = job
            suffix = job_id.rsplit("-", 1)[-1]
            if suffix.isdigit():
                self._next_id = max(self._next_id, int(suffix) + 1)
        return requeued

    # -- lifecycle -------------------------------------------------------
    def _transition(self, job: Job, state: str, error: str | None = None) -> None:
        assert state in JOB_STATES
        job.state = state
        job.seq += 1
        job.error = error
        self._append(job)
        changed, job.changed = job.changed, asyncio.Event()
        changed.set()

    def submit(self, spec: dict[str, Any]) -> Job:
        """Enqueue a validated, normalised campaign spec.

        Raises :class:`QueueFull` when the bounded queue is at capacity —
        backpressure is the client's problem, by design.
        """
        if len(self._queue) >= self.max_queued:
            raise QueueFull(
                f"job queue is at its {self.max_queued}-job capacity"
            )
        job = Job(job_id=f"job-{self._next_id:06d}", spec=spec)
        self._next_id += 1
        self._jobs[job.job_id] = job
        self._queue.append(job.job_id)
        self._append(job)
        self._submitted.set()
        return job

    def get(self, job_id: str) -> Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJob(job_id) from None

    def jobs(self) -> list[Job]:
        """All known jobs in submission order."""
        return [self._jobs[job_id] for job_id in sorted(self._jobs)]

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued job immediately, or ask a running one to stop.

        Raises :class:`JobConflict` for jobs already in a terminal state.
        """
        job = self.get(job_id)
        if job.state in TERMINAL_STATES:
            raise JobConflict(
                f"{job_id} is already {job.state}; nothing to cancel"
            )
        if job.state == QUEUED:
            self._queue.remove(job_id)
            self._transition(job, CANCELLED, error="cancelled while queued")
        else:
            job.cancel_requested = True
            job.interrupt.set()
        return job

    def drain(self) -> None:
        """Server shutdown: stop the running job at its next shard
        boundary (its checkpoint makes it resumable) and accept no more
        work. Queued jobs stay queued — ``serve --resume`` restores them."""
        self._draining = True
        for job in self._jobs.values():
            if job.state == RUNNING:
                job.interrupt.set()

    def is_terminal(self, job: Job) -> bool:
        return job.state in TERMINAL_STATES

    # -- execution -------------------------------------------------------
    def _build(self, job: Job) -> tuple[Campaign, Any]:
        """Build the campaign and its executor for one run of ``job``."""
        campaign, executor_spec = decode_campaign_spec(job.spec)
        checkpoint = self.checkpoint_dir / f"{job.job_id}.jsonl"
        pool = None
        if executor_spec["kind"] == "parallel":
            pool = self._resident_pool(executor_spec["jobs"])
        return campaign, build_executor(
            executor_spec,
            obs=Observability(metrics=job.metrics),
            interrupt=job.interrupt,
            pool=pool,
            checkpoint=checkpoint,
            resume=checkpoint if checkpoint.exists() else None,
            chaos=self.job_chaos,
        )

    def _resident_pool(self, width: int) -> WorkerPool:
        """The resident spawn pool, replaced when a job asks for another
        width (see the module notes)."""
        if self.pool is None or self.pool.width != width:
            if self.pool is not None:
                self.pool.stop()
            self.pool = WorkerPool(width, context="spawn")
        return self.pool

    def result_path(self, job: Job) -> Path:
        return self.results_dir / f"{job.job_id}.json"

    def _write_result(self, job: Job, result: CampaignResult) -> None:
        """Persist the result artefact durably (write-fsync-rename)."""
        path = self.result_path(job)
        scratch = path.with_name(path.name + ".tmp")
        with scratch.open("w") as stream:
            # One dumps, not json.dump: dump streams through the pure
            # Python encoder, ~4x slower for the same bytes.
            stream.write(json.dumps(campaign_result_record(result)))
            stream.flush()
            os.fsync(stream.fileno())
        scratch.replace(path)

    def result_payload(self, job: Job) -> bytes:
        """The stored result artefact for a done job, as JSON bytes."""
        if job.state != DONE:
            raise JobConflict(f"{job.job_id} is {job.state}, not done")
        return self.result_path(job).read_bytes()

    # -- introspection ---------------------------------------------------
    def summary(self, job: Job) -> dict[str, Any]:
        """The JSON shape of one job in list/detail responses."""
        return {
            "job_id": job.job_id,
            "state": job.state,
            "executor": job.spec.get("executor", {}).get("kind", "serial"),
            "engine": job.spec.get("engine", "functional"),
            "sites": len(job.spec.get("sites") or []),
            "error": job.error,
        }

    def progress_snapshot(self, job: Job) -> dict[str, Any]:
        """The SSE ``progress`` event body for one job."""
        elapsed = (
            time.monotonic() - job.started_at
            if job.started_at is not None
            else 0.0
        )
        snapshot = progress_snapshot(job.metrics, elapsed)
        snapshot.update(job_id=job.job_id, state=job.state, error=job.error)
        return snapshot

    # -- scheduler -------------------------------------------------------
    def _next_queued(self) -> Job | None:
        if self._draining or not self._queue:
            return None
        return self._jobs[self._queue.pop(0)]

    async def run(self, stop) -> None:
        """Scheduler loop: pop, execute on a thread, record the outcome.

        One job at a time; ``stop`` (an :class:`asyncio.Event`) plus
        :meth:`drain` make shutdown orderly — the in-flight job is
        interrupted at a shard boundary and recorded back to queued.
        """
        self._submitted = asyncio.Event()  # bound to this loop
        while not stop.is_set():
            job = self._next_queued()
            if job is None:
                try:
                    await asyncio.wait_for(
                        self._submitted.wait(), self.TICK_SECONDS
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    pass
                self._submitted.clear()
                continue
            job.started_at = time.monotonic()
            self._transition(job, RUNNING)
            outcome, error = await asyncio.to_thread(_run_job, self, job)
            if outcome == "done":
                self._transition(job, DONE)
            elif outcome == "failed":
                self._transition(job, FAILED, error=error)
            elif job.cancel_requested:
                self._transition(job, CANCELLED, error="cancelled by client")
            else:
                # Drain path: back to queued, resumable after restart.
                job.interrupt.clear()
                self._queue.insert(0, job.job_id)
                self._transition(job, QUEUED)
