"""Failure taxonomy and retry policy of the resilient campaign runtime.

An exhaustive SSF campaign at production scale runs for hours across many
worker processes; worker crashes, hung shards, and poisoned fault sites
are routine there, not exceptional. This module is the vocabulary the
executor (:mod:`repro.core.executor`) uses to survive them:

* a **typed failure taxonomy** — :class:`ShardCrash`,
  :class:`ShardTimeout`, :class:`PoisonSite`, :class:`PoolBroken`,
  :class:`CheckpointCorrupt`, and the distributed-fabric trio
  :class:`WorkerLost` / :class:`LeaseExpired` / :class:`ProtocolError`
  — so callers can react per failure class instead of
  pattern-matching exception strings;
* :class:`RetryPolicy` — bounded retry with *deterministic* exponential
  backoff. Deliberately jitter-free: two runs of the same campaign under
  the same failures schedule retries identically, which keeps failure
  handling as replayable as the experiments themselves;
* :class:`FailureRecord` — the structured quarantine record a campaign
  carries for every fault site it had to give up on. Records survive in
  the checkpoint stream and in :attr:`CampaignResult.failures`, so a
  degraded campaign is still a canonical, resumable artefact;
* :class:`CampaignInterrupted` — the graceful-shutdown signal
  (SIGINT/SIGTERM) outcome: the checkpoint is drained and fsynced before
  this is raised, so the campaign is resumable exactly where it stopped;
* :class:`LeaseTable` — the one ledger of in-flight shard attempts,
  shared by the pool dispatcher and the fabric coordinator.

The executor's recovery protocol (suspect isolation after a pool break,
shard bisection to isolate a poison site) is documented in
``docs/resilience.md``; the distributed fabric's lease/heartbeat
protocol, which reuses this exact ladder across a network boundary, in
``docs/distributed.md``. The ladder itself lives here as
:class:`FailureLadder` so the in-process dispatcher and the fabric
coordinator share one implementation, byte for byte.
"""

from __future__ import annotations

import enum
import signal as _signal
import time
from collections import deque
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Hashable, Iterator

__all__ = [
    "CampaignExecutionError",
    "ShardCrash",
    "ShardTimeout",
    "PoisonSite",
    "PoolBroken",
    "CheckpointCorrupt",
    "WorkerLost",
    "LeaseExpired",
    "ProtocolError",
    "CampaignInterrupted",
    "FailureKind",
    "OnError",
    "RetryPolicy",
    "FailureRecord",
    "ShardTask",
    "Lease",
    "LeaseTable",
    "FailureLadder",
    "record_failure_metrics",
]


class CampaignExecutionError(RuntimeError):
    """Base class of every campaign-runtime failure."""


class ShardCrash(CampaignExecutionError):
    """A worker raised (or returned a corrupt payload) for a shard and the
    retry budget is exhausted. Raised only under ``on_error="abort"``."""


class ShardTimeout(CampaignExecutionError):
    """A shard exceeded its watchdog deadline and the retry budget is
    exhausted. Raised only under ``on_error="abort"``."""


class PoisonSite(CampaignExecutionError):
    """A failure was isolated down to a single fault site.

    Under ``on_error="abort"`` this aborts the campaign naming the exact
    site; under ``on_error="quarantine"`` the site becomes a
    :class:`FailureRecord` instead and the campaign degrades gracefully.
    """


class PoolBroken(CampaignExecutionError):
    """The process pool collapsed (a worker died hard) and could not be
    attributed or retried within budget. Raised only under
    ``on_error="abort"``; otherwise the executor reconstitutes the pool
    and isolates the culprit by solo retries."""


class CheckpointCorrupt(CampaignExecutionError, ValueError):
    """A checkpoint file exists but cannot be trusted (torn or alien
    header). Also a :class:`ValueError` so existing checkpoint-validation
    handlers keep working."""


class WorkerLost(CampaignExecutionError):
    """A remote fabric worker's connection dropped while it held shard
    leases and the retry budget is exhausted (or no worker ever joined).
    Raised only under ``on_error="abort"``; otherwise forfeited shards
    are requeued for the surviving fleet."""


class LeaseExpired(CampaignExecutionError):
    """A fabric worker went silent past its lease deadline — no heartbeat
    renewal — and the shard's retry budget is exhausted. Raised only
    under ``on_error="abort"``; otherwise the forfeited shard is
    requeued (idempotent: checkpoint restore dedupes last-wins, and the
    coordinator drops stale results from the forfeiting worker)."""


class ProtocolError(CampaignExecutionError):
    """A fabric peer spoke the framed-JSON protocol wrong — truncated
    frame, oversized frame, undecodable payload, or an out-of-contract
    message — and the retry budget is exhausted. Raised only under
    ``on_error="abort"``."""


class CampaignInterrupted(KeyboardInterrupt):
    """Graceful shutdown: SIGINT/SIGTERM arrived mid-campaign.

    By the time this propagates, every already-finished shard has been
    recorded and the checkpoint stream fsynced and closed — rerunning
    with ``resume=`` picks the campaign up at the exact remainder.

    A :class:`KeyboardInterrupt` subclass so default interpreter and
    test-runner handling (no traceback swallowing into ``except
    Exception``) applies.
    """

    def __init__(
        self,
        signum: int,
        checkpoint: Path | None,
        completed: int,
        remaining: int,
    ) -> None:
        try:
            name = _signal.Signals(signum).name
        except ValueError:
            name = str(signum)
        super().__init__(
            f"campaign interrupted by {name} with {completed} site(s) "
            f"completed and {remaining} remaining"
        )
        self.signum = signum
        self.checkpoint = checkpoint
        self.completed = completed
        self.remaining = remaining


class FailureKind(enum.Enum):
    """What kind of failure exhausted a shard's retry budget."""

    #: The worker raised an exception while running the shard.
    CRASH = "crash"
    #: The shard exceeded the watchdog deadline (hung worker).
    TIMEOUT = "timeout"
    #: The whole process pool collapsed while the shard was in flight.
    POOL_BROKEN = "pool-broken"
    #: The worker returned, but its payload failed validation.
    CORRUPT_RESULT = "corrupt-result"
    #: A remote worker's connection dropped while it held the shard.
    WORKER_LOST = "worker-lost"
    #: A remote worker went silent past its lease deadline.
    LEASE_EXPIRED = "lease-expired"
    #: A fabric peer violated the framed-JSON wire protocol.
    PROTOCOL_ERROR = "protocol-error"

    def __str__(self) -> str:
        return self.value


class OnError(enum.Enum):
    """Campaign-level policy once a failure exhausts its retry budget."""

    #: Raise the taxonomy exception; the campaign stops (fail-stop).
    ABORT = "abort"
    #: Bisect to the poison site, record it, and keep going (degrade).
    QUARANTINE = "quarantine"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministic exponential backoff.

    ``delay(attempt)`` is a pure function of the attempt number — no
    jitter. Campaigns are replayable end to end, and that includes their
    failure handling: the same chaos schedule produces the same retry
    timeline, which the chaos tests pin.

    Parameters
    ----------
    max_retries:
        Retries *per shard task* after the first attempt. ``0`` means one
        attempt, no retry.
    backoff_base:
        Delay before the first retry, in seconds.
    backoff_factor:
        Multiplier applied per further retry.
    backoff_cap:
        Upper bound on any single delay, in seconds.
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def delay(self, attempt: int) -> float:
        """Seconds to wait before retry number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (attempt - 1),
        )


@dataclass(frozen=True)
class FailureRecord:
    """One quarantined fault site: the structured give-up record.

    Stored verbatim in the checkpoint stream (see
    :func:`repro.core.serialize.failure_record`) and carried on
    :attr:`CampaignResult.failures`, so partial results stay canonical
    and a resume never silently re-poisons itself.
    """

    row: int
    col: int
    kind: FailureKind
    attempts: int
    error: str

    @property
    def site(self) -> tuple[int, int]:
        """The quarantined MAC coordinate."""
        return (self.row, self.col)

    def describe(self) -> str:
        return (
            f"MAC({self.row},{self.col}) quarantined after "
            f"{self.attempts} attempt(s): {self.kind} — {self.error}"
        )


@dataclass
class ShardTask:
    """One schedulable unit of a campaign: a site list plus its failure
    history. Shared vocabulary of the in-process dispatcher and the
    distributed coordinator — both schedule exactly these."""

    sites: list[tuple[int, int]]
    attempts: int = 0
    #: Monotonic instant before which the task must not be resubmitted
    #: (exponential-backoff gate).
    ready_at: float = 0.0
    #: True while the task is a pool-collapse suspect: it must run alone
    #: so a repeat collapse attributes exactly.
    suspect: bool = False


@dataclass(frozen=True)
class Lease:
    """One shard attempt's claim by one holder, valid until ``deadline``.

    Frozen: renewal replaces the lease rather than mutating it, so a
    lease value captured by a caller never changes under its feet.
    """

    #: The attempt's key: a fabric shard id, or the pool's future.
    shard_id: Hashable
    #: The fabric worker holding the lease (the pool tier uses one id).
    worker_id: int
    task: ShardTask
    #: Monotonic instant the claim lapses without renewal; ``None``
    #: never lapses.
    deadline: float | None
    #: Monotonic instant the attempt started (latency accounting).
    granted_at: float
    renewals: int = 0


class LeaseTable:
    """The ledger of in-flight shard attempts, each under a deadline.

    Every method takes the current monotonic instant from its caller,
    so the table itself never reads a clock.

    Lease state machine::

        granted ──heartbeat──▶ renewed (deadline pushed out)
           │ result/shard-error          │
           ▼                             ▼
        released                  expired ──▶ requeued (FailureLadder)

    Parameters
    ----------
    lease_seconds:
        How long a grant or a renewal holds; ``None`` grants leases
        that never expire.
    """

    def __init__(self, lease_seconds: float | None) -> None:
        if lease_seconds is not None and lease_seconds <= 0:
            raise ValueError(
                f"lease_seconds must be positive, got {lease_seconds}"
            )
        self.lease_seconds = lease_seconds
        self._leases: dict[Hashable, Lease] = {}

    def __len__(self) -> int:
        return len(self._leases)

    def __iter__(self) -> Iterator[Lease]:
        """Live leases in shard-id order; keys that do not order, such
        as the pool's futures, come back in grant order."""
        try:
            order = sorted(self._leases)
        except TypeError:
            order = list(self._leases)
        return iter([self._leases[shard_id] for shard_id in order])

    def _deadline(self, now: float) -> float | None:
        return None if self.lease_seconds is None else now + self.lease_seconds

    def grant(
        self, shard_id: Hashable, worker_id: int, task: ShardTask, now: float
    ) -> None:
        """Claim ``task`` for ``worker_id`` until ``now + lease_seconds``."""
        self._leases[shard_id] = Lease(
            shard_id=shard_id,
            worker_id=worker_id,
            task=task,
            deadline=self._deadline(now),
            granted_at=now,
        )

    def holder(self, shard_id: Hashable) -> Lease | None:
        """The live lease on ``shard_id``, or ``None``."""
        return self._leases.get(shard_id)

    def release(self, shard_id: Hashable) -> ShardTask | None:
        """Drop the lease (completion, failure, or forfeiture); returns
        the covered task, or ``None`` if the lease was already gone."""
        lease = self._leases.pop(shard_id, None)
        return None if lease is None else lease.task

    def renew(self, worker_id: int, now: float) -> int:
        """Heartbeat: push out every lease ``worker_id`` holds."""
        held = self.held_by(worker_id)
        for shard_id in held:
            lease = self._leases[shard_id]
            self._leases[shard_id] = replace(
                lease,
                deadline=self._deadline(now),
                renewals=lease.renewals + 1,
            )
        return len(held)

    def held_by(self, worker_id: int) -> list[Hashable]:
        """Shard ids leased to ``worker_id``."""
        return [
            lease.shard_id for lease in self if lease.worker_id == worker_id
        ]

    def outstanding(self) -> list[ShardTask]:
        """Every task still under lease."""
        return [lease.task for lease in self]

    def expired(self, now: float) -> list[Hashable]:
        """Shard ids whose lease lapsed without renewal."""
        return [
            lease.shard_id
            for lease in self
            if lease.deadline is not None and now >= lease.deadline
        ]


@dataclass
class FailureLadder:
    """The retry → abort/bisect → quarantine ladder, as a value.

    One failure-handling implementation serves both execution tiers: the
    in-process :class:`~repro.core.executor.ParallelExecutor` dispatcher
    and the socket-fabric coordinator
    (:class:`repro.core.fabric.Coordinator`) construct a ladder around
    their own task queue and feed every exhausted shard attempt through
    :meth:`fail`. That is what makes poison-site bisection work
    *unchanged across the wire* — the coordinator never reimplements it.

    Parameters
    ----------
    retry:
        The :class:`RetryPolicy` supplying budget and backoff delays.
    on_error:
        :class:`OnError` policy once the budget is exhausted.
    queue:
        The owner's FIFO of :class:`ShardTask`; retries are appended,
        bisection halves are prepended (depth-first isolation).
    metrics:
        A :class:`repro.obs.metrics.MetricsRegistry` (or its null twin).
    progress:
        Optional progress line (``note_retry`` / ``note_quarantine``).
    record_failure:
        Optional callable persisting a :class:`FailureRecord` into the
        checkpoint stream the moment a site is quarantined.
    """

    retry: RetryPolicy
    on_error: OnError
    queue: deque
    metrics: object
    progress: object = None
    record_failure: object = None
    #: Quarantined sites, keyed by coordinate — the owner merges these
    #: into :attr:`CampaignResult.failures`.
    failures: dict = field(default_factory=dict)

    def fail(self, task: ShardTask, kind: FailureKind, error: str) -> None:
        """Apply the retry → abort/bisect → quarantine ladder."""
        task.attempts += 1
        retried = task.attempts <= self.retry.max_retries
        record_failure_metrics(self.metrics, kind, retried=retried)
        if retried:
            if self.progress is not None:
                self.progress.note_retry()
            task.ready_at = time.monotonic() + self.retry.delay(task.attempts)
            self.queue.append(task)
            return
        if self.on_error is OnError.ABORT:
            raise self.abort_error(task, kind, error)
        if len(task.sites) > 1:
            # Bisect: the poison site is somewhere inside; each half gets
            # a fresh retry budget and inherits suspect status.
            self.metrics.counter(
                "repro_shard_bisections_total",
                "Shards split in half to isolate a poison site.",
            ).inc()
            mid = (len(task.sites) + 1) // 2
            for half in (task.sites[mid:], task.sites[:mid]):
                self.queue.appendleft(
                    ShardTask(sites=half, suspect=task.suspect)
                )
            return
        row, col = task.sites[0]
        failure = FailureRecord(
            row=row, col=col, kind=kind, attempts=task.attempts, error=error
        )
        self.failures[(row, col)] = failure
        self.metrics.counter(
            "repro_quarantined_sites_total",
            "Fault sites the runtime gave up on (quarantined).",
        ).inc()
        if self.progress is not None:
            self.progress.note_quarantine()
        if self.record_failure is not None:
            self.record_failure(failure)

    @staticmethod
    def abort_error(
        task: ShardTask, kind: FailureKind, error: str
    ) -> CampaignExecutionError:
        """The taxonomy exception for an exhausted task under ABORT."""
        if len(task.sites) == 1:
            row, col = task.sites[0]
            return PoisonSite(
                f"MAC({row},{col}) failed {task.attempts} attempt(s) "
                f"[{kind}]: {error}"
            )
        exc_type = {
            FailureKind.TIMEOUT: ShardTimeout,
            FailureKind.POOL_BROKEN: PoolBroken,
            FailureKind.WORKER_LOST: WorkerLost,
            FailureKind.LEASE_EXPIRED: LeaseExpired,
            FailureKind.PROTOCOL_ERROR: ProtocolError,
        }.get(kind, ShardCrash)
        return exc_type(
            f"shard of {len(task.sites)} sites failed "
            f"{task.attempts} attempt(s) [{kind}]: {error}"
        )


def record_failure_metrics(metrics, kind: FailureKind, *, retried: bool) -> None:
    """Count one shard failure — and the retry it earned, if any.

    ``metrics`` is a :class:`repro.obs.metrics.MetricsRegistry` (or its
    null twin); the dispatcher calls this on every trip through the
    retry → bisect → quarantine ladder so the failure taxonomy shows up
    in the exported metrics with the same vocabulary this module defines.
    Purely observational: policy decisions never read these counters.
    """
    metrics.counter(
        "repro_shard_failures_total",
        "Shard attempts that failed, by failure kind.",
        kind=str(kind),
    ).inc()
    if retried:
        metrics.counter(
            "repro_shard_retries_total",
            "Failed shard attempts re-queued under the retry policy.",
        ).inc()
