"""Sharded, cached, resumable, *failure-tolerant* campaign execution.

The paper's headline claim rests on *exhaustive* SSF sweeps — every MAC
unit of the array, one fault per experiment — and each experiment is an
independent workload run, which makes a campaign embarrassingly parallel.
This module is the execution engine behind :meth:`Campaign.run`:

* :class:`SerialExecutor` — the in-process reference implementation (the
  former ``Campaign.run`` loop, verbatim). ``--jobs 1`` semantics.
* :class:`ParallelExecutor` — shards the site list into deterministic
  chunks (:func:`shard_sites`), fans them out over a
  :class:`concurrent.futures.ProcessPoolExecutor`, optionally appends an
  append-only JSONL checkpoint of completed experiments, and can resume
  an interrupted campaign from such a checkpoint instead of restarting.
* :class:`GoldenCache` — a per-process memo of the
  :data:`GOLDEN_CACHE_SIZE` most recently used fault-free golden runs,
  keyed by ``(workload, mesh config, engine)``, so repeated campaigns on
  one configuration (the study grid, scaling benches) pay for the golden
  run once. Workers never compute it at all: the parent pickles the
  golden output into the campaign's setup token (see :class:`WorkerPool`)
  and each worker decodes it once.
* :class:`WorkerPool` — the one process pool both the parallel tier and
  the fabric worker agent run shards in. It owns the pool's width,
  context and start/restart-after-kill/stop, and ships each shard with a
  setup token, so one pool serves campaign after campaign.
* :func:`build_executor` — the one place an executor is chosen: the CLI,
  the service and the study all turn a campaign spec's executor spec
  (``serial``, ``parallel`` or ``fabric``) into an executor through it.

Resilience
----------
At production scale worker crashes, hung shards, and poisoned fault
sites are routine; the executor survives them instead of aborting
(taxonomy and policy types in :mod:`repro.core.resilience`, protocol
details in ``docs/resilience.md``):

* a **watchdog** enforces a per-shard deadline (``shard_timeout``); a
  hung worker cannot be cancelled, so the pool is killed, reconstituted,
  and innocent in-flight shards are requeued without penalty. Each
  in-flight shard is a lease, never renewed, in the
  :class:`~repro.core.resilience.LeaseTable` the fabric coordinator
  also uses, released only once its records are fsynced;
* failures are **retried** under a deterministic, jitter-free
  exponential backoff (:class:`~repro.core.resilience.RetryPolicy`);
* a shard that keeps failing is **bisected** until the poison site is
  isolated; under ``on_error="quarantine"`` that site becomes a
  structured :class:`~repro.core.resilience.FailureRecord` (persisted in
  the checkpoint) and the rest of the campaign completes;
* after a pool collapse the culprit cannot be attributed (every
  in-flight future dies), so all in-flight shards become **suspects**
  and are retried one at a time until the innocent ones clear;
* SIGINT/SIGTERM trigger **graceful shutdown**: finished futures are
  drained into the fsynced checkpoint, then
  :class:`~repro.core.resilience.CampaignInterrupted` is raised and a
  rerun with ``resume=`` continues from the exact remainder.

Determinism guarantee
---------------------
Whatever the worker count, OS scheduling, or failure schedule, the
merged :class:`CampaignResult` lists experiments in *canonical site
order* (the campaign's ``sites`` sequence), every worker regenerates
bit-identical operands from the pickled workload spec (see
:func:`repro.core.campaign.operand_seeds`), and each experiment is a
pure function of (workload, mesh, fault site). ``census()``,
``sdc_rate()`` and ``dominant_class()`` are therefore bit-identical to
the serial path over the sites that ran; only ``wall_seconds`` differs.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import pickle
import signal as _signal_module
import threading
import time
import warnings
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Protocol, Sequence

import numpy as np

from repro.core.campaign import Campaign, CampaignResult, ExperimentResult
from repro.core.chaos import ChaosSpec
from repro.core.resilience import (
    CampaignExecutionError,
    CampaignInterrupted,
    CheckpointCorrupt,
    FailureKind,
    FailureLadder,
    FailureRecord,
    LeaseTable,
    OnError,
    RetryPolicy,
    ShardTask,
)
from repro.obs import NULL_OBS, Observability
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_RECORDER, TraceRecorder
from repro.core.serialize import (
    checkpoint_header,
    experiment_from_record,
    experiment_record,
    failure_from_record,
    failure_record,
    is_failure_record,
    open_jsonl_stream,
    read_checkpoint,
    unpack_cells,
)
from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import TilingPlan
from repro.systolic.dataflow import Dataflow

__all__ = [
    "CampaignExecutor",
    "GoldenCache",
    "GOLDEN_CACHE",
    "GOLDEN_CACHE_SIZE",
    "SerialExecutor",
    "ParallelExecutor",
    "WorkerPool",
    "build_executor",
    "shard_sites",
]


class CampaignExecutor(Protocol):
    """The strategy seam of :meth:`Campaign.run`."""

    def execute(self, campaign: Campaign) -> CampaignResult:
        """Run every experiment of ``campaign`` and merge the result."""
        ...


#: Golden runs a :class:`GoldenCache` keeps: more than the Table I
#: grid's 7 configurations, so a study pass never evicts its own.
GOLDEN_CACHE_SIZE = 16


class GoldenCache:
    """Memo of fault-free golden runs, keyed by campaign configuration.

    The key is ``(workload, mesh, engine)`` — all frozen, hashable specs —
    which subsumes the dataflow and operand policy (both live on the
    workload). Cached arrays are shared between campaigns and are marked
    read-only so accidental mutation fails loudly instead of corrupting a
    sibling campaign's ground truth. Only the :data:`GOLDEN_CACHE_SIZE`
    most recently used runs are kept, so a long-lived process (the
    service, a ``--stay`` agent) does not keep every workload it ran.
    """

    def __init__(self) -> None:
        self._runs: OrderedDict[tuple, tuple] = OrderedDict()

    def __len__(self) -> int:
        return len(self._runs)

    def clear(self) -> None:
        self._runs.clear()

    def golden_run(
        self, campaign: Campaign, metrics=NULL_METRICS
    ) -> tuple[np.ndarray, TilingPlan, ConvGeometry | None]:
        """The campaign's golden (output, plan, geometry), computed once.

        ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry` or its
        null twin) counts cache hits and misses — the study grid and
        scaling benches read the hit rate off the exported telemetry.
        """
        key = (campaign.workload, campaign.mesh, campaign.engine_kind)
        if key in self._runs:
            metrics.counter(
                "repro_golden_cache_hits_total",
                "Golden runs served from the per-process cache.",
            ).inc()
            self._runs.move_to_end(key)
        else:
            metrics.counter(
                "repro_golden_cache_misses_total",
                "Golden runs computed fresh (cache cold for the key).",
            ).inc()
            golden, plan, geometry = campaign.golden_run()
            golden.setflags(write=False)
            self._runs[key] = (golden, plan, geometry)
            if len(self._runs) > GOLDEN_CACHE_SIZE:
                self._runs.popitem(last=False)
        return self._runs[key]


#: The process-wide golden-run memo shared by all executors.
GOLDEN_CACHE = GoldenCache()


def shard_sites(
    sites: Sequence[tuple[int, int]],
    num_shards: int,
    min_batch: int = 1,
) -> list[list[tuple[int, int]]]:
    """Split ``sites`` into at most ``num_shards`` contiguous chunks.

    The split is a pure function of ``(len(sites), num_shards,
    min_batch)``: chunk boundaries never depend on timing or worker
    identity, so a sharded sweep is replayable. Chunk sizes differ by at
    most one site. ``min_batch`` lowers the effective shard count until
    every chunk carries at least that many sites (when the site list is
    large enough to allow it) — the executors pass the campaign's
    :attr:`~repro.core.campaign.Campaign.min_shard_sites`.
    """
    if num_shards <= 0:
        raise ValueError(f"num_shards must be positive, got {num_shards}")
    if min_batch <= 0:
        raise ValueError(f"min_batch must be positive, got {min_batch}")
    total = len(sites)
    if total == 0:
        return []
    if min_batch > 1:
        num_shards = min(num_shards, max(1, total // min_batch))
    num_shards = min(num_shards, total)
    base, extra = divmod(total, num_shards)
    shards: list[list[tuple[int, int]]] = []
    start = 0
    for index in range(num_shards):
        size = base + (1 if index < extra else 0)
        shards.append([tuple(site) for site in sites[start : start + size]])
        start += size
    return shards


def _merged_result(
    campaign: Campaign,
    golden: np.ndarray,
    plan: TilingPlan,
    geometry: ConvGeometry | None,
    completed: dict[tuple[int, int], ExperimentResult],
    wall_seconds: float,
    failures: dict[tuple[int, int], FailureRecord] | None = None,
) -> CampaignResult:
    """Assemble a result with experiments (and failures) in canonical
    site order. Quarantined sites are excluded from ``experiments``; any
    other missing site is a dispatcher bug and raises ``KeyError``."""
    failures = failures or {}
    return CampaignResult(
        workload=campaign.workload,
        fault_spec=campaign.fault_spec,
        mesh=campaign.mesh,
        golden=golden,
        plan=plan,
        geometry=geometry,
        experiments=[
            completed[site] for site in campaign.sites if site not in failures
        ],
        wall_seconds=wall_seconds,
        failures=[
            failures[site] for site in campaign.sites if site in failures
        ],
    )


class SerialExecutor:
    """The single-process reference implementation of a campaign sweep.

    Parameters
    ----------
    obs:
        Observability bundle (see :mod:`repro.obs`); the default all-null
        bundle keeps the reference path unobserved and free of overhead.
        Armed or not, the produced :class:`CampaignResult` is
        field-for-field identical — only the ``telemetry`` attachment and
        ``wall_seconds`` differ.
    interrupt:
        Optional cooperative-interrupt event (see
        :class:`~repro.core.resilience.CampaignInterrupted`). When another
        thread sets it — the service's cancel/drain path — the sweep stops
        at the next site boundary and raises ``CampaignInterrupted`` with
        a synthetic ``SIGINT``, exactly as Ctrl-C would.
    """

    def __init__(
        self,
        obs: Observability | None = None,
        interrupt: threading.Event | None = None,
    ) -> None:
        self.obs = obs if obs is not None else NULL_OBS
        self.interrupt = interrupt

    def _check_interrupt(self, completed: int, total: int) -> None:
        if self.interrupt is not None and self.interrupt.is_set():
            raise CampaignInterrupted(
                signum=_signal_module.SIGINT,
                checkpoint=None,
                completed=completed,
                remaining=total - completed,
            )

    def execute(self, campaign: Campaign) -> CampaignResult:
        obs = self.obs
        start = time.perf_counter()
        completed: dict[tuple[int, int], ExperimentResult] = {}
        with obs.recorder.span(
            "campaign.execute", cat="campaign",
            workload=campaign.workload.describe(), sites=len(campaign.sites),
            jobs=1,
        ):
            with obs.recorder.span("campaign.golden", cat="campaign"):
                golden, plan, geometry = GOLDEN_CACHE.golden_run(
                    campaign, metrics=obs.metrics
                )
            obs.metrics.gauge(
                "repro_sites_total", "Fault sites in the campaign sweep."
            ).set(len(campaign.sites))
            sites_done = obs.metrics.counter(
                "repro_sites_completed_total",
                "Fault sites whose experiment completed.",
            )
            progress = obs.progress
            if progress is not None:
                progress.begin(len(campaign.sites))
            # A batching engine runs the whole sweep as one batch; a
            # per-site engine runs one site per batch, so interrupts and
            # progress land between sites.
            sites = campaign.sites
            if campaign.min_shard_sites > 1:
                batches = [sites]
            else:
                batches = [[site] for site in sites]
            try:
                for batch in batches:
                    self._check_interrupt(len(completed), len(sites))
                    experiments = campaign.run_batch(
                        batch, golden, plan, geometry,
                        recorder=obs.recorder, metrics=obs.metrics,
                    )
                    for experiment in experiments:
                        site = (experiment.site.row, experiment.site.col)
                        completed[site] = experiment
                    sites_done.inc(len(experiments))
                    if progress is not None:
                        progress.advance(len(experiments))
            finally:
                if progress is not None:
                    progress.finish()
        wall_seconds = time.perf_counter() - start
        result = _merged_result(
            campaign, golden, plan, geometry, completed, wall_seconds,
        )
        result.telemetry = obs.telemetry(wall_seconds, len(campaign.sites))
        return result


# ----------------------------------------------------------------------
# Worker-process plumbing
# ----------------------------------------------------------------------
# A campaign's setup — the campaign spec, the parent's golden context,
# the chaos schedule and the trace flag — is pickled once in the parent
# under its sha256 key. Every shard task carries ``(key, setup bytes,
# sites)``; a worker decodes the bytes only when the key differs from the
# setup it last adopted, so a long-lived pool switches campaigns without
# a restart and a freshly (re)started child adopts the current setup on
# its first shard. Module-level state is required because process pools
# can only ship module-level callables.
#
# A shard comes back as ``(records, events)``: one sparse
# ``experiment_record`` per site rather than the dense result arrays,
# with its cells *packed* into one base64 string (see the codec notes in
# :mod:`repro.core.serialize`) instead of a Python list per corrupted
# cell. The record crosses the pool pipe and, from a fabric agent, the
# wire in that form; the parent decodes it with the one reader both
# forms share and, when a checkpoint is open, writes it with its cells
# turned back into the list form, so the stream on disk is unchanged.
# Tracing rides the same channel: when the parent's recorder is armed the
# adopted setup gives the worker its own TraceRecorder, and every shard
# payload carries the worker's drained span events alongside the records
# (timestamps share the parent's monotonic clock, so the merged timeline
# is coherent). Events never touch the experiment records themselves.

_WORKER_SETUP: tuple | None = None


def _adopt_setup(setup_key: str, setup: bytes) -> tuple:
    """The worker's decoded setup for ``setup_key``: ``(key, campaign,
    golden, plan, geometry, chaos, recorder)``, unpickled from ``setup``
    only when the key changes."""
    global _WORKER_SETUP
    if _WORKER_SETUP is None or _WORKER_SETUP[0] != setup_key:
        campaign, golden, plan, geometry, chaos, trace = pickle.loads(setup)
        recorder = TraceRecorder() if trace else NULL_RECORDER
        _WORKER_SETUP = (
            setup_key, campaign, golden, plan, geometry, chaos, recorder,
        )
    return _WORKER_SETUP


def _run_shard(
    setup_key: str,
    setup: bytes,
    shard: list[tuple[int, int]],
) -> tuple[list[dict], list[dict]]:
    _, campaign, golden, plan, geometry, chaos, recorder = _adopt_setup(
        setup_key, setup
    )
    with recorder.span("shard.run", cat="worker", sites=len(shard)):
        # Chaos actions fire per site, in site order, before the batch
        # runs. Workers evaluate with null metrics; the parent accounts
        # for analytic fallbacks from the campaign spec instead.
        mangled = [
            index
            for index, site in enumerate(shard)
            if chaos is not None and chaos.fire(site)
        ]
        records = [
            experiment_record(experiment, packed=True)
            for experiment in campaign.run_batch(
                shard, golden, plan, geometry, recorder=recorder
            )
        ]
    for index in mangled:  # an injected "corrupt" action fired
        records[index] = {"mangled": True}
    return records, recorder.drain()


def _exit_with_parent() -> None:
    """Pool-child initializer: exit as soon as the parent process dies.

    A resident pool outlives any one campaign, so a parent killed
    without its shutdown path (SIGKILL, the OOM killer) would otherwise
    leave its children idle for good. The parent's sentinel becomes
    ready only once the parent is gone.
    """
    parent = multiprocessing.parent_process()

    def _watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=_watch, daemon=True).start()


class WorkerPool:
    """A process pool of fixed width that runs shards under the setup
    token of the last :meth:`adopt` (see the plumbing notes above), so
    switching campaigns costs a token swap, not a pool restart.
    ``context`` names the multiprocessing start method (``None`` is the
    platform default); children start when the first shards arrive.

    Whoever builds a pool owns it and stops it. A
    :class:`ParallelExecutor` without one builds and stops a pool per
    ``execute()``; one handed a pool (the service's resident pool, the
    study's pool for its grid, a fabric agent's pool) adopts each
    campaign on it, starts it only when it is not running, and leaves it
    running after a clean end. An unclean end (interrupt, exception)
    kills its children, and the next campaign starts fresh ones.
    """

    def __init__(self, width: int, context: str | None = None) -> None:
        self.width = width
        self.context = multiprocessing.get_context(context)
        self._pool: ProcessPoolExecutor | None = None
        self._setup: tuple[str, bytes] | None = None

    def adopt(
        self,
        campaign: Campaign,
        golden: np.ndarray,
        plan: TilingPlan,
        geometry: ConvGeometry | None,
        chaos: ChaosSpec | None = None,
        trace: bool = False,
    ) -> None:
        """Make this setup the one every later shard runs under."""
        setup = pickle.dumps(
            (campaign, golden, plan, geometry, chaos, trace),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        self._setup = (hashlib.sha256(setup).hexdigest(), setup)

    @property
    def processes(self) -> list:
        """The pool's child processes (none before the first shard)."""
        return list((getattr(self._pool, "_processes", None) or {}).values())

    @property
    def running(self) -> bool:
        """Started and not stopped since (children may still be unborn)."""
        return self._pool is not None

    def start(self) -> None:
        self._pool = ProcessPoolExecutor(
            max_workers=self.width, mp_context=self.context,
            initializer=_exit_with_parent,
        )

    def submit(self, sites: list[tuple[int, int]]) -> Future:
        """Run one shard under the adopted setup (raises
        :class:`BrokenProcessPool` once a child has died)."""
        assert self._pool is not None and self._setup is not None
        setup_key, setup = self._setup
        return self._pool.submit(_run_shard, setup_key, setup, sites)

    def restart(self) -> None:
        """Kill every child (the only way to reclaim a hung one) and
        start an empty pool under the same setup."""
        self.stop(kill=True)
        self.start()

    def stop(self, kill: bool = False) -> None:
        """Shut the pool down; ``kill`` terminates the children first."""
        pool, processes = self._pool, self.processes
        self._pool = None
        if pool is None:
            return
        if kill:
            for proc in processes:
                try:
                    proc.kill()
                except OSError:  # already gone
                    continue
            pool.shutdown(wait=False, cancel_futures=True)
        else:
            pool.shutdown(wait=True)


def _validate_shard(payload: object, sites: list[tuple[int, int]]) -> str | None:
    """Reason the worker payload is unusable, or ``None`` when sound.

    Workers are separate processes; a payload that survived pickling (or
    the wire) can still be wrong (a worker bug, a chaos ``corrupt``
    action), and an unvalidated bad record would silently poison the
    canonical merge. The payload is a ``(records, trace events)`` pair,
    one :func:`~repro.core.serialize.experiment_record` per site; this
    checks that each answers its site, not that its body decodes. The
    events list is only shape-checked — a mangled event can at worst
    mangle a trace file, never a result.
    """
    if (
        not isinstance(payload, tuple)
        or len(payload) != 2
        or not isinstance(payload[1], list)
    ):
        return (
            f"worker returned a malformed shard payload "
            f"(expected a (results, events) pair, got "
            f"{type(payload).__name__})"
        )
    results = payload[0]
    if not isinstance(results, list) or len(results) != len(sites):
        return (
            f"worker returned a malformed shard payload "
            f"({type(results).__name__} of length "
            f"{len(results) if isinstance(results, list) else 'n/a'}, "
            f"expected {len(sites)} records)"
        )
    for record, (row, col) in zip(results, sites):
        claimed = _claimed_site(record)
        if claimed is None:
            return (
                f"record for MAC({row},{col}) is not an experiment result "
                f"(got {type(record).__name__})"
            )
        if claimed != (row, col):
            return (
                f"record for MAC({row},{col}) carries mismatched site "
                f"MAC({claimed[0]},{claimed[1]})"
            )
    return None


def _claimed_site(record: object) -> tuple[object, object] | None:
    """The ``(row, col)`` a shard entry answers, or ``None`` when it is
    not an experiment record."""
    site = record.get("site") if isinstance(record, dict) else None
    if isinstance(site, dict) and "row" in site and "col" in site:
        return site["row"], site["col"]
    return None


# ----------------------------------------------------------------------
# Failure-aware dispatch
# ----------------------------------------------------------------------


#: The holder of every lease in the pool dispatcher's table.
_POOL = 0


class _ShardIngest:
    """What the pool dispatcher and the fabric coordinator share.

    Each owns one dispatch of ``pending``: a FIFO of shards cut at the
    campaign's :attr:`~repro.core.campaign.Campaign.min_shard_sites`
    granularity (an analytic WS/IS campaign's in mesh-column order,
    :func:`~repro.engines.analytic.engine.column_order`), the shared
    :class:`FailureLadder`, the completed map, and the
    :class:`LeaseTable` of in-flight attempts, whose leases last
    ``lease_seconds`` (``None``: no deadline). Every shard result enters
    through :meth:`_ingest` — validate, decode, store, checkpoint, then
    release the lease — whether it came back from a pool child or off
    the wire, and the checkpoint appends the records with their cells
    in the list form.
    """

    #: Upper bound on one scheduler wait, so pending signals and expired
    #: leases are noticed promptly even while shards are quiet.
    TICK_SECONDS = 0.25

    def __init__(
        self,
        executor: "ParallelExecutor",
        campaign: Campaign,
        golden: np.ndarray,
        plan: TilingPlan,
        geometry: ConvGeometry | None,
        pending: list[tuple[int, int]],
        stream: IO[str] | None,
        lease_seconds: float | None,
    ) -> None:
        self.executor = executor
        self.campaign = campaign
        self.golden = golden
        self.plan = plan
        self.geometry = geometry
        self.obs = executor.obs
        self.stream = stream
        if (
            campaign.engine_kind == "analytic"
            and campaign.workload.dataflow is not Dataflow.OUTPUT_STATIONARY
        ):
            # Shards of whole mesh columns compute each column's WS/IS
            # products in one shard, not in every shard.
            from repro.engines.analytic.engine import column_order

            pending = [pending[i] for i in column_order(pending)]
        shards = shard_sites(
            pending,
            executor.jobs * executor.shards_per_worker,
            min_batch=campaign.min_shard_sites,
        )
        self.queue: deque[ShardTask] = deque(
            ShardTask(sites=shard) for shard in shards
        )
        self.completed: dict[tuple[int, int], ExperimentResult] = {}
        self.leases = LeaseTable(lease_seconds)
        self._signum: int | None = None
        self.ladder = FailureLadder(
            retry=executor.retry,
            on_error=executor.on_error,
            queue=self.queue,
            metrics=self.obs.metrics,
            progress=self.obs.progress,
            record_failure=self._persist_failure,
        )

    @property
    def failures(self) -> dict[tuple[int, int], FailureRecord]:
        return self.ladder.failures

    def _persist_failure(self, failure: FailureRecord) -> None:
        self.executor._record_failure(self.stream, failure)

    def _fail_shard(
        self, task: ShardTask, kind: FailureKind, error: str
    ) -> None:
        self.ladder.fail(task, kind, error)

    def _pop_ready(
        self, now: float, suspects_only: bool = False
    ) -> ShardTask | None:
        """Take the first queued task past its backoff gate."""
        for index, task in enumerate(self.queue):
            if task.ready_at > now:
                continue
            if suspects_only and not task.suspect:
                continue
            del self.queue[index]
            return task
        return None

    def _interrupted(self, signum: int) -> CampaignInterrupted:
        """The resumable-shutdown error: queued and leased sites remain."""
        remaining = sum(
            len(task.sites)
            for task in (*self.queue, *self.leases.outstanding())
        )
        return CampaignInterrupted(
            signum=signum,
            checkpoint=self.executor.checkpoint,
            completed=len(self.completed),
            remaining=remaining,
        )

    def _hand_over(self) -> tuple[
        dict[tuple[int, int], ExperimentResult],
        dict[tuple[int, int], FailureRecord],
    ]:
        """The completed and quarantined maps, detached from this object.

        A finished dispatch stays in reference cycles (bound-method
        callbacks, the fabric's server and caught exceptions), which
        only the cyclic collector frees. Holding the experiments here
        would pin every dense pattern of the campaign until then.
        """
        completed, self.completed = self.completed, {}
        return completed, self.failures

    def _ingest(
        self,
        shard_id: object,
        payload: object,
        undecodable: FailureKind = FailureKind.CORRUPT_RESULT,
    ) -> None:
        """Validate, decode and store the ``(records, events)`` payload
        of the attempt leased as ``shard_id``, or fail the attempt
        through the ladder.

        A payload that does not answer the task's sites is a corrupt
        result; records that validate but do not decode fail as
        ``undecodable`` (a corrupt result from a pool child, a protocol
        error off the wire). The lease is released only once the
        records are fsynced into the checkpoint, so a failed write
        leaves the attempt in flight and raises.
        """
        lease = self.leases.holder(shard_id)
        assert lease is not None
        task = lease.task
        problem = _validate_shard(payload, task.sites)
        if problem is not None:
            self.leases.release(shard_id)
            self._fail_shard(task, FailureKind.CORRUPT_RESULT, problem)
            return
        records, events = payload
        shape = self.golden.shape if self.campaign.keep_patterns else None
        try:
            experiments = [
                experiment_from_record(
                    record, shape=shape, plan=self.plan, geometry=self.geometry
                )
                for record in records
            ]
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            self.leases.release(shard_id)
            self._fail_shard(
                task, undecodable, f"undecodable result records: {exc!r}"
            )
            return
        self.obs.metrics.histogram(
            "repro_shard_seconds",
            "Wall-clock latency of successful shard attempts.",
        ).observe(time.monotonic() - lease.granted_at)
        self.obs.recorder.ingest(events)
        for experiment in experiments:
            key = (experiment.site.row, experiment.site.col)
            self.completed[key] = experiment
        self.obs.metrics.counter(
            "repro_sites_completed_total",
            "Fault sites whose experiment completed.",
        ).inc(len(experiments))
        if self.obs.progress is not None:
            self.obs.progress.advance(len(experiments))
        if self.stream is not None:  # checkpoint lines keep the list form
            ndim = self.golden.ndim
            self.executor._record_batch(
                self.stream, [unpack_cells(record, ndim) for record in records]
            )
        self.leases.release(shard_id)


class _ShardDispatcher(_ShardIngest):
    """The failure-aware scheduling loop of :class:`ParallelExecutor`.

    Runs the executor's pool (or one of its own, stopped at the end) and
    owns the pending-task queue for one ``execute()`` call, and leases
    each submitted future to the pool until ``shard_timeout`` (never
    renewed); implements retry/backoff,
    the watchdog, pool reconstitution, suspect isolation, bisection,
    quarantine, and graceful shutdown. Scheduling is deterministic up to
    OS timing: the queue is FIFO, backoff delays come from the
    jitter-free :class:`RetryPolicy`, and nothing consults randomness.
    """

    def __init__(
        self,
        executor: "ParallelExecutor",
        campaign: Campaign,
        golden: np.ndarray,
        plan: TilingPlan,
        geometry: ConvGeometry | None,
        pending: list[tuple[int, int]],
        stream: IO[str] | None,
    ) -> None:
        super().__init__(
            executor, campaign, golden, plan, geometry, pending, stream,
            lease_seconds=executor.shard_timeout,
        )
        #: The executor's pool, or one of this dispatch's own.
        self.owned = executor.pool is None
        self.pool = WorkerPool(executor.jobs) if self.owned else executor.pool
        self.pool.adopt(
            campaign, golden, plan, geometry, executor.chaos,
            self.obs.recorder.armed,
        )

    # -- signal handling -----------------------------------------------
    @contextmanager
    def _signal_guard(self) -> Iterator[None]:
        """Install SIGINT/SIGTERM capture for the scheduling loop.

        Handlers only set a flag; the loop notices it within one tick and
        runs the orderly shutdown path. Signal installation is only legal
        on the main thread — elsewhere the guard is a no-op and default
        delivery applies.
        """
        if threading.current_thread() is not threading.main_thread():
            yield
            return

        def _capture(signum: int, frame: object) -> None:
            self._signum = signum

        previous: dict[int, object] = {}
        for signum in (_signal_module.SIGINT, _signal_module.SIGTERM):
            previous[signum] = _signal_module.signal(signum, _capture)
        try:
            yield
        finally:
            for signum, handler in previous.items():
                _signal_module.signal(signum, handler)

    # -- scheduling loop -----------------------------------------------
    def run(
        self,
    ) -> tuple[
        dict[tuple[int, int], ExperimentResult],
        dict[tuple[int, int], FailureRecord],
    ]:
        clean = False
        with self._signal_guard():
            if not self.pool.running:
                self.pool.start()
            try:
                while self.queue or self.leases:
                    interrupt = self.executor.interrupt
                    if self._signum is not None or (
                        interrupt is not None and interrupt.is_set()
                    ):
                        self._graceful_shutdown()
                    self._submit_ready()
                    self._reap(self._wait_tick())
                    self._check_deadlines()
                clean = True
            finally:
                if self.owned or not clean:
                    self.pool.stop(kill=not clean)
        return self._hand_over()

    def _suspect_mode(self) -> bool:
        return any(
            task.suspect
            for task in (*self.queue, *self.leases.outstanding())
        )

    def _submit_ready(self) -> None:
        now = time.monotonic()
        suspect_mode = self._suspect_mode()
        # Suspects run strictly alone: if their shard breaks the pool
        # again, the attribution is unambiguous.
        limit = 1 if suspect_mode else self.executor.jobs
        while self.queue and len(self.leases) < limit:
            task = self._pop_ready(now, suspect_mode)
            if task is None:
                return
            try:
                future = self.pool.submit(task.sites)
            except BrokenProcessPool:
                # The pool broke but no reaped future told us yet; the
                # task never ran, so it goes back unpenalized.
                self.queue.appendleft(task)
                self._on_pool_broken([])
                return
            self.leases.grant(future, _POOL, task, time.monotonic())

    def _wait_tick(self) -> set[Future]:
        """Block until progress is possible; returns finished futures."""
        now = time.monotonic()
        tick = self.TICK_SECONDS
        for lease in self.leases:
            if lease.deadline is not None:
                tick = min(tick, max(0.0, lease.deadline - now))
        if not self.leases:
            # Everything is backoff-gated; sleep until the nearest gate.
            gates = [
                task.ready_at - now
                for task in self.queue
                if task.ready_at > now
            ]
            time.sleep(min(tick, min(gates) if gates else 0.01))
            return set()
        done, _ = wait(
            self.leases.held_by(_POOL), tick, return_when=FIRST_COMPLETED
        )
        return done

    # -- outcome handling ----------------------------------------------
    def _reap(self, done: set[Future]) -> None:
        broken: list[ShardTask] = []
        for future in done:
            if self.leases.holder(future) is None:
                continue
            try:
                payload = future.result()
            except BrokenProcessPool:
                broken.append(self.leases.release(future))
                continue
            except Exception as exc:  # the worker raised for this shard
                self._fail_shard(
                    self.leases.release(future), FailureKind.CRASH, repr(exc)
                )
                continue
            self._ingest(future, payload)
        if broken:
            self._on_pool_broken(broken)

    def _on_pool_broken(self, broken: list[ShardTask]) -> None:
        """A worker died hard and took the whole pool with it.

        Every in-flight future fails together, so the culprit cannot be
        attributed; all in-flight tasks become suspects and will be
        retried one at a time against a fresh pool.
        """
        victims = broken + [
            self.leases.release(f) for f in self.leases.held_by(_POOL)
        ]
        self.pool.restart()
        for task in victims:
            task.suspect = True
            self.ladder.fail(
                task,
                FailureKind.POOL_BROKEN,
                "a worker process died abruptly; the pool was "
                "reconstituted and this shard is a suspect",
            )

    def _check_deadlines(self) -> None:
        expired = {
            future
            for future in self.leases.expired(time.monotonic())
            if not future.done()
        }
        if not expired:
            return
        # Harvest shards that finished before the axe falls: done futures
        # keep their results even after the pool is killed.
        self._reap({f for f in self.leases.held_by(_POOL) if f.done()})
        timed_out: list[ShardTask] = []
        innocent: list[ShardTask] = []
        for future in self.leases.held_by(_POOL):
            task = self.leases.release(future)
            (timed_out if future in expired else innocent).append(task)
        # A hung worker cannot be cancelled — only killed with its pool.
        self.pool.restart()
        for task in innocent:  # requeue in-flight bystanders, no penalty
            self.queue.appendleft(task)
        for task in timed_out:
            self.ladder.fail(
                task,
                FailureKind.TIMEOUT,
                f"shard exceeded the {self.executor.shard_timeout:g}s "
                f"watchdog deadline",
            )

    def _graceful_shutdown(self) -> None:
        """SIGINT/SIGTERM (or the cooperative interrupt event) arrived:
        drain, fsync, exit resumable. The interrupt-event path reports a
        synthetic ``SIGINT`` — same contract, different messenger."""
        try:
            self._reap({f for f in self.leases.held_by(_POOL) if f.done()})
        except CampaignExecutionError:
            pass  # shutting down regardless; the drain is best-effort
        raise self._interrupted(
            self._signum if self._signum is not None
            else int(_signal_module.SIGINT)
        )


class ParallelExecutor:
    """Sharded multi-process campaign execution with checkpoint/resume
    and failure tolerance.

    Parameters
    ----------
    jobs:
        Worker-process count (must be >= 1). ``jobs=1`` still runs through
        a single-worker pool, exercising the exact code path larger counts
        use.
    checkpoint:
        Path of an append-only JSONL stream to record completed
        experiments into (created/continued as needed). Records land in
        completion order; the merged result is canonical regardless.
        Record batches are fsynced, so completed work survives power loss
        as well as process death.
    resume:
        Path of an existing checkpoint to resume from: already-recorded
        sites (including quarantined ones) are restored instead of
        re-executed, and newly completed sites are appended to the same
        file. Implies ``checkpoint=resume`` unless a different checkpoint
        path is given explicitly.
    shards_per_worker:
        Sharding granularity; more shards per worker improves load balance
        and checkpoint resolution at slightly higher dispatch overhead.
    shard_timeout:
        Watchdog deadline in seconds for one shard attempt; ``None``
        (default) disables the watchdog. On expiry the pool is killed and
        reconstituted, the timed-out shard is penalized one attempt, and
        innocent in-flight shards are requeued for free.
    max_retries:
        Convenience knob for ``RetryPolicy(max_retries=...)``; mutually
        exclusive with ``retry``.
    retry:
        Full retry/backoff policy (see
        :class:`~repro.core.resilience.RetryPolicy`).
    on_error:
        What to do once a failure exhausts its retry budget:
        ``"quarantine"`` (default) bisects down to the poison site,
        records it, and completes the rest of the campaign;
        ``"abort"`` raises the typed taxonomy error.
    chaos:
        Test-only failure-injection schedule shipped to workers (see
        :mod:`repro.core.chaos`). ``None`` in production.
    obs:
        Observability bundle (see :mod:`repro.obs`): span recorder,
        metrics registry, live progress line. Defaults to the all-null
        bundle (no overhead). When the recorder is armed, workers record
        their own spans and ship them back with each shard's results.
        Armed or not, campaign results are field-for-field identical.
    interrupt:
        Optional cooperative-interrupt event. Setting it from another
        thread makes the dispatcher drain in-flight shards to the
        checkpoint and raise :class:`CampaignInterrupted` with a
        synthetic ``SIGINT`` — the service's cancel/drain seam, useful
        anywhere signal delivery is unavailable (non-main threads).
    pool:
        A :class:`WorkerPool` of width ``jobs`` that the caller owns and
        keeps across campaigns (see its docstring). ``None`` (default)
        builds a fresh pool per ``execute()`` and stops it after.
    """

    def __init__(
        self,
        jobs: int = 1,
        checkpoint: str | Path | None = None,
        resume: str | Path | None = None,
        shards_per_worker: int = 4,
        shard_timeout: float | None = None,
        max_retries: int | None = None,
        retry: RetryPolicy | None = None,
        on_error: OnError | str = OnError.QUARANTINE,
        chaos: ChaosSpec | None = None,
        obs: Observability | None = None,
        interrupt: threading.Event | None = None,
        pool: WorkerPool | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if pool is not None and pool.width != jobs:
            raise ValueError(
                f"pool width {pool.width} does not match jobs={jobs}"
            )
        if shards_per_worker < 1:
            raise ValueError(
                f"shards_per_worker must be >= 1, got {shards_per_worker}"
            )
        if shard_timeout is not None and shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive, got {shard_timeout}"
            )
        if retry is not None and max_retries is not None:
            raise ValueError("pass either max_retries or retry, not both")
        self.jobs = jobs
        self.resume = Path(resume) if resume is not None else None
        if checkpoint is not None:
            self.checkpoint = Path(checkpoint)
        else:
            self.checkpoint = self.resume
        self.shards_per_worker = shards_per_worker
        self.shard_timeout = shard_timeout
        if retry is not None:
            self.retry = retry
        elif max_retries is not None:
            self.retry = RetryPolicy(max_retries=max_retries)
        else:
            self.retry = RetryPolicy()
        self.on_error = OnError(on_error) if isinstance(on_error, str) else on_error
        self.chaos = chaos
        self.obs = obs if obs is not None else NULL_OBS
        #: Cooperative-interrupt event: when set by another thread, the
        #: dispatcher runs the same drain-and-raise path a SIGINT would.
        self.interrupt = interrupt
        self.pool = pool

    # ------------------------------------------------------------------
    def _restore(
        self,
        campaign: Campaign,
        golden: np.ndarray,
        plan: TilingPlan,
        geometry: ConvGeometry | None,
    ) -> tuple[
        dict[tuple[int, int], ExperimentResult],
        dict[tuple[int, int], FailureRecord],
    ]:
        """Experiments and quarantines recovered from the resume file.

        Quarantine records are sticky: a resumed campaign does not
        re-execute a site a previous run proved poisonous. Duplicate
        records for one site keep the last occurrence — loudly, with a
        :class:`RuntimeWarning`, because duplicates mean a previous
        writer double-recorded and the file deserves scrutiny.
        """
        if self.resume is None:
            return {}, {}
        header, records = read_checkpoint(self.resume)
        expected = checkpoint_header(campaign)
        mismatched = [
            key
            for key in ("workload", "mesh", "fault_spec", "engine")
            if header.get(key) != expected[key]
        ]
        if mismatched:
            raise ValueError(
                f"checkpoint {self.resume} belongs to a different campaign "
                f"(mismatched {', '.join(mismatched)}); refusing to resume"
            )
        valid_sites = set(campaign.sites)
        shape = golden.shape if campaign.keep_patterns else None
        restored: dict[tuple[int, int], ExperimentResult] = {}
        failures: dict[tuple[int, int], FailureRecord] = {}
        for record in records:
            if is_failure_record(record):
                failure = failure_from_record(record)
                key = failure.site
                if key not in valid_sites:
                    continue
                self._warn_duplicate(key, restored, failures)
                restored.pop(key, None)
                failures[key] = failure
                continue
            experiment = experiment_from_record(
                record, shape=shape, plan=plan, geometry=geometry
            )
            key = (experiment.site.row, experiment.site.col)
            if key not in valid_sites:
                continue
            self._warn_duplicate(key, restored, failures)
            failures.pop(key, None)
            restored[key] = experiment
        return restored, failures

    def _warn_duplicate(
        self, key: tuple[int, int], restored: dict, failures: dict
    ) -> None:
        if key in restored or key in failures:
            warnings.warn(
                f"duplicate checkpoint record for MAC({key[0]},{key[1]}) "
                f"in {self.resume}; keeping the last occurrence",
                RuntimeWarning,
                stacklevel=4,
            )

    def _open_checkpoint(self, campaign: Campaign) -> IO[str] | None:
        """Open the checkpoint stream for appending (see
        :func:`~repro.core.serialize.open_jsonl_stream`: a torn header
        is refused, a torn tail healed, a new file given its header)."""
        if self.checkpoint is None:
            return None
        return open_jsonl_stream(self.checkpoint, checkpoint_header(campaign))

    # -- durable record appends ----------------------------------------
    @staticmethod
    def _sync(stream: IO[str]) -> None:
        """Flush through the OS to the disk: checkpoint durability is the
        whole point, so completed work must survive power loss too."""
        stream.flush()
        os.fsync(stream.fileno())

    def _record_batch(
        self, stream: IO[str] | None, records: list[dict]
    ) -> None:
        """Append one shard's experiment records and fsync them."""
        if stream is None or not records:
            return
        for record in records:
            stream.write(json.dumps(record) + "\n")
        self._sync(stream)

    def _record_failure(
        self, stream: IO[str] | None, failure: FailureRecord
    ) -> None:
        if stream is None:
            return
        stream.write(json.dumps(failure_record(failure)) + "\n")
        self._sync(stream)

    def _close_checkpoint(self, stream: IO[str]) -> None:
        try:
            self._sync(stream)
        finally:
            stream.close()

    # ------------------------------------------------------------------
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
        """The transport seam: run ``pending`` and return what completed.

        The base implementation fans out over a local process pool via
        :class:`_ShardDispatcher`. :class:`repro.core.fabric.
        DistributedExecutor` overrides exactly this method to dispatch
        the same shards to remote socket workers — everything around it
        (golden cache, checkpoint open/restore/close, spans, progress,
        canonical merge) is shared verbatim between the two tiers.
        """
        dispatcher = _ShardDispatcher(
            self, campaign, golden, plan, geometry, pending, stream
        )
        return dispatcher.run()

    def execute(self, campaign: Campaign) -> CampaignResult:
        obs = self.obs
        start = time.perf_counter()
        with obs.recorder.span(
            "campaign.execute", cat="campaign",
            workload=campaign.workload.describe(), sites=len(campaign.sites),
            jobs=self.jobs,
        ):
            with obs.recorder.span("campaign.golden", cat="campaign"):
                golden, plan, geometry = GOLDEN_CACHE.golden_run(
                    campaign, metrics=obs.metrics
                )
            with obs.recorder.span("campaign.restore", cat="campaign"):
                completed, failures = self._restore(
                    campaign, golden, plan, geometry
                )
            pending = [
                site
                for site in campaign.sites
                if site not in completed and site not in failures
            ]
            obs.metrics.gauge(
                "repro_sites_total", "Fault sites in the campaign sweep."
            ).set(len(campaign.sites))
            if campaign.engine_kind == "analytic" and pending:
                # Workers evaluate batches with null metrics (registries
                # don't cross the process boundary), so the parent
                # publishes the fallback count — a pure prediction from
                # the campaign spec, identical to what the workers see.
                from repro.engines.analytic.engine import (
                    record_fallbacks,
                    unsupported_sites,
                )

                record_fallbacks(
                    obs.metrics, len(unsupported_sites(campaign, pending))
                )
            if obs.progress is not None:
                obs.progress.begin(
                    len(campaign.sites),
                    done=len(completed) + len(failures),
                )
            stream = self._open_checkpoint(campaign)
            try:
                if pending:
                    with obs.recorder.span(
                        "campaign.dispatch", cat="campaign",
                        pending=len(pending),
                    ):
                        ran, quarantined = self._dispatch(
                            campaign, golden, plan, geometry, pending, stream
                        )
                    completed.update(ran)
                    failures.update(quarantined)
            finally:
                if obs.progress is not None:
                    obs.progress.finish()
                if stream is not None:
                    self._close_checkpoint(stream)
        wall_seconds = time.perf_counter() - start
        result = _merged_result(
            campaign, golden, plan, geometry, completed, wall_seconds,
            failures=failures,
        )
        result.telemetry = obs.telemetry(wall_seconds, len(campaign.sites))
        return result


def build_executor(
    executor_spec: dict[str, Any],
    *,
    obs: Observability | None = None,
    interrupt: threading.Event | None = None,
    announce: Callable[[str, int], None] | None = None,
    pool: WorkerPool | None = None,
    **pooled: Any,
) -> CampaignExecutor:
    """The one place an executor spec becomes an executor.

    ``executor_spec`` is the normalised dict ``decode_campaign_spec``
    returns; the keywords are per-run wiring the caller owns. ``obs`` and
    ``interrupt`` reach every kind, ``announce(host, port)`` the fabric,
    ``pool`` (a caller-owned :class:`WorkerPool`) the parallel kind, and
    ``pooled`` (the :class:`ParallelExecutor` keywords: checkpoint,
    resume, chaos, failure policy) the pooled kinds only. A serial spec
    never checkpoints: it runs in process, and a re-run is its resume.
    """
    kind = executor_spec["kind"]
    if kind == "serial":
        return SerialExecutor(obs=obs, interrupt=interrupt)
    if kind == "parallel":
        return ParallelExecutor(
            jobs=executor_spec["jobs"], obs=obs, interrupt=interrupt,
            pool=pool, **pooled,
        )
    if kind == "fabric":
        # Imported here: the fabric coordinator builds on this module.
        from repro.core.fabric import DistributedExecutor

        return DistributedExecutor(
            executor_spec["host"],
            executor_spec["port"],
            expected_workers=executor_spec["workers"],
            lease_seconds=executor_spec["lease_seconds"],
            heartbeat_interval=executor_spec["heartbeat_interval"],
            join_timeout=executor_spec["join_timeout"],
            announce=announce,
            obs=obs,
            interrupt=interrupt,
            **pooled,
        )
    raise ValueError(f"unknown executor kind {kind!r}")
