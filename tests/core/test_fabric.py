"""The distributed fabric under test: equivalence, chaos, and recovery.

The fabric's contract is the executor's contract over a network: under
every injected network failure — worker kill, heartbeat stall, frame
truncation, duplicate result replay, coordinator SIGTERM + resume — a
distributed campaign must complete *bit-identical* to the serial
reference, with forfeited leases requeued and poison sites quarantined
rather than aborting the sweep.

Benign chaos modes (stall / replay / truncate) run against thread-hosted
:class:`WorkerAgent` instances for speed; modes that kill the agent
process (``drop``) and the coordinator crash/restart tests drive real
``repro-fi worker`` subprocesses.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import Future

import pytest

from repro.core import (
    Campaign,
    CampaignExecutionError,
    ChaosAction,
    ChaosSpec,
    DistributedExecutor,
    FillKind,
    GemmWorkload,
    ParallelExecutor,
    RetryPolicy,
    ShardTask,
    WorkerAgent,
    WorkerLost,
    read_checkpoint,
)
from repro.core.fabric.protocol import MSG_DRAIN, MSG_RESULT, MSG_WELCOME
from repro.core.serialize import (
    decode_frame,
    encode_frame,
    experiment_record,
    fabric_setup_from_record,
    fabric_setup_record,
)
from repro.core.resilience import LeaseTable
from repro.obs import MetricsRegistry, Observability
from repro.systolic import Dataflow, MeshConfig

from tests.core._support import (
    REPO_ROOT,
    assert_campaigns_equivalent,
    assert_freed_on_drop,
)

MESH = MeshConfig(rows=4, cols=4)
WORKLOAD = GemmWorkload.square(8, Dataflow.WEIGHT_STATIONARY)

#: Fast deterministic backoff so chaos recovery stays quick.
FAST_RETRY = RetryPolicy(max_retries=2, backoff_base=0.01, backoff_cap=0.05)

#: Test-scale lease timing: short enough that forfeiture happens within
#: a test, long enough that healthy heartbeats (0.3 s) always renew.
LEASE = dict(lease_seconds=1.5, heartbeat_interval=0.3)


def make_campaign(**kwargs) -> Campaign:
    return Campaign(MESH, WORKLOAD, **kwargs)


@pytest.fixture(scope="module")
def serial():
    """The reference result of an unperturbed serial run."""
    return make_campaign().run()


def thread_fleet(n_workers: int, jobs: int = 1):
    """An ``announce`` hook that launches ``n_workers`` in-process agents
    the moment the coordinator reports its bound port."""
    threads: list[threading.Thread] = []

    def announce(host: str, port: int) -> None:
        for _ in range(n_workers):
            agent = WorkerAgent(
                host,
                port,
                jobs=jobs,
                reconnect_attempts=4,
                reconnect_delay=0.25,
            )
            thread = threading.Thread(target=agent.run, daemon=True)
            thread.start()
            threads.append(thread)

    return announce, threads


def run_distributed(chaos: ChaosSpec | None = None, *, n_workers=2, **kwargs):
    """One distributed campaign against a thread-hosted fleet; returns
    ``(result, metrics)``."""
    metrics = MetricsRegistry()
    announce, threads = thread_fleet(n_workers)
    kwargs.setdefault("retry", FAST_RETRY)
    for key, value in LEASE.items():
        kwargs.setdefault(key, value)
    executor = DistributedExecutor(
        expected_workers=n_workers,
        announce=announce,
        chaos=chaos,
        obs=Observability(metrics=metrics),
        **kwargs,
    )
    result = make_campaign().run(executor)
    for thread in threads:
        thread.join(timeout=30)
    return result, metrics


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def spawn_cli_worker(port: int, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--connect",
            f"127.0.0.1:{port}",
            "--reconnect-attempts",
            "60",
            "--reconnect-delay",
            "0.5",
            *extra,
        ],
        env=env,
        cwd=REPO_ROOT,
        # DEVNULL, not PIPE: the worker's spawn-context pool children
        # inherit its stdio, so a pipe would stay open past the
        # worker's own death and wedge any EOF-waiting reader.
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


# ----------------------------------------------------------------------
# Wire codecs
# ----------------------------------------------------------------------


class TestFrameCodec:
    def test_roundtrip(self):
        message = {"type": "result", "shard_id": 3, "records": [1, 2]}
        frame = encode_frame(message)
        assert frame[:4] == (len(frame) - 4).to_bytes(4, "big")
        assert decode_frame(frame[4:]) == message

    def test_untyped_message_rejected(self):
        with pytest.raises(ValueError, match="type"):
            encode_frame({"shard_id": 3})

    def test_undecodable_payload_rejected(self):
        with pytest.raises(ValueError):
            decode_frame(b"\xff\xfe not json")
        with pytest.raises(ValueError, match="type"):
            decode_frame(b'{"no_type": 1}')

    def test_fabric_setup_roundtrip(self):
        campaign = make_campaign()
        chaos = ChaosSpec.build({(1, 1): ChaosAction("replay", times=None)})
        record = fabric_setup_record(
            campaign, chaos=chaos, trace=True, shard_timeout=4.0
        )
        back_campaign, back_chaos, trace, timeout = fabric_setup_from_record(
            record
        )
        assert back_campaign.mesh == campaign.mesh
        assert back_campaign.sites == campaign.sites
        assert back_chaos == chaos
        assert trace is True
        assert timeout == 4.0

    def test_setup_version_guard(self):
        record = fabric_setup_record(make_campaign())
        record["schema_version"] = 999
        with pytest.raises(ValueError, match="version"):
            fabric_setup_from_record(record)


# ----------------------------------------------------------------------
# Lease table
# ----------------------------------------------------------------------


class TestLeaseTable:
    def test_grant_holds_until_deadline(self):
        table = LeaseTable(lease_seconds=2.0)
        task = ShardTask(sites=[(0, 0), (0, 1)])
        table.grant(1, 5, task, now=10.0)
        assert table.holder(1).worker_id == 5
        assert table.expired(now=11.9) == []
        assert table.expired(now=12.0) == [1]

    def test_renew_pushes_every_lease_of_the_worker(self):
        table = LeaseTable(lease_seconds=2.0)
        table.grant(1, 5, ShardTask(sites=[(0, 0)]), now=10.0)
        table.grant(2, 5, ShardTask(sites=[(0, 1)]), now=10.0)
        table.grant(3, 6, ShardTask(sites=[(0, 2)]), now=10.0)
        assert table.renew(5, now=11.5) == 2
        assert table.expired(now=12.5) == [3]
        assert table.holder(1).renewals == 1

    def test_release_returns_task_once(self):
        table = LeaseTable(lease_seconds=2.0)
        task = ShardTask(sites=[(0, 0)])
        table.grant(1, 5, task, now=0.0)
        assert table.release(1) is task
        assert table.release(1) is None  # idempotent forfeiture
        assert len(table) == 0

    def test_held_by_and_outstanding_are_ordered(self):
        table = LeaseTable(lease_seconds=2.0)
        for shard_id in (3, 1, 2):
            table.grant(shard_id, 9, ShardTask(sites=[(0, shard_id)]), 0.0)
        assert table.held_by(9) == [1, 2, 3]
        assert [t.sites for t in table.outstanding()] == [
            [(0, 1)],
            [(0, 2)],
            [(0, 3)],
        ]

    def test_rejects_nonpositive_lease(self):
        with pytest.raises(ValueError, match="positive"):
            LeaseTable(lease_seconds=0.0)

    def test_lease_without_deadline_never_expires(self):
        table = LeaseTable(lease_seconds=None)
        table.grant(1, 0, ShardTask(sites=[(0, 0)]), now=10.0)
        assert table.holder(1).deadline is None
        assert table.expired(now=1e12) == []

    def test_unordered_keys_come_back_in_grant_order(self):
        # The pool tier keys its leases by future, which has no order.
        table = LeaseTable(lease_seconds=2.0)
        futures = [Future() for _ in range(3)]
        for column, future in enumerate(futures):
            table.grant(future, 0, ShardTask(sites=[(0, column)]), now=0.0)
        assert table.held_by(0) == futures
        assert table.expired(now=2.0) == futures
        assert [t.sites for t in table.outstanding()] == [
            [(0, 0)],
            [(0, 1)],
            [(0, 2)],
        ]


# ----------------------------------------------------------------------
# Executor validation
# ----------------------------------------------------------------------


class TestDistributedExecutorValidation:
    def test_heartbeat_must_undercut_lease(self):
        with pytest.raises(ValueError, match="shorter than lease_seconds"):
            DistributedExecutor(lease_seconds=2.0, heartbeat_interval=2.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lease_seconds": 0.0},
            {"heartbeat_interval": 0.0},
            {"io_timeout": 0.0},
            {"join_timeout": -1.0},
        ],
    )
    def test_rejects_nonpositive_timings(self, kwargs):
        with pytest.raises(ValueError, match="positive"):
            DistributedExecutor(**kwargs)

    def test_join_timeout_without_workers_raises_worker_lost(self):
        executor = DistributedExecutor(
            expected_workers=1, join_timeout=0.6, **LEASE
        )
        with pytest.raises(WorkerLost, match="join deadline"):
            make_campaign().run(executor)


# ----------------------------------------------------------------------
# Equivalence: healthy fleet
# ----------------------------------------------------------------------


class TestDistributedEquivalence:
    def test_two_workers_bit_identical_to_serial(self, serial):
        result, metrics = run_distributed()
        assert_campaigns_equivalent(serial, result)
        assert metrics.value("repro_fabric_worker_joined_total") == 2.0
        assert metrics.value("repro_fabric_worker_lost_total") == 0.0
        assert metrics.value("repro_fabric_workers_connected") == 0.0
        assert metrics.value("repro_fabric_leases_active") == 0.0

    def test_single_worker_multiple_jobs(self, serial):
        metrics = MetricsRegistry()
        announce, threads = thread_fleet(1, jobs=2)
        executor = DistributedExecutor(
            expected_workers=1,
            announce=announce,
            retry=FAST_RETRY,
            obs=Observability(metrics=metrics),
            **LEASE,
        )
        result = make_campaign().run(executor)
        for thread in threads:
            thread.join(timeout=30)
        assert_campaigns_equivalent(serial, result)

    def test_dropping_the_result_frees_its_patterns(self):
        assert_freed_on_drop(lambda: run_distributed()[0])

    def test_checkpoint_stream_matches_parallel_format(self, tmp_path, serial):
        path = tmp_path / "fabric.jsonl"
        result, _ = run_distributed(checkpoint=path)
        assert_campaigns_equivalent(serial, result)
        header, records = read_checkpoint(path)
        assert header["kind"] == "campaign-checkpoint"
        assert len(records) == MESH.num_macs
        # Records cross the wire with packed cells but land in the list
        # form, as experiment_record writes them.
        assert sorted(path.read_text().splitlines()[1:]) == sorted(
            json.dumps(experiment_record(e)) for e in serial.experiments
        )
        # The stream is the parallel tier's own format: a plain
        # ParallelExecutor resumes it to a complete, identical campaign.
        resumed = make_campaign().run(ParallelExecutor(jobs=2, resume=path))
        assert_campaigns_equivalent(serial, resumed)

    def test_checkpoint_write_failure_raises_on_both_tiers(
        self, tmp_path, monkeypatch
    ):
        # The second shard's records do not reach the disk. Both tiers
        # end the campaign with the write's error; the fabric must not
        # mistake it for a lost worker and finish without those records.
        record_batch = ParallelExecutor._record_batch
        writes = []

        def full_disk(self, stream, records):
            writes.append(len(records))
            if len(writes) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            record_batch(self, stream, records)

        monkeypatch.setattr(ParallelExecutor, "_record_batch", full_disk)
        with pytest.raises(OSError):
            make_campaign().run(
                ParallelExecutor(jobs=2, checkpoint=tmp_path / "pool.jsonl")
            )
        metrics = MetricsRegistry()
        announce, threads = thread_fleet(2)
        writes.clear()
        with pytest.raises(OSError):
            make_campaign().run(DistributedExecutor(
                expected_workers=2, announce=announce,
                checkpoint=tmp_path / "fabric.jsonl",
                obs=Observability(metrics=metrics), **LEASE,
            ))
        for thread in threads:
            thread.join(timeout=30)
        assert metrics.value("repro_fabric_worker_lost_total") == 0.0


# ----------------------------------------------------------------------
# Chaos: network fault modes
# ----------------------------------------------------------------------


class TestNetworkChaos:
    def test_heartbeat_stall_forfeits_lease_and_drops_stale_result(
        self, tmp_path, serial
    ):
        # One site stalls the agent past the lease deadline: renewal
        # stops and the result is held back. The lease must expire and
        # the shard requeue to the healthy worker; the stalled worker's
        # silence is a forfeiture, not a connection loss.
        chaos = ChaosSpec.build(
            {(1, 2): ChaosAction("stall", times=1, seconds=4.0)},
            state_dir=tmp_path,
        )
        result, metrics = run_distributed(chaos)
        assert_campaigns_equivalent(serial, result)
        assert metrics.value("repro_fabric_requeues_total") >= 1.0
        assert (
            metrics.value(
                "repro_shard_failures_total", kind="lease-expired"
            )
            >= 1.0
        )
        assert metrics.value("repro_fabric_worker_lost_total") == 0.0

    def test_duplicate_result_replay_is_dropped(self, tmp_path, serial):
        chaos = ChaosSpec.build(
            {(0, 3): ChaosAction("replay", times=1)}, state_dir=tmp_path
        )
        result, metrics = run_distributed(chaos)
        assert_campaigns_equivalent(serial, result)
        # >= not ==: on a starved host a heartbeat can slip past the
        # short test lease, and the expiry adds a second (equally
        # dropped) stale result on top of the injected duplicate.
        assert metrics.value("repro_fabric_stale_results_total") >= 1.0
        assert metrics.value("repro_fabric_worker_lost_total") == 0.0

    def test_frame_truncation_loses_worker_and_requeues(
        self, tmp_path, serial
    ):
        # A torn result frame severs the connection: the coordinator
        # counts a lost worker immediately (not a slow lease expiry),
        # forfeits its shards through the ladder, and the rest of the
        # fleet completes the campaign bit-identically.
        chaos = ChaosSpec.build(
            {(2, 2): ChaosAction("truncate", times=1)}, state_dir=tmp_path
        )
        result, metrics = run_distributed(chaos)
        assert_campaigns_equivalent(serial, result)
        assert metrics.value("repro_fabric_worker_lost_total") >= 1.0
        assert metrics.value("repro_fabric_requeues_total") >= 1.0
        assert (
            metrics.value("repro_shard_failures_total", kind="worker-lost")
            >= 1.0
        )

    def test_worker_kill_drop_forfeits_to_surviving_worker(
        self, tmp_path, serial
    ):
        # ``drop`` hard-kills the agent process (the remote analogue of
        # a pool worker exit), so it runs against real subprocesses: one
        # dies mid-lease, the survivor absorbs the forfeited shards.
        chaos = ChaosSpec.build(
            {(3, 1): ChaosAction("drop", times=1)}, state_dir=tmp_path
        )
        port = free_port()
        workers = [spawn_cli_worker(port), spawn_cli_worker(port)]
        metrics = MetricsRegistry()
        try:
            executor = DistributedExecutor(
                port=port,
                expected_workers=2,
                retry=FAST_RETRY,
                chaos=chaos,
                obs=Observability(metrics=metrics),
                **LEASE,
            )
            result = make_campaign().run(executor)
            assert_campaigns_equivalent(serial, result)
            assert metrics.value("repro_fabric_worker_lost_total") == 1.0
            assert metrics.value("repro_fabric_requeues_total") >= 1.0
            codes = [w.wait(timeout=30) for w in workers]
            # The dropped agent exits 1; the drained survivor exits 0.
            assert sorted(codes) == [0, 1]
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.kill()
                worker.wait(timeout=30)

    def test_poison_site_quarantined_across_the_wire(self, serial):
        # A persistently crashing site must be bisected down and
        # quarantined — not abort the distributed sweep.
        chaos = ChaosSpec.build(
            {(2, 3): ChaosAction("raise", times=None)}
        )
        result, metrics = run_distributed(chaos)
        assert result.quarantined_sites() == [(2, 3)]
        assert not result.is_complete
        failure = result.failures[0]
        assert failure.site == (2, 3)
        assert str(failure.kind) == "crash"
        reference = {
            (e.site.row, e.site.col): e for e in serial.experiments
        }
        for experiment in result.experiments:
            key = (experiment.site.row, experiment.site.col)
            assert experiment.classification == (
                reference[key].classification
            )
        assert metrics.value("repro_quarantined_sites_total") == 1.0

    def test_abort_mode_raises_typed_error(self):
        chaos = ChaosSpec.build(
            {(2, 3): ChaosAction("raise", times=None)}
        )
        metrics = MetricsRegistry()
        announce, threads = thread_fleet(2)
        executor = DistributedExecutor(
            expected_workers=2,
            announce=announce,
            retry=FAST_RETRY,
            on_error="abort",
            chaos=chaos,
            obs=Observability(metrics=metrics),
            **LEASE,
        )
        with pytest.raises(CampaignExecutionError):
            make_campaign().run(executor)
        for thread in threads:
            thread.join(timeout=30)

    def test_truncated_packed_cells_are_a_protocol_error(
        self, monkeypatch, serial
    ):
        # A result frame that parses but carries a torn packed cell
        # table must not poison the merge: the coordinator's decoder
        # rejects it, the attempt fails as a protocol error and the
        # shard is retried, and the campaign still matches serial.
        from repro.core.fabric import worker as worker_module

        real_send = worker_module.send_frame
        guard = threading.Lock()
        torn: list[str] = []

        async def tearing_send(writer, message, timeout, lock=None):
            if message.get("type") == MSG_RESULT:
                with guard:
                    live = [r for r in message["records"] if r.get("cells")]
                    if live and not torn:
                        cells = live[0]["cells"]
                        live[0]["cells"] = cells[: len(cells) // 2]
                        torn.append(cells)
            await real_send(writer, message, timeout, lock=lock)

        monkeypatch.setattr(worker_module, "send_frame", tearing_send)
        result, metrics = run_distributed()
        assert len(torn) == 1 and isinstance(torn[0], str)
        assert_campaigns_equivalent(serial, result)
        assert (
            metrics.value("repro_shard_failures_total", kind="protocol-error")
            == 1.0
        )
        assert metrics.value("repro_shard_retries_total") >= 1.0
        assert metrics.value("repro_fabric_worker_lost_total") == 0.0


# ----------------------------------------------------------------------
# Warm agents: one pool across campaigns
# ----------------------------------------------------------------------

#: A second setup whose golden output and dataflow both differ from
#: ``WORKLOAD``'s, so a worker answering it with the other setup's state
#: produces visibly wrong records.
OTHER_WORKLOAD = GemmWorkload(
    8, 8, 8, Dataflow.OUTPUT_STATIONARY, fill=FillKind.RANDOM, seed=11
)


@contextlib.contextmanager
def warm_agent(port: int, **kwargs):
    """One thread-hosted ``stay`` agent (one pool process unless ``jobs``
    says otherwise), retrying ``port`` until a coordinator listens;
    drained and joined on exit."""
    kwargs.setdefault("jobs", 1)
    kwargs.setdefault("reconnect_delay", 0.05)
    kwargs.setdefault("reconnect_attempts", 400)
    agent = WorkerAgent("127.0.0.1", port, stay=True, **kwargs)
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    try:
        yield agent
    finally:
        agent._draining = True
        thread.join(timeout=30)
    assert not thread.is_alive()


def pool_pids(agent: WorkerAgent) -> list[int]:
    return sorted(proc.pid for proc in agent._pool.processes)


def run_on_port(port: int, workload, **kwargs):
    executor = DistributedExecutor(
        port=port, expected_workers=1, retry=FAST_RETRY, **LEASE, **kwargs
    )
    return Campaign(MESH, workload).run(executor)


class TestWarmAgent:
    def test_setup_switch_keeps_the_pool(self, serial):
        # Setups A, B, A back to back on one agent: the pool process
        # survives every switch, and each campaign is answered under its
        # own setup (a worker still holding B's golden for the second A
        # would corrupt every site).
        port = free_port()
        expected = {"A": serial, "B": Campaign(MESH, OTHER_WORKLOAD).run()}
        workloads = {"A": WORKLOAD, "B": OTHER_WORKLOAD}
        pids = []
        with warm_agent(port) as agent:
            for name in ("A", "B", "A"):
                result = run_on_port(port, workloads[name])
                assert_campaigns_equivalent(expected[name], result)
                pids.append(pool_pids(agent))
        assert len(pids[0]) == 1
        assert pids[0] == pids[1] == pids[2]

    def test_restarted_pool_adopts_the_current_setup(self, tmp_path, serial):
        # Setup B hangs its first shard past the watchdog, so the agent
        # kills its warm pool and starts a new one. No initializer is
        # left to seed the new child: it adopts B from the setup token
        # its first shard carries. A sibling shard asleep beside the
        # hung one dies with the pool; it is a bystander, so it reruns
        # unpenalized and both tiers count the same failures. The nap
        # at (0, 0) holds back the sleeper's start, so its own deadline
        # falls seconds after the hung shard's on both tiers.
        port = free_port()
        schedule = {
            (0, 0): ChaosAction("sleep", seconds=2.0, times=1),
            (1, 1): ChaosAction("hang", times=1),
            (3, 2): ChaosAction("sleep", seconds=9.0, times=1),
        }
        for tier in ("fabric", "pool"):
            (tmp_path / tier).mkdir()
        metrics = MetricsRegistry()
        with warm_agent(port, jobs=2) as agent:
            assert_campaigns_equivalent(serial, run_on_port(port, WORKLOAD))
            warm = pool_pids(agent)
            # The agent's deadline also covers spawning the restarted
            # child, so it must outlast a spawn-context interpreter start.
            result = run_on_port(
                port, OTHER_WORKLOAD,
                chaos=ChaosSpec.build(schedule, state_dir=tmp_path / "fabric"),
                shard_timeout=6.0, obs=Observability(metrics=metrics),
            )
            restarted = pool_pids(agent)
        expected = Campaign(MESH, OTHER_WORKLOAD).run()
        assert_campaigns_equivalent(expected, result)
        assert metrics.value("repro_shard_failures_total", kind="timeout") >= 1
        assert restarted and restarted != warm
        pool_metrics = MetricsRegistry()
        pool_result = Campaign(MESH, OTHER_WORKLOAD).run(ParallelExecutor(
            jobs=2, retry=FAST_RETRY, shard_timeout=6.0,
            chaos=ChaosSpec.build(schedule, state_dir=tmp_path / "pool"),
            obs=Observability(metrics=pool_metrics),
        ))
        assert_campaigns_equivalent(expected, pool_result)
        for kind in ("timeout", "pool-broken"):
            assert metrics.value(
                "repro_shard_failures_total", kind=kind
            ) == pool_metrics.value("repro_shard_failures_total", kind=kind)


class ScriptedCoordinator:
    """A bare-socket coordinator that controls exactly what each agent
    connection leases, for timing the agent's rejoins."""

    def __init__(self) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]

    def accept(self, timeout: float) -> socket.socket | None:
        """The next agent connection, or ``None`` after ``timeout``."""
        self.listener.settimeout(timeout)
        try:
            conn, _ = self.listener.accept()
        except socket.timeout:
            return None
        conn.settimeout(60)
        return conn

    def serve(self, conn: socket.socket, sites=()) -> float:
        """Welcome the agent, lease ``sites`` as one shard (when any),
        await its result, drain it; returns the instant of the drain."""
        with conn, conn.makefile("rb") as stream:
            self._read(stream)  # hello
            self._send(conn, {
                "type": MSG_WELCOME, "worker_id": 1, "heartbeat_interval": 1.0,
                "setup": fabric_setup_record(make_campaign()),
            })
            if sites:
                self._send(conn, {
                    "type": "shard", "shard_id": 1,
                    "sites": [list(site) for site in sites],
                })
                while self._read(stream)["type"] != MSG_RESULT:
                    continue  # heartbeats
            self._send(conn, {"type": MSG_DRAIN})
            return time.monotonic()

    @staticmethod
    def _send(conn: socket.socket, message: dict) -> None:
        conn.sendall(encode_frame(message))

    @staticmethod
    def _read(stream) -> dict:
        length = int.from_bytes(stream.read(4), "big")
        return decode_frame(stream.read(length))

    def close(self) -> None:
        self.listener.close()


class TestStayRejoin:
    def test_joins_the_next_campaign_well_inside_its_delay(self, serial):
        # Back to back on the real coordinator, which stops listening
        # before it drains: the next one listens only after this one's
        # serve() returns. The agent probes the endpoint until then
        # instead of idling out its 5 s delay.
        port = free_port()
        fleet = contextlib.ExitStack()

        def announce(host: str, bound: int) -> None:
            fleet.enter_context(warm_agent(bound, reconnect_delay=5.0))

        with fleet:
            first = run_on_port(port, WORKLOAD, announce=announce)
            ended = time.monotonic()
            second = run_on_port(port, OTHER_WORKLOAD)
            took = time.monotonic() - ended
        assert_campaigns_equivalent(serial, first)
        assert_campaigns_equivalent(
            Campaign(MESH, OTHER_WORKLOAD).run(), second
        )
        assert took < 2.5, f"second campaign took {took:.2f} s"

    def test_probes_stand_in_for_one_delay(self):
        # With no next coordinator, the probes after a served drain
        # last one reconnect_delay and count as one failed attempt.
        coordinator = ScriptedCoordinator()
        agent = WorkerAgent(
            "127.0.0.1", coordinator.port, jobs=1, stay=True,
            reconnect_attempts=0, reconnect_delay=2.0,
        )
        codes: list[int] = []
        thread = threading.Thread(
            target=lambda: codes.append(agent.run()), daemon=True
        )
        thread.start()
        try:
            conn = coordinator.accept(timeout=60)
            assert conn is not None
        finally:
            coordinator.close()
        drained = coordinator.serve(conn, sites=[(0, 0)])
        thread.join(timeout=30)
        gave_up = time.monotonic() - drained
        assert codes == [1]
        assert 1.8 <= gave_up < 5.0

    def test_waits_the_delay_after_a_drain_with_no_work(self):
        # An idle drain must not earn an immediate rejoin, or a
        # coordinator that keeps draining would make the agent spin.
        coordinator = ScriptedCoordinator()
        try:
            with warm_agent(coordinator.port, reconnect_delay=5.0) as agent:
                drained = coordinator.serve(coordinator.accept(timeout=60))
                conn = coordinator.accept(timeout=30)
                rejoined = time.monotonic()
                assert conn is not None
                agent._draining = True
                coordinator.serve(conn)
        finally:
            coordinator.close()
        assert rejoined - drained >= 4.5


# ----------------------------------------------------------------------
# Coordinator shutdown and crash recovery
# ----------------------------------------------------------------------

_SIGTERM_DRIVER = """\
import sys, threading
from repro.core import (
    Campaign, CampaignInterrupted, ChaosAction, ChaosSpec,
    DistributedExecutor, GemmWorkload, WorkerAgent,
)
from repro.systolic import Dataflow, MeshConfig


def announce(host, port):
    for _ in range(2):
        agent = WorkerAgent(host, port, jobs=1,
                            reconnect_attempts=40, reconnect_delay=0.25)
        threading.Thread(target=agent.run, daemon=True).start()


# __main__ guard: the thread-hosted agents' spawn-context pool children
# re-import this module, and must not re-run the campaign.
if __name__ == "__main__":
    mesh = MeshConfig(rows=4, cols=4)
    workload = GemmWorkload.square(8, Dataflow.WEIGHT_STATIONARY)
    # Dilate every experiment so the campaign is reliably mid-flight
    # when the signal arrives.
    chaos = ChaosSpec.build(
        {(r, c): ChaosAction("sleep", times=None, seconds=0.08)
         for r in range(4) for c in range(4)}
    )
    executor = DistributedExecutor(
        expected_workers=2, announce=announce, checkpoint=sys.argv[1],
        lease_seconds=5.0, heartbeat_interval=0.5, chaos=chaos,
    )
    try:
        Campaign(mesh, workload).run(executor)
    except CampaignInterrupted as exc:
        assert exc.checkpoint is not None
        assert exc.remaining > 0
        sys.exit(42)
    sys.exit(0)
"""

_CRASH_DRIVER = """\
import sys
from repro.core import (
    Campaign, ChaosAction, ChaosSpec, DistributedExecutor, GemmWorkload,
)
from repro.systolic import Dataflow, MeshConfig

if __name__ == "__main__":
    mesh = MeshConfig(rows=4, cols=4)
    workload = GemmWorkload.square(8, Dataflow.WEIGHT_STATIONARY)
    chaos = ChaosSpec.build(
        {(r, c): ChaosAction("sleep", times=None, seconds=0.1)
         for r in range(4) for c in range(4)}
    )
    executor = DistributedExecutor(
        port=int(sys.argv[2]), expected_workers=2, checkpoint=sys.argv[1],
        lease_seconds=5.0, heartbeat_interval=0.5, chaos=chaos,
    )
    Campaign(mesh, workload).run(executor)
    sys.exit(0)
"""


def _driver_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    return env


def _wait_for_checkpoint_progress(path, proc, min_lines=3, timeout=90.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if path.exists() and len(path.read_text().splitlines()) >= min_lines:
            return
        if proc.poll() is not None:
            return
        time.sleep(0.02)
    pytest.fail("campaign never made progress")


class TestCoordinatorShutdown:
    def test_sigterm_drains_to_resumable_checkpoint(self, tmp_path, serial):
        driver = tmp_path / "driver.py"
        driver.write_text(_SIGTERM_DRIVER)
        path = tmp_path / "campaign.jsonl"
        proc = subprocess.Popen(
            [sys.executable, str(driver), str(path)],
            env=_driver_env(),
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            _wait_for_checkpoint_progress(path, proc)
            proc.send_signal(signal.SIGTERM)
            _, stderr = proc.communicate(timeout=90)
        finally:
            if proc.poll() is None:
                proc.kill()
                # Bounded: thread-hosted agents' pool children inherit
                # the driver's pipes and can outlive a hard kill.
                with contextlib.suppress(subprocess.TimeoutExpired):
                    proc.communicate(timeout=30)
        assert proc.returncode == 42, stderr.decode()
        header, records = read_checkpoint(path)
        assert header["kind"] == "campaign-checkpoint"
        assert 0 < len(records) < MESH.num_macs
        # The --resume hint holds: a plain parallel resume completes the
        # remainder, field-for-field identical to the serial reference.
        resumed = make_campaign().run(ParallelExecutor(jobs=2, resume=path))
        assert_campaigns_equivalent(serial, resumed)
        _, records = read_checkpoint(path)
        assert len(records) == MESH.num_macs

    def test_coordinator_kill_and_resume_with_live_workers(
        self, tmp_path, serial
    ):
        # Satellite: SIGKILL the coordinator mid-campaign while --stay
        # workers hold leases; resume the checkpoint on the same port;
        # the surviving fleet rejoins and the merged result is
        # field-for-field identical to the uninterrupted serial run.
        driver = tmp_path / "driver.py"
        driver.write_text(_CRASH_DRIVER)
        path = tmp_path / "campaign.jsonl"
        port = free_port()
        workers = [
            spawn_cli_worker(port, "--stay"),
            spawn_cli_worker(port, "--stay"),
        ]
        proc = subprocess.Popen(
            [sys.executable, str(driver), str(path), str(port)],
            env=_driver_env(),
            cwd=REPO_ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            _wait_for_checkpoint_progress(path, proc)
            proc.kill()  # SIGKILL: no drain, leases die with the process
            proc.communicate()
            _, records = read_checkpoint(path)
            assert 0 < len(records) < MESH.num_macs
            # Resume in-process on the same endpoint; the stay-workers'
            # reconnect loops find the new coordinator on their own.
            executor = DistributedExecutor(
                port=port,
                expected_workers=2,
                resume=path,
                retry=FAST_RETRY,
                **LEASE,
            )
            resumed = make_campaign().run(executor)
            assert_campaigns_equivalent(serial, resumed)
            # Exactly one record per site: restore deduped, the fleet
            # never re-executed completed work.
            _, records = read_checkpoint(path)
            assert len(records) == MESH.num_macs
        finally:
            for worker in workers:
                if worker.poll() is None:
                    worker.send_signal(signal.SIGTERM)
            codes = []
            for worker in workers:
                try:
                    codes.append(worker.wait(timeout=30))
                except subprocess.TimeoutExpired:
                    worker.kill()
                    codes.append(worker.wait())
        # SIGTERM'd stay-workers leave gracefully (bye), exit 0.
        assert codes == [0, 0]
