"""Unit tests for :func:`repro.core.executor.build_executor`, the one
place an executor spec (as ``decode_campaign_spec`` returns it) becomes
an executor for the CLI, the service and the study."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.core import DistributedExecutor, ParallelExecutor, SerialExecutor
from repro.core.executor import WorkerPool, build_executor
from repro.core.resilience import OnError
from repro.core.serialize import decode_campaign_spec
from repro.obs import MetricsRegistry, Observability

from tests.core._support import REPO_ROOT, assert_campaigns_equivalent


def _decoded(executor: dict) -> dict:
    """The normalised executor spec, as the service and the CLI get it."""
    return decode_campaign_spec({
        "mesh": {"rows": 2, "cols": 2},
        "workload": {"op": "gemm", "m": 2, "k": 2, "n": 2},
        "executor": executor,
    })[1]


@pytest.mark.parametrize(
    "spec, cls",
    [
        ({"kind": "serial"}, SerialExecutor),
        ({"kind": "parallel"}, ParallelExecutor),
        ({"kind": "fabric"}, DistributedExecutor),
    ],
)
def test_each_kind_builds_its_class(spec, cls):
    # type(...) is: a DistributedExecutor is also a ParallelExecutor.
    assert type(build_executor(_decoded(spec))) is cls


def test_fabric_spec_fields_reach_the_executor():
    def announce(host: str, port: int) -> None:
        pass

    spec = _decoded({
        "kind": "fabric", "host": "10.0.0.5", "port": 7311, "workers": 5,
        "lease_seconds": 7.5, "heartbeat_interval": 1.5, "join_timeout": 9.0,
    })
    executor = build_executor(
        spec, announce=announce, max_retries=1, on_error="abort"
    )
    assert (executor.host, executor.port) == ("10.0.0.5", 7311)
    assert executor.jobs == 5  # workers -> expected_workers
    assert executor.lease_seconds == 7.5
    assert executor.heartbeat_interval == 1.5
    assert executor.join_timeout == 9.0
    assert executor.announce is announce
    assert executor.retry.max_retries == 1
    assert executor.on_error is OnError.ABORT


def test_parallel_spec_takes_the_wiring(tmp_path):
    obs = Observability(metrics=MetricsRegistry())
    interrupt = threading.Event()
    checkpoint = tmp_path / "c.jsonl"
    executor = build_executor(
        {"kind": "parallel", "jobs": 3},
        obs=obs,
        interrupt=interrupt,
        checkpoint=checkpoint,
        shard_timeout=12.0,
    )
    assert executor.jobs == 3
    assert executor.checkpoint == checkpoint
    assert executor.shard_timeout == 12.0
    assert executor.obs is obs
    assert executor.interrupt is interrupt


def test_serial_spec_ignores_checkpoint(tmp_path):
    obs = Observability(metrics=MetricsRegistry())
    interrupt = threading.Event()
    executor = build_executor(
        {"kind": "serial"},
        obs=obs,
        interrupt=interrupt,
        checkpoint=tmp_path / "c.jsonl",
        resume=tmp_path / "c.jsonl",
    )
    assert type(executor) is SerialExecutor
    assert not hasattr(executor, "checkpoint")
    assert executor.obs is obs
    assert executor.interrupt is interrupt
    assert not (tmp_path / "c.jsonl").exists()


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="unknown executor kind"):
        build_executor({"kind": "quantum"})


class TestPoolSeam:
    """A caller-owned :class:`WorkerPool` reaches the parallel kind only,
    and stays up across campaigns after clean ends."""

    def test_width_must_match_jobs(self):
        with pytest.raises(ValueError, match="pool width 3"):
            ParallelExecutor(jobs=2, pool=WorkerPool(3))

    def test_only_the_parallel_kind_takes_the_pool(self):
        pool = WorkerPool(2)
        executor = build_executor({"kind": "parallel", "jobs": 2}, pool=pool)
        assert executor.pool is pool
        fabric = build_executor(_decoded({"kind": "fabric"}), pool=pool)
        assert fabric.pool is None
        assert not hasattr(build_executor({"kind": "serial"}, pool=pool), "pool")
        assert not pool.running

    def test_a_given_pool_serves_consecutive_campaigns(self):
        spec = {
            "mesh": {"rows": 4, "cols": 4},
            "workload": {"op": "gemm", "m": 8, "k": 8, "n": 8},
        }
        pool = WorkerPool(2)
        executor = ParallelExecutor(jobs=2, pool=pool)
        try:
            pids = []
            for dataflow in ("WS", "OS"):
                spec["workload"]["dataflow"] = dataflow
                campaign, _ = decode_campaign_spec(spec)
                result = campaign.run(executor)
                assert pool.running
                pids.append({proc.pid for proc in pool.processes})
                reference, _ = decode_campaign_spec(spec)
                assert_campaigns_equivalent(
                    reference.run(SerialExecutor()), result
                )
            assert len(pids[0]) == 2
            assert pids[0] == pids[1]
        finally:
            pool.stop()
        assert not pool.running


#: Starts a one-child spawn pool, prints the child's pid, then idles.
_POOL_OWNER = """
import os, time
from repro.core.executor import WorkerPool
pool = WorkerPool(1, context="spawn")
pool.start()
pool._pool.submit(os.getpid).result()
print(pool.processes[0].pid, flush=True)
time.sleep(120)
"""


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="reads /proc/<pid>/stat"
)
def test_pool_children_exit_when_the_parent_is_killed():
    """A parent killed without its shutdown path leaves no idle child."""
    with subprocess.Popen(
        [sys.executable, "-c", _POOL_OWNER],
        cwd=REPO_ROOT,
        env=dict(os.environ, PYTHONPATH="src"),
        stdout=subprocess.PIPE,
        text=True,
    ) as owner:
        try:
            child = int(owner.stdout.readline())
        finally:
            owner.send_signal(signal.SIGKILL)
    deadline = time.monotonic() + 20
    while True:
        try:
            with open(f"/proc/{child}/stat") as stat:
                state = stat.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return
        if state in ("Z", "X"):  # exited; reaping is init's business
            return
        if time.monotonic() > deadline:
            os.kill(child, signal.SIGKILL)
            pytest.fail(f"pool child {child} outlived its parent")
        time.sleep(0.05)
