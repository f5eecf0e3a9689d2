"""Unit tests for :func:`repro.core.executor.build_executor`, the one
place an executor spec (as ``decode_campaign_spec`` returns it) becomes
an executor for the CLI, the service and the study."""

from __future__ import annotations

import threading

import pytest

from repro.core import DistributedExecutor, ParallelExecutor, SerialExecutor
from repro.core.executor import build_executor
from repro.core.resilience import OnError
from repro.core.serialize import decode_campaign_spec
from repro.obs import MetricsRegistry, Observability


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
