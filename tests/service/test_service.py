"""End-to-end tests for the campaign service over real HTTP.

Each test boots a :class:`CampaignService` on a background thread
(port 0, announce callback for discovery) and talks to it with stdlib
clients only — ``urllib`` for the JSON API and SSE, raw sockets where a
test needs to observe transport-level chaos. The headline contract: a
campaign submitted over HTTP produces a result artefact that rebuilds
*field-for-field identical* to a direct in-process run, across every
executor kind.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import os
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
import weakref

import pytest

from repro.core.chaos import ChaosAction, ChaosSpec
from repro.core.executor import GOLDEN_CACHE, GOLDEN_CACHE_SIZE, SerialExecutor
from repro.core.fabric.worker import WorkerAgent
from repro.core.serialize import (
    campaign_result_from_record,
    decode_campaign_spec,
    read_job_registry,
)
from repro.service import SERVICE_CHAOS_SITE, CampaignService, QueueFull
from repro.service.jobs import JobManager

from tests.core._support import assert_campaigns_equivalent

SPEC = {
    "mesh": {"rows": 4, "cols": 4},
    "workload": {"op": "gemm", "m": 8, "k": 8, "n": 8},
}

PARALLEL = dict(SPEC, executor={"kind": "parallel", "jobs": 2})

#: A sleep on every site: dilates a job by ~3 s without failing it, so
#: cancellation tests have a window while the job is running.
SLOW_CHAOS = ChaosSpec.build({
    (row, col): ChaosAction("sleep", times=None, seconds=0.2)
    for row in range(4)
    for col in range(4)
})


@contextlib.contextmanager
def running_service(tmp_path, **kwargs):
    """A live service on a daemon thread; yields ``(service, port)``."""
    ready = threading.Event()
    bound: dict[str, int] = {}

    def announce(host: str, port: int) -> None:
        bound["port"] = port
        ready.set()

    kwargs.setdefault("sse_interval", 0.05)
    service = CampaignService(
        "127.0.0.1", 0, tmp_path / "state", announce=announce, **kwargs
    )
    thread = threading.Thread(target=service.run, daemon=True)
    thread.start()
    assert ready.wait(10), "service never announced its port"
    try:
        yield service, bound["port"]
    finally:
        service.shutdown()
        thread.join(timeout=30)
        assert not thread.is_alive(), "service thread failed to shut down"


def api(port, method, path, payload=None, timeout=30):
    """One JSON API exchange; returns ``(status, decoded body)``."""
    body = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def stream_events(port, job_id, timeout=120):
    """Consume the SSE stream to its terminal ``end`` frame."""
    events = []
    url = f"http://127.0.0.1:{port}/campaigns/{job_id}/events"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        assert response.headers["Content-Type"] == "text/event-stream"
        event = None
        for raw in response:
            line = raw.decode("utf-8").rstrip("\n")
            if line.startswith("event: "):
                event = line.removeprefix("event: ")
            elif line.startswith("data: "):
                events.append((event, json.loads(line.removeprefix("data: "))))
                if event == "end":
                    return events
    raise AssertionError("SSE stream closed without an end frame")


def wait_for_state(port, job_id, states, timeout=60):
    """Poll the job detail endpoint until its state lands in ``states``."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, detail = api(port, "GET", f"/campaigns/{job_id}")
        if detail["state"] in states:
            return detail
        time.sleep(0.05)
    raise AssertionError(f"{job_id} never reached {states}")


def assert_result_identity(port, job_id, spec=SPEC):
    """The submitted job's artefact rebuilds bit-identical to a direct
    in-process serial run of the same spec."""
    status, artefact = api(port, "GET", f"/campaigns/{job_id}/result")
    assert status == 200
    assert artefact["kind"] == "campaign-result"
    campaign, _ = decode_campaign_spec(spec)
    rebuilt = campaign_result_from_record(artefact, campaign)
    reference, _ = decode_campaign_spec(spec)
    assert_campaigns_equivalent(reference.run(SerialExecutor()), rebuilt)


def pool_pids(service) -> set[int]:
    """The pids of the service's resident pool children."""
    return {proc.pid for proc in service.manager.pool.processes}


def run_job(port, spec) -> str:
    """Submit ``spec``, ride its SSE stream to ``end``, check it is done
    and its artefact matches serial; returns the job id."""
    _, job = api(port, "POST", "/campaigns", spec)
    assert stream_events(port, job["job_id"])[-1][1]["state"] == "done"
    assert_result_identity(port, job["job_id"], spec)
    return job["job_id"]


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestSubmitToResult:
    def test_serial_job_round_trip(self, tmp_path):
        with running_service(tmp_path) as (_, port):
            status, job = api(port, "POST", "/campaigns", SPEC)
            assert status == 201
            assert job["state"] == "queued"
            assert job["executor"] == "serial"
            assert job["sites"] == 16

            events = stream_events(port, job["job_id"])
            names = [name for name, _ in events]
            assert names[-1] == "end"
            assert set(names[:-1]) == {"progress"}
            end = events[-1][1]
            assert end["state"] == "done"
            assert end["error"] is None
            # The final progress frame carries the obs counters.
            last_progress = events[-2][1]
            assert last_progress["total"] == 16
            assert last_progress["done"] == 16

            assert_result_identity(port, job["job_id"])

    def test_parallel_job_round_trip(self, tmp_path):
        spec = dict(SPEC, executor={"kind": "parallel", "jobs": 2})
        with running_service(tmp_path) as (_, port):
            _, job = api(port, "POST", "/campaigns", spec)
            stream_events(port, job["job_id"])
            assert_result_identity(port, job["job_id"], spec)

    def test_fabric_job_round_trip(self, tmp_path):
        port_fabric = free_port()
        spec = dict(SPEC, executor={
            "kind": "fabric",
            "port": port_fabric,
            "workers": 2,
            "lease_seconds": 1.5,
            "heartbeat_interval": 0.3,
            "join_timeout": 30.0,
        })
        threads = []
        for _ in range(2):
            agent = WorkerAgent(
                "127.0.0.1",
                port_fabric,
                jobs=1,
                reconnect_attempts=60,
                reconnect_delay=0.25,
            )
            thread = threading.Thread(target=agent.run, daemon=True)
            thread.start()
            threads.append(thread)
        with running_service(tmp_path) as (_, port):
            _, job = api(port, "POST", "/campaigns", spec)
            events = stream_events(port, job["job_id"])
            assert events[-1][1]["state"] == "done"
            assert_result_identity(port, job["job_id"], spec)
        for thread in threads:
            thread.join(timeout=30)

    def test_sse_end_arrives_on_the_transition(self, tmp_path):
        with running_service(tmp_path, sse_interval=5.0) as (_, port):
            _, job = api(port, "POST", "/campaigns", SPEC)
            started = time.monotonic()
            events = stream_events(port, job["job_id"])
            assert events[-1][1]["state"] == "done"
            assert time.monotonic() - started < 2.5

    def test_stored_spec_is_canonical(self, tmp_path):
        """GET returns the normalised spec: defaults filled, sites explicit."""
        with running_service(tmp_path) as (_, port):
            _, job = api(port, "POST", "/campaigns", SPEC)
            _, detail = api(port, "GET", f"/campaigns/{job['job_id']}")
            spec = detail["spec"]
            assert spec["engine"] == "functional"
            assert spec["executor"] == {"kind": "serial"}
            assert len(spec["sites"]) == 16
            assert spec["workload"]["dataflow"] == "WS"
            assert "progress" in detail

    def test_job_listing_in_submission_order(self, tmp_path):
        with running_service(tmp_path) as (_, port):
            first = api(port, "POST", "/campaigns", SPEC)[1]["job_id"]
            second = api(port, "POST", "/campaigns", SPEC)[1]["job_id"]
            _, listing = api(port, "GET", "/campaigns")
            assert [j["job_id"] for j in listing["jobs"]] == [first, second]
            wait_for_state(port, second, {"done"})


class TestCancellation:
    def test_cancel_queued_and_running(self, tmp_path):
        slow = dict(SPEC, executor={"kind": "parallel", "jobs": 1})
        with running_service(tmp_path, job_chaos=SLOW_CHAOS) as (_, port):
            _, running = api(port, "POST", "/campaigns", slow)
            _, queued = api(port, "POST", "/campaigns", SPEC)
            wait_for_state(port, running["job_id"], {"running"})

            # Queued: cancellation is immediate.
            status, cancelled = api(
                port, "DELETE", f"/campaigns/{queued['job_id']}"
            )
            assert status == 200
            assert cancelled["state"] == "cancelled"
            assert cancelled["error"] == "cancelled while queued"

            # Running: cooperative — the executor drains at a shard
            # boundary and the manager records the client's intent.
            api(port, "DELETE", f"/campaigns/{running['job_id']}")
            detail = wait_for_state(port, running["job_id"], {"cancelled"})
            assert detail["error"] == "cancelled by client"

            # Terminal jobs refuse a second cancel.
            status, body = api(
                port, "DELETE", f"/campaigns/{running['job_id']}"
            )
            assert status == 409
            assert "already cancelled" in body["error"]

            # And their result endpoint reports the conflict, not a 500.
            status, body = api(
                port, "GET", f"/campaigns/{running['job_id']}/result"
            )
            assert status == 409


class TestResidentPool:
    """``parallel`` jobs share one spawn pool for the server's life."""

    def test_consecutive_jobs_share_children(self, tmp_path):
        with running_service(tmp_path) as (service, port):
            run_job(port, PARALLEL)
            first = pool_pids(service)
            run_job(port, PARALLEL)
            assert len(first) == 2
            assert pool_pids(service) == first

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"), reason="reads /proc/<pid>/fd"
    )
    def test_children_hold_no_sockets(self, tmp_path):
        with running_service(tmp_path) as (service, port):
            run_job(port, PARALLEL)
            pids = pool_pids(service)
            assert pids
            for pid in pids:
                fd_dir = f"/proc/{pid}/fd"
                targets = [
                    os.readlink(os.path.join(fd_dir, fd))
                    for fd in os.listdir(fd_dir)
                ]
                assert not [t for t in targets if t.startswith("socket:")]

    def test_cancelled_job_leaves_fresh_children(self, tmp_path):
        with running_service(tmp_path, job_chaos=SLOW_CHAOS) as (
            service, port,
        ):
            _, slow = api(port, "POST", "/campaigns", PARALLEL)
            deadline = time.monotonic() + 60
            while not service.manager.pool or len(pool_pids(service)) < 2:
                assert time.monotonic() < deadline, "pool never started"
                time.sleep(0.05)
            killed = pool_pids(service)
            api(port, "DELETE", f"/campaigns/{slow['job_id']}")
            wait_for_state(port, slow["job_id"], {"cancelled"})
            run_job(port, PARALLEL)
            assert pool_pids(service)
            assert not pool_pids(service) & killed

    def test_other_width_replaces_the_pool(self, tmp_path):
        narrow = dict(SPEC, executor={"kind": "parallel", "jobs": 1})
        with running_service(tmp_path) as (service, port):
            run_job(port, PARALLEL)
            wide = service.manager.pool
            children = wide.processes
            run_job(port, narrow)
            assert service.manager.pool.width == 1
            assert not wide.running
            assert not any(proc.is_alive() for proc in children)

    def test_close_stops_every_child(self, tmp_path):
        with running_service(tmp_path) as (service, port):
            run_job(port, PARALLEL)
            children = service.manager.pool.processes
            assert children
        assert service.manager.pool is None
        assert not any(proc.is_alive() for proc in children)


class TestServiceMemory:
    def test_finished_results_are_not_kept(self, tmp_path):
        """A done job's result lives in its artefact, not in the server."""
        manager = JobManager(tmp_path / "state")
        manager.open()
        freed = []
        write = manager._write_result

        def spy(job, result):
            freed.append(weakref.ref(result))
            write(job, result)

        manager._write_result = spy

        async def serve_two() -> None:
            stop = asyncio.Event()
            jobs = [manager.submit(SPEC) for _ in range(2)]
            runner = asyncio.create_task(manager.run(stop))
            while not all(manager.is_terminal(job) for job in jobs):
                await asyncio.sleep(0.01)
            stop.set()
            await runner
            assert [job.state for job in jobs] == ["done", "done"]

        try:
            asyncio.run(serve_two())
        finally:
            manager.close()
        gc.collect()
        assert len(freed) == 2
        assert all(ref() is None for ref in freed)


    def test_golden_cache_stays_bounded(self, tmp_path):
        """Each job with a fresh seed is a new golden run; a long-lived
        server keeps only the most recent ones."""
        manager = JobManager(tmp_path / "state")
        manager.open()
        specs = [
            dict(SPEC, workload=dict(SPEC["workload"], seed=seed),
                 engine="analytic")
            for seed in range(GOLDEN_CACHE_SIZE + 4)
        ]

        async def serve_all() -> None:
            stop = asyncio.Event()
            runner = asyncio.create_task(manager.run(stop))
            for spec in specs:
                job = manager.submit(spec)
                while not manager.is_terminal(job):
                    await asyncio.sleep(0.01)
                assert job.state == "done"
            stop.set()
            await runner

        try:
            asyncio.run(serve_all())
        finally:
            manager.close()
        assert len(GOLDEN_CACHE) <= GOLDEN_CACHE_SIZE


class TestBackpressureAndErrors:
    def test_queue_full_is_429(self, tmp_path):
        with running_service(tmp_path, max_queued=0) as (_, port):
            status, body = api(port, "POST", "/campaigns", SPEC)
            assert status == 429
            assert "capacity" in body["error"]

    def test_manager_capacity_is_queued_jobs_only(self, tmp_path):
        manager = JobManager(tmp_path, max_queued=1)
        manager.open()
        manager.submit(SPEC)
        with pytest.raises(QueueFull):
            manager.submit(SPEC)
        manager.close()

    def test_invalid_spec_is_400_with_field_path(self, tmp_path):
        bad = dict(SPEC, workload={"op": "gemm", "m": 8, "k": 8,
                                   "n": 8, "frob": 1})
        with running_service(tmp_path) as (_, port):
            status, body = api(port, "POST", "/campaigns", bad)
            assert status == 400
            assert body["error"] == "workload.frob: unknown field"

    def test_non_json_body_is_400(self, tmp_path):
        with running_service(tmp_path) as (_, port):
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/campaigns",
                data=b"{nope", method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 400

    def test_oversized_body_is_413(self, tmp_path):
        with running_service(tmp_path, max_body=2048) as (_, port):
            padded = dict(SPEC, workload=dict(SPEC["workload"], seed=0))
            body = json.dumps(padded).encode() + b" " * 4096
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}/campaigns",
                data=body, method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 413

    def test_unknown_routes_and_methods(self, tmp_path):
        with running_service(tmp_path) as (_, port):
            assert api(port, "GET", "/nope")[0] == 404
            assert api(port, "GET", "/campaigns/job-999999")[0] == 404
            assert api(port, "PUT", "/campaigns")[0] == 405


class TestMetrics:
    def test_prometheus_exposition(self, tmp_path):
        with running_service(tmp_path) as (_, port):
            _, job = api(port, "POST", "/campaigns", SPEC)
            stream_events(port, job["job_id"])
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/metrics", timeout=30
            ) as response:
                assert response.headers["Content-Type"].startswith(
                    "text/plain"
                )
                text = response.read().decode()
        assert 'repro_service_jobs{state="done"} 1' in text
        assert 'repro_service_jobs{state="queued"} 0' in text
        assert "repro_service_requests_total" in text
        assert 'method="POST",status="201"' in text.replace(" ", "")


def raw_exchange(port, payload: bytes, timeout=10.0) -> bytes:
    """Send raw bytes, read to EOF/reset; returns whatever arrived."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        conn.sendall(payload)
        with contextlib.suppress(ConnectionResetError, TimeoutError):
            while True:
                chunk = conn.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
    return b"".join(chunks)


LIST_REQUEST = b"GET /campaigns HTTP/1.1\r\nHost: t\r\n\r\n"


class TestTransportChaos:
    """The four network chaos modes against the HTTP transport: each
    either heals transparently or surfaces as a clean transport error —
    and none of them corrupts the job registry."""

    def chaos(self, tmp_path, kind, seconds=0.0):
        counters = tmp_path / "chaos"
        counters.mkdir()
        return ChaosSpec.build(
            {SERVICE_CHAOS_SITE: ChaosAction(kind, times=1, seconds=seconds)},
            state_dir=counters,
        )

    def assert_service_healthy(self, tmp_path, port):
        """Post-chaos: the API serves, jobs complete, registry reads."""
        _, job = api(port, "POST", "/campaigns", SPEC)
        stream_events(port, job["job_id"])
        assert_result_identity(port, job["job_id"])
        records = read_job_registry(tmp_path / "state" / "jobs.jsonl")
        assert [r["state"] for r in records if r["job_id"] == job["job_id"]][
            -1
        ] == "done"

    def test_drop_resets_one_exchange(self, tmp_path):
        chaos = self.chaos(tmp_path, "drop")
        with running_service(tmp_path, chaos=chaos) as (_, port):
            assert raw_exchange(port, LIST_REQUEST) == b""
            # The budget (times=1) is spent; the retry goes through.
            assert api(port, "GET", "/campaigns")[0] == 200
            self.assert_service_healthy(tmp_path, port)

    def test_truncate_tears_one_response(self, tmp_path):
        chaos = self.chaos(tmp_path, "truncate")
        with running_service(tmp_path, chaos=chaos) as (_, port):
            torn = raw_exchange(port, LIST_REQUEST)
            # The budget is spent; the same exchange now completes, and
            # the torn transmission was a strict prefix of it.
            healthy = raw_exchange(port, LIST_REQUEST)
            assert healthy.startswith(b"HTTP/1.1 200 OK")
            assert len(torn) < len(healthy), "truncate must tear the response"
            assert healthy.startswith(torn)
            self.assert_service_healthy(tmp_path, port)

    def test_stall_delays_then_heals(self, tmp_path):
        chaos = self.chaos(tmp_path, "stall", seconds=0.4)
        with running_service(tmp_path, chaos=chaos) as (_, port):
            started = time.monotonic()
            assert api(port, "GET", "/campaigns")[0] == 200
            assert time.monotonic() - started >= 0.4
            self.assert_service_healthy(tmp_path, port)

    def test_replay_duplicates_payload(self, tmp_path):
        chaos = self.chaos(tmp_path, "replay")
        with running_service(tmp_path, chaos=chaos) as (_, port):
            doubled = raw_exchange(port, LIST_REQUEST)
            assert doubled.count(b"HTTP/1.1 200 OK") == 2
            # A Content-Length-honouring client reads exactly one copy.
            self.assert_service_healthy(tmp_path, port)
