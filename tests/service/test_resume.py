"""Crash recovery: SIGKILL the serving process mid-job, restart with
``serve --resume``, and the job completes to the same bit-identical
result a direct run produces.

This is the service's headline durability claim, so it is tested at
full process fidelity: a real ``repro-fi serve`` subprocess, a real
SIGKILL (no atexit, no flush — the fsynced registry and the job's own
campaign checkpoint are all that survive), and a second subprocess that
must pick the work back up from disk alone.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request

from repro.core.executor import SerialExecutor
from repro.core.serialize import (
    campaign_result_from_record,
    decode_campaign_spec,
    read_job_registry,
)

from tests.core._support import REPO_ROOT, assert_campaigns_equivalent

#: Cycle-accurate engine on a 10x10 mesh: a few seconds of real work —
#: wide enough to land a SIGKILL mid-campaign, small enough to re-run
#: the serial reference in-process.
SLOW_SPEC = {
    "mesh": {"rows": 10, "cols": 10},
    "workload": {"op": "gemm", "m": 12, "k": 12, "n": 12},
    "engine": "cycle",
    "executor": {"kind": "parallel", "jobs": 2},
}

ANNOUNCE = re.compile(r"http://127\.0\.0\.1:(\d+)")


def spawn_server(state_dir, *extra: str) -> tuple[subprocess.Popen, int]:
    """Start ``repro-fi serve`` on a free port; returns (proc, port).

    The server leads its own session, so :func:`kill_group` reaches the
    pool children a SIGKILL of the server alone would orphan.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve",
            "--listen", "127.0.0.1:0",
            "--state-dir", str(state_dir),
            "--sse-interval", "0.1",
            *extra,
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline()
    match = ANNOUNCE.search(line)
    assert match, f"no announce line from serve (got {line!r})"
    return proc, int(match.group(1))


def kill_group(proc: subprocess.Popen) -> None:
    """SIGKILL whatever is left of the server's process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass  # the server and every child already exited
    proc.wait(timeout=30)


def api(port, method, path, payload=None, timeout=30):
    body = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=body, method=method
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def wait_until(port, job_id, predicate, timeout):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            _, detail = api(port, "GET", f"/campaigns/{job_id}", timeout=10)
        except (urllib.error.URLError, ConnectionError, TimeoutError):
            time.sleep(0.1)
            continue
        if predicate(detail):
            return detail
        time.sleep(0.1)
    raise AssertionError(f"{job_id}: condition not reached in {timeout}s")


def test_sigkill_then_resume_completes_identically(tmp_path):
    state_dir = tmp_path / "state"
    first, port = spawn_server(state_dir)
    try:
        status, job = api(port, "POST", "/campaigns", SLOW_SPEC)
        assert status == 201
        job_id = job["job_id"]

        # Let it get properly underway: running, with at least one
        # shard checkpointed — the state a crash must not orphan.
        detail = wait_until(
            port,
            job_id,
            lambda d: d["state"] == "running" and d["progress"]["done"] >= 1,
            timeout=60,
        )
        assert detail["state"] == "running", (
            f"expected to kill mid-run, job was {detail['state']}"
        )
        first.send_signal(signal.SIGKILL)
        first.wait(timeout=30)
    finally:
        kill_group(first)

    # No serve process alive; the registry on disk already tells the
    # story — last snapshot has the job running, mid-flight.
    records = [
        r for r in read_job_registry(state_dir / "jobs.jsonl")
        if r["job_id"] == job_id
    ]
    assert records[-1]["state"] == "running"

    second, port = spawn_server(state_dir, "--resume")
    try:
        detail = wait_until(
            port, job_id, lambda d: d["state"] == "done", timeout=180
        )
        assert detail["error"] is None
        # The re-run resumed from the campaign checkpoint rather than
        # starting a fresh job id: same id, later lifecycle sequence.
        status, artefact = api(port, "GET", f"/campaigns/{job_id}/result")
        assert status == 200

        campaign, _ = decode_campaign_spec(SLOW_SPEC)
        rebuilt = campaign_result_from_record(artefact, campaign)
        reference, _ = decode_campaign_spec(SLOW_SPEC)
        assert_campaigns_equivalent(reference.run(SerialExecutor()), rebuilt)

        # Orderly exit: SIGTERM drains and returns 0.
        second.send_signal(signal.SIGTERM)
        assert second.wait(timeout=60) == 0
    finally:
        kill_group(second)

    # The registry remained append-only across the crash: the job's
    # lifecycle re-walks queued -> running -> done after the requeue.
    states = [
        r["state"]
        for r in read_job_registry(state_dir / "jobs.jsonl")
        if r["job_id"] == job_id
    ]
    assert states[:2] == ["queued", "running"]
    assert states[-1] == "done"
    assert "queued" in states[2:], "resume should have re-queued the job"


def test_free_port_binding_announces_real_port(tmp_path):
    """Port 0 in --listen resolves to a real bound port in the announce
    line (the CI smoke job depends on this)."""
    proc, port = spawn_server(tmp_path / "state")
    try:
        assert port > 0
        probe = socket.create_connection(("127.0.0.1", port), timeout=10)
        probe.close()
        status, listing = api(port, "GET", "/campaigns")
        assert status == 200
        assert listing == {"jobs": []}
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        kill_group(proc)
