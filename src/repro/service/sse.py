"""Server-Sent Events encoding and the per-job progress stream.

``GET /campaigns/{id}/events`` holds the connection open and pushes one
``progress`` event per interval — the machine-readable progress line
(done/total, sites/s, ETA, retries, quarantined — see
:func:`repro.obs.progress.progress_snapshot`) — then a terminal ``end``
event as soon as the job reaches a terminal state: every state
transition wakes the stream, so ``end`` does not wait for the next
interval. SSE is plain HTTP, so the stream needs no client library
beyond a line reader; every drain sits under the same ``wait_for``
deadline as the rest of the package.
"""

from __future__ import annotations

import asyncio
import json
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.jobs import Job, JobManager

__all__ = ["SSE_HEADER", "format_event", "stream_job"]

#: Response head for an event stream: no Content-Length — the body is
#: open-ended — so the terminal frame plus connection close delimit it.
SSE_HEADER = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/event-stream\r\n"
    b"Cache-Control: no-store\r\n"
    b"Connection: close\r\n"
    b"\r\n"
)


def format_event(event: str, data: dict) -> bytes:
    """Encode one SSE frame: ``event:`` line, JSON ``data:`` line, blank."""
    payload = json.dumps(data, separators=(",", ":"))
    return f"event: {event}\ndata: {payload}\n\n".encode("utf-8")


async def stream_job(
    writer: asyncio.StreamWriter,
    manager: "JobManager",
    job: "Job",
    interval: float,
    io_timeout: float,
) -> None:
    """Push progress frames for ``job`` until it reaches a terminal state.

    The caller has already sent :data:`SSE_HEADER`. A frame is emitted
    immediately (so a subscriber to an already-finished job still gets
    one snapshot), then every ``interval`` seconds or on the job's next
    state transition, whichever comes first, then the ``end`` frame.
    Client disconnects surface as ``ConnectionError`` from the drain and
    are the caller's to swallow.
    """
    while True:
        changed = job.changed  # replaced on every transition
        snapshot = manager.progress_snapshot(job)
        writer.write(format_event("progress", snapshot))
        await asyncio.wait_for(writer.drain(), io_timeout)
        if manager.is_terminal(job):
            break
        try:
            await asyncio.wait_for(changed.wait(), interval)
        except (asyncio.TimeoutError, TimeoutError):
            pass
    writer.write(format_event("end", {
        "job_id": job.job_id,
        "state": job.state,
        "error": job.error,
    }))
    await asyncio.wait_for(writer.drain(), io_timeout)
