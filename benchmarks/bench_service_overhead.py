"""Submit→result cost of the HTTP service against a direct run.

The service's contract is that the front door is a front door, not a
tax: submitting a campaign over HTTP — spec validation, the job queue,
SSE progress streaming to completion, and fetching the fsynced result
artefact — must land within 1.25x the wall time of calling
``campaign.run(SerialExecutor())`` in-process. This bench runs the
paper's 16x16 WS GEMM sweep under the cycle-accurate engine two ways:

* **direct** — ``SerialExecutor`` in-process, the reference path;
* **service** — the same spec POSTed to a live :class:`CampaignService`
  (loopback, serial executor kind, so both paths execute identically),
  timed from submit to the result artefact's bytes in hand, including
  the SSE stream ridden to its terminal frame.

The service is booted once and kept across rounds; wall-clock is
interleaved min-of-repeats so one scheduler hiccup cannot fail the pin.
The measured numbers go to ``BENCH_service_overhead.json`` at the repo
root, and the fetched artefact must rebuild field-for-field identical
to the direct run — the overhead pin is meaningless if the service
returned different science.

A second row records what a tiny ``parallel`` job costs on a warm
server, where per-job fixed costs dominate: a random-fill 16x16 WS
analytic campaign with ``{"kind": "parallel", "jobs": 2}``, each job a
fresh seed, on the server's resident pool. It reports the median
submit→result milliseconds over ``POOL_JOBS`` jobs next to the median
direct serial run of the same kind of campaign. It is context for the
resident pool, not a pin: on the analytic tier a 2-process job still
costs more than the serial run it splits.
"""

import json
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.core import Campaign, GemmWorkload, SerialExecutor
from repro.core.executor import GOLDEN_CACHE
from repro.core.serialize import (
    SCHEMA_VERSION,
    campaign_result_from_record,
    decode_campaign_spec,
)
from repro.service import CampaignService
from repro.systolic import Dataflow, MeshConfig

from _common import banner, parallel_capacity, run_once

MESH = MeshConfig.paper()
WORKLOAD = GemmWorkload.square(16, Dataflow.WEIGHT_STATIONARY)
REPEATS = 3
OVERHEAD_CEILING = 1.25
#: Timed jobs (and direct runs) in the resident-pool row, after warm-up.
POOL_JOBS = 24
POOL_WARMUP = 2
ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_service_overhead.json"

SPEC = {
    "mesh": {"rows": MESH.rows, "cols": MESH.cols},
    "workload": {"op": "gemm", "m": 16, "k": 16, "n": 16},
    "engine": "cycle",
    "executor": {"kind": "serial"},
}


def pool_spec(seed: int) -> dict:
    """The resident-pool row's job: a fresh random operand seed each."""
    return {
        "mesh": {"rows": 16, "cols": 16},
        "workload": {
            "op": "gemm", "m": 16, "k": 16, "n": 16, "dataflow": "WS",
            "fill": "random", "seed": seed,
        },
        "engine": "analytic",
        "executor": {"kind": "parallel", "jobs": 2},
    }


def record(row: dict) -> None:
    """Merge ``row`` into the artefact, keeping the other row's keys."""
    current = json.loads(ARTIFACT.read_text()) if ARTIFACT.exists() else {}
    current.update(row)
    ARTIFACT.write_text(json.dumps(current, indent=2) + "\n")


def make_campaign() -> Campaign:
    campaign, _ = decode_campaign_spec(SPEC)
    return campaign


def start_service(state_dir: str):
    """One loopback service on a daemon thread; returns (service, port,
    thread). A tight SSE interval keeps stream latency out of the
    measurement without busy-looping the event loop."""
    ready = threading.Event()
    bound = {}

    def announce(host: str, port: int) -> None:
        bound["port"] = port
        ready.set()

    service = CampaignService(
        "127.0.0.1", 0, state_dir, announce=announce, sse_interval=0.02
    )
    thread = threading.Thread(target=service.run, daemon=True)
    thread.start()
    assert ready.wait(10), "service never announced its port"
    return service, bound["port"], thread


def run_direct():
    return make_campaign().run(SerialExecutor())


def run_service(port: int, spec: dict = SPEC) -> dict:
    """One submit→result cycle over HTTP; returns the result artefact."""
    import urllib.request

    base = f"http://127.0.0.1:{port}"
    request = urllib.request.Request(
        f"{base}/campaigns", data=json.dumps(spec).encode(), method="POST"
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        assert response.status == 201
        job_id = json.loads(response.read())["job_id"]
    url = f"{base}/campaigns/{job_id}/events"
    with urllib.request.urlopen(url, timeout=600) as stream:
        event = None
        for raw in stream:
            line = raw.decode().rstrip("\n")
            if line.startswith("event: "):
                event = line.removeprefix("event: ")
            elif line.startswith("data: ") and event == "end":
                assert json.loads(line.removeprefix("data: "))[
                    "state"
                ] == "done"
                break
    url = f"{base}/campaigns/{job_id}/result"
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.loads(response.read())


def test_service_overhead(benchmark):
    # Warm the shared golden cache so neither timed path pays for the
    # fault-free reference run (the service thread shares the process).
    GOLDEN_CACHE.golden_run(make_campaign())

    state_dir = tempfile.mkdtemp(prefix="bench-service-")
    service, port, thread = start_service(state_dir)
    try:
        # Warmup: one job through the whole HTTP lifecycle, one direct.
        run_service(port)
        run_direct()

        direct_best = service_best = float("inf")
        direct = artefact = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            direct = run_direct()
            direct_best = min(direct_best, time.perf_counter() - start)
            start = time.perf_counter()
            artefact = run_service(port)
            service_best = min(service_best, time.perf_counter() - start)
    finally:
        service.shutdown()
        thread.join(timeout=30)

    overhead = service_best / direct_best
    cores = parallel_capacity()
    print(banner(
        "Service submit->result overhead — 16x16 WS GEMM, cycle engine, "
        f"256-site sweep over HTTP ({cores} core(s) available)"
    ))
    print(f"{'path':>8}  {'seconds':>8}  {'vs direct':>9}")
    print(f"{'direct':>8}  {direct_best:>8.3f}  {'1.000':>9}")
    print(f"{'service':>8}  {service_best:>8.3f}  {overhead:>9.3f}")
    print(f"ceiling: {OVERHEAD_CEILING}")

    record({
        "schema_version": SCHEMA_VERSION,
        "bench": "service_overhead",
        "workload": WORKLOAD.describe(),
        "engine": "cycle",
        "sites": len(make_campaign().sites),
        "repeats": REPEATS,
        "direct_seconds": direct_best,
        "service_seconds": service_best,
        "overhead": overhead,
        "ceiling": OVERHEAD_CEILING,
        "cores": cores,
    })
    print(f"written: {ARTIFACT.name}")

    # Identity guarantee: the front door changes nothing. The artefact
    # rebuilds against the same spec and must match the direct run.
    rebuilt = campaign_result_from_record(artefact, make_campaign())
    assert np.array_equal(rebuilt.golden, direct.golden)
    assert rebuilt.census() == direct.census()
    assert rebuilt.sdc_rate() == direct.sdc_rate()
    assert rebuilt.dominant_class() is direct.dominant_class()
    assert [e.site for e in rebuilt.experiments] == [
        e.site for e in direct.experiments
    ]

    assert overhead <= OVERHEAD_CEILING, (
        f"HTTP submit->result is {overhead:.3f}x the direct run "
        f"(ceiling {OVERHEAD_CEILING}); the front door must stay off "
        f"the per-experiment hot path"
    )

    run_once(benchmark, run_direct)


def test_resident_pool_job(benchmark):
    """Submit→result of tiny ``parallel`` jobs on a warm server."""
    state_dir = tempfile.mkdtemp(prefix="bench-service-pool-")
    service, port, thread = start_service(state_dir)
    try:
        for seed in range(POOL_WARMUP):  # starts the resident pool
            run_service(port, pool_spec(seed))
        served, direct = [], []
        artefact = None
        for index in range(POOL_JOBS):
            seed = POOL_WARMUP + 2 * index  # fresh golden runs both ways
            start = time.perf_counter()
            artefact = run_service(port, pool_spec(seed))
            served.append(time.perf_counter() - start)
            campaign, _ = decode_campaign_spec(pool_spec(seed + 1))
            start = time.perf_counter()
            campaign.run(SerialExecutor())
            direct.append(time.perf_counter() - start)
    finally:
        service.shutdown()
        thread.join(timeout=30)

    service_ms = 1000 * float(np.median(served))
    direct_ms = 1000 * float(np.median(direct))
    cores = parallel_capacity()
    print(banner(
        "Resident-pool service job — 16x16 WS GEMM, analytic engine, "
        f"parallel jobs 2, warm server ({cores} core(s) available)"
    ))
    print(f"{'path':>14}  {'median ms':>9}")
    print(f"{'direct serial':>14}  {direct_ms:>9.1f}")
    print(f"{'service job':>14}  {service_ms:>9.1f}")
    record({"resident_pool": {
        "workload": "GEMM 16x16x16, WS, random",
        "engine": "analytic",
        "executor": {"kind": "parallel", "jobs": 2},
        "jobs": POOL_JOBS,
        "service_median_ms": service_ms,
        "direct_serial_median_ms": direct_ms,
        "cores": cores,
    }})
    print(f"written: {ARTIFACT.name}")

    # The last job's artefact rebuilds to the serial run of its spec.
    seed = POOL_WARMUP + 2 * (POOL_JOBS - 1)
    campaign, _ = decode_campaign_spec(pool_spec(seed))
    rebuilt = campaign_result_from_record(artefact, campaign)
    reference, _ = decode_campaign_spec(pool_spec(seed))
    direct_result = reference.run(SerialExecutor())
    assert rebuilt.census() == direct_result.census()
    assert [e.site for e in rebuilt.experiments] == [
        e.site for e in direct_result.experiments
    ]

    run_once(benchmark, reference.run, SerialExecutor())
