"""Dispatch cost of the socket fabric against the local process pool.

The fabric's contract is that distribution is a deployment choice, not
an algorithm change: a ``DistributedExecutor`` driving a localhost fleet
must produce the bit-identical ``CampaignResult`` of the parallel tier
at a dispatch overhead small enough that nobody is punished for running
the distributed path on one machine. This bench runs the paper's 16x16
WS GEMM sweep under the cycle-accurate engine two ways:

* **parallel** — ``ParallelExecutor(jobs=2)``, the local pool baseline;
* **fabric** — ``DistributedExecutor`` over two persistent
  ``WorkerAgent`` threads (``stay=True``) on a loopback socket, one job
  each, so both paths command exactly two shard processes.

The fleet is started once and kept across rounds: each agent keeps one
process pool for its life and swaps only the pool's setup token when a
new campaign welcomes it, so reconnecting to each round's fresh
coordinator reuses the warm pool and golden cache — the timed region is
framing, leases, and scheduling, not process spawn. Wall-clock is
interleaved min-of-repeats so one scheduler hiccup cannot fail the pin;
the bench asserts fabric/parallel <= 1.25 on hosts with at least 2
usable cores (reported as context on starved runners).

A second, **warm-fleet** row times what a ``--stay`` fleet serves in
practice: back-to-back 112x112 analytic random-fill campaigns, WS and
OS in turn, each a new setup, over the same two agents. It records the
absolute milliseconds per campaign and sites per second; each result is
checked against a serial run. Both rows, with the core count, are
written to ``BENCH_fabric_overhead.json`` at the repo root.
"""

import json
import socket
import statistics
import threading
import time
from pathlib import Path

from repro.core import (
    Campaign,
    DistributedExecutor,
    FillKind,
    GemmWorkload,
    ParallelExecutor,
    SerialExecutor,
    WorkerAgent,
)
from repro.core.executor import GOLDEN_CACHE
from repro.core.serialize import SCHEMA_VERSION
from repro.systolic import Dataflow, MeshConfig

from _common import banner, parallel_capacity, run_once

MESH = MeshConfig.paper()
WORKLOAD = GemmWorkload.square(16, Dataflow.WEIGHT_STATIONARY)
WORKERS = 2
REPEATS = 3
OVERHEAD_CEILING = 1.25
#: Warm-fleet row: campaigns per run and their GEMM size.
WARM_CAMPAIGNS = 6
WARM_SIZE = 112
ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_fabric_overhead.json"


def make_campaign() -> Campaign:
    return Campaign(MESH, WORKLOAD, engine="cycle")


def free_port() -> int:
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


def start_fleet(port: int):
    """Two persistent loopback agents, one shard process each.

    ``stay=True`` keeps them reconnecting between rounds (each round
    tears down its coordinator), and the generous retry budget rides
    out the parallel rounds while no coordinator is listening.
    """
    agents = [
        WorkerAgent(
            "127.0.0.1",
            port,
            jobs=1,
            reconnect_attempts=100_000,
            reconnect_delay=0.05,
            stay=True,
        )
        for _ in range(WORKERS)
    ]
    threads = [
        threading.Thread(target=agent.run, daemon=True) for agent in agents
    ]
    for thread in threads:
        thread.start()
    return agents, threads


def stop_fleet(agents, threads) -> None:
    for agent in agents:
        agent._draining = True
    for thread in threads:
        thread.join(timeout=30)


def run_parallel():
    return make_campaign().run(ParallelExecutor(jobs=WORKERS))


def run_fabric_campaign(port: int, campaign: Campaign):
    executor = DistributedExecutor(
        port=port, expected_workers=WORKERS, join_timeout=60.0
    )
    return campaign.run(executor)


def run_fabric(port: int):
    return run_fabric_campaign(port, make_campaign())


def warm_campaign(index: int) -> Campaign:
    """The ``index``-th warm-fleet campaign: a fresh random fill, so a
    new setup every time."""
    dataflows = (Dataflow.WEIGHT_STATIONARY, Dataflow.OUTPUT_STATIONARY)
    workload = GemmWorkload(
        WARM_SIZE, WARM_SIZE, WARM_SIZE, dataflows[index % 2],
        fill=FillKind.RANDOM, seed=index,
    )
    return Campaign(MESH, workload, engine="analytic")


def run_warm_fleet(port: int) -> dict:
    """Time :data:`WARM_CAMPAIGNS` back-to-back new setups on the warm
    fleet; each result must match its serial run."""
    seconds, sites = [], 0
    for index in range(WARM_CAMPAIGNS):
        campaign = warm_campaign(index)
        start = time.perf_counter()
        result = run_fabric_campaign(port, campaign)
        seconds.append(time.perf_counter() - start)
        sites += len(campaign.sites)
        reference = warm_campaign(index).run(SerialExecutor())
        assert result.census() == reference.census()
        assert [e.classification for e in result.experiments] == [
            e.classification for e in reference.experiments
        ]
    return {
        "workload": f"GEMM {WARM_SIZE}x{WARM_SIZE}x{WARM_SIZE}, WS/OS, random",
        "engine": "analytic",
        "campaigns": WARM_CAMPAIGNS,
        "sites": sites,
        "ms_per_campaign": 1e3 * statistics.median(seconds),
        "sites_per_s": sites / sum(seconds),
    }


def test_fabric_overhead(benchmark):
    # Warm the coordinator-side golden cache so neither timed path pays
    # for the shared fault-free reference run.
    GOLDEN_CACHE.golden_run(make_campaign())

    port = free_port()
    agents, threads = start_fleet(port)
    try:
        # Warmup: agents adopt the campaign, spawn their pools, and warm
        # their own golden caches; the parallel pool warms likewise.
        run_fabric(port)
        run_parallel()

        parallel_best = fabric_best = float("inf")
        parallel = fabric = None
        for _ in range(REPEATS):
            start = time.perf_counter()
            parallel = run_parallel()
            parallel_best = min(parallel_best, time.perf_counter() - start)
            start = time.perf_counter()
            fabric = run_fabric(port)
            fabric_best = min(fabric_best, time.perf_counter() - start)
        warm = run_warm_fleet(port)
    finally:
        stop_fleet(agents, threads)

    overhead = fabric_best / parallel_best
    cores = parallel_capacity()
    print(banner(
        "Fabric dispatch overhead — 16x16 WS GEMM, cycle engine, "
        f"256-site sweep, {WORKERS} shard processes "
        f"({cores} core(s) available)"
    ))
    print(f"{'path':>9}  {'seconds':>8}  {'vs parallel':>11}")
    print(f"{'parallel':>9}  {parallel_best:>8.3f}  {'1.000':>11}")
    print(f"{'fabric':>9}  {fabric_best:>8.3f}  {overhead:>11.3f}")
    print(f"ceiling: {OVERHEAD_CEILING}")
    print(
        f"warm fleet: {warm['campaigns']} new-setup campaigns "
        f"({warm['workload']}, {warm['engine']}): "
        f"{warm['ms_per_campaign']:.0f} ms per campaign (median), "
        f"{warm['sites_per_s']:.0f} sites/s"
    )

    ARTIFACT.write_text(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "bench": "fabric_overhead",
        "workload": WORKLOAD.describe(),
        "engine": "cycle",
        "sites": len(make_campaign().sites),
        "workers": WORKERS,
        "repeats": REPEATS,
        "parallel_seconds": parallel_best,
        "fabric_seconds": fabric_best,
        "overhead": overhead,
        "ceiling": OVERHEAD_CEILING,
        "warm_fleet": warm,
        "cores": cores,
    }, indent=2) + "\n")
    print(f"written: {ARTIFACT.name}")

    # Determinism guarantee: the wire changes nothing.
    assert fabric.census() == parallel.census()
    assert fabric.sdc_rate() == parallel.sdc_rate()
    assert fabric.dominant_class() is parallel.dominant_class()
    assert [e.site for e in fabric.experiments] == [
        e.site for e in parallel.experiments
    ]

    if cores >= 2:
        assert overhead <= OVERHEAD_CEILING, (
            f"fabric dispatch is {overhead:.3f}x the local pool "
            f"(ceiling {OVERHEAD_CEILING}); framing and lease traffic "
            f"must stay off the per-experiment hot path"
        )
    else:
        print(f"\n(overhead pin skipped: only {cores} core(s) available)")

    run_once(benchmark, run_parallel)
