"""One fresh benchmark process: set a workload up, then measure or trace it.

    python perfbench/work.py {setup,measure,trace} --workload NAME \\
        --seed N --seconds S --tmp DIR

``run.py`` starts this process and times it from launch to the ``READY``
line, which is printed once the first timed operation can be issued. In
``setup`` mode the process then tears down and exits. ``measure`` runs a
discarded warm-up operation and then times operations for ``S`` seconds,
gating each output outside its timed interval. ``trace`` times ``S/2``
seconds untraced, installs the per-layer wrappers, repeats the same
number of operations traced and reduces the tallies to per-layer
metrics. The last line printed is ``RESULT <json>``.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

import layers
import workloads


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def run_ops(workload, seconds=None, count=None, first=1) -> dict:
    """Time operations until their summed time reaches ``seconds`` (or
    ``count`` operations ran); gate each between timed intervals."""
    ops, attempted, failed, index, gate_s = [], 0, 0, first, 0.0
    while (len(ops) < count) if count is not None else (
        sum(t for _, t in ops) < seconds
    ):
        start = time.perf_counter()
        try:
            sites, output = workload.op(index)
        except Exception:  # a campaign that raises is a failed operation
            traceback.print_exc()
            ops.append((0, time.perf_counter() - start))
            attempted += workload.op_sites
            failed += workload.op_sites
            index += 1
            continue
        ops.append((sites, time.perf_counter() - start))
        layers.enabled(False)
        gate_start = time.perf_counter()
        try:
            tried, bad = workload.check(output)
        finally:
            layers.enabled(True)
        gate_s += time.perf_counter() - gate_start
        del output
        attempted += tried
        failed += bad
        index += 1
    return {"ops": ops, "attempted": attempted, "failed": failed,
            "wall": sum(t for _, t in ops), "next": index, "gate_s": gate_s}


def run_service(workload, seconds=None, jobs=None, first=0, min_jobs=0) -> dict:
    results, wall = workload.window(seconds=seconds, jobs=jobs, first=first,
                                    min_jobs=min_jobs)
    layers.enabled(False)
    gate_start = time.perf_counter()
    attempted, failed = workload.check(results)
    layers.enabled(True)
    done = [job for job in results if "latency" in job]
    return {
        "ops": [(256, job["latency"]) for job in done],
        "attempted": attempted,
        "failed": failed,
        "wall": wall,
        "jobs": results,
        "gate_s": time.perf_counter() - gate_start,
    }


def peak_rss_mb(workload) -> float:
    """The kernel's peak RSS (``ru_maxrss``) of the workload's own
    processes, once they are reaped: pool workers, agents and their
    pools, or the server and its pools. This process counts too when the
    workload runs in it; for ``service_jobs`` it is only the HTTP client
    and the gate, which are not the program's."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"peak RSS: this process {own:.1f} MB, reaped descendants "
          f"{children:.1f} MB", file=sys.stderr)
    if isinstance(workload, workloads.ServiceJobs):
        return children
    return max(children, own)


def measure(workload, seconds: float) -> dict:
    start = time.perf_counter()
    if isinstance(workload, workloads.ServiceJobs):
        run_service(workload, jobs=workloads.CLIENTS)  # warm-up, discarded
        warm = time.perf_counter()
        window = run_service(workload, seconds=seconds, first=1000,
                             min_jobs=workloads.MIN_JOBS)
    else:
        run_ops(workload, count=1, first=0)  # warm-up, discarded
        warm = time.perf_counter()
        window = run_ops(workload, seconds=seconds)
    print(f"warm-up {warm - start:.2f} s, timed {window['wall']:.2f} s, "
          f"gates {window['gate_s']:.2f} s", file=sys.stderr)
    window.pop("jobs", None)
    workload.teardown()
    window["peak_rss_mb"] = peak_rss_mb(workload)
    return window


# ----------------------------------------------------------------------
def _client_phases(jobs: list) -> dict:
    done = [job for job in jobs if "latency" in job]
    return {
        "service.queue_wait_ms": (
            1e3 * statistics.median(j["queue_wait"] for j in done), "ms"),
        "service.run_ms": (1e3 * statistics.median(j["run"] for j in done), "ms"),
        "service.fetch_ms": (
            1e3 * statistics.median(j["fetch"] for j in done), "ms"),
        "service.result_bytes": (
            sum(len(j["body"] or b"") for j in jobs), "bytes"),
        "service.sse_frames": (sum(j["frames"] for j in jobs), "count"),
    }


def _dir_bytes(paths) -> tuple[int, int]:
    records = size = 0
    for path in paths:
        with path.open("rb") as stream:
            records += sum(1 for _ in stream) - 1  # minus the header line
        size += path.stat().st_size
    return records, size


def layer_metrics(local: dict, workers: dict, obs, extra: dict) -> dict:
    """The per-layer metrics (name → (value, unit)) of one traced window,
    summed over the issuing process and every worker process."""
    total = layers.merge(layers.merge({"calls": {}, "counters": {}}, local),
                         workers)
    calls, counters = total["calls"], total["counters"]

    def get(name, index):
        return calls.get(name, [0, 0, 0, 0])[index]

    def count(name):
        return (get(name, 0), "count")

    def self_ms(name):
        return (get(name, 2) / 1e6, "ms")

    def incl_ms(name):
        return (get(name, 1) / 1e6, "ms")

    def counter(name, unit="count"):
        return (counters.get(name, 0), unit)

    def obs_value(name):
        return (obs.metrics.value(name) if obs is not None else 0, "count")

    metrics = {
        "systolic.matmul.calls": count("systolic.matmul"),
        "systolic.matmul.self_ms": self_ms("systolic.matmul"),
        "analytic.evaluate_batch.calls": count("analytic.evaluate_batch"),
        "analytic.evaluate_batch.self_ms": self_ms("analytic.evaluate_batch"),
        "analytic.chain_tile.self_ms": self_ms("analytic.chain_tile"),
        "analytic.fallback_sites": counter("analytic.fallback_sites"),
        "classifier.classify_cells.calls": count("classifier.classify_cells"),
        "classifier.classify_cells.self_ms": self_ms("classifier.classify_cells"),
        "classifier.classify_pattern.self_ms": self_ms(
            "classifier.classify_pattern"),
        "fault_patterns.extract_pattern.self_ms": self_ms(
            "fault_patterns.extract_pattern"),
        "predictor.predict_class.calls": count("predictor.predict_class"),
        "predictor.predict_class.self_ms": self_ms("predictor.predict_class"),
        "executor.golden.self_ms": self_ms("executor.golden"),
        "executor.golden_cache.hits": counter("executor.golden_cache.hits"),
        "executor.golden_cache.misses": counter("executor.golden_cache.misses"),
        "executor.pool_start_ms": incl_ms("executor.pool_start"),
        "executor.shards": counter("executor.shards"),
        "executor.dispatch_wait_ms": incl_ms("executor.dispatch_wait"),
        "executor.merge_ms": incl_ms("executor.merge"),
        "executor.result_pickle_bytes": counter(
            "executor.result_pickle_bytes", "bytes"),
        "executor.retries": obs_value("repro_shard_retries_total"),
        "executor.quarantined": obs_value("repro_quarantined_sites_total"),
        "checkpoint.fsyncs": counter("checkpoint.fsyncs"),
        "checkpoint.fsync_ms": incl_ms("checkpoint.fsync"),
        "serialize.experiment_record.self_ms": self_ms(
            "serialize.experiment_record"),
        "serialize.decode_campaign_spec.ms": incl_ms(
            "serialize.decode_campaign_spec"),
        "serialize.campaign_result_record.ms": incl_ms(
            "serialize.campaign_result_record"),
        "fabric.frames": counter("fabric.frames"),
        "fabric.frame_bytes": counter("fabric.frame_bytes", "bytes"),
        "fabric.encode_frame.ms": incl_ms("fabric.encode_frame"),
        "fabric.decode_frame.ms": incl_ms("fabric.decode_frame"),
        "fabric.join_ms": counter("fabric.join_ms", "ms"),
        "fabric.agent_setup_ms": counter("fabric.agent_setup_ms", "ms"),
        "fabric.requeues": obs_value("repro_fabric_requeues_total"),
        "fabric.stale_results": obs_value("repro_fabric_stale_results_total"),
        "fabric.workers_lost": obs_value("repro_fabric_worker_lost_total"),
        "checkpoint.records": (0, "count"),
        "checkpoint.bytes": (0, "bytes"),
        "service.requests": (0, "count"),
        "service.requests_non2xx": (0, "count"),
        "service.queue_wait_ms": (0.0, "ms"),
        "service.run_ms": (0.0, "ms"),
        "service.fetch_ms": (0.0, "ms"),
        "service.result_bytes": (0, "bytes"),
        "service.registry_bytes": (0, "bytes"),
        "service.sse_frames": (0, "count"),
    }
    metrics.update(extra)
    return metrics


def trace(workload, seconds: float, tmp: Path) -> dict:
    from repro.obs import MetricsRegistry, Observability, TraceRecorder

    stats_dir = tmp / "stats"
    stats_dir.mkdir()
    service = isinstance(workload, workloads.ServiceJobs)
    if service:
        run_service(workload, jobs=workloads.CLIENTS)  # warm-up
        plain = run_service(workload, seconds=seconds / 2, first=1000)
        workload.teardown()
        workload.setup(stats_dir)
        traced = run_service(workload, jobs=len(plain["ops"]), first=3000)
        server = workload.server_metrics()
        workload.teardown()
        obs = None
        local = {"calls": {}, "counters": {}}  # the clients call no layer
        state = workload.state
        records, size = _dir_bytes(sorted((state / "checkpoints").glob("*.jsonl")))
        extra = _client_phases(traced["jobs"])
        extra.update({
            "checkpoint.records": (records, "count"),
            "checkpoint.bytes": (size, "bytes"),
            "service.registry_bytes": ((state / "jobs.jsonl").stat().st_size,
                                       "bytes"),
        })
        # The server's own request counter, by status; the /metrics
        # request reading it is not in its own response.
        requests = {k: v for k, v in server.items()
                    if k.startswith("repro_service_requests_total")}
        extra["service.requests"] = (sum(requests.values()), "count")
        extra["service.requests_non2xx"] = (sum(
            v for k, v in requests.items() if 'status="2' not in k), "count")
        done = [j for j in traced["jobs"] if "latency" in j]
        phases = {
            "repro.service:queue_wait": sum(j["queue_wait"] for j in done),
            "repro.service:run": sum(j["run"] for j in done),
            "repro.service:fetch": sum(j["fetch"] for j in done),
        }
        lanes = {k: 1e3 * v / workloads.CLIENTS for k, v in phases.items()}
        print("client lanes: " + ", ".join(
            f"{k} {v:.1f} ms" for k, v in lanes.items()), file=sys.stderr)
        rows = {layer: 0.0 for layer in layers.LAYERS}
        rows["repro.service"] = sum(lanes.values())
        rows["unattributed"] = 1e3 * traced["wall"] - rows["repro.service"]
    else:
        run_ops(workload, count=1, first=0)  # warm-up
        plain = run_ops(workload, seconds=seconds / 2)
        obs = Observability(recorder=TraceRecorder(), metrics=MetricsRegistry())
        if isinstance(workload, workloads.FabricCampaigns):
            workload.procs.stop()
            workload.await_agents(workload.launch_agents(stats_dir))
        layers.install(str(stats_dir))
        workload.obs = obs
        if isinstance(workload, workloads.PoolFunctional):
            workload.checkpoint_records = workload.checkpoint_bytes = 0
        traced = run_ops(workload, count=len(plain["ops"]), first=plain["next"])
        local = layers.TALLY.snapshot()
        workload.teardown()
        extra = {}
        if isinstance(workload, workloads.PoolFunctional):
            extra = {
                "checkpoint.records": (workload.checkpoint_records, "count"),
                "checkpoint.bytes": (workload.checkpoint_bytes, "bytes"),
            }
        rows = layers.self_time_table(local, traced["wall"])
    workers = layers.collect(stats_dir)
    metrics = layer_metrics(local, workers, obs, extra)
    for layer, ms in rows.items():
        metrics[f"table.{layer}.self_ms"] = (ms, "ms")
    metrics["table.wall_ms"] = (1e3 * traced["wall"], "ms")

    def per_site(window):
        return window["wall"] / max(1, sum(n for n, _ in window["ops"]))

    metrics["obs.trace_overhead"] = (per_site(traced) / per_site(plain), "ratio")
    print(layers.format_table(rows, traced["wall"], workers), file=sys.stderr)
    return {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--tmp", type=Path, required=True)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "measure":
            result = measure(workload, args.seconds)
        else:
            result = trace(workload, args.seconds, args.tmp)
    finally:
        workload.teardown()
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
