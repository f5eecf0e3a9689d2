"""Speedup and bit-identity of the analytic engine tier.

The analytic tier's claim is two-sided: the exhaustive 16x16 paper sweep
must be **bit-identical** to both simulators and at least **10x faster**
than the functional engine. This bench is the exhaustive half of the
differential harness (``tests/engines`` keeps the cycle engine affordable
with a diagonal spot-check; here the cycle sweep runs all 256 sites once,
since it is the expensive reference this tier exists to replace).

Per dataflow (OS and WS — the paper's two schemes on GEMM):

* time the 256-site serial sweep on the functional engine and on the
  analytic engine, min-of-interleaved-repeats;
* run the cycle engine once;
* assert the three results identical experiment for experiment, pattern
  for pattern;
* assert ``functional / analytic >= 10``.

An executor row follows: an exhaustive 112x112 random-fill GEMM on the
analytic engine, per dataflow, run serially, on a 2-process pool and on
that pool with a checkpoint, interleaved, median wall time of each.
Every run must equal the serial one. A WS campaign corrupts whole
output columns, an order of magnitude more cells than an OS one, so on
the pool tiers its time includes moving every corrupted cell through
the shard records; each row records the campaign's corrupted-cell count
next to its times.

A study row closes the bench: the warm serial Table I study on the
analytic engine (``run_paper_study``, golden cache cleared per pass, as
in the benchmark's ``study_analytic`` workload), its time and each
configuration's campaign time, median of interleaved passes; and the
peak RSS of one Conv 112 3x3x3x8 WS campaign with patterns kept,
measured in a fresh child process next to that process's RSS after
import (read from Linux's ``/proc/self/status``). Run as a script with a
limit in MB, the bench runs that probe alone and fails when the peak
exceeds the after-import RSS by more than the limit (CI's memory gate).

A functional row records what the analytic tier is measured against on
the paper's large operations: the serial per-site time of the functional
engine on the three configurations of the ``pool_functional`` benchmark
workload (112x112 GEMM WS and OS, Conv 112 3x3x3x8 WS), each over the same
8 fixed sites, one from each block of the mesh cut into four row bands
and two column halves, median of interleaved repeats.

Numbers land in ``BENCH_analytic_engine.json`` at the repo root.
"""

import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import repro
from repro.core import Campaign, ConvWorkload, FillKind, GemmWorkload
from repro.core.executor import GOLDEN_CACHE, ParallelExecutor, SerialExecutor
from repro.core.sampling import paper_configurations
from repro.core.serialize import SCHEMA_VERSION
from repro.core.study import run_paper_study
from repro.systolic import Dataflow, MeshConfig

from _common import banner, parallel_capacity, run_once

MESH = MeshConfig.paper()
REPEATS = 5
SPEEDUP_FLOOR = 10.0
ARTIFACT = Path(__file__).resolve().parents[1] / "BENCH_analytic_engine.json"

DATAFLOWS = (Dataflow.OUTPUT_STATIONARY, Dataflow.WEIGHT_STATIONARY)

#: The executor row: campaign size, pool width and interleaved repeats.
EXECUTOR_SIZE = 112
EXECUTOR_JOBS = 2
EXECUTOR_REPEATS = 7

#: Interleaved passes of the study row.
STUDY_REPEATS = 7

#: The functional row's sites: one per block of four row bands x two
#: column halves (a Conv 112 fault in columns 0-7 corrupts 12,100 cells,
#: one in columns 8-15 none), and its interleaved repeats.
FUNCTIONAL_SITES = tuple(
    (5 * band, 8 * half + 2 * band + 1) for band in range(4) for half in range(2)
)
FUNCTIONAL_REPEATS = 5

#: The child process of the study row's memory figure: one Conv 112
#: campaign, with the peak RSS read before and after. Linux's ``VmHWM``
#: restarts at exec; ``ru_maxrss`` would carry over the parent's peak.
CONV_112_RSS = """
import json
from repro.core import Campaign, ConvWorkload
from repro.systolic import Dataflow, MeshConfig
def rss_mb():
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024
after_import = rss_mb()
Campaign(
    MeshConfig.paper(),
    ConvWorkload.paper_kernel(112, (3, 3, 3, 8), Dataflow.WEIGHT_STATIONARY),
    engine="analytic",
).run()
print(json.dumps({"after_import_mb": after_import, "peak_mb": rss_mb()}))
"""


def make_campaign(dataflow: Dataflow, engine: str) -> Campaign:
    workload = GemmWorkload.square(16, dataflow)
    return Campaign(MESH, workload, engine=engine)


def _assert_identical(reference, candidate) -> None:
    """Field-for-field experiment identity (the differential contract)."""
    assert reference.census() == candidate.census()
    assert reference.sdc_rate() == candidate.sdc_rate()
    assert reference.dominant_class() is candidate.dominant_class()
    assert len(reference.experiments) == len(candidate.experiments)
    for left, right in zip(reference.experiments, candidate.experiments):
        assert left.site == right.site
        assert left.classification == right.classification
        assert left.num_corrupted == right.num_corrupted
        assert left.max_abs_deviation == right.max_abs_deviation
        assert np.array_equal(left.pattern.mask, right.pattern.mask)
        assert np.array_equal(left.pattern.deviation, right.pattern.deviation)


def _best_interleaved(fns, repeats: int = REPEATS):
    """Min wall-clock and last result per function, measured round-robin
    (same protocol as ``bench_obs_overhead``: interleaving exposes every
    path to the same machine-wide slow phases)."""
    best = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for fn in fns:
        fn()  # warmup
    for _ in range(repeats):
        for index, fn in enumerate(fns):
            start = time.perf_counter()
            results[index] = fn()
            best[index] = min(best[index], time.perf_counter() - start)
    return best, results


def _executor_rows() -> list[dict]:
    """Median ms of the 112x112 analytic campaign per executor tier."""
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        checkpoint = Path(tmp) / "campaign.jsonl"

        def checkpointed() -> ParallelExecutor:
            checkpoint.unlink(missing_ok=True)
            return ParallelExecutor(jobs=EXECUTOR_JOBS, checkpoint=checkpoint)

        tiers = {
            "serial": SerialExecutor,
            f"j{EXECUTOR_JOBS}": lambda: ParallelExecutor(jobs=EXECUTOR_JOBS),
            f"j{EXECUTOR_JOBS}_checkpoint": checkpointed,
        }
        size = EXECUTOR_SIZE
        for dataflow in DATAFLOWS:
            campaign = Campaign(
                MESH,
                GemmWorkload(size, size, size, dataflow, fill=FillKind.RANDOM),
                engine="analytic",
            )
            reference = campaign.run()  # also warms the golden cache
            samples = {name: [] for name in tiers}
            for _ in range(EXECUTOR_REPEATS):
                for name, make in tiers.items():
                    executor = make()
                    start = time.perf_counter()
                    result = campaign.run(executor)
                    samples[name].append(time.perf_counter() - start)
                    _assert_identical(reference, result)
            rows.append({
                "campaign": f"{size}x{size} {dataflow}",
                "sites": len(campaign.sites),
                "corrupted_cells": sum(
                    e.num_corrupted for e in reference.experiments
                ),
                **{
                    f"{name}_ms": 1e3 * statistics.median(times)
                    for name, times in samples.items()
                },
            })
    return rows


def _functional_row() -> dict:
    """Serial per-site ms of the functional engine on the three
    ``pool_functional`` configurations, golden runs warmed first."""
    ws, os_ = Dataflow.WEIGHT_STATIONARY, Dataflow.OUTPUT_STATIONARY
    campaigns = [
        Campaign(MESH, workload, engine="functional", sites=FUNCTIONAL_SITES)
        for workload in (
            GemmWorkload.square(112, ws),
            GemmWorkload.square(112, os_),
            ConvWorkload.paper_kernel(112, (3, 3, 3, 8), dataflow=ws),
        )
    ]
    for campaign in campaigns:
        GOLDEN_CACHE.golden_run(campaign)
    samples = [[] for _ in campaigns]
    for _ in range(FUNCTIONAL_REPEATS):
        for campaign, times in zip(campaigns, samples):
            start = time.perf_counter()
            campaign.run()
            times.append(time.perf_counter() - start)
    return {
        "sites": len(FUNCTIONAL_SITES),
        "repeats": FUNCTIONAL_REPEATS,
        "cores": parallel_capacity(),
        "per_site_ms": {
            campaign.workload.describe(): (
                1e3 * statistics.median(times) / len(FUNCTIONAL_SITES)
            )
            for campaign, times in zip(campaigns, samples)
        },
    }


def conv112_rss() -> dict:
    """Run :data:`CONV_112_RSS` in a fresh child process; its RSS after
    import and its peak RSS, in MB."""
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    child = subprocess.run(
        [sys.executable, "-c", CONV_112_RSS],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(child.stdout.strip().splitlines()[-1])


def _study_row() -> dict:
    """Warm serial Table I study on the analytic engine, and the Conv 112
    campaign's peak RSS in a child process."""
    configs = {}
    for workloads in paper_configurations().values():
        for workload in workloads:
            configs.setdefault(workload.describe(), workload)
    run_paper_study(engine="analytic")  # warm-up: imports, lazy set-up
    study, per_config = [], {name: [] for name in configs}
    for _ in range(STUDY_REPEATS):
        GOLDEN_CACHE.clear()
        start = time.perf_counter()
        report = run_paper_study(engine="analytic")
        study.append(time.perf_counter() - start)
        assert report.all_single_class and report.all_match_theory
        for name, workload in configs.items():
            GOLDEN_CACHE.clear()
            start = time.perf_counter()
            Campaign(MESH, workload, engine="analytic").run()
            per_config[name].append(time.perf_counter() - start)
    rss = conv112_rss()
    return {
        "study_ms": 1e3 * statistics.median(study),
        "sites": sum(len(e.result.experiments) for e in report.entries),
        "config_ms": {
            name: 1e3 * statistics.median(times)
            for name, times in per_config.items()
        },
        "conv112_rss_after_import_mb": rss["after_import_mb"],
        "conv112_peak_rss_mb": rss["peak_mb"],
    }


def test_analytic_speedup(benchmark):
    rows = []
    for dataflow in DATAFLOWS:
        for engine in ("functional", "cycle", "analytic"):
            GOLDEN_CACHE.golden_run(make_campaign(dataflow, engine))

        (functional_seconds, analytic_seconds), (functional, analytic) = (
            _best_interleaved([
                make_campaign(dataflow, "functional").run,
                make_campaign(dataflow, "analytic").run,
            ])
        )
        start = time.perf_counter()
        cycle = make_campaign(dataflow, "cycle").run()
        cycle_seconds = time.perf_counter() - start

        _assert_identical(functional, analytic)
        _assert_identical(cycle, analytic)
        rows.append({
            "dataflow": str(dataflow),
            "functional_seconds": functional_seconds,
            "cycle_seconds": cycle_seconds,
            "analytic_seconds": analytic_seconds,
            "speedup_vs_functional": functional_seconds / analytic_seconds,
            "speedup_vs_cycle": cycle_seconds / analytic_seconds,
        })

    print(banner(
        "Analytic engine — exhaustive 16x16 GEMM sweep (256 sites), "
        "three-way bit-identical"
    ))
    print(
        f"{'dataflow':>9}  {'functional':>10}  {'cycle':>8}  "
        f"{'analytic':>8}  {'vs func':>8}  {'vs cycle':>8}"
    )
    for row in rows:
        print(
            f"{row['dataflow']:>9}  {row['functional_seconds']:>9.3f}s  "
            f"{row['cycle_seconds']:>7.3f}s  {row['analytic_seconds']:>7.3f}s  "
            f"{row['speedup_vs_functional']:>7.1f}x  "
            f"{row['speedup_vs_cycle']:>7.1f}x"
        )
    print(f"speedup floor vs functional: {SPEEDUP_FLOOR}x")

    executors = _executor_rows()
    print(banner(
        f"Executor tiers — exhaustive {EXECUTOR_SIZE}x{EXECUTOR_SIZE} "
        f"analytic campaign, median of {EXECUTOR_REPEATS}"
    ))
    names = [key for key in executors[0] if key.endswith("_ms")]
    print(f"{'campaign':>12}  {'cells':>7}  " + "  ".join(
        f"{name:>15}" for name in names
    ))
    for row in executors:
        print(f"{row['campaign']:>12}  {row['corrupted_cells']:>7}  " + "  ".join(
            f"{row[name]:>13.0f}ms" for name in names
        ))

    study = _study_row()
    print(banner(
        f"Table I study — analytic engine, warm, serial, median of "
        f"{STUDY_REPEATS} interleaved passes"
    ))
    print(f"whole study ({study['sites']} sites): {study['study_ms']:.0f}ms")
    for name, ms in study["config_ms"].items():
        print(f"  {ms:>7.1f}ms  {name}")
    print(
        f"Conv 112 campaign peak RSS: {study['conv112_peak_rss_mb']:.0f} MB "
        f"(after import: {study['conv112_rss_after_import_mb']:.0f} MB)"
    )

    functional_row = _functional_row()
    print(banner(
        f"Functional engine — serial ms per site over "
        f"{functional_row['sites']} fixed sites, median of {FUNCTIONAL_REPEATS}"
    ))
    for name, ms in functional_row["per_site_ms"].items():
        print(f"  {ms:>7.1f}ms  {name}")

    ARTIFACT.write_text(json.dumps({
        "schema_version": SCHEMA_VERSION,
        "bench": "analytic_engine",
        "mesh": f"{MESH.rows}x{MESH.cols}",
        "sites": MESH.num_macs,
        "cores": parallel_capacity(),
        "repeats": REPEATS,
        "speedup_floor": SPEEDUP_FLOOR,
        "sweeps": rows,
        "executor_repeats": EXECUTOR_REPEATS,
        "executors": executors,
        "study_repeats": STUDY_REPEATS,
        "study": study,
        "functional": functional_row,
    }, indent=2) + "\n")
    print(f"written: {ARTIFACT.name}")

    for row in rows:
        assert row["speedup_vs_functional"] >= SPEEDUP_FLOOR, (
            f"analytic sweep under {row['dataflow']} is only "
            f"{row['speedup_vs_functional']:.1f}x the functional engine "
            f"(floor {SPEEDUP_FLOOR}x); the closed form must amortise the "
            f"per-site simulation away"
        )

    run_once(
        benchmark, make_campaign(Dataflow.WEIGHT_STATIONARY, "analytic").run
    )


if __name__ == "__main__":
    # The memory gate alone: ``python bench_analytic_engine.py LIMIT_MB``
    # runs the Conv 112 probe and exits 1 when its peak RSS exceeds its
    # RSS after import by more than LIMIT_MB.
    limit = float(sys.argv[1])
    rss = conv112_rss()
    growth = rss["peak_mb"] - rss["after_import_mb"]
    print(
        f"Conv 112 campaign peak RSS: {rss['peak_mb']:.0f} MB, "
        f"{growth:.0f} MB over import (limit {limit:.0f} MB)"
    )
    sys.exit(0 if growth <= limit else 1)
