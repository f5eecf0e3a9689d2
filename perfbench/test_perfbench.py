"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q

They re-derive the correctness gate's pinned digests from the serial
reference, check the per-layer accounting, and check that the benchmark
refuses to run without the program's source.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(HERE), str(ROOT / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import layers  # noqa: E402
import pin  # noqa: E402
import workloads  # noqa: E402


def test_study_digest_matches_serial_reference():
    assert pin.derive_study() == workloads.load_pinned()["study_analytic"]


def test_pool_table_matches_every_site_analytically():
    # The analytic tier is pinned bit-identical to the functional one,
    # so it re-derives the whole table in seconds.
    assert pin.derive_pool(engine="analytic") == (
        workloads.load_pinned()["pool_functional"]
    )


def test_pool_table_matches_functional_serial_sample():
    pinned = workloads.load_pinned()["pool_functional"]
    sites = random.Random(7).sample([(r, c) for r in range(16) for c in range(16)], 3)
    derived = pin.derive_pool(engine="functional", sites=sites)
    for key, rows in derived.items():
        assert rows == [pinned[key][r * 16 + c] for r, c in sites]


def test_self_time_excludes_nested_wrapped_calls():
    tally = layers.TALLY
    tally.calls.clear()
    inner = layers._wrap("analytic.chain_tile", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()

    layers._wrap("analytic.evaluate_batch", body)()
    outer = tally.calls["analytic.evaluate_batch"]
    nested = tally.calls["analytic.chain_tile"]
    assert outer[1] >= nested[1] >= 20e6
    assert abs(outer[2] - (outer[1] - nested[1])) < 1e3
    assert outer[3] == outer[2]  # counted on the main thread

    thread = threading.Thread(target=inner)
    thread.start()
    thread.join()
    assert tally.calls["analytic.chain_tile"][3] == nested[3]
    tally.calls.clear()


def test_table_rows_sum_to_wall():
    local = {"calls": {
        "executor.execute": [1, 900_000_000, 300_000_000, 300_000_000],
        "systolic.matmul": [4, 500_000_000, 500_000_000, 500_000_000],
    }, "counters": {}}
    rows = layers.self_time_table(local, wall_s=1.0)
    assert rows["repro.core.executor"] == 300.0
    assert rows["repro.systolic"] == 500.0
    assert abs(sum(rows.values()) - 1000.0) < 1e-9
    assert abs(rows["unattributed"] - 200.0) < 1e-9


def test_run_refuses_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study_analytic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_benchmark_json_names_every_metric_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    names = {m["name"] for m in spec["end_to_end"]}
    assert {"setup_s", "sites_per_s", "job_p50_ms", "job_p90_ms",
            "jobs_per_s", "peak_rss_mb", "ok_frac"} == names
