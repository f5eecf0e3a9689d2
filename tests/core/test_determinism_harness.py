"""Run-time determinism harness for the pooled executor.

A campaign's result must not depend on the interpreter's hash seed, on
the order shards complete in, or on which shards (of which campaigns)
share a worker process. One equivalence run sees one hash seed and one
schedule, so this harness varies all three at once:

* every pooled run happens in a fresh interpreter under one of
  :data:`HASH_SEEDS` (``PYTHONHASHSEED``), which its pool children
  inherit;
* each interpreter runs the mixed :func:`campaign_set` at every width in
  :data:`WIDTHS`, on one warm :class:`WorkerPool` per width, so children
  carry state from one campaign's setup into the next;
* campaigns run in a seeded shuffled order, and seeded chaos ``sleep``
  actions on a few sites of each campaign scramble completion order.

Each campaign is compared, as a sha256 over its experiment records in
order, with a :class:`SerialExecutor` run of that campaign alone in its
own fresh interpreter. Digest equality alone is not enough: a shard
whose records come back out of site order is flagged corrupt, and
bisection heals it down to single-site shards that match. So every
pooled run must also finish with no quarantined site and no shard
failure at all.

Run one interpreter's share by hand from the repository root with
``PYTHONHASHSEED=7 PYTHONPATH=src python -m
tests.core.test_determinism_harness pooled 7`` (or ``serial gemm16-WS``);
each prints one JSON document.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import (
    Campaign,
    ConvWorkload,
    FillKind,
    GemmWorkload,
    ParallelExecutor,
    SerialExecutor,
)
from repro.core.chaos import ChaosAction, ChaosSpec
from repro.core.executor import WorkerPool
from repro.core.serialize import experiment_record
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.systolic import Dataflow, MeshConfig

from tests.core._support import REPO_ROOT

#: ``PYTHONHASHSEED`` of each pooled interpreter.
HASH_SEEDS = (1, 2, 7)

#: Pool widths each pooled interpreter runs the whole set at.
WIDTHS = (1, 2, 3)

#: Sites per campaign given a chaos ``sleep``, and its length. Long
#: enough that a later shard of the same campaign finishes first.
CHAOS_SITES = 3
CHAOS_SECONDS = 0.02

_MODULE = "tests.core.test_determinism_harness"


def campaign_set() -> dict:
    """The mixed set, by name: analytic 16x16 GEMM under every dataflow
    with patterns kept, an analytic conv without patterns, and a
    functional 8x8 GEMM tiled on a 4x4 mesh. Operands are random and
    every campaign has its own seed, so no two setups agree on them."""
    paper, small = MeshConfig.paper(), MeshConfig(rows=4, cols=4)
    random_fill = FillKind.RANDOM
    campaigns = {
        f"gemm16-{dataflow.name[0]}S": Campaign(
            paper,
            GemmWorkload(16, 16, 16, dataflow, fill=random_fill, seed=11 + i),
            engine="analytic",
            keep_patterns=True,
        )
        for i, dataflow in enumerate((
            Dataflow.OUTPUT_STATIONARY,
            Dataflow.WEIGHT_STATIONARY,
            Dataflow.INPUT_STATIONARY,
        ))
    }
    campaigns["conv8-WS"] = Campaign(
        paper,
        ConvWorkload(
            input_size=8, kernel_rows=3, kernel_cols=3, in_channels=4,
            out_channels=16, fill=random_fill, seed=21,
        ),
        engine="analytic",
        keep_patterns=False,
    )
    campaigns["gemm8-functional"] = Campaign(
        small,
        GemmWorkload(8, 8, 8, Dataflow.WEIGHT_STATIONARY,
                     fill=random_fill, seed=31),
        engine="functional",
    )
    return campaigns


def result_digest(result) -> str:
    """sha256 over the result's experiment records, in order."""
    digest = hashlib.sha256()
    for experiment in result.experiments:
        digest.update(
            json.dumps(experiment_record(experiment), sort_keys=True).encode()
        )
    return digest.hexdigest()


def chaos_for(campaign, rng: random.Random):
    """Persistent ``sleep`` actions on a few seeded sites."""
    sleep = ChaosAction("sleep", times=None, seconds=CHAOS_SECONDS)
    return ChaosSpec.build(
        {site: sleep for site in rng.sample(campaign.sites, CHAOS_SITES)}
    )


def run_serial(name: str) -> dict:
    """One campaign of the set, alone, on the serial reference path."""
    result = campaign_set()[name].run(SerialExecutor())
    return {"name": name, "digest": result_digest(result)}


def run_pooled(hash_seed: int) -> list[dict]:
    """The whole set at every width, one warm pool per width."""
    rows = []
    for jobs in WIDTHS:
        rng = random.Random(f"{hash_seed}:{jobs}")
        campaigns = sorted(campaign_set().items())
        rng.shuffle(campaigns)
        pool = WorkerPool(jobs)
        try:
            for name, campaign in campaigns:
                metrics = MetricsRegistry()
                result = campaign.run(ParallelExecutor(
                    jobs=jobs, pool=pool, chaos=chaos_for(campaign, rng),
                    obs=Observability(metrics=metrics),
                ))
                rows.append({
                    "name": name,
                    "jobs": jobs,
                    "digest": result_digest(result),
                    "failures": [failure.site for failure in result.failures],
                    "shard_failures": sum(
                        entry["value"]
                        for entry in metrics.snapshot()
                        if entry["name"] == "repro_shard_failures_total"
                    ),
                })
        finally:
            pool.stop()
    return rows


def _interpreter(*args: str, hash_seed: int = 0):
    """Run this module's ``__main__`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", _MODULE, *args],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def serial_digests() -> dict[str, str]:
    with ThreadPoolExecutor(max_workers=2) as threads:
        runs = threads.map(
            lambda name: _interpreter("serial", name), sorted(campaign_set())
        )
        return {run["name"]: run["digest"] for run in runs}


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_pooled_runs_match_serial(hash_seed, serial_digests):
    rows = _interpreter("pooled", str(hash_seed), hash_seed=hash_seed)
    assert len(rows) == len(WIDTHS) * len(serial_digests)
    for row in rows:
        where = f"{row['name']} at jobs={row['jobs']}, hash seed {hash_seed}"
        assert row["failures"] == [], f"quarantined sites in {where}"
        assert row["shard_failures"] == 0, f"shard failures in {where}"
        assert row["digest"] == serial_digests[row["name"]], (
            f"records differ from the serial run in {where}"
        )


if __name__ == "__main__":
    mode, arg = sys.argv[1:3]
    report = run_serial(arg) if mode == "serial" else run_pooled(int(arg))
    json.dump(report, sys.stdout)
