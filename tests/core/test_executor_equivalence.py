"""Determinism-equivalence suite for the sharded campaign executor.

Property-style sweep over (dataflow x operation x worker count): whatever
the parallelism, a campaign's merged :class:`CampaignResult` must equal
the serial reference field-for-field — census, SDC rate, and per-site
pattern classes in canonical site order. Plus unit coverage for the
deterministic sharder, the golden cache, and the cross-process operand
regeneration contract.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.core import (
    GOLDEN_CACHE,
    Campaign,
    ConvWorkload,
    FillKind,
    GemmWorkload,
    ParallelExecutor,
    SerialExecutor,
    operand_seeds,
    shard_sites,
)
from repro.systolic import Dataflow, MeshConfig

from tests.core._support import (
    assert_campaigns_equivalent,
    assert_freed_on_drop,
    operand_digest,
)

MESH = MeshConfig(rows=4, cols=4)

#: The equivalence grid: every dataflow for (tiled) GEMM, plus conv under
#: both paper dataflows. Size 8 on the 4x4 mesh forces multi-tile classes,
#: the harder merge case.
WORKLOADS = {
    "gemm-OS": GemmWorkload.square(8, Dataflow.OUTPUT_STATIONARY),
    "gemm-WS": GemmWorkload.square(8, Dataflow.WEIGHT_STATIONARY),
    "gemm-IS": GemmWorkload.square(8, Dataflow.INPUT_STATIONARY),
    "conv-WS": ConvWorkload.paper_kernel(
        6, (3, 3, 2, 3), dataflow=Dataflow.WEIGHT_STATIONARY
    ),
    "conv-OS": ConvWorkload.paper_kernel(
        6, (3, 3, 2, 3), dataflow=Dataflow.OUTPUT_STATIONARY
    ),
}

_SERIAL_CACHE: dict[str, object] = {}


def serial_reference(name: str):
    """The serial-path result for one grid entry, computed once."""
    if name not in _SERIAL_CACHE:
        _SERIAL_CACHE[name] = Campaign(MESH, WORKLOADS[name]).run(
            SerialExecutor()
        )
    return _SERIAL_CACHE[name]


class TestParallelEqualsSerial:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_equivalence(self, name, jobs):
        campaign = Campaign(MESH, WORKLOADS[name])
        parallel = campaign.run(ParallelExecutor(jobs=jobs))
        assert_campaigns_equivalent(serial_reference(name), parallel)

    def test_default_run_is_the_serial_reference(self):
        result = Campaign(MESH, WORKLOADS["gemm-WS"]).run()
        assert_campaigns_equivalent(serial_reference("gemm-WS"), result)

    def test_equivalence_with_patterns_dropped(self):
        campaign = Campaign(MESH, WORKLOADS["gemm-OS"], keep_patterns=False)
        serial = campaign.run(SerialExecutor())
        parallel = campaign.run(ParallelExecutor(jobs=2))
        assert all(e.pattern is None for e in parallel.experiments)
        assert_campaigns_equivalent(serial, parallel)

    def test_equivalence_on_partial_site_list(self):
        sites = [(0, 0), (3, 1), (1, 2), (2, 3)]  # deliberately unsorted
        serial = Campaign(MESH, WORKLOADS["gemm-WS"], sites=sites).run()
        parallel = Campaign(MESH, WORKLOADS["gemm-WS"], sites=sites).run(
            ParallelExecutor(jobs=2)
        )
        assert [e.site for e in parallel.experiments] == [
            e.site for e in serial.experiments
        ]
        assert_campaigns_equivalent(serial, parallel)

    def test_dropping_the_result_frees_its_patterns(self):
        campaign = Campaign(MESH, WORKLOADS["gemm-WS"])
        assert_freed_on_drop(lambda: campaign.run(ParallelExecutor(jobs=2)))

    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            ParallelExecutor(jobs=0)
        with pytest.raises(ValueError, match="shards_per_worker"):
            ParallelExecutor(jobs=1, shards_per_worker=0)


class TestShardSites:
    SITES = [(r, c) for r in range(4) for c in range(4)]

    def test_preserves_order_and_coverage(self):
        shards = shard_sites(self.SITES, 3)
        flattened = [site for shard in shards for site in shard]
        assert flattened == self.SITES

    def test_balanced_within_one(self):
        sizes = [len(shard) for shard in shard_sites(self.SITES, 5)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == len(self.SITES)

    def test_deterministic(self):
        assert shard_sites(self.SITES, 7) == shard_sites(self.SITES, 7)

    def test_more_shards_than_sites(self):
        shards = shard_sites(self.SITES[:3], 16)
        assert shards == [[(0, 0)], [(0, 1)], [(0, 2)]]

    def test_single_site(self):
        assert shard_sites([(2, 3)], 1) == [[(2, 3)]]
        assert shard_sites([(2, 3)], 8) == [[(2, 3)]]

    def test_empty_and_invalid(self):
        assert shard_sites([], 4) == []
        with pytest.raises(ValueError):
            shard_sites(self.SITES, 0)


class TestGoldenCache:
    def test_golden_memoized_per_configuration(self):
        campaign = Campaign(MESH, GemmWorkload.square(4, Dataflow.OUTPUT_STATIONARY))
        first = GOLDEN_CACHE.golden_run(campaign)
        second = GOLDEN_CACHE.golden_run(campaign)
        assert first[0] is second[0]  # the very same array, not a recompute

    def test_cached_golden_is_read_only(self):
        campaign = Campaign(MESH, GemmWorkload.square(4, Dataflow.WEIGHT_STATIONARY))
        golden, _, _ = GOLDEN_CACHE.golden_run(campaign)
        with pytest.raises(ValueError):
            golden[0, 0] = 99

    def test_distinct_workloads_get_distinct_entries(self):
        GOLDEN_CACHE.clear()  # a full cache evicts one entry per miss
        GOLDEN_CACHE.golden_run(
            Campaign(MESH, GemmWorkload.square(4, Dataflow.WEIGHT_STATIONARY))
        )
        before = len(GOLDEN_CACHE)
        GOLDEN_CACHE.golden_run(
            Campaign(MESH, GemmWorkload.square(4, Dataflow.WEIGHT_STATIONARY, FillKind.RAMP))
        )
        assert len(GOLDEN_CACHE) == before + 1

    def test_reused_across_distinct_campaigns_with_identical_keys(self):
        # Two separate Campaign objects, same (workload, mesh, engine) key:
        # the second campaign must hit the first's cache entry, not add one.
        first = Campaign(MESH, GemmWorkload.square(4, Dataflow.INPUT_STATIONARY))
        second = Campaign(MESH, GemmWorkload.square(4, Dataflow.INPUT_STATIONARY))
        assert first is not second
        golden_a, plan_a, _ = GOLDEN_CACHE.golden_run(first)
        before = len(GOLDEN_CACHE)
        golden_b, plan_b, _ = GOLDEN_CACHE.golden_run(second)
        assert len(GOLDEN_CACHE) == before
        assert golden_a is golden_b  # shared array, not an equal recompute
        assert plan_a is plan_b


#: Pinned digests: any drift in operand generation (fill policies, the
#: seed-derivation rule) breaks cross-process determinism and must fail
#: loudly here.
PINNED_GEMM = GemmWorkload(
    m=8, k=8, n=8, dataflow=Dataflow.WEIGHT_STATIONARY,
    fill=FillKind.RANDOM, seed=7,
)
PINNED_GEMM_DIGEST = (
    "e7e57937894960508ef2c2af21f6938b565dd45c0f6e76a7a172adff4d4b1336"
)
PINNED_CONV = ConvWorkload(
    input_size=6, kernel_rows=3, kernel_cols=3, in_channels=2,
    out_channels=3, fill=FillKind.RANDOM, seed=7,
)
PINNED_CONV_DIGEST = (
    "00f705b5dd66190931f84e00b81ff9caaca3915c2d3f0c708e0b9caeeee4cf5f"
)


class TestOperandDeterminismAcrossProcesses:
    def test_operand_seeds_derivation(self):
        assert operand_seeds(0) == (0, 1)
        assert operand_seeds(41) == (41, 42)

    @pytest.mark.parametrize(
        "workload, pinned",
        [(PINNED_GEMM, PINNED_GEMM_DIGEST), (PINNED_CONV, PINNED_CONV_DIGEST)],
        ids=["gemm", "conv"],
    )
    def test_operand_bytes_pinned_across_processes(self, workload, pinned):
        assert operand_digest(workload) == pinned
        with ProcessPoolExecutor(max_workers=1) as pool:
            child_digest = pool.submit(operand_digest, workload).result()
        assert child_digest == pinned
