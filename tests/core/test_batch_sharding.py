"""Sharding granularity for batched engine tiers.

:func:`shard_sites` grew a ``min_batch`` floor so the analytic tier's
shards stay large enough to amortise the closed-form setup cost (one
shard of eight sites beats eight shards of one by roughly the batch
width). These tests pin the floor's arithmetic and prove that both shard
queues — the pool dispatcher's and the fabric coordinator's — cut at the
campaign's per-engine ``min_shard_sites``.
"""

from __future__ import annotations

import pytest

from repro.core.campaign import ENGINES, Campaign, GemmWorkload
from repro.core.executor import ParallelExecutor, shard_sites
from repro.core.executor import _ShardDispatcher
from repro.core.fabric import DistributedExecutor
from repro.core.fabric.coordinator import Coordinator
from repro.systolic import Dataflow, MeshConfig

SITES_256 = [(r, c) for r in range(16) for c in range(16)]


class TestMinBatchFloor:
    def test_exhaustive_paper_mesh_lands_on_the_floor(self):
        shards = shard_sites(SITES_256, 32, min_batch=8)
        assert len(shards) == 32
        assert all(len(shard) == 8 for shard in shards)

    def test_floor_lowers_the_shard_count(self):
        # 20 sites over 16 requested shards would mean mostly 1-site
        # shards; the floor of 8 collapses that to 2 shards of 10.
        shards = shard_sites(SITES_256[:20], 16, min_batch=8)
        assert [len(shard) for shard in shards] == [10, 10]

    def test_small_site_list_becomes_one_shard(self):
        shards = shard_sites(SITES_256[:5], 16, min_batch=8)
        assert [len(shard) for shard in shards] == [5]

    def test_default_min_batch_is_unchanged(self):
        shards = shard_sites(SITES_256[:20], 16)
        assert len(shards) == 16
        sizes = [len(shard) for shard in shards]
        assert max(sizes) - min(sizes) <= 1

    def test_order_preserving_concatenation(self):
        for min_batch in (1, 8):
            shards = shard_sites(SITES_256, 32, min_batch=min_batch)
            flat = [site for shard in shards for site in shard]
            assert flat == SITES_256

    def test_determinism(self):
        assert shard_sites(SITES_256, 32, min_batch=8) == shard_sites(
            SITES_256, 32, min_batch=8
        )

    @pytest.mark.parametrize("min_batch", (0, -3))
    def test_invalid_min_batch_raises(self, min_batch):
        with pytest.raises(ValueError, match="min_batch"):
            shard_sites(SITES_256, 4, min_batch=min_batch)

    def test_empty_sites(self):
        assert shard_sites([], 4, min_batch=8) == []


class TestDispatcherGranularity:
    """The shard queues read the floor off ``campaign.min_shard_sites``.

    Constructing :class:`_ShardDispatcher` or :class:`Coordinator`
    directly builds the task queue without starting a worker pool or a
    server, so the granularity decision is observable in isolation.
    """

    MESH = MeshConfig(rows=4, cols=4)

    def _campaign(self, engine: str) -> Campaign:
        workload = GemmWorkload.square(4, Dataflow.WEIGHT_STATIONARY)
        return Campaign(self.MESH, workload, engine=engine)

    def _queue_sizes(self, campaign: Campaign, owner=_ShardDispatcher):
        executor = (
            ParallelExecutor(jobs=4)
            if owner is _ShardDispatcher
            else DistributedExecutor(expected_workers=4)
        )
        golden, plan, geometry = campaign.golden_run()
        queue_owner = owner(
            executor,
            campaign,
            golden,
            plan,
            geometry,
            list(campaign.sites),
            stream=None,
        )
        return [len(task.sites) for task in queue_owner.queue]

    def test_min_shard_sites_per_engine(self):
        floors = {
            engine: self._campaign(engine).min_shard_sites
            for engine in ENGINES
        }
        assert floors == {"functional": 1, "cycle": 1, "analytic": 8}

    def test_analytic_campaign_gets_batched_shards(self):
        campaign = self._campaign("analytic")
        assert self._queue_sizes(campaign) == [
            campaign.min_shard_sites,
            campaign.min_shard_sites,
        ]

    def test_functional_campaign_keeps_per_site_shards(self):
        campaign = self._campaign("functional")
        assert self._queue_sizes(campaign) == [1] * self.MESH.num_macs

    @pytest.mark.parametrize("engine", ENGINES)
    def test_coordinator_queue_matches_the_dispatcher(self, engine):
        campaign = self._campaign(engine)
        expected = [campaign.min_shard_sites] * (
            self.MESH.num_macs // campaign.min_shard_sites
        )
        assert self._queue_sizes(campaign) == expected
        assert self._queue_sizes(campaign, owner=Coordinator) == expected
