"""Unit tests for the analytical fault-pattern predictor."""

import numpy as np
import pytest

from repro.core.campaign import Campaign, ConvWorkload, GemmWorkload
from repro.core.classifier import PatternClass
from repro.core.predictor import predict_class, predict_classes, predict_pattern
from repro.core.sampling import paper_configurations
from repro.faults.sites import FaultSite
from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import plan_gemm_tiling
from repro.systolic import Dataflow, MeshConfig

MESH = MeshConfig(4, 4)


class TestOsPrediction:
    def test_untiled_single_element(self):
        plan = plan_gemm_tiling(4, 4, 4, MESH, Dataflow.OUTPUT_STATIONARY)
        pred = predict_pattern(FaultSite(1, 2), plan)
        assert pred.pattern_class is PatternClass.SINGLE_ELEMENT
        assert pred.num_cells == 1
        assert pred.support[1, 2]

    def test_tiled_multi_element(self):
        plan = plan_gemm_tiling(8, 8, 8, MESH, Dataflow.OUTPUT_STATIONARY)
        pred = predict_pattern(FaultSite(1, 2), plan)
        assert pred.pattern_class is PatternClass.SINGLE_ELEMENT_MULTI_TILE
        coords = set(zip(*np.where(pred.support)))
        assert coords == {(r, c) for r in (1, 5) for c in (2, 6)}

    def test_fault_outside_output_is_masked(self):
        plan = plan_gemm_tiling(2, 4, 2, MESH, Dataflow.OUTPUT_STATIONARY)
        pred = predict_pattern(FaultSite(3, 3), plan)
        assert pred.pattern_class is PatternClass.MASKED
        assert pred.num_cells == 0

    def test_ragged_edge_tiles(self):
        plan = plan_gemm_tiling(6, 4, 6, MESH, Dataflow.OUTPUT_STATIONARY)
        pred = predict_pattern(FaultSite(3, 3), plan)
        # mesh (3,3) only exists in the first (4-wide) tiles.
        assert set(zip(*np.where(pred.support))) == {(3, 3)}


class TestWsPrediction:
    def test_untiled_single_column(self):
        plan = plan_gemm_tiling(4, 4, 4, MESH, Dataflow.WEIGHT_STATIONARY)
        pred = predict_pattern(FaultSite(0, 2), plan)
        assert pred.pattern_class is PatternClass.SINGLE_COLUMN
        assert pred.support[:, 2].all()
        assert pred.num_cells == 4

    def test_row_position_is_irrelevant(self):
        plan = plan_gemm_tiling(4, 4, 4, MESH, Dataflow.WEIGHT_STATIONARY)
        by_row = [
            predict_pattern(FaultSite(r, 2), plan).support for r in range(4)
        ]
        for support in by_row[1:]:
            assert np.array_equal(support, by_row[0])

    def test_tiled_multi_column(self):
        plan = plan_gemm_tiling(8, 8, 8, MESH, Dataflow.WEIGHT_STATIONARY)
        pred = predict_pattern(FaultSite(0, 1), plan)
        assert pred.pattern_class is PatternClass.SINGLE_COLUMN_MULTI_TILE
        assert pred.support[:, 1].all() and pred.support[:, 5].all()
        assert pred.num_cells == 16

    def test_unused_column_is_masked(self):
        plan = plan_gemm_tiling(4, 4, 2, MESH, Dataflow.WEIGHT_STATIONARY)
        assert (
            predict_pattern(FaultSite(0, 3), plan).pattern_class
            is PatternClass.MASKED
        )


class TestConvPrediction:
    def test_single_channel(self):
        g = ConvGeometry(n=1, c=2, h=6, w=6, k=3, r=3, s=3)
        plan = plan_gemm_tiling(g.gemm_m, g.gemm_k, g.gemm_n, MESH,
                                Dataflow.WEIGHT_STATIONARY)
        pred = predict_pattern(FaultSite(0, 1), plan, geometry=g)
        assert pred.pattern_class is PatternClass.SINGLE_CHANNEL
        assert pred.channels == (1,)
        conv_support = pred.conv_support(g)
        assert conv_support.shape == (1, 3, 4, 4)
        assert conv_support[:, 1].all()

    def test_multi_channel(self):
        g = ConvGeometry(n=1, c=2, h=6, w=6, k=6, r=3, s=3)
        plan = plan_gemm_tiling(g.gemm_m, g.gemm_k, g.gemm_n, MESH,
                                Dataflow.WEIGHT_STATIONARY)
        pred = predict_pattern(FaultSite(2, 0), plan, geometry=g)
        assert pred.pattern_class is PatternClass.MULTI_CHANNEL
        assert pred.channels == (0, 4)

    def test_predict_class_shortcut(self):
        g = ConvGeometry(n=1, c=2, h=6, w=6, k=3, r=3, s=3)
        plan = plan_gemm_tiling(g.gemm_m, g.gemm_k, g.gemm_n, MESH,
                                Dataflow.WEIGHT_STATIONARY)
        assert predict_class(FaultSite(0, 0), plan, geometry=g) is (
            PatternClass.SINGLE_CHANNEL
        )


class TestPredictorVsSimulation:
    """With ones operands + disagreeing stuck bit, prediction is exact."""

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    @pytest.mark.parametrize("size", [4, 7, 10])
    def test_gemm_exact_agreement(self, dataflow, size):
        campaign = Campaign(MESH, GemmWorkload.square(size, dataflow))
        result = campaign.run()
        for experiment in result.experiments:
            pred = predict_pattern(experiment.site, result.plan)
            assert pred.pattern_class is experiment.pattern_class, experiment.site
            assert np.array_equal(
                pred.support, experiment.pattern.gemm_mask()
            ), experiment.site

    def test_conv_exact_agreement(self):
        campaign = Campaign(MESH, ConvWorkload.paper_kernel(6, (3, 3, 2, 6)))
        result = campaign.run()
        for experiment in result.experiments:
            pred = predict_pattern(
                experiment.site, result.plan, geometry=result.geometry
            )
            assert pred.pattern_class is experiment.pattern_class
            assert pred.channels == experiment.classification.corrupted_channels


def _table_one_plans():
    """(plan, geometry) of every unique Table I configuration on the
    paper's 16x16 mesh."""
    seen = {}
    for workloads in paper_configurations().values():
        for workload in workloads:
            if workload.describe() not in seen:
                _, plan, geometry = Campaign(
                    MeshConfig.paper(), workload
                ).golden_run()
                seen[workload.describe()] = (plan, geometry)
    return list(seen.values())


class TestBatchedPrediction:
    """``predict_classes`` is ``predict_class`` over many sites at once."""

    @staticmethod
    def _assert_batch_matches(plan, geometry, mesh):
        sites = [
            FaultSite(row, col)
            for row in range(mesh.rows)
            for col in range(mesh.cols)
        ]
        assert predict_classes(sites, plan, geometry=geometry) == [
            predict_class(site, plan, geometry=geometry) for site in sites
        ]

    def test_table_one_grid(self):
        for plan, geometry in _table_one_plans():
            self._assert_batch_matches(plan, geometry, MeshConfig.paper())

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    @pytest.mark.parametrize("dims", [(6, 5, 7), (1, 3, 9), (9, 2, 1), (13, 8, 10)])
    def test_ragged_plans(self, dataflow, dims):
        plan = plan_gemm_tiling(*dims, MESH, dataflow)
        self._assert_batch_matches(plan, None, MESH)

    @pytest.mark.parametrize("dataflow", list(Dataflow))
    def test_ragged_conv(self, dataflow):
        g = ConvGeometry(n=1, c=2, h=7, w=6, k=6, r=3, s=2)
        plan = plan_gemm_tiling(g.gemm_m, g.gemm_k, g.gemm_n, MESH, dataflow)
        self._assert_batch_matches(plan, g, MESH)

    def test_empty_batch(self):
        plan = plan_gemm_tiling(4, 4, 4, MESH, Dataflow.WEIGHT_STATIONARY)
        assert predict_classes([], plan) == []
