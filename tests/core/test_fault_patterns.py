"""Unit tests for fault-pattern extraction and queries."""

import numpy as np
import pytest

from repro.core.fault_patterns import FaultPattern, extract_pattern
from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import plan_gemm_tiling
from repro.systolic import Dataflow, MeshConfig


def _plan(m, k, n, dataflow=Dataflow.WEIGHT_STATIONARY, mesh=None):
    return plan_gemm_tiling(m, k, n, mesh or MeshConfig(4, 4), dataflow)


class TestExtraction:
    def test_identical_outputs_are_masked(self):
        golden = np.arange(12).reshape(3, 4)
        pattern = extract_pattern(golden, golden.copy(), plan=_plan(3, 4, 4))
        assert not pattern.corrupted
        assert pattern.num_corrupted == 0
        assert pattern.corruption_rate == 0.0
        assert pattern.max_abs_deviation == 0

    def test_diff_positions_and_magnitude(self):
        golden = np.zeros((3, 4), dtype=np.int64)
        faulty = golden.copy()
        faulty[1, 2] = 7
        faulty[2, 0] = -3
        pattern = extract_pattern(golden, faulty, plan=_plan(3, 4, 4))
        assert pattern.num_corrupted == 2
        assert pattern.corrupted_cells() == [(1, 2), (2, 0)]
        assert pattern.max_abs_deviation == 7
        assert pattern.deviation[1, 2] == 7
        assert pattern.deviation[2, 0] == -3

    def test_rows_and_columns(self):
        golden = np.zeros((4, 4), dtype=np.int64)
        faulty = golden.copy()
        faulty[:, 2] = 5
        pattern = extract_pattern(golden, faulty, plan=_plan(4, 4, 4))
        assert pattern.corrupted_columns() == (2,)
        assert pattern.corrupted_rows() == (0, 1, 2, 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            extract_pattern(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_cell_outside_shape_rejected(self):
        for index in ([-1], [4], [0, 9]):
            with pytest.raises(ValueError, match="outside"):
                FaultPattern((2, 2), index, np.ones(len(index), dtype=np.int64))


class TestConvPatterns:
    def _conv_pattern(self):
        g = ConvGeometry(n=1, c=1, h=5, w=5, k=3, r=2, s=2)
        golden = np.zeros((1, 3, 4, 4), dtype=np.int64)
        faulty = golden.copy()
        faulty[0, 1] = 9  # corrupt the whole of channel 1
        plan = _plan(g.gemm_m, g.gemm_k, g.gemm_n)
        return extract_pattern(golden, faulty, plan=plan, geometry=g), g

    def test_is_conv(self):
        pattern, _ = self._conv_pattern()
        assert pattern.is_conv

    def test_corrupted_channels(self):
        pattern, _ = self._conv_pattern()
        assert pattern.corrupted_channels() == (1,)

    def test_channel_mask(self):
        pattern, _ = self._conv_pattern()
        assert pattern.channel_mask(1).all()
        assert not pattern.channel_mask(0).any()

    def test_gemm_view_maps_channel_to_column(self):
        pattern, g = self._conv_pattern()
        gemm = pattern.gemm_mask()
        assert gemm.shape == (g.gemm_m, g.k)
        assert gemm[:, 1].all()
        assert not gemm[:, [0, 2]].any()

    def test_channel_queries_require_conv(self):
        pattern = extract_pattern(
            np.zeros((2, 2)), np.zeros((2, 2)), plan=_plan(2, 2, 2)
        )
        with pytest.raises(ValueError):
            pattern.corrupted_channels()
        with pytest.raises(ValueError):
            pattern.channel_mask(0)
