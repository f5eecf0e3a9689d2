"""Dtype closure of the analytic tier, end to end.

The delta tensors the analytic engine actually materialises —
kernel-level chain states, im2col gather indices' output, and every
campaign experiment's deviation — must be ``int64``. These tests check
that on the host they run on; they cannot see numpy's platform-default
int, which is int64 on 64-bit Linux but int32 on 32-bit platforms (and
on Windows before numpy 2). The static half of the contract is the
``array-dtype-closure`` lint rule
(:class:`repro.checks.rules.ArrayDtypeClosureRule`): every constructor
and reduction in the vectorised kernels names its dtype, so no width
falls back to that default on any host.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.campaign import (
    Campaign,
    ConvWorkload,
    FaultSpec,
    FillKind,
    GemmWorkload,
)
from repro.engines.analytic.algebra import (
    FaultLens,
    os_chain_tile,
    ws_chain_tile,
)
from repro.faults.sites import SIGNAL_SUM
from repro.ops.im2col import ConvGeometry, im2col
from repro.systolic import Dataflow, MeshConfig
from repro.systolic.datatypes import INT8, INT32

MESH = MeshConfig(rows=4, cols=4)

DATAFLOWS = (
    Dataflow.OUTPUT_STATIONARY,
    Dataflow.WEIGHT_STATIONARY,
    Dataflow.INPUT_STATIONARY,
)


def _lens() -> FaultLens:
    return FaultLens(
        signal=SIGNAL_SUM,
        bit=20,
        stuck=1,
        input_dtype=INT8,
        acc_dtype=INT32,
    )


class TestKernelDtypes:
    def test_os_chain_tile_returns_int64(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-128, 128, size=(4, 3), dtype=np.int64)
        b = rng.integers(-128, 128, size=(3, 4), dtype=np.int64)
        rows = np.array([0, 1], dtype=np.int64)
        cols = np.array([2, 3], dtype=np.int64)
        acc = np.zeros(2, dtype=np.int64)
        out = os_chain_tile(acc, a, b, rows, cols, _lens())
        assert out.dtype == np.int64

    def test_ws_chain_tile_returns_int64(self):
        rng = np.random.default_rng(7)
        a = rng.integers(-128, 128, size=(4, 3), dtype=np.int64)
        w = rng.integers(-128, 128, size=(3, 4), dtype=np.int64)
        rows = np.array([0, 1], dtype=np.int64)
        cols = np.array([2, 3], dtype=np.int64)
        state = np.zeros((4, 2), dtype=np.int64)
        out = ws_chain_tile(state, a, w, rows, cols, MESH.rows, _lens())
        assert out.dtype == np.int64

    def test_im2col_output_is_int64(self):
        geometry = ConvGeometry(n=1, c=2, h=4, w=4, k=3, r=2, s=2)
        rng = np.random.default_rng(7)
        inputs = rng.integers(-128, 128, size=(1, 2, 4, 4), dtype=np.int64)
        assert im2col(inputs, geometry).dtype == np.int64


class TestCampaignDeltaDtypes:
    """Every analytic experiment's deviation/mask, all dataflows + conv."""

    @pytest.mark.parametrize("dataflow", DATAFLOWS, ids=str)
    def test_gemm_deviation_is_int64(self, dataflow):
        workload = GemmWorkload(
            m=9, k=7, n=8, dataflow=dataflow, fill=FillKind.RANDOM, seed=3
        )
        self._assert_int64_deltas(workload)

    def test_conv_deviation_is_int64(self):
        workload = ConvWorkload(
            input_size=4,
            kernel_rows=2,
            kernel_cols=2,
            in_channels=2,
            out_channels=3,
            dataflow=Dataflow.WEIGHT_STATIONARY,
            fill=FillKind.RANDOM,
            seed=5,
        )
        self._assert_int64_deltas(workload)

    @staticmethod
    def _assert_int64_deltas(workload) -> None:
        result = Campaign(
            MESH, workload, fault_spec=FaultSpec(), engine="analytic"
        ).run()
        assert result.golden.dtype == np.int64
        experiments = list(result.experiments)
        assert experiments, "campaign produced no experiments"
        for experiment in experiments:
            pattern = experiment.pattern
            assert pattern is not None
            assert pattern.deviation.dtype == np.int64, experiment.site
            assert pattern.mask.dtype == np.bool_, experiment.site
