"""Sparse fault patterns: cells in, the same dense views out.

A :class:`FaultPattern` keeps only its corrupted cells (ascending flat
output indices plus deviations) and builds ``mask``/``deviation`` on
first access. These tests pin that every engine's patterns densify to
exactly the plain ``faulty - golden`` diff, that the record codec writes
the same cell table as the per-cell loop, and that the cell queries
agree with their dense definitions.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.campaign import Campaign, ConvWorkload, FillKind, GemmWorkload
from repro.core.classifier import classify_mask, classify_pattern
from repro.core.fault_patterns import FaultPattern, extract_pattern
from repro.core.serialize import experiment_record
from repro.core.study import run_paper_study
from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import plan_gemm_tiling
from repro.systolic import Dataflow, MeshConfig

from tests.core.test_serialize import loop_record

MESH = MeshConfig(4, 4)
SITES = [(0, 0), (1, 2), (2, 1), (3, 3)]

WORKLOADS = {
    "gemm-os": GemmWorkload(
        6, 5, 7, Dataflow.OUTPUT_STATIONARY, fill=FillKind.RANDOM, seed=3
    ),
    "gemm-ws": GemmWorkload(
        6, 5, 7, Dataflow.WEIGHT_STATIONARY, fill=FillKind.RANDOM, seed=4
    ),
    "gemm-is": GemmWorkload(
        6, 5, 7, Dataflow.INPUT_STATIONARY, fill=FillKind.RANDOM, seed=5
    ),
    "conv": ConvWorkload(
        input_size=5,
        kernel_rows=2,
        kernel_cols=2,
        in_channels=2,
        out_channels=6,
        dataflow=Dataflow.WEIGHT_STATIONARY,
        fill=FillKind.RANDOM,
        seed=6,
    ),
}


@pytest.mark.parametrize("engine", ["cycle", "functional", "analytic"])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_engine_patterns_densify_to_the_plain_diff(engine, name):
    campaign = Campaign(MESH, WORKLOADS[name], sites=SITES, engine=engine)
    result = campaign.run()
    assert any(e.sdc for e in result.experiments)
    golden = result.golden
    for experiment in result.experiments:
        site = experiment.site
        faulty, _, _ = campaign.run_single(
            campaign.fault_spec.fault_at(site.row, site.col)
        )
        want = faulty.astype(np.int64) - golden.astype(np.int64)
        pattern = experiment.pattern
        assert pattern.deviation.dtype == np.int64
        assert pattern.deviation.shape == golden.shape
        assert np.array_equal(pattern.deviation, want)
        assert pattern.mask.dtype == np.bool_
        assert np.array_equal(pattern.mask, want != 0)
        assert json.dumps(experiment_record(experiment)) == json.dumps(
            loop_record(experiment)
        )


def test_analytic_study_never_densifies():
    report = run_paper_study(engine="analytic")
    patterns = [
        e.pattern for entry in report.entries for e in entry.result.experiments
    ]
    assert patterns and all(p is not None for p in patterns)
    dense = [p for p in patterns if {"mask", "deviation"} & vars(p).keys()]
    assert not dense


class TestConstructor:
    @pytest.mark.parametrize(
        "index, values",
        [
            ([2, 1], [1, 1]),  # descending
            ([1, 1], [1, 1]),  # a repeated cell
            ([1, 2], [1, 0]),  # a zero deviation is no corruption
            ([1, 2], [1]),  # one deviation short
            ([[1, 2]], [[1, 1]]),  # not flat
        ],
    )
    def test_malformed_cells_rejected(self, index, values):
        with pytest.raises(ValueError):
            FaultPattern((2, 2), index, values)

    def test_dense_views_are_built_once_on_demand(self):
        pattern = FaultPattern((2, 3), [1, 5], [-4, 9])
        assert not {"mask", "deviation"} & vars(pattern).keys()
        assert pattern.deviation.tolist() == [[0, -4, 0], [0, 0, 9]]
        assert pattern.mask.tolist() == [[False, True, False]] + [
            [False, False, True]
        ]
        assert pattern.mask is pattern.mask
        assert pattern.deviation is pattern.deviation
        assert pattern.num_corrupted == 2
        assert pattern.max_abs_deviation == 9
        assert pattern.corruption_rate == 2 / 6


class TestCellQueriesMatchDense:
    """The cell queries against their dense definitions, on a conv
    pattern whose output order and GEMM order differ (two images,
    several channels)."""

    @pytest.fixture
    def conv(self):
        g = ConvGeometry(n=2, c=1, h=4, w=4, k=3, r=2, s=2)
        plan = plan_gemm_tiling(g.gemm_m, g.gemm_k, g.gemm_n, MESH,
                                Dataflow.WEIGHT_STATIONARY)
        rng = np.random.default_rng(7)
        deviation = rng.integers(-3, 4, size=(g.n, g.k, g.p, g.q))
        deviation[:, 1] = 0
        golden = rng.integers(-50, 50, size=deviation.shape)
        return extract_pattern(golden, golden + deviation, plan, g), deviation

    def test_gemm_space_queries(self, conv):
        pattern, deviation = conv
        gemm = (deviation != 0).transpose(0, 2, 3, 1).reshape(-1, 3)
        rows, cols = np.where(gemm)
        assert pattern.corrupted_cells() == list(
            zip(rows.tolist(), cols.tolist())
        )
        assert np.array_equal(pattern.gemm_mask(), gemm)
        assert pattern.corrupted_rows() == tuple(sorted(set(rows.tolist())))
        assert pattern.corrupted_columns() == (0, 2)
        assert pattern.corrupted_channels() == (0, 2)
        assert np.array_equal(pattern.deviation, deviation)
        assert classify_pattern(pattern).corrupted_channels == (0, 2)

    def test_gemm_classification_reads_the_cells(self):
        plan = plan_gemm_tiling(8, 4, 8, MESH, Dataflow.WEIGHT_STATIONARY)
        golden = np.zeros((8, 8), dtype=np.int64)
        faulty = golden.copy()
        faulty[:, [1, 5]] = 3
        pattern = extract_pattern(golden, faulty, plan)
        assert classify_pattern(pattern) == classify_mask(faulty != 0, plan)
        assert not {"mask", "deviation"} & vars(pattern).keys()
