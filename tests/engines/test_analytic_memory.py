"""The analytic engine's memory follows the corrupted cells.

The engine emits each site's corrupted cells as flat arrays and never
builds a dense ``(sites, M, N)`` deviation stack. On the paper's
exhaustive 112x112 WS GEMM (256 sites, 784 corrupted cells each) that
stack alone would take 256 x 112 x 112 x 8 B, about 25.7 MB. Without
kept patterns the whole campaign's traced peak must stay well below it.

Kept patterns are sparse too: each holds its cells' flat indices and
deviations, 16 B a cell, where a dense int64 deviation plus a bool mask
would take 9 B per output element (about 28.9 MB for the 256 sites).

A batch whose sites could corrupt more cells than the engine's fixed
budget runs in chunks of mesh columns, each dropped before the next is
built: the paper's largest configuration, Conv 112 3x3x3x8 WS, then
peaks at a fraction of its 1.55 M corrupted cells, and the chunked
records equal the one-chunk ones.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.core.campaign import (
    Campaign,
    ConvWorkload,
    FaultSpec,
    FillKind,
    GemmWorkload,
)
from repro.core.executor import (
    GOLDEN_CACHE,
    ParallelExecutor,
    SerialExecutor,
    _ShardIngest,
)
from repro.engines.analytic import engine
from repro.obs.trace import TraceRecorder
from repro.systolic import Dataflow, MeshConfig

from tests.core._support import assert_experiments_equal
from tests.engines.test_analytic_fallback import SPEC as BRIDGED_SPEC

DATAFLOWS = (
    Dataflow.OUTPUT_STATIONARY,
    Dataflow.WEIGHT_STATIONARY,
    Dataflow.INPUT_STATIONARY,
)


def test_ws_112_campaign_peak_stays_below_the_dense_stack():
    mesh = MeshConfig.paper()
    campaign = Campaign(
        mesh,
        GemmWorkload.square(112, Dataflow.WEIGHT_STATIONARY),
        engine="analytic",
        keep_patterns=False,
    )
    dense_stack_bytes = mesh.num_macs * 112 * 112 * 8
    tracemalloc.start()
    try:
        result = campaign.run(SerialExecutor())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [e.num_corrupted for e in result.experiments] == [784] * 256
    # The cells and the classifier's per-cell keys take ~18 MB; one
    # dense int64 stack on top of them would exceed the stack's own size.
    assert peak < 0.75 * dense_stack_bytes


def test_ws_112_kept_patterns_hold_their_cells_not_the_output():
    mesh = MeshConfig.paper()
    campaign = Campaign(
        mesh,
        GemmWorkload.square(112, Dataflow.WEIGHT_STATIONARY),
        engine="analytic",
    )
    dense_patterns_bytes = mesh.num_macs * 112 * 112 * (8 + 1)
    tracemalloc.start()
    try:
        result = campaign.run(SerialExecutor())
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    patterns = [e.pattern for e in result.experiments]
    assert [p.num_corrupted for p in patterns] == [784] * 256
    # 256 x 784 cells at 16 B are ~3.2 MB; the golden output and the
    # result's other fields take the rest.
    assert retained < 0.25 * dense_patterns_bytes
    assert not any({"mask", "deviation"} & vars(p).keys() for p in patterns)


def test_conv_112_kept_patterns_peak_stays_under_budget():
    campaign = Campaign(
        MeshConfig.paper(),
        ConvWorkload.paper_kernel(
            112, (3, 3, 3, 8), Dataflow.WEIGHT_STATIONARY
        ),
        engine="analytic",
    )
    GOLDEN_CACHE.golden_run(campaign)
    tracemalloc.start()
    try:
        entry, _ = tracemalloc.get_traced_memory()
        result = campaign.run(SerialExecutor())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    cells = sum(e.num_corrupted for e in result.experiments)
    assert cells == 128 * 12_100
    # The kept patterns hold ~25 MB of cells; one chunk's cells and the
    # WS kernel's temporaries come on top. Unchunked, the batch's cell
    # arrays and their concatenation took ~109 MB above entry.
    assert peak - entry < 64 * 2**20


def _workload(kind: str, dataflow: Dataflow):
    if kind == "gemm":
        # Ragged multi-tile on the 4x4 mesh: trailing tiles of 1 row,
        # 3 reductions and 2 columns.
        return GemmWorkload(
            m=9, k=7, n=10, dataflow=dataflow, fill=FillKind.RANDOM, seed=3
        )
    return ConvWorkload(
        input_size=5,
        kernel_rows=2,
        kernel_cols=2,
        in_channels=2,
        out_channels=3,
        dataflow=dataflow,
        fill=FillKind.RANDOM,
        seed=5,
    )


def _evaluate(campaign: Campaign) -> tuple[list, dict]:
    """Every site's record, and the ``experiment.batch`` span's args."""
    golden, plan, geometry = GOLDEN_CACHE.golden_run(campaign)
    recorder = TraceRecorder()
    results = engine.evaluate_batch(
        campaign, campaign.sites, golden, plan, geometry, recorder=recorder
    )
    (span,) = [e for e in recorder.events() if e["name"] == "experiment.batch"]
    return results, span["args"]


@pytest.mark.parametrize("keep_patterns", [True, False])
@pytest.mark.parametrize(
    "spec", [FaultSpec(), BRIDGED_SPEC], ids=["stuck", "mixed"]
)
@pytest.mark.parametrize("kind", ["gemm", "conv"])
@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_chunked_records_equal_one_chunk(
    monkeypatch, dataflow, kind, spec, keep_patterns
):
    campaign = Campaign(
        MeshConfig(rows=4, cols=4),
        _workload(kind, dataflow),
        fault_spec=spec,
        engine="analytic",
        keep_patterns=keep_patterns,
    )
    whole, whole_args = _evaluate(campaign)
    # A budget of one cell puts every site that can corrupt a cell in a
    # chunk of its own, so every mesh column splits.
    monkeypatch.setattr(engine, "_CHUNK_CELLS", 1)
    chunked, chunked_args = _evaluate(campaign)
    assert whole_args["chunks"] == 1
    assert chunked_args["sites"] == whole_args["sites"]
    assert chunked_args["chunks"] > campaign.mesh.cols
    assert len(chunked) == len(whole) == len(campaign.sites)
    for left, right in zip(whole, chunked):
        assert_experiments_equal(left, right)
    assert sum(e.num_corrupted for e in whole) > 0


def test_chunks_hold_whole_columns_where_they_fit(monkeypatch):
    plan = GOLDEN_CACHE.golden_run(
        Campaign(
            MeshConfig(rows=4, cols=4),
            GemmWorkload(m=6, k=4, n=3, dataflow=Dataflow.WEIGHT_STATIONARY),
            engine="analytic",
        )
    )[1]
    # Sites corrupt at most 6 cells (one output column) and only in mesh
    # columns 0-2: a column of four weighs 24, column 3 weighs nothing.
    sites = [(row, col) for row in range(4) for col in range(4)]
    supported = list(range(100, 116))
    monkeypatch.setattr(engine, "_CHUNK_CELLS", 96)
    assert engine._chunks(plan.dataflow, plan, supported, sites) == [supported]
    monkeypatch.setattr(engine, "_CHUNK_CELLS", 50)
    column = [[100 + 4 * row + col for row in range(4)] for col in range(4)]
    assert engine._chunks(plan.dataflow, plan, supported, sites) == [
        column[0] + column[1],
        column[2] + column[3],
    ]
    monkeypatch.setattr(engine, "_CHUNK_CELLS", 13)
    assert engine._chunks(plan.dataflow, plan, supported, sites) == [
        column[0][:2],
        column[0][2:],
        column[1][:2],
        column[1][2:],
        column[2][:2],
        column[2][2:] + column[3],
    ]


@pytest.mark.parametrize(
    "dataflow, column_major",
    [
        (Dataflow.WEIGHT_STATIONARY, True),
        (Dataflow.INPUT_STATIONARY, True),
        (Dataflow.OUTPUT_STATIONARY, False),
    ],
)
def test_analytic_shards_hold_whole_mesh_columns(dataflow, column_major):
    campaign = Campaign(
        MeshConfig(rows=4, cols=4),
        GemmWorkload.square(8, dataflow),
        engine="analytic",
    )
    golden, plan, geometry = GOLDEN_CACHE.golden_run(campaign)
    ingest = _ShardIngest(
        ParallelExecutor(jobs=2), campaign, golden, plan, geometry,
        list(campaign.sites), stream=None, lease_seconds=None,
    )
    shards = [task.sites for task in ingest.queue]
    # 16 sites at 8 sites a shard: two shards of two columns, or of two
    # rows when the order stays row-major.
    axis = 1 if column_major else 0
    assert [sorted({site[axis] for site in shard}) for shard in shards] == [
        [0, 1],
        [2, 3],
    ]
