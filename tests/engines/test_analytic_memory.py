"""The analytic engine's memory follows the corrupted cells.

The engine emits each site's corrupted cells as flat arrays and never
builds a dense ``(sites, M, N)`` deviation stack. On the paper's
exhaustive 112x112 WS GEMM (256 sites, 784 corrupted cells each) that
stack alone would take 256 x 112 x 112 x 8 B, about 25.7 MB. Without
kept patterns the whole campaign's traced peak must stay well below it.

Kept patterns are sparse too: each holds its cells' flat indices and
deviations, 16 B a cell, where a dense int64 deviation plus a bool mask
would take 9 B per output element (about 28.9 MB for the 256 sites).
"""

from __future__ import annotations

import tracemalloc

from repro.core.campaign import Campaign, GemmWorkload
from repro.core.executor import SerialExecutor
from repro.systolic import Dataflow, MeshConfig


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
