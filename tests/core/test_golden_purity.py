"""Golden purity: fault state never reaches a golden run.

Every pattern the paper classifies is a difference against a fault-free
golden run, so the golden output has to be the true product even when
faulty runs have already happened in the same process. For every engine
x dataflow x operation, the golden run must equal the plain numpy
reference on the workload's operands, and stay bit-identical after a
faulty :meth:`Campaign.run_batch` over every site for each MAC signal.
The golden runs here call :meth:`Campaign.golden_run` directly, so no
cached array can hide a recomputed one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import Campaign, ConvWorkload, FaultSpec, FillKind, GemmWorkload
from repro.core.campaign import ENGINES
from repro.faults.sites import MAC_SIGNALS, signal_dtype
from repro.ops.reference import reference_conv2d, reference_gemm
from repro.systolic import Dataflow, MeshConfig

#: The cycle engine simulates every cycle of every tile; its mesh stays
#: small. Neither mesh divides the workloads, so every run is tiled.
MESHES = {
    "cycle": MeshConfig(rows=3, cols=3),
    "functional": MeshConfig(rows=4, cols=4),
    "analytic": MeshConfig(rows=4, cols=4),
}

DATAFLOWS = (
    Dataflow.OUTPUT_STATIONARY,
    Dataflow.WEIGHT_STATIONARY,
    Dataflow.INPUT_STATIONARY,
)


def workload_for(op: str, dataflow: Dataflow):
    if op == "gemm":
        return GemmWorkload(
            5, 6, 7, dataflow, fill=FillKind.RANDOM, seed=3
        )
    return ConvWorkload(
        input_size=5, kernel_rows=2, kernel_cols=2, in_channels=2,
        out_channels=5, dataflow=dataflow, fill=FillKind.RANDOM, seed=4,
    )


def reference_for(workload) -> np.ndarray:
    operands = workload.operands()
    if isinstance(workload, GemmWorkload):
        return reference_gemm(*operands)
    return reference_conv2d(
        *operands, stride=workload.stride, padding=workload.padding
    )


def fault_spec_for(signal: str) -> FaultSpec:
    """A stuck-at-1 on a high non-sign bit of ``signal``."""
    return FaultSpec(signal=signal, bit=signal_dtype(signal).width - 2)


@pytest.mark.parametrize("op", ["gemm", "conv"])
@pytest.mark.parametrize("dataflow", DATAFLOWS, ids=lambda d: d.name)
@pytest.mark.parametrize("engine", ENGINES)
def test_golden_run_is_the_reference_before_and_after_faulty_runs(
    engine, dataflow, op
):
    mesh, workload = MESHES[engine], workload_for(op, dataflow)
    campaign = Campaign(mesh, workload, engine=engine)
    golden, plan, geometry = campaign.golden_run()
    assert np.array_equal(golden, reference_for(workload)), (
        "golden run differs from the numpy reference"
    )
    faulty = [
        Campaign(mesh, workload, fault_spec_for(signal), engine=engine)
        for signal in MAC_SIGNALS
    ]
    for run in faulty:
        experiments = run.run_batch(run.sites, golden, plan, geometry)
        assert any(e.sdc for e in experiments)
    for run in (campaign, *faulty):
        again, again_plan, again_geometry = run.golden_run()
        assert np.array_equal(again, golden), (
            "golden run changed after faulty runs in the same process"
        )
        assert again.dtype == golden.dtype
        assert (again_plan, again_geometry) == (plan, geometry)
