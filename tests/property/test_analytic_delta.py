"""Properties of the analytic delta algebra.

The cross-engine grid in ``tests/engines`` pins bit-identity on chosen
configurations; these properties let hypothesis roam the configuration
space — random shapes, seeds, sites, bits, polarities — and assert the
algebra's defining equations directly:

* the analytic delta equals ``functional_faulty - golden`` *exactly*
  (not approximately — the algebra is modular arithmetic, not an
  estimate);
* a fault on a MAC the workload never streams through produces a zero
  delta (architectural masking);
* every corrupted cell lies inside the dataflow's per-tile footprint
  (:func:`~repro.systolic.dataflow.site_tile_footprint`), which is the
  paper's pattern-class geometry.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import (
    ENGINES,
    Campaign,
    FaultSpec,
    FillKind,
    GemmWorkload,
)
from repro.core.classifier import PatternClass
from repro.faults.sites import MAC_SIGNALS, signal_dtype
from repro.systolic import Dataflow, MeshConfig
from repro.systolic.dataflow import site_tile_footprint

from tests.core._support import assert_experiments_equal

MESH = MeshConfig(rows=5, cols=5)

dims = st.integers(min_value=1, max_value=5)
long_dim = st.integers(min_value=1, max_value=9)
coords = st.integers(min_value=0, max_value=4)
seeds = st.integers(min_value=0, max_value=2**31)
dataflows = st.sampled_from(
    [
        Dataflow.OUTPUT_STATIONARY,
        Dataflow.WEIGHT_STATIONARY,
        Dataflow.INPUT_STATIONARY,
    ]
)


@st.composite
def fault_specs(draw):
    signal = draw(st.sampled_from(MAC_SIGNALS))
    bit = draw(
        st.integers(min_value=0, max_value=signal_dtype(signal).width - 1)
    )
    return FaultSpec(
        signal=signal, bit=bit, stuck_value=draw(st.sampled_from([0, 1]))
    )


def _campaign(m, k, n, dataflow, seed, spec, site, engine="analytic"):
    workload = GemmWorkload(
        m=m, k=k, n=n, dataflow=dataflow, fill=FillKind.RANDOM, seed=seed
    )
    return Campaign(
        MESH, workload, fault_spec=spec, engine=engine, sites=[site]
    )


@pytest.mark.parametrize("engine", ENGINES)
@settings(max_examples=80, deadline=None)
@given(
    m=dims,
    k=long_dim,
    n=dims,
    seed=seeds,
    dataflow=dataflows,
    spec=fault_specs(),
    row=coords,
    col=coords,
)
def test_delta_equals_functional_minus_golden(
    engine, m, k, n, seed, dataflow, spec, row, col
):
    """Every engine's ``run_batch`` is ``run_experiment`` per site, and
    its deviation is the faulty output minus the golden one."""
    campaign = _campaign(m, k, n, dataflow, seed, spec, (row, col), engine)
    golden, plan, geometry = campaign.golden_run()
    reference = campaign.run_experiment(row, col, golden, plan, geometry)
    batched = campaign.run_batch([(row, col)], golden, plan, geometry)
    assert len(batched) == 1
    assert_experiments_equal(reference, batched[0])
    # The defining identity, spelled out: golden + delta is the faulty
    # output a simulation computes, element for element.
    faulty, _, _ = campaign.run_single(spec.fault_at(row, col))
    assert np.array_equal(
        batched[0].pattern.deviation,
        faulty.astype(np.int64) - golden.astype(np.int64),
    )


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=4),
    k=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=1, max_value=4),
    seed=seeds,
    spec=fault_specs(),
    row=coords,
    col=coords,
)
def test_unstreamed_site_is_masked(m, k, n, seed, spec, row, col):
    """A MAC outside the workload's occupied mesh region deviates nothing.

    For an untiled OS GEMM the occupied region is ``m x n``; under WS it
    is every row of the first ``n`` columns (the partial-sum chain runs
    the full column). Sites beyond it must be MASKED with a zero delta.
    """
    os_campaign = _campaign(
        m, k, n, Dataflow.OUTPUT_STATIONARY, seed, spec, (row, col)
    )
    ws_campaign = _campaign(
        m, k, n, Dataflow.WEIGHT_STATIONARY, seed, spec, (row, col)
    )
    for campaign, masked in (
        (os_campaign, row >= m or col >= n),
        (ws_campaign, col >= n),
    ):
        if not masked:
            continue
        result = campaign.run().experiments[0]
        assert result.pattern_class is PatternClass.MASKED
        assert result.num_corrupted == 0
        assert not result.pattern.mask.any()


@settings(max_examples=60, deadline=None)
@given(
    m=dims,
    k=long_dim,
    n=dims,
    seed=seeds,
    dataflow=dataflows,
    spec=fault_specs(),
    row=coords,
    col=coords,
)
def test_corruption_stays_inside_the_tile_footprint(
    m, k, n, seed, dataflow, spec, row, col
):
    campaign = _campaign(m, k, n, dataflow, seed, spec, (row, col))
    result = campaign.run()
    experiment = result.experiments[0]
    mask = experiment.pattern.gemm_mask()
    footprint: set[tuple[int, int]] = set()
    for m_range, n_range in result.plan.output_tiles():
        for local_row, local_col in site_tile_footprint(
            dataflow, row, col, m_range.size, n_range.size
        ):
            footprint.add(
                (m_range.start + local_row, n_range.start + local_col)
            )
    corrupted = {
        (int(r), int(c)) for r, c in zip(*np.nonzero(mask))
    }
    assert corrupted <= footprint


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=5),
    seed=seeds,
    col=coords,
    row_a=coords,
    row_b=coords,
)
def test_ws_row_position_independence(n, seed, col, row_a, row_b):
    """Under WS the fault *row* never changes the pattern class.

    The partial-sum chain of a column traverses every mesh row, so two
    stuck-at faults in the same column — any rows — corrupt the same
    output column (the paper's position-independence observation). With
    all-ones operands and the paper's high stuck-at-1 bit, neither is
    maskable, so both classify identically.
    """
    workload = GemmWorkload(
        m=4, k=4, n=n, dataflow=Dataflow.WEIGHT_STATIONARY, seed=seed
    )
    campaign = Campaign(
        MESH,
        workload,
        engine="analytic",
        sites=[(row_a, col), (row_b, col)],
    )
    first, second = campaign.run().experiments
    assert first.pattern_class is second.pattern_class
    assert np.array_equal(first.pattern.mask, second.pattern.mask)
