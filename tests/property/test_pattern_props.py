"""Property-based tests for the pattern pipeline (predict/classify/extract).

These encode the paper's determinism and position-independence claims as
universally-quantified properties over fault sites and workload shapes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.campaign import Campaign, FaultSpec, GemmWorkload
from repro.core.classifier import (
    Classification,
    PatternClass,
    classify_batch,
    classify_cells,
    classify_pattern,
)
from repro.core.fault_patterns import extract_pattern
from repro.core.predictor import predict_pattern
from repro.faults import FaultInjector, FaultSite
from repro.ops.gemm import TiledGemm
from repro.ops.reference import reference_gemm
from repro.ops.tiling import TilingPlan, plan_gemm_tiling
from repro.systolic import Dataflow, FunctionalSimulator, MeshConfig

MESH = MeshConfig(4, 4)

dims = st.integers(min_value=1, max_value=12)
coords = st.integers(min_value=0, max_value=3)
dataflows = st.sampled_from(list(Dataflow))
seeds = st.integers(min_value=0, max_value=2**31)


@settings(max_examples=80, deadline=None)
@given(m=dims, k=dims, n=dims, row=coords, col=coords, dataflow=dataflows)
def test_predicted_support_contains_observed_corruption(
    m, k, n, row, col, dataflow
):
    """Support is an over-approximation for *any* operands and bit."""
    rng = np.random.default_rng(m * 1000 + k * 100 + n * 10 + row + col)
    a = rng.integers(-128, 128, size=(m, k))
    b = rng.integers(-128, 128, size=(k, n))
    site = FaultSite(row, col, "sum", int(rng.integers(0, 32)))
    injector = FaultInjector.single_stuck_at(site, int(rng.integers(0, 2)))
    golden = reference_gemm(a, b)
    faulty = TiledGemm(FunctionalSimulator(MESH, injector))(a, b, dataflow)
    plan = faulty.plan
    observed = extract_pattern(golden, faulty.output, plan=plan)
    predicted = predict_pattern(site, plan)
    # Every corrupted cell lies inside the predicted support.
    assert np.all(predicted.support | ~observed.mask)


@settings(max_examples=60, deadline=None)
@given(m=dims, k=dims, n=dims, row=coords, col=coords, dataflow=dataflows)
def test_ones_workload_prediction_is_exact(m, k, n, row, col, dataflow):
    """With the paper's all-ones operands and a high disagreeing bit,
    the predicted support equals the observed corruption exactly."""
    a = np.ones((m, k), dtype=np.int64)
    b = np.ones((k, n), dtype=np.int64)
    site = FaultSite(row, col, "sum", 20)
    injector = FaultInjector.single_stuck_at(site, 1)
    golden = reference_gemm(a, b)
    result = TiledGemm(FunctionalSimulator(MESH, injector))(a, b, dataflow)
    observed = extract_pattern(golden, result.output, plan=result.plan)
    predicted = predict_pattern(site, result.plan)
    assert np.array_equal(predicted.support, observed.mask)
    assert (
        classify_pattern(observed).pattern_class is predicted.pattern_class
    )


@settings(max_examples=30, deadline=None)
@given(
    size=st.sampled_from([1, 2, 3, 4, 8, 12]),  # fits the mesh or divides it
    dataflow=dataflows,
)
def test_campaign_is_single_class(size, dataflow):
    """Paper Section IV: every configuration yields exactly one class.

    Holds whenever the operand either fits the mesh or divides evenly into
    mesh-sized tiles — which covers every configuration in the paper's
    Table I (16 and 112 are both multiples of 16). See the companion test
    below for the ragged-tiling refinement this reproduction uncovered.
    """
    result = Campaign(MESH, GemmWorkload.square(size, dataflow)).run()
    assert result.is_single_class()


@settings(max_examples=20, deadline=None)
@given(size=st.sampled_from([5, 6, 7, 9, 10, 11]))
def test_ragged_tiling_mixes_tile_multiplicity(size):
    """Refinement of the paper's single-class claim (not tested there):
    when the operand does NOT divide evenly into mesh tiles, faults near
    the mesh's high rows/columns fall outside the ragged edge tiles and
    corrupt fewer tiles — so SINGLE_ELEMENT and SINGLE_ELEMENT_MULTI_TILE
    legitimately coexist in one OS campaign. The per-site prediction is
    still exact (see test_ones_workload_prediction_is_exact); only the
    campaign-level 'one class per configuration' summary weakens."""
    result = Campaign(
        MESH, GemmWorkload.square(size, Dataflow.OUTPUT_STATIONARY)
    ).run()
    classes = {
        e.pattern_class
        for e in result.experiments
        if e.pattern_class is not PatternClass.MASKED
    }
    assert classes <= {
        PatternClass.SINGLE_ELEMENT,
        PatternClass.SINGLE_ELEMENT_MULTI_TILE,
    }
    # The corner fault (last mesh row/col) always lands in fewer tiles
    # than the (0, 0) fault when the size is ragged.
    corner = result.result_at(3, 3)
    origin = result.result_at(0, 0)
    assert corner.num_corrupted <= origin.num_corrupted


@settings(max_examples=30, deadline=None)
@given(
    size=st.integers(min_value=4, max_value=12),
    row_a=coords,
    col_a=coords,
    row_b=coords,
)
def test_ws_class_is_position_independent(size, row_a, col_a, row_b):
    """Moving a WS fault to any row of the same column changes nothing."""
    workload = GemmWorkload.square(size, Dataflow.WEIGHT_STATIONARY)
    campaign = Campaign(MESH, workload, sites=[(row_a, col_a), (row_b, col_a)])
    result = campaign.run()
    first, second = result.experiments
    assert first.pattern_class is second.pattern_class
    assert np.array_equal(first.pattern.mask, second.pattern.mask)


@settings(max_examples=30, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=12),
    dataflow=dataflows,
    bit=st.integers(min_value=0, max_value=31),
    stuck_value=st.sampled_from([0, 1]),
)
def test_classification_never_other_for_ssf(size, dataflow, bit, stuck_value):
    """Paper: SSF patterns are always well-defined (never OTHER)."""
    workload = GemmWorkload.square(size, dataflow)
    spec = FaultSpec(bit=bit, stuck_value=stuck_value)
    result = Campaign(MESH, workload, fault_spec=spec).run()
    for experiment in result.experiments:
        assert experiment.pattern_class is not PatternClass.OTHER


# ----------------------------------------------------------------------
# Batched classifier vs the per-cell reference
# ----------------------------------------------------------------------
def reference_classify(rows, cols, plan, conv=False):
    """The classifier's rules as a plain loop over corrupted cells:
    sets of tiles, local cells, local/global rows and columns, built one
    ``divmod`` at a time. The batched classifier must agree with it on
    every pattern."""
    if not rows:
        return Classification(pattern_class=PatternClass.MASKED)
    tiles, locals_ = set(), set()
    for row, col in zip(rows, cols):
        m_tile, local_row = divmod(row, plan.tile_m)
        n_tile, local_col = divmod(col, plan.tile_n)
        tiles.add((m_tile, n_tile))
        locals_.add((local_row, local_col))
    corrupted_tiles = tuple(sorted(tiles))
    if conv:
        # The lowered GEMM's column is the output channel.
        channels = tuple(sorted(set(cols)))
        return Classification(
            pattern_class=PatternClass.SINGLE_CHANNEL
            if len(channels) == 1
            else PatternClass.MULTI_CHANNEL,
            corrupted_tiles=corrupted_tiles,
            corrupted_channels=channels,
        )
    evidence = dict(
        corrupted_tiles=corrupted_tiles, local_cells=tuple(sorted(locals_))
    )
    if len(rows) == 1:
        cls = PatternClass.SINGLE_ELEMENT
    elif len(locals_) == 1 and len(rows) == len(tiles) and len(tiles) > 1:
        cls = PatternClass.SINGLE_ELEMENT_MULTI_TILE
    elif len({c for _, c in locals_}) == 1:
        cls = (
            PatternClass.SINGLE_COLUMN
            if len(set(cols)) == 1
            else PatternClass.SINGLE_COLUMN_MULTI_TILE
        )
    elif len({r for r, _ in locals_}) == 1:
        cls = (
            PatternClass.SINGLE_ROW
            if len(set(rows)) == 1
            else PatternClass.SINGLE_ROW_MULTI_TILE
        )
    else:
        cls = PatternClass.OTHER
    return Classification(pattern_class=cls, **evidence)


@st.composite
def plans_and_masks(draw):
    """A tiling plan (ragged edges included) and a stack of masks drawn
    to hit every class: empty, single cells, tile-replicated cells, full
    or partial lines, and unstructured noise."""
    m, n = draw(dims), draw(dims)
    plan = TilingPlan(
        m=m,
        k=4,
        n=n,
        tile_m=draw(st.integers(1, m)),
        tile_k=4,
        tile_n=draw(st.integers(1, n)),
        dataflow=draw(dataflows),
    )
    rng = np.random.default_rng(draw(seeds))
    masks = np.zeros((draw(st.integers(0, 6)), m, n), dtype=bool)
    for mask in masks:
        kind = draw(st.sampled_from(
            ["empty", "cell", "replicated", "column", "row", "noise"]
        ))
        if kind == "cell":
            mask[rng.integers(m), rng.integers(n)] = True
        elif kind == "replicated":
            row, col = rng.integers(plan.tile_m), rng.integers(plan.tile_n)
            mask[row :: plan.tile_m, col :: plan.tile_n] = True
        elif kind == "column":
            mask[:, rng.integers(plan.tile_n) :: plan.tile_n] = True
            mask &= rng.random(mask.shape) < draw(st.sampled_from([0.5, 1.0]))
        elif kind == "row":
            mask[rng.integers(plan.tile_m) :: plan.tile_m, :] = True
            mask &= rng.random(mask.shape) < draw(st.sampled_from([0.5, 1.0]))
        elif kind == "noise":
            mask |= rng.random(mask.shape) < draw(st.sampled_from([0.1, 0.5]))
    return plan, masks


@settings(max_examples=200, deadline=None)
@given(case=plans_and_masks(), conv=st.booleans())
def test_batched_classifier_matches_per_cell_reference(case, conv):
    plan, masks = case
    sites, rows, cols = np.nonzero(masks)
    # Pattern order is free: shuffle the flat cell list across sites.
    order = np.random.default_rng(len(sites)).permutation(len(sites))
    batch = classify_batch(
        sites[order], rows[order], cols[order], len(masks), plan, conv=conv
    )
    assert len(batch) == len(masks)
    for mask, got in zip(masks, batch):
        mask_rows, mask_cols = np.nonzero(mask)
        expected = reference_classify(
            mask_rows.tolist(), mask_cols.tolist(), plan, conv=conv
        )
        assert got == expected
        if not conv:
            assert classify_cells(mask_rows, mask_cols, plan) == expected
