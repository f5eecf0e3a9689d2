"""Batched ``golden + delta`` evaluation of stuck-at campaigns.

:func:`evaluate_batch` is the analytic tier's entry point: given a batch
of fault sites, it computes every experiment's faulty output as the
shared golden output plus a closed-form perturbation delta, in a few
vectorised numpy passes — no per-site workload re-simulation. Sites
whose fault the algebra cannot close over (see
:mod:`repro.engines.analytic.support`) fall back, per site, to
:meth:`Campaign.run_experiment` on the functional engine, and the
fallback count is published on the ``repro_analytic_fallback_total``
metric so a campaign's analytic coverage is observable.

The function is deliberately stateless — it builds its whole evaluation
context (operands, tiling geometry, site groups) fresh from the pickled
campaign spec on every call. That keeps it safe inside forked executor
workers: no module-level caches, no cross-call mutation, bit-identical
results wherever it runs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.campaign import Campaign, ExperimentResult
from repro.core.classifier import classify_batch
from repro.core.fault_patterns import FaultPattern
from repro.engines.analytic.algebra import (
    FaultLens,
    os_chain_tile,
    ws_chain_tile,
)
from repro.engines.analytic.support import supported_reason
from repro.faults.model import FaultDescriptor
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_RECORDER
from repro.ops.im2col import ConvGeometry, im2col, kernel_to_matrix
from repro.ops.tiling import TileRange, TilingPlan
from repro.systolic.dataflow import Dataflow
from repro.systolic.datatypes import wrap_array

__all__ = [
    "FALLBACK_METRIC",
    "evaluate_batch",
    "record_fallbacks",
    "unsupported_sites",
]

#: Counter incremented once per site the analytic engine could not
#: evaluate in closed form and delegated to the functional engine.
FALLBACK_METRIC = "repro_analytic_fallback_total"
_FALLBACK_HELP = (
    "Sites the analytic engine delegated to the functional engine "
    "because their fault has no closed-form delta."
)


def unsupported_sites(
    campaign: Campaign, sites: Sequence[tuple[int, int]]
) -> list[tuple[int, int]]:
    """The subset of ``sites`` the analytic engine must fall back on.

    Pure prediction from the campaign spec (no simulation), so callers
    on either side of a process boundary agree on the count — the parent
    uses it to publish the fallback metric for work done in workers.
    """
    dataflow = campaign.workload.dataflow
    return [
        (row, col)
        for row, col in sites
        if supported_reason(campaign.fault_spec.fault_at(row, col), dataflow)
        is not None
    ]


def record_fallbacks(metrics, count: int) -> None:
    """Publish ``count`` fallback sites on the shared counter.

    One definition of the metric name/help for every caller — the
    in-process evaluator and the parallel executor's parent (workers run
    with null metrics, so the parent accounts for their batches via
    :func:`unsupported_sites`; neither side double-counts).
    """
    if count:
        metrics.counter(FALLBACK_METRIC, _FALLBACK_HELP).inc(count)


def evaluate_batch(
    campaign: Campaign,
    sites: Sequence[tuple[int, int]],
    golden: np.ndarray,
    plan: TilingPlan,
    geometry: ConvGeometry | None,
    recorder=NULL_RECORDER,
    metrics=NULL_METRICS,
) -> list[ExperimentResult]:
    """Evaluate one FI experiment per site, batched where closed forms exist.

    Returns one :class:`ExperimentResult` per entry of ``sites``, in
    input order, field-for-field identical to what
    :meth:`Campaign.run_experiment` would produce for the same sites —
    that equivalence is the engine's contract, pinned by
    ``tests/engines`` and the property suite.
    """
    dataflow = campaign.workload.dataflow
    faults = [campaign.fault_spec.fault_at(row, col) for row, col in sites]
    results: list[ExperimentResult | None] = [None] * len(sites)

    supported: list[int] = []
    fallback: list[int] = []
    for index, fault in enumerate(faults):
        if supported_reason(fault, dataflow) is None:
            supported.append(index)
        else:
            fallback.append(index)

    if fallback:
        record_fallbacks(metrics, len(fallback))
        for index in fallback:
            row, col = sites[index]
            results[index] = campaign.run_experiment(
                row, col, golden, plan, geometry, recorder=recorder
            )

    if supported:
        with recorder.span(
            "experiment.batch", cat="campaign", sites=len(supported)
        ):
            _evaluate_closed_form(
                campaign, faults, supported, golden, plan, geometry, results
            )
    return [result for result in results if result is not None]


def _gemm_operands(
    campaign: Campaign, geometry: ConvGeometry | None
) -> tuple[np.ndarray, np.ndarray]:
    """The lowered, input-wrapped GEMM operand pair of the workload.

    Regenerated from the workload spec (never shipped), exactly as the
    simulation engines receive them: conv workloads lower through
    im2col, and both operands wrap to the mesh input type — wrapping the
    whole operand once is elementwise, hence identical to the engines'
    per-tile wrap.
    """
    in_t = campaign.mesh.input_dtype
    raw_a, raw_b = campaign.workload.operands()
    if geometry is not None:
        raw_a = im2col(raw_a, geometry)
        raw_b = kernel_to_matrix(raw_b, geometry)
    return wrap_array(raw_a, in_t), wrap_array(raw_b, in_t)


def _evaluate_closed_form(
    campaign: Campaign,
    faults: list[FaultDescriptor],
    supported: list[int],
    golden: np.ndarray,
    plan: TilingPlan,
    geometry: ConvGeometry | None,
    results: list[ExperimentResult | None],
) -> None:
    """Fill ``results`` for every ``supported`` index via batched deltas."""
    in_t = campaign.mesh.input_dtype
    acc_t = campaign.mesh.acc_dtype
    a, b = _gemm_operands(campaign, geometry)
    if geometry is None:
        gemm_golden = golden
    else:
        gemm_golden = golden.transpose(0, 2, 3, 1).reshape(
            geometry.gemm_m, geometry.k
        )

    # Group sites by stuck-at family so each kernel call forces one
    # homogeneous (signal, bit, value) triple. First-seen order keeps the
    # grouping deterministic without iterating a dict, and the plain
    # tuple key skips a per-site dataclass construction and hash.
    order: list[tuple[str, int, int]] = []
    groups: dict[tuple[str, int, int], list[int]] = {}
    for position, index in enumerate(supported):
        fault = faults[index]
        key = (fault.site.signal, fault.site.bit, fault.stuck_value)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(position)

    deviation = np.zeros((len(supported), *gemm_golden.shape), dtype=np.int64)
    for key in order:
        signal, bit, stuck = key
        lens = FaultLens(
            signal=signal,
            bit=bit,
            stuck=stuck,
            input_dtype=in_t,
            acc_dtype=acc_t,
        )
        positions = np.array(groups[key], dtype=np.int64)
        rows = np.array(
            [faults[supported[p]].site.row for p in groups[key]],
            dtype=np.int64,
        )
        cols = np.array(
            [faults[supported[p]].site.col for p in groups[key]],
            dtype=np.int64,
        )
        _group_deviation(
            deviation,
            positions,
            rows,
            cols,
            a,
            b,
            gemm_golden,
            plan,
            campaign.workload.dataflow,
            campaign.mesh.rows,
            lens,
        )

    # One batched pass over the whole deviation tensor replaces the
    # per-site mask scans. ``deviation`` is GEMM-spaced for GEMM and conv
    # alike, counts and maxima are layout-invariant, and ``np.nonzero`` on
    # the 3-D stack yields every site's cells as the flat (site, row, col)
    # arrays the batched classifier takes. The largest |deviation| is
    # max(max, -min): two reductions instead of an |x| copy of the stack.
    gemm_mask = deviation != 0
    counts = gemm_mask.sum(axis=(1, 2), dtype=np.int64).tolist()
    maxima = np.maximum(
        deviation.max(axis=(1, 2)), -deviation.min(axis=(1, 2))
    ).tolist()
    classifications = classify_batch(
        *np.nonzero(gemm_mask), len(supported), plan, conv=geometry is not None
    )

    patterns: list[FaultPattern | None] = [None] * len(supported)
    if campaign.keep_patterns:
        if geometry is None:
            dev_out = deviation
        else:
            dev_out = deviation.reshape(
                len(supported), geometry.n, geometry.p, geometry.q, geometry.k
            ).transpose(0, 1, 4, 2, 3)
        mask_out = dev_out != 0
        patterns = [
            FaultPattern(
                mask=mask_out[position],
                deviation=dev_out[position],
                plan=plan,
                geometry=geometry,
            )
            for position in range(len(supported))
        ]

    for position, index in enumerate(supported):
        results[index] = ExperimentResult(
            site=faults[index].site,
            classification=classifications[position],
            num_corrupted=counts[position],
            max_abs_deviation=maxima[position],
            pattern=patterns[position],
        )


#: Upper bound on the (site, tile) pairs one OS kernel call advances:
#: the kernel's per-pair working set is a few ``(pairs, cycles)`` int64
#: streams, so large tile grids (lowered convolutions) go in chunks.
_OS_PAIRS_PER_CALL = 1 << 12


def _group_deviation(
    deviation: np.ndarray,
    positions: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    gemm_golden: np.ndarray,
    plan: TilingPlan,
    dataflow: Dataflow,
    mesh_rows: int,
    lens: FaultLens,
) -> None:
    """Scatter one lens group's per-site deltas into ``deviation``.

    Reproduces :class:`~repro.ops.gemm.TiledGemm`'s walk of the tiling
    plan — reduction tiles chained through each output tile's
    accumulator — advancing every site's faulty state with the
    dataflow's kernel, then writes ``faulty - golden`` at the
    coordinates the fault reaches. Sites architecturally masked for a
    tile's shape (their MAC falls outside the occupied mesh region) are
    simply skipped: their delta stays zero.
    """
    if dataflow is Dataflow.OUTPUT_STATIONARY:
        _os_deviation(
            deviation, positions, rows, cols, a, b, gemm_golden, plan, lens
        )
    elif dataflow is Dataflow.WEIGHT_STATIONARY:
        _ws_deviation(
            deviation,
            positions,
            rows,
            cols,
            a,
            b,
            gemm_golden,
            plan.n_tiles,
            plan.k_tiles,
            mesh_rows,
            lens,
        )
    elif dataflow is Dataflow.INPUT_STATIONARY:
        # IS is WS on the transposed problem (as in the engines): mesh
        # column c computes output *row* c of every tile. The transposed
        # deviation view writes through to the GEMM-spaced stack.
        _ws_deviation(
            deviation.transpose(0, 2, 1),
            positions,
            rows,
            cols,
            b.T,
            a.T,
            gemm_golden.T,
            plan.m_tiles,
            plan.k_tiles,
            mesh_rows,
            lens,
        )
    else:
        raise ValueError(f"unsupported dataflow: {dataflow!r}")


def _ws_deviation(
    deviation: np.ndarray,
    positions: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    gemm_golden: np.ndarray,
    col_tiles: Sequence[TileRange],
    k_tiles: Sequence[TileRange],
    mesh_rows: int,
    lens: FaultLens,
) -> None:
    """WS deltas, one full-height pass per output column tile.

    Mesh column c computes output column c of every tile, and each
    output row's partial-sum chain is independent of every other row's
    (:func:`ws_chain_tile` is elementwise in the row), so the row tiles
    of one column tile collapse into a single pass over all ``M`` rows.
    """
    out_rows = np.arange(deviation.shape[1], dtype=np.int64)
    for n_range in col_tiles:
        active = cols < n_range.size
        if not active.any():
            continue
        r = rows[active]
        c = cols[active]
        b_cols = b[:, n_range.start : n_range.stop]
        state = np.zeros((len(out_rows), len(c)), dtype=np.int64)
        for k_range in k_tiles:
            state = ws_chain_tile(
                state,
                a[:, k_range.start : k_range.stop],
                b_cols[k_range.start : k_range.stop],
                r,
                c,
                mesh_rows,
                lens,
            )
        out_cols = n_range.start + c
        deviation[
            positions[active][:, None], out_rows[None, :], out_cols[:, None]
        ] = (state - gemm_golden[:, out_cols]).T


def _os_deviation(
    deviation: np.ndarray,
    positions: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    gemm_golden: np.ndarray,
    plan: TilingPlan,
    lens: FaultLens,
) -> None:
    """OS deltas, one kernel pass per output-tile shape.

    PE (r, c) owns element (r, c) of every output tile. Tiles of equal
    shape share the cycle count and each PE's skew ``r + c``, so every
    ``(site, tile)`` pair of a shape — at most four shapes with ragged
    edges — advances in one :func:`os_chain_tile` call per reduction
    tile, reading operands at the pair's global coordinates.
    """
    shapes: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for m_range, n_range in plan.output_tiles():
        shapes.setdefault((m_range.size, n_range.size), []).append(
            (m_range.start, n_range.start)
        )
    for (mt, nt), origins in shapes.items():
        active = np.flatnonzero((rows < mt) & (cols < nt))
        if not active.size:
            continue
        step = max(1, _OS_PAIRS_PER_CALL // active.size)
        for lo in range(0, len(origins), step):
            # Every (site, tile) pair of the chunk, site-major.
            tiles = np.array(origins[lo : lo + step], dtype=np.int64)
            pair_site = np.repeat(active, len(tiles))
            r = rows[pair_site]
            c = cols[pair_site]
            m0 = np.tile(tiles[:, 0], active.size)
            n0 = np.tile(tiles[:, 1], active.size)
            state = np.zeros(len(pair_site), dtype=np.int64)
            for k_range in plan.k_tiles:
                state = os_chain_tile(
                    state,
                    a[:, k_range.start : k_range.stop],
                    b[k_range.start : k_range.stop],
                    r,
                    c,
                    lens,
                    tile_shape=(mt, nt),
                    row_base=m0,
                    col_base=n0,
                )
            deviation[positions[pair_site], m0 + r, n0 + c] = (
                state - gemm_golden[m0 + r, n0 + c]
            )
