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

Cost follows the corrupted cells, not the output size: the kernels
compute only on each fault's support and emit its nonzero deltas as flat
``(site, row, col, deviation)`` cells, which the per-site reductions and
the batched classifier read directly. With ``keep_patterns`` each site's
cells become its sparse ``FaultPattern``; no dense array is built.

Memory follows a fixed budget, not the workload: a batch whose sites
could corrupt more than :data:`_CHUNK_CELLS` cells between them runs in
chunks under that bound, cut in :func:`column_order` (mesh column, then
row) so a WS/IS chunk holds whole columns where it can. Each chunk's
cells are classified, reduced and dropped before the next is built.

The function is deliberately stateless — it builds its whole evaluation
context (operands, tiling geometry, site groups) fresh from the pickled
campaign spec on every call. That keeps it safe inside forked executor
workers: no module-level caches, no cross-call mutation, bit-identical
results wherever it runs.
"""

from __future__ import annotations

from itertools import groupby
from typing import Sequence

import numpy as np

from repro.core.campaign import Campaign, ExperimentResult
from repro.core.classifier import classify_batch
from repro.core.fault_patterns import FaultPattern, output_index
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
    "column_order",
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

#: Corrupted cells as flat int64 ``(site, row, col, deviation)`` arrays:
#: deviation nonzero, cells distinct per site, emitted in runs of one site.
_Cells = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_NO_CELLS: _Cells = (np.zeros(0, dtype=np.int64),) * 4

#: The most cells one closed-form chunk may corrupt, by the per-site
#: bound of :func:`_site_cells`: it caps both a chunk's cell arrays and
#: the WS kernel's ``(rows × sites)`` int64 temporaries (2 MB each).
#: Every 16x16 and 112x112 GEMM batch fits in one chunk.
_CHUNK_CELLS = 1 << 18


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


def column_order(sites: Sequence[tuple[int, int]]) -> list[int]:
    """Positions of the ``(row, col)`` ``sites``, by mesh column, then row.

    The WS/IS kernel computes each distinct mesh column's products once
    per call, so batches that hold whole columns compute every column
    once: the engine cuts oversized batches in this order, and the
    executors cut an analytic WS/IS campaign's shards in it.
    """
    return sorted(range(len(sites)), key=lambda i: (sites[i][1], sites[i][0]))


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
        chunks = _chunks(
            dataflow, plan, supported, [sites[i] for i in supported]
        )
        with recorder.span(
            "experiment.batch",
            cat="campaign",
            sites=len(supported),
            chunks=len(chunks),
        ):
            _evaluate_closed_form(
                campaign, faults, chunks, golden, plan, geometry, results
            )
    return [result for result in results if result is not None]


def _site_cells(
    dataflow: Dataflow, plan: TilingPlan, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Upper bound on each MAC ``(rows[i], cols[i])``'s corrupted cells.

    A WS site corrupts at most its output column, all ``M`` rows, in each
    column tile it is active in (IS: ``N`` rows per row tile); an OS site
    at most one cell per output tile it is active in.
    """
    if dataflow is Dataflow.OUTPUT_STATIONARY:
        shapes = np.array(
            [(m.size, n.size) for m, n in plan.output_tiles()], dtype=np.int64
        )
        active = rows[:, None] < shapes[:, 0]
        active &= cols[:, None] < shapes[:, 1]
        return active.sum(axis=1, dtype=np.int64)
    height, col_tiles = plan.m, plan.n_tiles
    if dataflow is Dataflow.INPUT_STATIONARY:
        height, col_tiles = plan.n, plan.m_tiles
    sizes = np.array([tile.size for tile in col_tiles], dtype=np.int64)
    return height * (cols[:, None] < sizes).sum(axis=1, dtype=np.int64)


def _chunks(
    dataflow: Dataflow,
    plan: TilingPlan,
    supported: list[int],
    sites: list[tuple[int, int]],
) -> list[list[int]]:
    """``supported`` (at ``sites``) cut into chunks of at most
    :data:`_CHUNK_CELLS` cells each by :func:`_site_cells`.

    A batch within the budget is one chunk in input order. A larger one
    is walked in :func:`column_order`: a column that does not fit in the
    current chunk starts a new one, and a column over the budget on its
    own is split between sites.
    """
    rows, cols = np.array(sites, dtype=np.int64).T
    weights = _site_cells(dataflow, plan, rows, cols).tolist()
    if sum(weights) <= _CHUNK_CELLS:
        return [supported]
    chunks: list[list[int]] = [[]]
    load = 0
    for _, column in groupby(column_order(sites), key=lambda i: sites[i][1]):
        column = list(column)
        column_load = sum(weights[i] for i in column)
        if chunks[-1] and load + column_load > _CHUNK_CELLS:
            chunks.append([])
            load = 0
        for i in column:
            if load + weights[i] > _CHUNK_CELLS and chunks[-1]:
                chunks.append([])
                load = 0
            chunks[-1].append(supported[i])
            load += weights[i]
    return chunks


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
    chunks: list[list[int]],
    golden: np.ndarray,
    plan: TilingPlan,
    geometry: ConvGeometry | None,
    results: list[ExperimentResult | None],
) -> None:
    """Fill ``results`` for every index of ``chunks`` via batched deltas,
    one chunk at a time."""
    if geometry is None:
        gemm_golden = golden
    else:
        gemm_golden = golden.transpose(0, 2, 3, 1).reshape(
            geometry.gemm_m, geometry.k
        )
    operands = _gemm_operands(campaign, geometry)
    for chunk in chunks:
        _evaluate_chunk(
            campaign, faults, chunk, operands, gemm_golden, plan, geometry,
            results,
        )


def _evaluate_chunk(
    campaign: Campaign,
    faults: list[FaultDescriptor],
    supported: list[int],
    operands: tuple[np.ndarray, np.ndarray],
    gemm_golden: np.ndarray,
    plan: TilingPlan,
    geometry: ConvGeometry | None,
    results: list[ExperimentResult | None],
) -> None:
    """Fill ``results`` for one chunk of ``supported`` indices; the
    chunk's cells die with this frame."""
    site, cell_rows, cell_cols, dev = _batch_cells(
        campaign, faults, supported, operands, gemm_golden, plan
    )
    # Per-site reductions over the cells alone, never over the output.
    num_sites = len(supported)
    counts = np.bincount(site, minlength=num_sites)
    maxima = np.zeros(num_sites, dtype=np.int64)
    np.maximum.at(maxima, site, np.abs(dev))
    classifications = classify_batch(
        site, cell_rows, cell_cols, num_sites, plan, conv=geometry is not None
    )

    patterns: list[FaultPattern | None] = [None] * num_sites
    if campaign.keep_patterns:
        patterns = _site_patterns(
            site, cell_rows, cell_cols, dev, counts, plan, geometry
        )

    for position, (index, count, maximum) in enumerate(
        zip(supported, counts.tolist(), maxima.tolist())
    ):
        results[index] = ExperimentResult(
            site=faults[index].site,
            classification=classifications[position],
            num_corrupted=count,
            max_abs_deviation=maximum,
            pattern=patterns[position],
        )


def _batch_cells(
    campaign: Campaign,
    faults: list[FaultDescriptor],
    supported: list[int],
    operands: tuple[np.ndarray, np.ndarray],
    gemm_golden: np.ndarray,
    plan: TilingPlan,
) -> _Cells:
    """Every corrupted cell of the ``supported`` sites, GEMM-spaced, with
    site ``i`` standing for ``faults[supported[i]]``: each kernel walks
    the plan as :class:`~repro.ops.gemm.TiledGemm` does, and a site
    masked for a tile's shape emits no cells there."""
    mesh = campaign.mesh
    a, b = operands
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

    # IS is WS on the transposed problem (as in the engines): mesh column
    # c computes output *row* c of every tile. Its cells come back in
    # the transposed problem's (col, row) order and are swapped on return.
    dataflow = campaign.workload.dataflow
    ws_problem = (a, b, gemm_golden, plan.n_tiles)
    if dataflow is Dataflow.INPUT_STATIONARY:
        ws_problem = (b.T, a.T, gemm_golden.T, plan.m_tiles)
    rows = np.array([faults[i].site.row for i in supported], dtype=np.int64)
    cols = np.array([faults[i].site.col for i in supported], dtype=np.int64)
    parts = [_NO_CELLS]
    for key in order:
        positions = np.array(groups[key], dtype=np.int64)
        site_rows, site_cols = rows[positions], cols[positions]
        lens = FaultLens(*key, mesh.input_dtype, mesh.acc_dtype)
        if dataflow is Dataflow.OUTPUT_STATIONARY:
            parts += _os_cells(
                positions, site_rows, site_cols, a, b, gemm_golden, plan, lens
            )
        else:
            parts += _ws_cells(
                positions,
                site_rows,
                site_cols,
                *ws_problem,
                plan.k_tiles,
                mesh.rows,
                lens,
            )

    site, cell_rows, cell_cols, dev = map(np.concatenate, zip(*parts))
    if dataflow is Dataflow.INPUT_STATIONARY:
        return site, cell_cols, cell_rows, dev
    return site, cell_rows, cell_cols, dev


def _site_patterns(
    site: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    dev: np.ndarray,
    counts: np.ndarray,
    plan: TilingPlan,
    geometry: ConvGeometry | None,
) -> list[FaultPattern]:
    """One sparse :class:`FaultPattern` per site from the batch's cells.

    The kernels emit runs of one site, mostly ascending already, so the
    cells are sorted (by site, then flat output index) only when they
    are not; each site's slice is then its pattern's strictly ascending
    index.
    """
    shape, flat = output_index(rows, cols, plan, geometry)
    key = site * (plan.m * plan.n)
    key += flat
    if np.count_nonzero(key[1:] <= key[:-1]):
        order = np.argsort(key)
        flat, dev = flat[order], dev[order]
    bounds = np.cumsum(counts, dtype=np.int64)[:-1]
    return [
        FaultPattern(shape, index, values, plan=plan, geometry=geometry)
        for index, values in zip(np.split(flat, bounds), np.split(dev, bounds))
    ]


#: Upper bound on the (site, tile) pairs one OS kernel call advances:
#: the kernel's per-pair working set is a few ``(pairs, cycles)`` int64
#: streams, so large tile grids (lowered convolutions) go in chunks.
_OS_PAIRS_PER_CALL = 1 << 12


def _ws_cells(
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
) -> list[_Cells]:
    """WS cells, one full-height pass per output column tile.

    Mesh column c computes output column c of every tile, and each
    output row's partial-sum chain is independent of every other row's
    (:func:`ws_chain_tile` is elementwise in the row), so the row tiles
    of one column tile collapse into a single pass over all ``M`` rows.
    """
    parts = []
    for n_range in col_tiles:
        active = cols < n_range.size
        if not active.any():
            continue
        c = cols[active]
        state = np.zeros((len(a), len(c)), dtype=np.int64)
        for k_range in k_tiles:
            state = ws_chain_tile(
                state,
                a[:, k_range.start : k_range.stop],
                b[k_range.start : k_range.stop, n_range.start : n_range.stop],
                rows[active],
                c,
                mesh_rows,
                lens,
            )
        out_cols = n_range.start + c
        # Transposed, the nonzero scan walks one site's column at a time,
        # so the cells come out grouped by site.
        dev = (state - gemm_golden[:, out_cols]).T
        pair, out_row = np.nonzero(dev)
        site = positions[active][pair]
        parts.append((site, out_row, out_cols[pair], dev[pair, out_row]))
    return parts


def _os_cells(
    positions: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
    gemm_golden: np.ndarray,
    plan: TilingPlan,
    lens: FaultLens,
) -> list[_Cells]:
    """OS cells, one kernel pass per output-tile shape.

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
    parts = []
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
            out_rows = m0 + r
            out_cols = n0 + c
            dev = state - gemm_golden[out_rows, out_cols]
            hit = np.flatnonzero(dev)
            site = positions[pair_site[hit]]
            parts.append((site, out_rows[hit], out_cols[hit], dev[hit]))
    return parts
