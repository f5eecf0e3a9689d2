"""The paper's fault-pattern taxonomy and the automatic classifier.

Section IV's discussion concludes that every observed pattern falls into one
of six well-defined classes, determined by the spatial distribution of
corrupted output elements:

* ``SINGLE_ELEMENT`` — one corrupted element (OS, untiled; Fig. 3b);
* ``SINGLE_ELEMENT_MULTI_TILE`` — the same local element corrupted in
  several output tiles (OS, tiled; Fig. 3d);
* ``SINGLE_COLUMN`` — one fully corrupted output column (WS, untiled;
  Fig. 3a);
* ``SINGLE_COLUMN_MULTI_TILE`` — the same local column corrupted in several
  column tiles (WS, tiled; Fig. 3c);
* ``SINGLE_CHANNEL`` — one corrupted convolution output channel (Fig. 3e);
* ``MULTI_CHANNEL`` — several corrupted output channels (Fig. 3f/3g).

We add two classes the paper's prose implies but does not name —
``MASKED`` (the fault produced no output corruption — e.g. stuck-at-0 on a
bit that is always 0) and ``OTHER`` (outside the taxonomy; never produced
by single stuck-at faults in our experiments, matching the paper's claim
that SSF patterns are always well-defined) — and two extension classes,
``SINGLE_ROW`` / ``SINGLE_ROW_MULTI_TILE``, produced by the
input-stationary dataflow the paper names but does not evaluate
(Section II-D): under IS the output-row dimension lies across mesh
columns, so a stuck-at fault corrupts an output row, the exact dual of
the WS column pattern.

Classification is purely structural: it looks only at the corrupted cells,
the tiling plan and (for convolution) the lowering geometry — never at the
fault location — so it can confirm the paper's determinism claim
independently of the predictor.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

import numpy as np

from repro.core.fault_patterns import FaultPattern
from repro.ops.tiling import TilingPlan

__all__ = [
    "PatternClass",
    "Classification",
    "classify_batch",
    "classify_cells",
    "classify_pattern",
    "classify_mask",
]


class PatternClass(enum.Enum):
    """The fault-pattern classes of Section IV (plus MASKED / OTHER)."""

    MASKED = "masked"
    SINGLE_ELEMENT = "single-element"
    SINGLE_ELEMENT_MULTI_TILE = "single-element multi-tile"
    SINGLE_COLUMN = "single-column"
    SINGLE_COLUMN_MULTI_TILE = "single-column multi-tile"
    SINGLE_CHANNEL = "single-channel"
    MULTI_CHANNEL = "multi-channel"
    # Extension classes (input-stationary dataflow; not in the paper's six).
    SINGLE_ROW = "single-row"
    SINGLE_ROW_MULTI_TILE = "single-row multi-tile"
    OTHER = "other"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Classification:
    """A pattern class plus the structural evidence behind it.

    Attributes
    ----------
    pattern_class:
        The assigned taxonomy class.
    corrupted_tiles:
        Indices ``(m_tile, n_tile)`` of output tiles containing corruption.
    local_cells:
        Within-tile coordinates of corrupted cells, deduplicated — the
        paper's position-independence means these collapse to a single
        element or a single column offset for SSF.
    corrupted_channels:
        Corrupted output channels (convolution patterns only).
    """

    pattern_class: PatternClass
    corrupted_tiles: tuple[tuple[int, int], ...] = ()
    local_cells: tuple[tuple[int, int], ...] = ()
    corrupted_channels: tuple[int, ...] = ()


def _gemm_class(
    cells: int,
    tiles: int,
    local_cells: int,
    local_rows: int,
    local_cols: int,
    rows: int,
    cols: int,
) -> PatternClass:
    """The GEMM-space rules, on one pattern's distinct counts: corrupted
    cells, tiles, within-tile cells, within-tile rows and columns, and
    global rows and columns."""
    if cells == 0:
        return PatternClass.MASKED
    # One corrupted cell overall: the OS untiled signature.
    if cells == 1:
        return PatternClass.SINGLE_ELEMENT
    # One corrupted cell per tile, identical local coordinates: OS tiled.
    if local_cells == 1 and cells == tiles and tiles > 1:
        return PatternClass.SINGLE_ELEMENT_MULTI_TILE
    # All corruption in one physical (local) column.
    if local_cols == 1:
        if cols == 1:
            return PatternClass.SINGLE_COLUMN
        return PatternClass.SINGLE_COLUMN_MULTI_TILE
    # All corruption in one physical (local) row: the IS dataflow's dual.
    if local_rows == 1:
        if rows == 1:
            return PatternClass.SINGLE_ROW
        return PatternClass.SINGLE_ROW_MULTI_TILE
    return PatternClass.OTHER


def _conv_class(cells: int, channels: int) -> PatternClass:
    """The convolution rules: one corrupted output channel is
    ``SINGLE_CHANNEL``, several are ``MULTI_CHANNEL`` (Fig. 3e-3g)."""
    if cells == 0:
        return PatternClass.MASKED
    if channels == 1:
        return PatternClass.SINGLE_CHANNEL
    return PatternClass.MULTI_CHANNEL


def _scatter(
    sites: np.ndarray,
    num_sites: int,
    keys: Iterable[np.ndarray],
    widths: list[int],
) -> tuple[list[np.ndarray], list[list[int]]]:
    """Mark which keys each site touches, per key array.

    ``keys`` yields one array per entry of ``widths``, holding one key in
    ``[0, widths[q])`` per cell; each is scattered as soon as it is
    yielded, so a generator can free it before building the next. Returns
    one boolean ``(num_sites, widths[q])`` scatter per key array — row
    ``s`` read left to right is site ``s``'s distinct keys in ascending
    order — and, per key array, every site's distinct count. The scatters
    are column slices of one array, counted by one segmented row sum.
    """
    bounds = [0, *accumulate(widths)]
    hits = np.zeros((num_sites, bounds[-1]), dtype=bool)
    scatters = [hits[:, lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    for scatter, key in zip(scatters, keys):
        scatter[sites, key] = True
        del key
    distinct = np.add.reduceat(hits, bounds[:-1], axis=1, dtype=np.int64)
    return scatters, distinct.T.tolist()


def _by_site(
    hits: np.ndarray, counts: list[int], width: int | None = None
) -> list[tuple]:
    """Each site's marked keys of one :func:`_scatter` scatter, ascending;
    ``counts`` is the scatter's per-site distinct count.

    With ``width``, keys packed as ``high * width + low`` unpack to
    ``(high, low)`` pairs, whose order is then lexicographic.
    """
    key = np.nonzero(hits)[1]
    if width is None:
        values = key.tolist()
    else:
        high, low = np.divmod(key, width)
        values = list(zip(high.tolist(), low.tolist()))
    bounds = [0, *accumulate(counts)]
    return [tuple(values[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def _cell_keys(
    rows: np.ndarray, cols: np.ndarray, plan: TilingPlan | None, conv: bool
) -> Iterator[np.ndarray]:
    """The per-cell keys :func:`classify_batch` counts, one at a time:
    the tile index when a plan is given, then the channel (``conv``) or
    the within-tile cell, row and column and the global row and column.

    Each key is built in place and dropped once the next is requested,
    so at most a few per-cell arrays are alive at once.
    """
    if plan is not None:
        tile = rows // plan.tile_m
        tile *= -(-plan.n // plan.tile_n)
        tile += cols // plan.tile_n
        yield tile
        del tile
    if conv:
        yield cols
        return
    assert plan is not None
    local_row = rows % plan.tile_m
    local_col = cols % plan.tile_n
    local = local_row * plan.tile_n
    local += local_col
    yield local
    del local
    yield local_row
    del local_row
    yield local_col
    del local_col
    yield rows
    yield cols


def classify_batch(
    sites: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    num_sites: int,
    plan: TilingPlan | None,
    conv: bool = False,
) -> list[Classification]:
    """Classify ``num_sites`` corruption patterns from one flat cell list.

    Entry ``i`` of ``sites``/``rows``/``cols`` says GEMM output cell
    ``(rows[i], cols[i])`` is corrupted in pattern ``sites[i]``. Cells
    must be distinct within a site; their order is free. Returns one
    :class:`Classification` per site, in site order.

    The rules only need per-site distinct counts — of tiles, within-tile
    cells, within-tile rows and columns, global rows and columns — so the
    cells' keys (tile and local coordinates by vectorised floor division)
    are marked in one boolean ``(S, ...)`` scatter whose row sums are
    those counts; the whole batch costs a fixed number of array passes,
    and only the rule predicates run per site. In ``conv`` mode the
    pattern is a lowered convolution, whose GEMM column is the output
    channel (Section II-B), so it is classified on its channels; the
    GEMM tiles stay as evidence when a plan is given.

    Raises
    ------
    ValueError
        If ``plan`` is ``None`` outside ``conv`` mode (GEMM classes are
        defined against the tile grid), or a cell lies outside the plan's
        ``(m, n)`` output.
    """
    sites = np.asarray(sites, dtype=np.int64)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    cells = np.bincount(sites, minlength=num_sites).tolist()
    tiles = local_cells = channels = [()] * num_sites
    # The widths of the keys to count per site; the tile key always
    # comes first. _cell_keys yields the keys themselves, in this order.
    widths: list[int] = []
    if plan is None:
        if not conv:
            raise ValueError(
                "GEMM pattern classification requires the run's tiling plan"
            )
    else:
        if rows.size and (rows.max() >= plan.m or cols.max() >= plan.n):
            raise ValueError(
                f"corrupted cells lie outside the plan's {plan.m}x{plan.n} "
                f"output"
            )
        n_grid = -(-plan.n // plan.tile_n)
        widths.append(-(-plan.m // plan.tile_m) * n_grid)
    if conv:
        widths.append(int(cols.max(initial=0)) + 1)
    else:
        widths += [
            plan.tile_m * plan.tile_n,
            plan.tile_m,
            plan.tile_n,
            plan.m,
            plan.n,
        ]
    scatters, counts = _scatter(
        sites, num_sites, _cell_keys(rows, cols, plan, conv), widths
    )
    if plan is not None:
        tiles = _by_site(scatters[0], counts[0], n_grid)
    if conv:
        channels = _by_site(scatters[-1], counts[-1])
        classes = list(map(_conv_class, cells, counts[-1]))
    else:
        local_cells = _by_site(scatters[1], counts[1], plan.tile_n)
        classes = list(map(_gemm_class, cells, *counts))
    return [
        Classification(pattern_class=PatternClass.MASKED)
        if cls is PatternClass.MASKED
        else Classification(
            pattern_class=cls,
            corrupted_tiles=site_tiles,
            local_cells=site_locals,
            corrupted_channels=site_channels,
        )
        for cls, site_tiles, site_locals, site_channels in zip(
            classes, tiles, local_cells, channels
        )
    ]


def classify_cells(
    rows: np.ndarray, cols: np.ndarray, plan: TilingPlan
) -> Classification:
    """Classify one pattern's corrupted GEMM cell coordinates.

    :func:`classify_batch` for a batch of one — for callers that already
    hold the corrupted coordinates of a single pattern.
    """
    rows = np.asarray(rows, dtype=np.int64)
    sites = np.zeros(rows.size, dtype=np.int64)
    return classify_batch(sites, rows, cols, 1, plan)[0]


def classify_mask(mask: np.ndarray, plan: TilingPlan) -> Classification:
    """Classify a raw GEMM-space corruption mask against a tiling plan.

    The same structural rules as :func:`classify_pattern`, exposed for
    callers that have a mask but no :class:`FaultPattern`.
    """
    rows, cols = np.nonzero(np.asarray(mask, dtype=bool))
    return classify_cells(rows, cols, plan)


def classify_pattern(pattern: FaultPattern) -> Classification:
    """Assign a :class:`PatternClass` to an extracted fault pattern.

    GEMM patterns are classified on the 2-D output matrix against the
    tiling plan. Convolution patterns are classified on their output
    channels, with the GEMM-space tiles as evidence when the pattern
    carries a plan (see :func:`classify_batch`).

    Raises
    ------
    ValueError
        If a GEMM pattern carries no tiling plan.
    """
    rows, cols = pattern.gemm_coordinates()
    sites = np.zeros(rows.size, dtype=np.int64)
    return classify_batch(
        sites, rows, cols, 1, pattern.plan, conv=pattern.is_conv
    )[0]
