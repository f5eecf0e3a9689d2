"""Operation tiling (paper Section II-C).

When an operand is larger than the mesh, the GEMM is decomposed into tiles
(Eq. 2-4 of the paper): the output is covered by ``(M/Tm) x (N/Tn)`` output
tiles, each accumulated over ``K/Tk`` reduction tiles. The *tiling effect*
on fault patterns (RQ3) follows directly from this decomposition: every
output tile is computed on the same physical mesh, so a faulty MAC re-appears
at the same local coordinates in every output tile, while reduction tiles
accumulate into the same coordinates and add no new spatial structure.

:class:`TilingPlan` is the pure description of a decomposition; it is what
the fault-pattern predictor (:mod:`repro.core.predictor`) and the classifier
consume to reason about multi-tile patterns without re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.systolic.array import MeshConfig
from repro.systolic.dataflow import Dataflow

__all__ = ["TileRange", "TilingPlan", "plan_gemm_tiling", "split_ranges"]


@dataclass(frozen=True)
class TileRange:
    """A half-open index range ``[start, stop)`` along one dimension."""

    index: int
    start: int
    stop: int

    @property
    def size(self) -> int:
        return self.stop - self.start

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ValueError(f"invalid tile range [{self.start}, {self.stop})")


def split_ranges(extent: int, tile: int) -> tuple[TileRange, ...]:
    """Split ``[0, extent)`` into consecutive tiles of at most ``tile``."""
    if extent <= 0:
        raise ValueError(f"extent must be positive, got {extent}")
    if tile <= 0:
        raise ValueError(f"tile size must be positive, got {tile}")
    return tuple(
        TileRange(index=i, start=start, stop=min(start + tile, extent))
        for i, start in enumerate(range(0, extent, tile))
    )


@dataclass(frozen=True)
class TilingPlan:
    """The decomposition of an ``(M, K) x (K, N)`` GEMM into mesh tiles.

    Attributes
    ----------
    m, k, n:
        GEMM dimensions.
    tile_m, tile_k, tile_n:
        Tile sizes along each dimension.
    dataflow:
        The dataflow this plan was built for (constrains which dimensions
        must fit the mesh).
    """

    m: int
    k: int
    n: int
    tile_m: int
    tile_k: int
    tile_n: int
    dataflow: Dataflow

    # ------------------------------------------------------------------
    # Tile grids
    # ------------------------------------------------------------------
    @property
    def m_tiles(self) -> tuple[TileRange, ...]:
        return split_ranges(self.m, self.tile_m)

    @property
    def k_tiles(self) -> tuple[TileRange, ...]:
        return split_ranges(self.k, self.tile_k)

    @property
    def n_tiles(self) -> tuple[TileRange, ...]:
        return split_ranges(self.n, self.tile_n)

    @property
    def num_output_tiles(self) -> int:
        """Tiles covering the output matrix (the paper's coloured tiles)."""
        return len(self.m_tiles) * len(self.n_tiles)

    @property
    def num_tile_matmuls(self) -> int:
        """Total mesh-level matmuls (output tiles x reduction tiles)."""
        return self.num_output_tiles * len(self.k_tiles)

    @property
    def is_tiled(self) -> bool:
        """Whether any *output* dimension needs more than one tile.

        Reduction-only tiling accumulates into the same output coordinates
        and therefore produces no multi-tile spatial pattern (Section IV-A3).
        """
        return len(self.m_tiles) > 1 or len(self.n_tiles) > 1

    def output_tiles(self) -> Iterator[tuple[TileRange, TileRange]]:
        """Iterate output tiles in row-major order."""
        for m_range in self.m_tiles:
            for n_range in self.n_tiles:
                yield m_range, n_range

    # ------------------------------------------------------------------
    # Fault geometry helpers (used by the vulnerability model)
    # ------------------------------------------------------------------
    def output_rows_for_mesh_row(self, mesh_row: int) -> tuple[int, ...]:
        """Global output rows mapped onto mesh row ``mesh_row`` (OS only)."""
        rows = []
        for m_range in self.m_tiles:
            row = m_range.start + mesh_row
            if row < m_range.stop:
                rows.append(row)
        return tuple(rows)

    def output_cols_for_mesh_col(self, mesh_col: int) -> tuple[int, ...]:
        """Global output columns mapped onto mesh column ``mesh_col``."""
        cols = []
        for n_range in self.n_tiles:
            col = n_range.start + mesh_col
            if col < n_range.stop:
                cols.append(col)
        return tuple(cols)


def plan_gemm_tiling(
    m: int,
    k: int,
    n: int,
    config: MeshConfig,
    dataflow: Dataflow,
    tile_m: int | None = None,
    tile_k: int | None = None,
    tile_n: int | None = None,
) -> TilingPlan:
    """Build the default (mesh-sized, square) tiling plan of the paper.

    Every dimension defaults to the mesh extent, matching the paper's
    example (Section II-C) where a 4x4 GEMM on a 2x2 array splits into 2x2
    tiles along all three dimensions.

    Raises
    ------
    ValueError
        If an explicit tile size violates the dataflow's mesh constraints
        (OS: ``tile_m <= rows`` and ``tile_n <= cols``; WS: ``tile_k <=
        rows`` and ``tile_n <= cols``).
    """
    if m <= 0 or k <= 0 or n <= 0:
        raise ValueError(f"GEMM dimensions must be positive, got {m}x{k}x{n}")
    # Default tile sizes follow the dataflow's physical mapping: the M
    # dimension lies on mesh rows under OS/WS but on mesh columns under IS.
    default_tile_m = config.cols if dataflow is Dataflow.INPUT_STATIONARY else config.rows
    tile_m = tile_m if tile_m is not None else min(m, default_tile_m)
    tile_k = tile_k if tile_k is not None else min(k, config.rows)
    tile_n = tile_n if tile_n is not None else min(n, config.cols)
    if dataflow is Dataflow.OUTPUT_STATIONARY:
        if tile_m > config.rows:
            raise ValueError(
                f"OS requires tile_m <= mesh rows ({config.rows}), got {tile_m}"
            )
        if tile_n > config.cols:
            raise ValueError(
                f"OS requires tile_n <= mesh cols ({config.cols}), got {tile_n}"
            )
    elif dataflow is Dataflow.WEIGHT_STATIONARY:
        if tile_k > config.rows:
            raise ValueError(
                f"WS requires tile_k <= mesh rows ({config.rows}), got {tile_k}"
            )
        if tile_n > config.cols:
            raise ValueError(
                f"WS requires tile_n <= mesh cols ({config.cols}), got {tile_n}"
            )
    elif dataflow is Dataflow.INPUT_STATIONARY:
        if tile_k > config.rows:
            raise ValueError(
                f"IS requires tile_k <= mesh rows ({config.rows}), got {tile_k}"
            )
        if tile_m > config.cols:
            raise ValueError(
                f"IS requires tile_m <= mesh cols ({config.cols}), got {tile_m}"
            )
    else:
        raise ValueError(f"unsupported dataflow: {dataflow!r}")
    return TilingPlan(
        m=m,
        k=k,
        n=n,
        tile_m=tile_m,
        tile_k=tile_k,
        tile_n=tile_n,
        dataflow=dataflow,
    )
