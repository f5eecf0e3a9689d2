"""Tiled GEMM execution on a (possibly faulty) systolic engine.

:class:`TiledGemm` implements the paper's Section II-C scheme: the operand
matrices are split per a :class:`~repro.ops.tiling.TilingPlan`, each tile
matmul runs on the mesh engine (cycle-accurate or functional), and reduction
tiles accumulate with hardware wrap semantics — mirroring Gemmini's
accumulator SRAM.

Accumulation across reduction tiles is realised through the engine's *bias*
input: reduction tile ``t`` runs with the partial result of tiles
``0..t-1`` preloaded, exactly as Gemmini chains ``COMPUTE`` commands into
the accumulator. This keeps the faulty datapath in the loop for every
reduction step, which matters: a stuck-at fault re-forces the partial sums
of every tile that passes through it.

Engine contract: output tiles of equal shape (the full tiles, and the
ragged last row or column of tiles — at most four groups) run as one
stack, and each reduction step is one ``engine.matmul`` call on that
stack, with operands ``(T, M, K)`` and ``(T, K, N)`` and bias
``(T, M, N)``. The engine must return what ``T`` single-tile calls would,
in stack order; both :class:`~repro.systolic.simulator.CycleSimulator`
and :class:`~repro.systolic.functional.FunctionalSimulator` do.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.ops.tiling import TilingPlan, plan_gemm_tiling, split_ranges
from repro.systolic.dataflow import Dataflow
from repro.systolic.datatypes import wrap_array

__all__ = ["GemmResult", "TiledGemm"]


@dataclass(frozen=True)
class GemmResult:
    """Output of a tiled GEMM plus the decomposition that produced it.

    The tiling plan travels with the data because the fault-pattern
    machinery needs it: the classifier decides "multi-tile" by folding the
    corruption map onto the plan's tile grid.
    """

    output: np.ndarray
    plan: TilingPlan

    @property
    def shape(self) -> tuple[int, int]:
        return self.output.shape  # type: ignore[return-value]


class TiledGemm:
    """Executes arbitrarily-sized GEMMs on a fixed-size mesh engine.

    Parameters
    ----------
    engine:
        A :class:`~repro.systolic.simulator.CycleSimulator` or
        :class:`~repro.systolic.functional.FunctionalSimulator` (anything
        with ``.config`` and a ``.matmul(a, b, dataflow, bias)`` that
        accepts stacks of equal-shape tiles, see the module docstring).
    tile_m, tile_k, tile_n:
        Optional tile-size overrides; default to the mesh extent.
    reduction:
        Where reduction tiles accumulate. ``"mesh"`` (default) chains the
        running partial through the mesh's bias input, so every reduction
        step re-traverses the (possibly faulty) datapath — the behaviour of
        mesh-resident accumulation. ``"memory"`` computes each reduction
        tile independently and adds them in the accumulator SRAM with wrap
        semantics — Gemmini's accumulate-on-write. The two are bit-identical
        on a golden mesh (wrapped addition is associative) and produce the
        same fault-pattern *class* on a faulty one, but can differ in the
        corrupted *values*; the reduction-locus ablation bench quantifies
        this.
    """

    def __init__(
        self,
        engine,
        tile_m: int | None = None,
        tile_k: int | None = None,
        tile_n: int | None = None,
        reduction: str = "mesh",
    ) -> None:
        if reduction not in ("mesh", "memory"):
            raise ValueError(
                f"reduction must be 'mesh' or 'memory', got {reduction!r}"
            )
        self.engine = engine
        self.reduction = reduction
        self._tile_m = tile_m
        self._tile_k = tile_k
        self._tile_n = tile_n

    def plan(self, m: int, k: int, n: int, dataflow: Dataflow) -> TilingPlan:
        """The tiling plan this executor would use for an ``MxKxN`` GEMM."""
        return plan_gemm_tiling(
            m,
            k,
            n,
            self.engine.config,
            dataflow,
            tile_m=self._tile_m,
            tile_k=self._tile_k,
            tile_n=self._tile_n,
        )

    def __call__(
        self,
        a: np.ndarray,
        b: np.ndarray,
        dataflow: Dataflow,
        bias: np.ndarray | None = None,
    ) -> GemmResult:
        """Compute ``A @ B (+ bias)`` with mesh tiling.

        Parameters
        ----------
        a, b:
            Integer matrices of shape ``(M, K)`` and ``(K, N)``; values are
            wrapped into the mesh's input type, as the load path would.
        bias:
            Optional ``(M, N)`` accumulator initialisation.

        Returns
        -------
        GemmResult
            Wrapped-INT32 output and the tiling plan used.
        """
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("operands must be 2-D matrices")
        if a.shape[1] != b.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: A is {a.shape}, B is {b.shape}"
            )
        m, k = a.shape
        n = b.shape[1]
        plan = self.plan(m, k, n, dataflow)
        acc_dtype = self.engine.config.acc_dtype

        out = np.zeros((m, n), dtype=np.int64)
        if bias is not None:
            bias = np.asarray(bias)
            if bias.shape != (m, n):
                raise ValueError(
                    f"bias shape {bias.shape} does not match output ({m}, {n})"
                )
            out = wrap_array(bias, acc_dtype)

        for rows in _index_groups(m, plan.tile_m):
            for cols in _index_groups(n, plan.tile_n):
                self._run_group(out, a, b, rows, cols, plan, dataflow)
        return GemmResult(output=out, plan=plan)

    def _run_group(
        self,
        out: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
        plan: TilingPlan,
        dataflow: Dataflow,
    ) -> None:
        """Accumulate one group of equal-shape output tiles into ``out``.

        ``rows`` is ``(Tm, tile_m)`` and ``cols`` ``(Tn, tile_n)``: the
        output indices of the group's m- and n-tiles. Their ``Tm * Tn``
        tiles form one stack in row-major tile order, and each k-tile is
        one engine call on that stack.
        """
        (t_m, size_m), (t_n, size_n) = rows.shape, cols.shape
        tiles = t_m * t_n
        block = (rows[:, None, :, None], cols[None, :, None, :])
        partial = out[block].reshape(tiles, size_m, size_n)
        for k_range in plan.k_tiles:
            ks = slice(k_range.start, k_range.stop)
            a_tiles = np.broadcast_to(
                a[rows, ks][:, None], (t_m, t_n, size_m, k_range.size)
            ).reshape(tiles, size_m, k_range.size)
            b_tiles = np.broadcast_to(
                b[ks][:, cols].transpose(1, 0, 2)[None],
                (t_m, t_n, k_range.size, size_n),
            ).reshape(tiles, k_range.size, size_n)
            if self.reduction == "mesh":
                partial = self.engine.matmul(
                    a_tiles, b_tiles, dataflow, bias=partial
                )
            else:
                product = self.engine.matmul(a_tiles, b_tiles, dataflow)
                partial = wrap_array(
                    partial + product, self.engine.config.acc_dtype
                )
        out[block] = partial.reshape(t_m, t_n, size_m, size_n)


@functools.lru_cache(maxsize=64)
def _index_groups(extent: int, tile: int) -> tuple[np.ndarray, ...]:
    """The tiles of ``split_ranges(extent, tile)`` grouped by size, each
    group as a read-only ``(tiles, size)`` array of the indices its tiles
    cover, in tile order.

    :func:`~repro.ops.tiling.split_ranges` yields full tiles and at most
    one shorter last tile, so there are at most two groups.
    """
    starts: dict[int, list[int]] = {}
    for tile_range in split_ranges(extent, tile):
        starts.setdefault(tile_range.size, []).append(tile_range.start)
    groups = tuple(
        np.array(first, dtype=np.int64)[:, None]
        + np.arange(size, dtype=np.int64)
        for size, first in starts.items()
    )
    for group in groups:
        group.flags.writeable = False
    return groups
