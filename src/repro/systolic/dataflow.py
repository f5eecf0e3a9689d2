"""Dataflow mapping schemes: output-stationary and weight-stationary.

The paper's RQ1 contrasts the two classical TPU dataflows (Fig. 1):

* **Output stationary (OS)** — each PE owns one element of the output tile
  and accumulates it in place while both operands stream through the mesh.
  A stuck-at fault in one MAC therefore corrupts exactly one output element
  per tile.
* **Weight stationary (WS)** — each PE holds one weight; activations stream
  west-to-east and partial sums cascade north-to-south through every MAC of
  a column. A stuck-at fault in one MAC therefore corrupts *every* output
  element of its physical column.

Each scheme is expressed as a :class:`TileSchedule`: a pure description of
edge feeds, duration, and output harvesting that the cycle simulator
executes. Both schedules assume the operands already fit the mesh — tiling
of larger operands is the responsibility of :mod:`repro.ops.tiling`.
"""

from __future__ import annotations

import enum
from typing import Protocol

import numpy as np

from repro.systolic.array import SystolicArray
from repro.systolic.skew import SkewedFeeder

__all__ = [
    "Dataflow",
    "TileSchedule",
    "OutputStationarySchedule",
    "WeightStationarySchedule",
    "InputStationarySchedule",
    "make_schedule",
    "site_tile_footprint",
    "as_tile_stack",
]


class Dataflow(enum.Enum):
    """The data-flow mapping schemes of Section II-D.

    The paper evaluates OS and WS (RQ1) and names input-stationary (IS) as
    a further scheme without exploring it; this repo implements IS as an
    extension study. Under IS the *activation* tile is stationary and the
    weights stream, which is realised on the same mesh by executing the
    transposed GEMM under the WS schedule: ``C = A @ B`` becomes
    ``C^T = B^T @ A^T`` with ``A^T`` preloaded. A stuck-at fault in mesh
    column ``c`` therefore corrupts output *row* ``c`` — the row-dual of
    the WS column pattern (see :mod:`repro.core.classifier`).
    """

    OUTPUT_STATIONARY = "OS"
    WEIGHT_STATIONARY = "WS"
    INPUT_STATIONARY = "IS"

    def __str__(self) -> str:
        return self.value


def site_tile_footprint(
    dataflow: Dataflow, row: int, col: int, tile_m: int, tile_n: int
) -> tuple[tuple[int, int], ...]:
    """Local output coordinates a datapath fault in MAC ``(row, col)``
    can reach within one ``tile_m x tile_n`` output tile.

    This is the site-to-output mapping each scheme's geometry implies
    (Section IV of the paper), written down once so the analytic delta
    engine (:mod:`repro.engines.analytic`) and the fault-footprint
    queries on descriptors (:meth:`repro.faults.model.FaultDescriptor.
    tile_footprint`) share a single source of truth:

    * **OS** — PE ``(row, col)`` owns output element ``(row, col)``; the
      footprint is that element, or empty when the tile does not extend
      to it.
    * **WS** — partial sums of every output row traverse all mesh rows of
      physical column ``col``, so the footprint is the whole local column
      ``col`` regardless of ``row`` (the paper's position-independence
      observation), or empty when ``col`` lies beyond the tile.
    * **IS** — the transposed-WS execution lays output rows across mesh
      columns, so the footprint is local output *row* ``col``.

    An empty footprint means the fault is architecturally masked for that
    tile: no datapath value it can corrupt is ever harvested.
    """
    if dataflow is Dataflow.OUTPUT_STATIONARY:
        if row < tile_m and col < tile_n:
            return ((row, col),)
        return ()
    if dataflow is Dataflow.WEIGHT_STATIONARY:
        if col < tile_n:
            return tuple((m, col) for m in range(tile_m))
        return ()
    if dataflow is Dataflow.INPUT_STATIONARY:
        if col < tile_m:
            return tuple((col, n) for n in range(tile_n))
        return ()
    raise ValueError(f"unsupported dataflow: {dataflow!r}")


def as_tile_stack(
    a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, bool]:
    """Operands of an engine's ``matmul`` as a stack of equal-shape tiles.

    Both engines take either one tile -- ``A (M, K)``, ``B (K, N)`` and an
    optional bias ``(M, N)`` -- or a stack of ``T`` such tiles --
    ``(T, M, K)``, ``(T, K, N)`` and ``(T, M, N)``. Returns the operands
    as stacks (a single tile gains a leading axis of length 1) and whether
    the call was stacked, so the engine can drop that axis again.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim not in (2, 3) or b.ndim != a.ndim:
        raise ValueError(
            "operands must be 2-D matrices or stacks of them, "
            f"got A {a.shape} and B {b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(
            f"inner dimensions disagree: A is {a.shape}, B is {b.shape}"
        )
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(f"stack lengths disagree: A is {a.shape}, B is {b.shape}")
    stacked = a.ndim == 3
    if bias is not None:
        bias = np.asarray(bias)
        expected = a.shape[:-1] + b.shape[-1:]
        if bias.shape != expected:
            raise ValueError(
                f"bias shape {bias.shape} does not match output {expected}"
            )
    if not stacked:
        a, b = a[None], b[None]
        bias = None if bias is None else bias[None]
    return a, b, bias, stacked


class TileSchedule(Protocol):
    """A single-tile matmul schedule executable by the cycle simulator."""

    @property
    def total_cycles(self) -> int:
        """Number of cycles from first feed to last harvested output."""
        ...

    def setup(self, array: SystolicArray) -> None:
        """Prepare the mesh (reset registers, preload stationary state)."""
        ...

    def step(self, array: SystolicArray, cycle: int) -> None:
        """Drive the edge feeds for ``cycle`` and advance the mesh."""
        ...

    def harvest(self, array: SystolicArray, cycle: int) -> None:
        """Collect any outputs available after ``cycle`` committed."""
        ...

    def result(self, array: SystolicArray) -> np.ndarray:
        """The completed output tile as an int64 ``(M, N)`` array."""
        ...


def _padded_feeds(feeder: SkewedFeeder, lanes: int, cycle: int) -> list[int]:
    """Edge feed values for all ``lanes``, zero beyond the feeder's extent."""
    values = [0] * lanes
    for lane in range(min(lanes, feeder.lanes)):
        values[lane] = feeder.value(lane, cycle)
    return values


class OutputStationarySchedule:
    """OS execution of ``C = A @ B (+ bias)`` for one tile.

    ``A`` is ``(M, K)`` with ``M <= rows``; ``B`` is ``(K, N)`` with
    ``N <= cols``. ``K`` is unbounded — it is the stream length. Element
    ``A[i, k]`` enters mesh row ``i`` at cycle ``i + k``; element
    ``B[k, j]`` enters mesh column ``j`` at cycle ``k + j``; they meet at
    PE ``(i, j)`` at cycle ``i + j + k``.
    """

    def __init__(
        self, a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None
    ) -> None:
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("operands must be 2-D matrices")
        if a.shape[1] != b.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: A is {a.shape}, B is {b.shape}"
            )
        self.m, self.k = a.shape
        self.n = b.shape[1]
        self._a_feeder = SkewedFeeder(a, stream_axis=1)
        self._b_feeder = SkewedFeeder(b, stream_axis=0)
        self._bias = bias

    @property
    def total_cycles(self) -> int:
        # Last contribution lands in PE (M-1, N-1) at cycle (M-1)+(N-1)+(K-1).
        return (self.m - 1) + (self.n - 1) + max(self.k, 1)

    def setup(self, array: SystolicArray) -> None:
        if self.m > array.rows or self.n > array.cols:
            raise ValueError(
                f"OS tile ({self.m}x{self.n}) exceeds mesh "
                f"{array.rows}x{array.cols}"
            )
        array.reset()
        if self._bias is not None:
            array.preload_accumulators(np.asarray(self._bias))

    def step(self, array: SystolicArray, cycle: int) -> None:
        a_feeds = _padded_feeds(self._a_feeder, array.rows, cycle)
        b_feeds = _padded_feeds(self._b_feeder, array.cols, cycle)
        array.step_output_stationary(a_feeds, b_feeds, cycle)

    def harvest(self, array: SystolicArray, cycle: int) -> None:
        # OS outputs rest in the accumulators; nothing to do per cycle.
        return None

    def result(self, array: SystolicArray) -> np.ndarray:
        return array.read_accumulators(self.m, self.n)


class WeightStationarySchedule:
    """WS execution of ``C = A @ W (+ bias)`` for one tile.

    ``W`` is ``(K, N)`` with ``K <= rows`` and ``N <= cols``, preloaded so
    that ``W[i, j]`` is stationary in PE ``(i, j)``. ``A`` is ``(M, K)``
    with unbounded ``M`` — output rows stream through the mesh. Element
    ``A[m, i]`` enters mesh row ``i`` at cycle ``m + i``; the partial sum
    for output row ``m`` enters the top of column ``j`` at cycle ``m + j``
    and emerges from the bottom at cycle ``m + j + rows - 1``.

    Note that partial sums traverse *all* mesh rows, including rows beyond
    ``K`` whose stationary weights are zero — which is why a stuck-at fault
    in any MAC of a used column corrupts the whole column, regardless of
    whether that MAC holds a live weight (the paper's position-independence
    observation).
    """

    def __init__(
        self, a: np.ndarray, w: np.ndarray, bias: np.ndarray | None = None
    ) -> None:
        a = np.asarray(a)
        w = np.asarray(w)
        if a.ndim != 2 or w.ndim != 2:
            raise ValueError("operands must be 2-D matrices")
        if a.shape[1] != w.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: A is {a.shape}, W is {w.shape}"
            )
        self.m, self.k = a.shape
        self.n = w.shape[1]
        self._w = w
        self._a_feeder = SkewedFeeder(a, stream_axis=0)
        if bias is None:
            bias = np.zeros((self.m, self.n), dtype=np.int64)
        self._bias_feeder = SkewedFeeder(np.asarray(bias), stream_axis=0)
        self._mesh_rows: int | None = None
        self._out: np.ndarray | None = None

    @property
    def total_cycles(self) -> int:
        if self._mesh_rows is None:
            raise RuntimeError("total_cycles is defined after setup()")
        # Last output row M-1 leaves column N-1 at (M-1)+(N-1)+(rows-1).
        return (self.m - 1) + (self.n - 1) + self._mesh_rows

    def setup(self, array: SystolicArray) -> None:
        if self.k > array.rows or self.n > array.cols:
            raise ValueError(
                f"WS weight tile ({self.k}x{self.n}) exceeds mesh "
                f"{array.rows}x{array.cols}"
            )
        array.reset()
        array.preload_weights(self._w)
        self._mesh_rows = array.rows
        self._out = np.zeros((self.m, self.n), dtype=np.int64)

    def step(self, array: SystolicArray, cycle: int) -> None:
        a_feeds = _padded_feeds(self._a_feeder, array.rows, cycle)
        psum_feeds = _padded_feeds(self._bias_feeder, array.cols, cycle)
        array.step_weight_stationary(a_feeds, psum_feeds, cycle)

    def harvest(self, array: SystolicArray, cycle: int) -> None:
        assert self._out is not None and self._mesh_rows is not None
        bottom = array.bottom_outputs(self.n)
        for j in range(self.n):
            m = cycle - j - (self._mesh_rows - 1)
            if 0 <= m < self.m:
                self._out[m, j] = bottom[j]

    def result(self, array: SystolicArray) -> np.ndarray:
        assert self._out is not None
        return self._out


class InputStationarySchedule:
    """IS execution of ``C = A @ B (+ bias)`` for one tile.

    The activation tile ``A`` (``M <= cols``, ``K <= rows``) is held
    stationary as ``A^T`` (element ``A[m, i]`` in PE ``(i, m)``); weight
    columns stream west-to-east and partial sums cascade down mesh column
    ``m``, emerging as output *row* ``m``. Mechanically this is the WS
    schedule applied to the transposed problem ``C^T = B^T @ A^T`` —
    the same mesh, the same fault sites, dual output geometry.
    """

    def __init__(
        self, a: np.ndarray, b: np.ndarray, bias: np.ndarray | None = None
    ) -> None:
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("operands must be 2-D matrices")
        if a.shape[1] != b.shape[0]:
            raise ValueError(
                f"inner dimensions disagree: A is {a.shape}, B is {b.shape}"
            )
        self.m, self.k = a.shape
        self.n = b.shape[1]
        bias_t = None if bias is None else np.asarray(bias).T
        self._inner = WeightStationarySchedule(b.T, a.T, bias=bias_t)

    @property
    def total_cycles(self) -> int:
        return self._inner.total_cycles

    def setup(self, array: SystolicArray) -> None:
        # The stationary (activation) tile must fit the mesh: K rows
        # (reduction) and M columns (output rows).
        self._inner.setup(array)

    def step(self, array: SystolicArray, cycle: int) -> None:
        self._inner.step(array, cycle)

    def harvest(self, array: SystolicArray, cycle: int) -> None:
        self._inner.harvest(array, cycle)

    def result(self, array: SystolicArray) -> np.ndarray:
        return self._inner.result(array).T


def make_schedule(
    dataflow: Dataflow,
    a: np.ndarray,
    b: np.ndarray,
    bias: np.ndarray | None = None,
) -> TileSchedule:
    """Build the tile schedule for ``dataflow`` computing ``A @ B``."""
    if dataflow is Dataflow.OUTPUT_STATIONARY:
        return OutputStationarySchedule(a, b, bias=bias)
    if dataflow is Dataflow.WEIGHT_STATIONARY:
        return WeightStationarySchedule(a, b, bias=bias)
    if dataflow is Dataflow.INPUT_STATIONARY:
        return InputStationarySchedule(a, b, bias=bias)
    raise ValueError(f"unsupported dataflow: {dataflow!r}")
