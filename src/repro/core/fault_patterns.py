"""Fault-pattern extraction: diffing faulty output against ground truth.

The paper extracts fault patterns "by contrasting the output of the systolic
array with and without FI (ground truth), keeping all other configurations
the same" (Section III-B). :func:`extract_pattern` is exactly that diff,
packaged with the spatial metadata (tiling plan, convolution geometry) the
classifier needs.

A :class:`FaultPattern` is a value object holding only the corrupted
cells: the output shape, the cells' flat output-space indices in strictly
ascending (row-major) order, and their signed deviations. Stuck-at
patterns are sparse by construction — a WS fault corrupts one output
column — so the cell count, not the output size, sets a pattern's memory.
The dense boolean :attr:`~FaultPattern.mask` and int64
:attr:`~FaultPattern.deviation` arrays are built on first access only,
for callers that want whole-output views; every statistic, spatial query
and the classifier read the cells directly. The ascending order is the
order ``np.argwhere`` gives on the dense mask, which is the order the
checkpoint codec (:mod:`repro.core.serialize`) writes cells in.

Patterns live in both output spaces of the paper's figures — the 2-D GEMM
output matrix and the 4-D ``(N, K, P, Q)`` convolution output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import TilingPlan

__all__ = ["FaultPattern", "extract_pattern", "output_index"]


@dataclass(frozen=True)
class FaultPattern:
    """The software-visible effect of one fault on one operation's output.

    Attributes
    ----------
    shape:
        Output shape: ``(M, N)`` for GEMM, ``(N, K, P, Q)`` for convolution.
    index:
        Flat (row-major) output indices of the corrupted cells, int64,
        strictly ascending.
    values:
        Signed deviation ``faulty - golden`` (int64, never zero) of each
        cell of ``index``.
    plan:
        The GEMM tiling plan of the run (present for both GEMM and conv —
        conv diffs are taken over the lowered GEMM's reshaped output).
    geometry:
        Convolution geometry, or None for plain GEMM.
    """

    shape: tuple[int, ...]
    index: np.ndarray
    values: np.ndarray
    plan: TilingPlan | None = None
    geometry: ConvGeometry | None = None

    def __post_init__(self) -> None:
        shape = tuple(map(int, self.shape))
        index = np.asarray(self.index, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.int64)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "values", values)
        if index.ndim != 1 or index.shape != values.shape:
            raise ValueError(
                f"index shape {index.shape} and values shape "
                f"{values.shape} are not one matching 1-d pair"
            )
        if index.size and (index[0] < 0 or index[-1] >= math.prod(shape)):
            raise ValueError(f"a cell lies outside the {shape} output")
        if np.count_nonzero(index[1:] <= index[:-1]):
            raise ValueError("cell indices are not strictly ascending")
        if np.count_nonzero(values) != values.size:
            raise ValueError("a cell has a zero deviation")

    # ------------------------------------------------------------------
    # Dense views, built on first access
    # ------------------------------------------------------------------
    @cached_property
    def mask(self) -> np.ndarray:
        """Boolean array of :attr:`shape`, True where the faulty output
        differs from golden."""
        mask = np.zeros(self.shape, dtype=bool)
        mask.reshape(-1)[self.index] = True
        return mask

    @cached_property
    def deviation(self) -> np.ndarray:
        """Signed difference ``faulty - golden`` (int64) of :attr:`shape`."""
        deviation = np.zeros(self.shape, dtype=np.int64)
        deviation.reshape(-1)[self.index] = self.values
        return deviation

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def is_conv(self) -> bool:
        """Whether this pattern lives in convolution output space."""
        return self.geometry is not None

    @property
    def corrupted(self) -> bool:
        """Whether any output element differs from golden (SDC occurred)."""
        return bool(self.index.size)

    @property
    def num_corrupted(self) -> int:
        """Number of corrupted output elements."""
        return int(self.index.size)

    @property
    def corruption_rate(self) -> float:
        """Fraction of output elements corrupted."""
        return self.num_corrupted / math.prod(self.shape)

    @property
    def max_abs_deviation(self) -> int:
        """Largest absolute numeric deviation across the output."""
        if not self.corrupted:
            return 0
        return int(np.abs(self.values).max())

    # ------------------------------------------------------------------
    # Spatial queries (GEMM space)
    # ------------------------------------------------------------------
    def gemm_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """Corrupted ``(rows, cols)`` in lowered-GEMM space, row-major.

        For convolutions output cell ``(n, k, p, q)`` is GEMM cell
        ``(n*P*Q + p*Q + q, k)`` — the space in which the mesh computed
        the result and in which the tiling plan is expressed.
        """
        if not self.is_conv:
            return np.divmod(self.index, self.shape[1])
        _, channels, p, q = self.shape
        image, pixel = np.divmod(self.index, p * q)
        batch, channel = np.divmod(image, channels)
        rows = batch * (p * q) + pixel
        gemm_flat = rows * channels + channel
        if np.count_nonzero(gemm_flat[1:] <= gemm_flat[:-1]):
            order = np.argsort(gemm_flat)
            rows, channel = rows[order], channel[order]
        return rows, channel

    def gemm_mask(self) -> np.ndarray:
        """The corruption mask in lowered-GEMM space ``(M, N)``.

        For convolutions this reshapes ``(N, K, P, Q)`` back to
        ``(N*P*Q, K)``.
        """
        if not self.is_conv:
            return self.mask
        g = self.geometry
        assert g is not None
        mask = np.zeros((g.gemm_m, g.k), dtype=bool)
        mask[self.gemm_coordinates()] = True
        return mask

    def corrupted_cells(self) -> list[tuple[int, int]]:
        """Corrupted (row, col) coordinates in GEMM space, row-major."""
        rows, cols = self.gemm_coordinates()
        return list(zip(rows.tolist(), cols.tolist()))

    def corrupted_rows(self) -> tuple[int, ...]:
        """Distinct corrupted GEMM output rows."""
        return tuple(np.unique(self.gemm_coordinates()[0]).tolist())

    def corrupted_columns(self) -> tuple[int, ...]:
        """Distinct corrupted GEMM output columns."""
        return tuple(np.unique(self.gemm_coordinates()[1]).tolist())

    # ------------------------------------------------------------------
    # Spatial queries (conv space)
    # ------------------------------------------------------------------
    def corrupted_channels(self) -> tuple[int, ...]:
        """Distinct corrupted output channels (conv patterns only)."""
        if not self.is_conv:
            raise ValueError("corrupted_channels is defined for conv patterns")
        _, channels, p, q = self.shape
        return tuple(np.unique(self.index // (p * q) % channels).tolist())

    def channel_mask(self, channel: int) -> np.ndarray:
        """The ``(N, P, Q)`` corruption mask of one output channel."""
        if not self.is_conv:
            raise ValueError("channel_mask is defined for conv patterns")
        return self.mask[:, channel, :, :]


def output_index(
    rows: np.ndarray,
    cols: np.ndarray,
    plan: TilingPlan,
    geometry: ConvGeometry | None = None,
) -> tuple[tuple[int, ...], np.ndarray]:
    """The output shape, and the flat output index of each GEMM cell
    ``(rows[i], cols[i])`` in it: ``row * N + col`` in the ``(M, N)``
    GEMM output, or, for a convolution, the index of ``(n, k, p, q)``
    in the ``(N, K, P, Q)`` output (the inverse of
    :meth:`FaultPattern.gemm_coordinates`). The index is a new array."""
    if geometry is None:
        flat = rows * plan.n
        flat += cols
        return (plan.m, plan.n), flat
    g = geometry
    pixels = g.p * g.q
    flat, pixel = np.divmod(rows, pixels)
    flat *= g.k
    flat += cols
    flat *= pixels
    flat += pixel
    return (g.n, g.k, g.p, g.q), flat


def extract_pattern(
    golden: np.ndarray,
    faulty: np.ndarray,
    plan: TilingPlan | None = None,
    geometry: ConvGeometry | None = None,
) -> FaultPattern:
    """Diff a faulty output against the golden run (paper Section III-B).

    Parameters
    ----------
    golden, faulty:
        Outputs of the same operation without and with fault injection.
    plan:
        The tiling plan used by the run; required for multi-tile
        classification.
    geometry:
        Convolution geometry when the outputs are ``(N, K, P, Q)`` tensors.
    """
    golden = np.asarray(golden)
    faulty = np.asarray(faulty)
    if golden.shape != faulty.shape:
        raise ValueError(
            f"golden shape {golden.shape} != faulty shape {faulty.shape}"
        )
    deviation = (faulty.astype(np.int64) - golden.astype(np.int64)).reshape(-1)
    index = np.flatnonzero(deviation)
    return FaultPattern(
        shape=golden.shape,
        index=index,
        values=deviation[index],
        plan=plan,
        geometry=geometry,
    )
