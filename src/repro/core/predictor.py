"""Analytical fault-pattern prediction (the paper's determinism claim).

Section IV's discussion states that fault patterns are *deterministic*:
"given the hardware configurations (size of systolic array, data mapping
scheme), type of operation and its properties ..., and the location of the
stuck-at fault, we can predict the fault patterns, after taking into account
the tiling effect and flattening of convolutions into GEMM."

This module is that prediction, written down as code. Given a fault site
and the operation's tiling plan (plus the convolution geometry when the op
is a lowered convolution), it derives the *support* of the fault pattern —
the set of output coordinates that can be corrupted — and the pattern class,
without running any simulation:

* **OS** — PE ``(r, c)`` owns local output element ``(r, c)`` of every
  output tile, so the support is that element replicated across the tile
  grid (``SINGLE_ELEMENT`` / ``SINGLE_ELEMENT_MULTI_TILE``).
* **WS** — partial sums of physical column ``c`` pass through PE ``(r, c)``
  for every output row, so the support is every output column mapped onto
  mesh column ``c`` (``SINGLE_COLUMN`` / ``SINGLE_COLUMN_MULTI_TILE``);
  the mesh *row* of the fault is irrelevant, which is the paper's
  position-independence observation.
* **Conv** — the lowered GEMM's column ``k`` is output channel ``k``
  (Section II-B), so corrupted GEMM columns map to corrupted channels
  (``SINGLE_CHANNEL`` / ``MULTI_CHANNEL``).

The support is an over-approximation of any individual run's corruption:
data-dependent masking (Challenge 2) can only shrink it. With the paper's
uniform all-ones operands and a stuck value that disagrees with the golden
signal, support and observed corruption coincide exactly — which is what
the predictor-validation bench (experiment D2) demonstrates.

:mod:`repro.appfi` uses this module to derive fault patterns on the fly for
application-level FI — the integration the paper proposes for
TensorFI/LLTFI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.classifier import Classification, PatternClass, classify_batch
from repro.faults.sites import FaultSite
from repro.ops.im2col import ConvGeometry
from repro.ops.tiling import TilingPlan
from repro.systolic.dataflow import Dataflow

__all__ = [
    "PredictedPattern",
    "predict_pattern",
    "predict_class",
    "predict_classes",
]


@dataclass(frozen=True)
class PredictedPattern:
    """The analytically-derived fault pattern for one (site, operation).

    Attributes
    ----------
    site:
        The fault site the prediction is for.
    support:
        Boolean ``(M, N)`` mask over the GEMM output: True where corruption
        is possible.
    pattern_class:
        The predicted taxonomy class (assuming no data masking).
    channels:
        Output channels covered by the support (convolutions only).
    """

    site: FaultSite
    support: np.ndarray
    pattern_class: PatternClass
    channels: tuple[int, ...] = ()

    @property
    def num_cells(self) -> int:
        """Number of output cells in the support."""
        return int(self.support.sum())

    def conv_support(self, geometry: ConvGeometry) -> np.ndarray:
        """The support reshaped to convolution output space ``(N,K,P,Q)``."""
        g = geometry
        return (
            self.support.reshape(g.n, g.p, g.q, g.k).transpose(0, 3, 1, 2).copy()
        )


def _lines(coords: np.ndarray, tile: int, extent: int) -> np.ndarray:
    """``(S, extent)`` bool: the global output lines (rows or columns)
    mapped onto each site's mesh coordinate along one dimension.

    Output tiles start at multiples of ``tile``, so line ``j`` lies at
    mesh coordinate ``j % tile``; a coordinate at or beyond ``tile``, or
    beyond a ragged edge tile, maps to no line of that tile.
    """
    return np.arange(extent)[None, :] % tile == coords[:, None]


def _support(
    rows: np.ndarray, cols: np.ndarray, plan: TilingPlan
) -> np.ndarray:
    """Boolean ``(S, M, N)`` support of the MACs ``(rows[i], cols[i])``:
    the outer product of the output rows and columns each is mapped onto.

    * **OS** — PE ``(r, c)`` owns local element ``(r, c)`` of every
      output tile: rows of mesh row ``r`` x columns of mesh column ``c``.
    * **WS** — partial sums of physical column ``c`` pass through PE
      ``(r, c)`` for every output row: all rows x columns of mesh column
      ``c``. The mesh *row* is irrelevant (position independence).
    * **IS** — the transposed WS execution: output *rows* of mesh column
      ``c`` (the output-row dimension lies across mesh columns) x all
      columns. The mesh row is irrelevant, exactly as for WS.
    """
    if plan.dataflow is Dataflow.OUTPUT_STATIONARY:
        row_lines = _lines(rows, plan.tile_m, plan.m)
        col_lines = _lines(cols, plan.tile_n, plan.n)
    elif plan.dataflow is Dataflow.WEIGHT_STATIONARY:
        row_lines = np.ones((len(cols), plan.m), dtype=bool)
        col_lines = _lines(cols, plan.tile_n, plan.n)
    elif plan.dataflow is Dataflow.INPUT_STATIONARY:
        row_lines = _lines(cols, plan.tile_m, plan.m)
        col_lines = np.ones((len(cols), plan.n), dtype=bool)
    else:
        raise ValueError(f"unsupported dataflow: {plan.dataflow!r}")
    return row_lines[:, :, None] & col_lines[:, None, :]


def _predict(
    sites: Sequence[FaultSite],
    plan: TilingPlan,
    geometry: ConvGeometry | None,
) -> tuple[np.ndarray, list[Classification]]:
    """The support of each distinct key, and every site's classification.

    A site's support depends only on its key: its mesh column under WS
    and IS, its ``(row, col)`` under OS. So each key's support is built
    and classified once, in key order, and every site of the key shares
    the result: an exhaustive 16x16 WS sweep classifies 16 supports.

    Each support goes through the SAME structural rules the observed
    patterns go through (:func:`~repro.core.classifier.classify_batch`),
    so prediction and classification agree by construction, including on
    degenerate shapes (one-row outputs, where a full column and a single
    element are the same cell set). A convolution is classified in
    channel space.
    """
    rows = np.array([site.row for site in sites], dtype=np.int64)
    cols = np.array([site.col for site in sites], dtype=np.int64)
    keys = cols
    if plan.dataflow is Dataflow.OUTPUT_STATIONARY:
        keys = rows * (int(cols.max(initial=0)) + 1) + cols
    _, first, key_of = np.unique(keys, return_index=True, return_inverse=True)
    support = _support(rows[first], cols[first], plan)
    classifications = classify_batch(
        *np.nonzero(support), len(first), plan, conv=geometry is not None
    )
    return support, [classifications[key] for key in key_of.tolist()]


def predict_pattern(
    site: FaultSite,
    plan: TilingPlan,
    geometry: ConvGeometry | None = None,
) -> PredictedPattern:
    """Predict the fault pattern for ``site`` under the plan's dataflow.

    Parameters
    ----------
    site:
        The faulty MAC's coordinates (signal and bit do not change the
        spatial support — only whether/where masking occurs numerically).
    plan:
        The operation's tiling plan, which fixes dataflow, dimensions and
        tile grid.
    geometry:
        Present when the operation is a lowered convolution; switches the
        classification into channel space.

    Raises
    ------
    ValueError
        If the plan's dataflow is not OS, WS or IS. The site is not
        range-checked here: sites are validated at construction, and a
        MAC outside the plan's tiles simply has an empty support.
    """
    support, (classification,) = _predict([site], plan, geometry)
    return PredictedPattern(
        site=site,
        support=support[0],
        pattern_class=classification.pattern_class,
        channels=classification.corrupted_channels,
    )


def predict_class(
    site: FaultSite,
    plan: TilingPlan,
    geometry: ConvGeometry | None = None,
) -> PatternClass:
    """Shortcut returning only the predicted :class:`PatternClass`."""
    return predict_pattern(site, plan, geometry=geometry).pattern_class


def predict_classes(
    sites: Sequence[FaultSite],
    plan: TilingPlan,
    geometry: ConvGeometry | None = None,
) -> list[PatternClass]:
    """:func:`predict_class` for many sites in one batched pass.

    Returns one predicted class per entry of ``sites``, in order — equal
    to ``[predict_class(site, plan, geometry) for site in sites]``.
    """
    _, classifications = _predict(sites, plan, geometry)
    return [classification.pattern_class for classification in classifications]
