"""Closed-form stuck-at delta kernels, batched over fault sites.

The paper's determinism result (Section IV) says a stuck-at fault's
output perturbation is a function of (configuration, dataflow, operation,
site) alone; FLARE exploits the same structure to invert faulty outputs
algebraically. These kernels are that algebra, written against the exact
wrap/force semantics of :class:`~repro.systolic.functional.
FunctionalSimulator` (itself pinned bit-identical to the cycle engine):

* **OS** (:func:`os_chain_tile`) — PE ``(r, c)`` owns output element
  ``(r, c)`` of a tile, accumulated by a short per-cycle recurrence.
  For operand and product faults only the *products* are perturbed, so
  the chain of wrapped additions collapses (associativity of modular
  addition) to one vectorised sum of forced products — no loop at all.
  A stuck SUM bit forces *between* the additions; that recurrence is
  irreducible per cycle, but still vectorises over *sites*: one numpy
  step per mesh cycle covers the whole batch, instead of one Python
  loop per site. Idle (fill/drain) cycles are included — a stuck
  product or operand register perturbs them too.
* **WS** (:func:`ws_chain_tile`) — the partial sum of every output row
  traverses all mesh rows of the faulty column, but forcing happens at
  exactly one row, and wrapped addition is associative
  (``wrap(wrap(x) + y) == wrap(x + y)``). The chain therefore collapses
  to ``wrap(force(wrap(state + prefix + p_i)) + suffix)`` with the
  prefix/suffix sums taken from one cumulative-sum tensor — fully
  vectorised over output rows *and* sites, no per-cycle loop at all.
* **IS** rides :func:`ws_chain_tile` on the transposed problem, exactly
  as the engines do.

Both kernels advance a *chained* state across reduction tiles: the
faulty partial of tile ``t`` is the bias input of tile ``t + 1``
(``TiledGemm``'s mesh-resident accumulation), so the per-site state out
of one call feeds the next.

Exactness arguments live in ``docs/analytic_engine.md``; the equivalence
itself is pinned by ``tests/engines`` and ``tests/property``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.faults.sites import (
    SIGNAL_A_REG,
    SIGNAL_B_REG,
    SIGNAL_PRODUCT,
    SIGNAL_SUM,
)
from repro.systolic.datatypes import IntType, force_bit_array, wrap_array

__all__ = ["FaultLens", "os_chain_tile", "ws_chain_tile"]


@dataclass(frozen=True)
class FaultLens:
    """One homogeneous stuck-at family: which bit of which signal is
    forced to what, and the datapath types that define the forcing.

    A campaign batch is grouped by lens before hitting the kernels, so
    each kernel call forces exactly one (signal, bit, value) triple —
    the per-site dimensions are only *where* the fault sits.
    """

    signal: str
    bit: int
    stuck: int
    input_dtype: IntType
    acc_dtype: IntType


def os_chain_tile(
    acc: np.ndarray,
    a_tile: np.ndarray,
    b_tile: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    lens: FaultLens,
    tile_shape: tuple[int, int] | None = None,
    row_base: np.ndarray | int = 0,
    col_base: np.ndarray | int = 0,
) -> np.ndarray:
    """Advance per-site OS accumulators through one reduction tile.

    Parameters
    ----------
    acc:
        int64 ``(S,)`` — each site's accumulator value entering this
        reduction tile: the chained partial of the preceding tiles,
        exactly the bias the engine would receive.
    a_tile, b_tile:
        The wrapped operand panels ``(M, kt)`` and ``(kt, N)``.
    rows, cols:
        int64 ``(S,)`` MAC coordinates per site; every site must satisfy
        ``rows < mt`` and ``cols < nt`` (callers filter inactive sites).
    lens:
        The stuck-at family being forced.
    tile_shape:
        The output tile's ``(mt, nt)``; defaults to the panels' full
        ``(M, N)``, i.e. the panels are one output tile's operands.
    row_base, col_base:
        Per-site origin of the site's output tile within the panels:
        PE ``(r, c)`` reads A row ``row_base + r`` and B column
        ``col_base + c``. One call can thus advance ``(site, tile)``
        pairs from every output tile of one shape, since the cycle skew
        depends only on the local ``r + c``.

    Returns the ``(S,)`` accumulators after the tile's full cycle count
    ``(mt-1) + (nt-1) + kt`` — including the idle cycles during pipeline
    fill/drain, whose zero operands still pass the forced datapath.
    """
    kt = a_tile.shape[1]
    mt, nt = tile_shape or (a_tile.shape[0], b_tile.shape[1])
    total = (mt - 1) + (nt - 1) + max(kt, 1)
    # Per-site operand streams: at cycle t, PE (r, c) sees reduction step
    # t - r - c; steps outside [0, kt) are idle and stream zeros. Forcing
    # an operand register applies to idle zeros too, so force *after* the
    # zero fill, over the whole (S, total) stream at once.
    steps = np.arange(total, dtype=np.int64)[None, :] - (rows + cols)[:, None]
    live = (steps >= 0) & (steps < kt)
    index = np.clip(steps, 0, kt - 1)
    av = np.where(live, a_tile[(row_base + rows)[:, None], index], 0)
    bv = np.where(live, b_tile[index, (col_base + cols)[:, None]], 0)
    if lens.signal == SIGNAL_A_REG:
        av = force_bit_array(av, lens.bit, lens.stuck, lens.input_dtype)
    elif lens.signal == SIGNAL_B_REG:
        bv = force_bit_array(bv, lens.bit, lens.stuck, lens.input_dtype)
    products = wrap_array(av * bv, lens.acc_dtype)
    if lens.signal == SIGNAL_PRODUCT:
        products = force_bit_array(
            products, lens.bit, lens.stuck, lens.acc_dtype
        )
    acc = np.asarray(acc, dtype=np.int64)
    if lens.signal != SIGNAL_SUM:
        # Forcing touched only the products, so the accumulator is a
        # plain chain of wrapped additions — which collapses by the
        # associativity of modular addition: wrap(... wrap(p_0 + acc)
        # ... + p_T) == wrap(sum(p_t) + acc). No per-cycle loop.
        return wrap_array(
            products.sum(axis=1, dtype=np.int64) + acc, lens.acc_dtype
        )
    # SUM faults force *between* the additions; the recurrence is
    # irreducible, but one forced step per mesh cycle covers every site
    # (force re-masks its input, so force(wrap(x)) == force(x)).
    for cycle in range(total):
        acc = force_bit_array(
            products[:, cycle] + acc, lens.bit, lens.stuck, lens.acc_dtype
        )
    return acc


def ws_chain_tile(
    col_state: np.ndarray,
    a_tile: np.ndarray,
    w_tile: np.ndarray,
    site_rows: np.ndarray,
    site_cols: np.ndarray,
    mesh_rows: int,
    lens: FaultLens,
) -> np.ndarray:
    """Advance per-site faulty output columns through one reduction tile.

    Parameters
    ----------
    col_state:
        int64 ``(mt, S)`` — site ``s``'s faulty output column entering
        this reduction tile (the bias column the engine would receive).
    a_tile, w_tile:
        The wrapped activation ``(mt, kt)`` and weight ``(kt, nt)``
        tiles. Every output row's chain is independent of the others,
        so ``mt`` may span any number of output tiles — up to the full
        output height.
    site_rows, site_cols:
        int64 ``(S,)`` MAC coordinates; every site must satisfy
        ``site_cols < nt``. ``site_rows`` ranges over *all* mesh rows —
        rows at or beyond ``kt`` hold zero weights but still force the
        traversing partial sums (the paper's position independence).
    mesh_rows:
        Physical mesh row count — the length of the partial-sum chain.

    Returns the ``(mt, S)`` faulty columns after the tile. The closed
    form: with ``prefix``/``suffix`` the wrapped-product sums of the
    rows before/after the fault row, the chain of wrapped additions
    collapses (associativity of modular addition) to one forced step::

        psum  = wrap(col_state + prefix + product_at_fault_row)
        psum  = force(psum)                      # SUM faults only
        final = wrap(psum + suffix)

    with the fault-row product itself recomputed from forced operands
    for A-register / B-register / product faults. A fault row >= ``kt``
    streams zero operands, but a forced *product* is still nonzero —
    which is why the product is forced after zeroing, never masked.
    """
    mt, kt = a_tile.shape
    if mesh_rows < kt:
        raise ValueError(
            f"weight tile of {kt} rows exceeds the {mesh_rows}-row mesh"
        )
    # Wrapped product contributions prods[m, j, u] = wrap(A[m,j] * W[j,u])
    # for mesh rows j < kt; rows beyond the weight tile contribute zero.
    # They depend on the mesh column only, so they (and their prefix sums)
    # are computed once per distinct column and shared by its sites.
    columns, column_of = np.unique(site_cols, return_inverse=True)
    prods = wrap_array(
        a_tile[:, :, None] * w_tile[:, columns][None, :, :], lens.acc_dtype
    )
    csum = np.concatenate(
        [
            np.zeros((mt, 1, len(columns)), dtype=np.int64),
            np.cumsum(prods, axis=1, dtype=np.int64),
        ],
        axis=1,
    )
    # head = prefix + fault-row product (the whole tile when row >= kt).
    head = csum[:, np.minimum(site_rows + 1, kt), column_of]
    suffix = csum[:, kt, column_of] - head
    if lens.signal == SIGNAL_SUM:
        # force re-masks its input, so force(wrap(x)) == force(x).
        psum = force_bit_array(
            col_state + head, lens.bit, lens.stuck, lens.acc_dtype
        )
    else:
        live = site_rows < kt
        at_idx = np.where(live, site_rows, 0)
        av = np.where(live[None, :], a_tile[:, at_idx], 0)
        wv = np.where(live, w_tile[at_idx, site_cols], 0)
        if lens.signal == SIGNAL_A_REG:
            av = force_bit_array(av, lens.bit, lens.stuck, lens.input_dtype)
        elif lens.signal == SIGNAL_B_REG:
            wv = force_bit_array(wv, lens.bit, lens.stuck, lens.input_dtype)
        product = wrap_array(av * wv[None, :], lens.acc_dtype)
        if lens.signal == SIGNAL_PRODUCT:
            product = force_bit_array(
                product, lens.bit, lens.stuck, lens.acc_dtype
            )
        prefix = csum[:, np.minimum(site_rows, kt), column_of]
        psum = wrap_array(col_state + prefix + product, lens.acc_dtype)
    return wrap_array(psum + suffix, lens.acc_dtype)
