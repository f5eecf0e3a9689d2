"""Vectorised functional engine with cycle-engine-identical semantics.

The paper's FPGA platform exists because RTL simulation of FI campaigns is
slow; this module is our analogue of that speed-up. It computes the *exact*
faulty outputs that :class:`~repro.systolic.simulator.CycleSimulator` would
produce — including wrap-around arithmetic, per-cycle stuck-at forcing, idle
(pipeline fill/drain) cycles, and transient fault windows — but in numpy,
by exploiting the same structural facts the paper's analysis exploits:

* in the **OS** dataflow, a fault in PE ``(r, c)`` can only influence output
  element ``(r, c)``, whose value is a short sequential recurrence;
* in the **WS** dataflow, a fault in PE ``(r, c)`` can only influence the
  outputs of physical column ``c``, whose values are per-row partial-sum
  chains that vectorise over the output-row dimension.

Everything else is the golden matmul, computed in one numpy expression.

Engine contract: :meth:`FunctionalSimulator.matmul` takes one tile or a
stack of ``T`` equal-shape tiles (operands ``(T, M, K)`` and ``(T, K, N)``,
bias ``(T, M, N)``) and returns what ``T`` single-tile calls would, in
stack order; ``cycles_elapsed`` and ``tiles_executed`` add up per tile.
The golden part is one stacked ``a @ b + bias``; the WS/IS overlay
vectorises its per-mesh-row chain over (stack x output rows), and the OS
overlay runs its scalar recurrence once per tile. Fault cycles count from
each tile's own start, as in the cycle engine.

The equivalence ``FunctionalSimulator == CycleSimulator`` for every
(operand, dataflow, fault) combination is enforced by property-based tests
(``tests/property/test_engine_equivalence.py``); it is what justifies using
this engine for the 112x112 campaigns of RQ3.
"""

from __future__ import annotations

import numpy as np

from repro.faults.injector import NO_FAULTS, FaultInjector
from repro.faults.model import FaultDescriptor, StuckAtFault, TransientBitFlip
from repro.faults.sites import (
    SIGNAL_A_REG,
    SIGNAL_B_REG,
    SIGNAL_PRODUCT,
    SIGNAL_SUM,
)
from repro.systolic.array import MeshConfig
from repro.systolic.dataflow import Dataflow, as_tile_stack
from repro.systolic.datatypes import (
    IntType,
    flip_bit_array,
    force_bit_array,
    wrap_array,
)

__all__ = ["FunctionalSimulator"]


def _apply_faults_vec(
    faults: tuple[FaultDescriptor, ...],
    values: np.ndarray,
    dtype: IntType,
    cycles: np.ndarray,
) -> np.ndarray:
    """Apply ``faults`` to an array of signal ``values`` driven at ``cycles``.

    ``cycles`` broadcasts against ``values``: element ``i`` of ``values``
    is the signal value driven at cycle ``cycles[i]``. Faults are applied
    in registration order, matching :meth:`FaultInjector.perturb`. Only
    the exact stuck-at and bit-flip classes take the vectorised forms; any
    other descriptor, a subclass overriding :meth:`~FaultDescriptor.apply`
    included, runs its own ``apply`` element by element.
    """
    for fault in faults:
        if type(fault) is StuckAtFault:
            values = force_bit_array(values, fault.site.bit, fault.stuck_value, dtype)
        elif type(fault) is TransientBitFlip:
            end = (
                fault.start_cycle if fault.end_cycle is None else fault.end_cycle
            )
            active = (cycles >= fault.start_cycle) & (cycles <= end)
            flipped = flip_bit_array(values, fault.site.bit, dtype)
            values = np.where(active, flipped, values)
        else:
            # Generic descriptor: elementwise fallback keeps semantics exact
            # for user-defined fault models at the cost of a Python loop.
            at = np.broadcast_to(cycles, values.shape)
            values = np.array(
                [
                    fault.apply(v, dtype, t)
                    for v, t in zip(values.ravel().tolist(), at.ravel().tolist())
                ],
                dtype=np.int64,
            ).reshape(values.shape)
    return values


class FunctionalSimulator:
    """Drop-in fast replacement for :class:`CycleSimulator`.

    Parameters mirror the cycle engine; the two are interchangeable wherever
    an "engine" is expected (campaigns, the Gemmini controller, the tiled
    GEMM executor).
    """

    def __init__(
        self, config: MeshConfig, injector: FaultInjector = NO_FAULTS
    ) -> None:
        self.config = config
        self.injector = injector
        self.cycles_elapsed = 0
        self.tiles_executed = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        dataflow: Dataflow,
        bias: np.ndarray | None = None,
    ) -> np.ndarray:
        """Compute ``A @ B (+ bias)`` under ``dataflow``, one tile or a stack.

        Semantics (shapes, validation, wrap arithmetic, fault effects) are
        identical to :meth:`CycleSimulator.matmul`: a stack of ``T``
        equal-shape tiles (operands ``(T, M, K)`` and ``(T, K, N)``, bias
        ``(T, M, N)``) returns what ``T`` single-tile calls would, in stack
        order, and counts ``T`` tiles and their cycles.
        """
        a, b, bias, stacked = as_tile_stack(a, b, bias)
        a = wrap_array(a, self.config.input_dtype)
        b = wrap_array(b, self.config.input_dtype)
        tiles, m, k = a.shape
        n = b.shape[2]
        if dataflow is Dataflow.OUTPUT_STATIONARY:
            if m > self.config.rows or n > self.config.cols:
                raise ValueError(
                    f"OS tile ({m}x{n}) exceeds mesh "
                    f"{self.config.rows}x{self.config.cols}"
                )
            total_cycles = (m - 1) + (n - 1) + max(k, 1)
        elif dataflow is Dataflow.WEIGHT_STATIONARY:
            if k > self.config.rows or n > self.config.cols:
                raise ValueError(
                    f"WS weight tile ({k}x{n}) exceeds mesh "
                    f"{self.config.rows}x{self.config.cols}"
                )
            total_cycles = (m - 1) + (n - 1) + self.config.rows
        elif dataflow is Dataflow.INPUT_STATIONARY:
            # IS executes the transposed GEMM under WS (see Dataflow docs):
            # the stationary activation tile needs K mesh rows and M mesh
            # columns; the weight stream length N is unbounded.
            if k > self.config.rows or m > self.config.cols:
                raise ValueError(
                    f"IS activation tile ({k}x{m}) exceeds mesh "
                    f"{self.config.rows}x{self.config.cols}"
                )
            total_cycles = (n - 1) + (m - 1) + self.config.rows
        else:
            raise ValueError(f"unsupported dataflow: {dataflow!r}")

        bias_arr = (
            np.zeros((tiles, m, n), dtype=np.int64)
            if bias is None
            else wrap_array(bias, self.config.acc_dtype)
        )
        # Wrapping is modular, so one wrap of the int64 sum equals the
        # hardware's wrapped product followed by a wrapped accumulate.
        out = wrap_array(a @ b + bias_arr, self.config.acc_dtype)

        if not self.injector.is_golden:
            if dataflow is Dataflow.OUTPUT_STATIONARY:
                self._overlay_os_faults(out, a, b, bias_arr, total_cycles)
            elif dataflow is Dataflow.WEIGHT_STATIONARY:
                self._overlay_ws_faults(out, a, b, bias_arr)
            else:
                # IS = WS on the transposed problem: overlay faults on
                # C^T = B^T @ A^T, then write the transpose back.
                out_t = np.ascontiguousarray(out.transpose(0, 2, 1))
                self._overlay_ws_faults(
                    out_t,
                    b.transpose(0, 2, 1),
                    a.transpose(0, 2, 1),
                    bias_arr.transpose(0, 2, 1),
                )
                out[...] = out_t.transpose(0, 2, 1)

        self.cycles_elapsed += total_cycles * tiles
        self.tiles_executed += tiles
        return out if stacked else out[0]

    # ------------------------------------------------------------------
    # OS fault overlay
    # ------------------------------------------------------------------
    def _overlay_os_faults(
        self,
        out: np.ndarray,
        a: np.ndarray,
        b: np.ndarray,
        bias: np.ndarray,
        total_cycles: int,
    ) -> None:
        """Recompute the output elements owned by faulty PEs.

        In OS, PE ``(r, c)`` accumulates output ``(r, c)`` over the cycles
        ``r + c + k`` for reduction step ``k``; all other cycles are idle
        (zero operands) but still pass through the faulty datapath — which
        matters for stuck-at faults on the product or operand signals.
        Each faulty MAC's recurrence runs once per tile of the stack,
        applying all of its faults (any signals, any bits) in that one
        pass; cycles count from each tile's own start.
        """
        _, m, k = a.shape
        n = b.shape[2]
        in_t = self.config.input_dtype
        acc_t = self.config.acc_dtype
        macs = {(f.site.row, f.site.col) for f in self.injector.fault_set}
        for r, c in sorted(macs):
            if r >= m or c >= n:
                continue  # fault lands in an unused PE: masked by mapping
            a_faults = self.injector.faults_at(r, c, SIGNAL_A_REG)
            b_faults = self.injector.faults_at(r, c, SIGNAL_B_REG)
            p_faults = self.injector.faults_at(r, c, SIGNAL_PRODUCT)
            s_faults = self.injector.faults_at(r, c, SIGNAL_SUM)
            a_rows = a[:, r, :].tolist()
            b_cols = b[:, :, c].tolist()
            accs = bias[:, r, c].tolist()
            for t, (a_row, b_col, acc) in enumerate(zip(a_rows, b_cols, accs)):
                for cycle in range(total_cycles):
                    step = cycle - r - c
                    av = a_row[step] if 0 <= step < k else 0
                    bv = b_col[step] if 0 <= step < k else 0
                    for fault in a_faults:
                        av = fault.apply(av, in_t, cycle)
                    for fault in b_faults:
                        bv = fault.apply(bv, in_t, cycle)
                    product = acc_t.wrap(av * bv)
                    for fault in p_faults:
                        product = fault.apply(product, acc_t, cycle)
                    acc = acc_t.wrap(product + acc)
                    for fault in s_faults:
                        acc = fault.apply(acc, acc_t, cycle)
                out[t, r, c] = acc

    # ------------------------------------------------------------------
    # WS fault overlay
    # ------------------------------------------------------------------
    def _overlay_ws_faults(
        self,
        out: np.ndarray,
        a: np.ndarray,
        w: np.ndarray,
        bias: np.ndarray,
    ) -> None:
        """Recompute the output columns that pass through faulty PEs.

        In WS, the partial sum of output row ``m`` in column ``c`` traverses
        every mesh row ``i`` (stationary weight ``W[i, c]``, zero beyond the
        weight tile) at cycle ``m + i + c``. The chain is recomputed
        vectorised over the stack and ``m`` with faults applied at each
        traversed row; cycles count from each tile's own start.
        """
        tiles, m_dim, k = a.shape
        n = w.shape[2]
        rows = self.config.rows
        in_t = self.config.input_dtype
        acc_t = self.config.acc_dtype
        m_index = np.arange(m_dim, dtype=np.int64)
        # Hoisted out of the per-row chain: _apply_faults_vec never
        # mutates its operand, so one shared zero block is safe.
        zero = np.zeros((tiles, m_dim), dtype=np.int64)
        faulty_cols = sorted(
            {f.site.col for f in self.injector.fault_set if f.site.col < n}
        )
        for c in faulty_cols:
            psum = bias[:, :, c]
            for i in range(rows):
                cycles = m_index + i + c
                av = a[:, :, i] if i < k else zero
                wv = w[:, i : i + 1, c] if i < k else zero[:, :1]
                a_faults = self.injector.faults_at(i, c, SIGNAL_A_REG)
                if a_faults:
                    av = _apply_faults_vec(a_faults, av, in_t, cycles)
                b_faults = self.injector.faults_at(i, c, SIGNAL_B_REG)
                if b_faults:
                    wv = _apply_faults_vec(
                        b_faults, np.broadcast_to(wv, av.shape), in_t, cycles
                    )
                product = wrap_array(av * wv, acc_t)
                p_faults = self.injector.faults_at(i, c, SIGNAL_PRODUCT)
                if p_faults:
                    product = _apply_faults_vec(p_faults, product, acc_t, cycles)
                psum = wrap_array(psum + product, acc_t)
                s_faults = self.injector.faults_at(i, c, SIGNAL_SUM)
                if s_faults:
                    psum = _apply_faults_vec(s_faults, psum, acc_t, cycles)
            out[:, :, c] = psum
