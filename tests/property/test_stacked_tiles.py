"""Stacked tile matmuls: one engine call on ``T`` tiles equals ``T`` calls.

Both engines accept a stack of equal-shape tiles (operands ``(T, M, K)``
and ``(T, K, N)``, bias ``(T, M, N)``), and :class:`TiledGemm` relies on
it: it makes one engine call per k-tile and output-tile shape. These tests
pin the contract three ways:

* a stack equals its tiles run one by one, on both engines, outputs and
  the ``cycles_elapsed`` / ``tiles_executed`` counters alike, over
  OS/WS/IS, ragged tile shapes, bias or none, stuck-at faults on all four
  MAC signals, transient windows and a generic descriptor;
* :class:`TiledGemm` equals a per-tile reference loop, under ``"mesh"``
  and ``"memory"`` reduction, with tile overrides and ragged edges;
* a traced cycle-engine GEMM still records one ``cycle.matmul`` span per
  tile.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.faults import (
    BridgingFault,
    FaultInjector,
    FaultSet,
    FaultSite,
    StuckAtFault,
    TransientBitFlip,
)
from repro.faults.sites import (
    MAC_SIGNALS,
    SIGNAL_A_REG,
    SIGNAL_PRODUCT,
    SIGNAL_SUM,
)
from repro.obs.trace import TraceRecorder
from repro.ops.gemm import TiledGemm
from repro.systolic import CycleSimulator, Dataflow, FunctionalSimulator, MeshConfig
from repro.systolic.datatypes import IntType, wrap_array

MESH = MeshConfig(rows=4, cols=4)
ENGINES = (CycleSimulator, FunctionalSimulator)
STACK = 3


def _site(signal: str, row: int = 1, col: int = 1) -> FaultSite:
    return FaultSite(row=row, col=col, signal=signal, bit=5)


#: One fault set per case: stuck-at on each MAC signal, a transient window
#: and a generic (non-vectorised) descriptor.
FAULTS = {
    **{
        f"stuck-{signal}": FaultSet.of(StuckAtFault(_site(signal), stuck_value=1))
        for signal in MAC_SIGNALS
    },
    "transient-window": FaultSet.of(
        TransientBitFlip(_site(SIGNAL_SUM), start_cycle=3, end_cycle=7)
    ),
    "generic-bridge": FaultSet.of(
        BridgingFault(_site(SIGNAL_SUM), other_bit=9, mode="or")
    ),
}

#: (m, k, n) tile shapes: full, and ragged along each dimension.
SHAPES = [(4, 4, 4), (3, 2, 4), (4, 3, 2), (2, 4, 3)]


def _operands(m, k, n, with_bias, seed=7):
    rng = np.random.default_rng(seed)
    a = rng.integers(-128, 128, size=(STACK, m, k))
    b = rng.integers(-128, 128, size=(STACK, k, n))
    bias = rng.integers(-(2**20), 2**20, size=(STACK, m, n)) if with_bias else None
    return a, b, bias


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("fault", list(FAULTS), ids=str)
@pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "bias"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("dataflow", list(Dataflow), ids=str)
def test_stack_equals_single_calls(engine_cls, fault, with_bias, shape, dataflow):
    a, b, bias = _operands(*shape, with_bias)
    injector = FaultInjector(FAULTS[fault])
    stacked_engine = engine_cls(MESH, injector)
    stacked = stacked_engine.matmul(a, b, dataflow, bias=bias)
    single_engine = engine_cls(MESH, injector)
    singles = [
        single_engine.matmul(
            a[t], b[t], dataflow, bias=None if bias is None else bias[t]
        )
        for t in range(STACK)
    ]
    assert stacked.shape == (STACK, shape[0], shape[2])
    assert np.array_equal(stacked, np.stack(singles))
    assert stacked_engine.cycles_elapsed == single_engine.cycles_elapsed
    assert stacked_engine.tiles_executed == single_engine.tiles_executed == STACK


@pytest.mark.parametrize("fault", list(FAULTS), ids=str)
@pytest.mark.parametrize("dataflow", list(Dataflow), ids=str)
def test_stacked_engines_agree(fault, dataflow):
    a, b, bias = _operands(3, 4, 2, with_bias=True, seed=11)
    injector = FaultInjector(FAULTS[fault])
    cycle = CycleSimulator(MESH, injector).matmul(a, b, dataflow, bias=bias)
    fast = FunctionalSimulator(MESH, injector).matmul(a, b, dataflow, bias=bias)
    assert np.array_equal(cycle, fast)


@pytest.mark.parametrize("engine_cls", ENGINES, ids=lambda cls: cls.__name__)
def test_stack_shape_mismatches_rejected(engine_cls):
    engine = engine_cls(MESH)
    ws = Dataflow.WEIGHT_STATIONARY
    with pytest.raises(ValueError):  # stack lengths differ
        engine.matmul(np.ones((2, 3, 4)), np.ones((3, 4, 2)), ws)
    with pytest.raises(ValueError):  # a stack against one tile
        engine.matmul(np.ones((2, 3, 4)), np.ones((4, 2)), ws)
    with pytest.raises(ValueError):  # bias of one tile for a stack
        engine.matmul(
            np.ones((2, 3, 4)), np.ones((2, 4, 2)), ws, bias=np.ones((3, 2))
        )


# ----------------------------------------------------------------------
# A StuckAtFault subclass that overrides apply must not take the
# vectorised stuck-at path: the cycle engine calls its apply.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _FlipBit3(StuckAtFault):
    def apply(self, value: int, dtype: IntType, cycle: int) -> int:
        return dtype.flip_bit(value, 3)


@pytest.mark.parametrize("dataflow", list(Dataflow), ids=str)
def test_fault_subclass_overriding_apply_matches_cycle_engine(dataflow):
    rng = np.random.default_rng(3)
    a = rng.integers(-128, 128, size=(4, 4))
    b = rng.integers(-128, 128, size=(4, 4))
    fault = _FlipBit3(FaultSite(row=1, col=2, signal=SIGNAL_SUM, bit=20))
    injector = FaultInjector(FaultSet.of(fault))
    cycle = CycleSimulator(MESH, injector).matmul(a, b, dataflow)
    fast = FunctionalSimulator(MESH, injector).matmul(a, b, dataflow)
    assert np.array_equal(cycle, fast)
    # The base class's stuck-at forcing is not what ran.
    plain = FunctionalSimulator(
        MESH, FaultInjector.single_stuck_at(fault.site, fault.stuck_value)
    ).matmul(a, b, dataflow)
    assert not np.array_equal(fast, plain)


# ----------------------------------------------------------------------
# TiledGemm against a per-tile reference loop
# ----------------------------------------------------------------------
def _reference_gemm(engine, a, b, dataflow, plan, reduction, bias):
    """The per-(output tile, k-tile) loop: one 2-D engine call per tile."""
    acc = engine.config.acc_dtype
    out = (
        np.zeros((plan.m, plan.n), dtype=np.int64)
        if bias is None
        else wrap_array(bias, acc)
    )
    for m_range, n_range in plan.output_tiles():
        rows = slice(m_range.start, m_range.stop)
        cols = slice(n_range.start, n_range.stop)
        partial = out[rows, cols]
        for k_range in plan.k_tiles:
            ks = slice(k_range.start, k_range.stop)
            if reduction == "mesh":
                partial = engine.matmul(a[rows, ks], b[ks, cols], dataflow, bias=partial)
            else:
                product = engine.matmul(a[rows, ks], b[ks, cols], dataflow)
                partial = wrap_array(partial + product, acc)
        out[rows, cols] = partial
    return out


class _CountingEngine:
    """Wraps an engine and counts its ``matmul`` calls."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.config = engine.config
        self.calls = 0

    def matmul(self, *args, **kwargs):
        self.calls += 1
        return self.engine.matmul(*args, **kwargs)


#: (tile_m, tile_k, tile_n) overrides valid under every dataflow on MESH.
TILINGS = [(None, None, None), (3, 2, 4), (2, 3, 3)]


@pytest.mark.parametrize("reduction", ["mesh", "memory"])
@pytest.mark.parametrize("tiles", TILINGS, ids=str)
@pytest.mark.parametrize("with_bias", [False, True], ids=["no-bias", "bias"])
@pytest.mark.parametrize("dataflow", list(Dataflow), ids=str)
def test_tiled_gemm_equals_per_tile_loop(reduction, tiles, with_bias, dataflow):
    rng = np.random.default_rng(5)
    a = rng.integers(-128, 128, size=(9, 7))
    b = rng.integers(-128, 128, size=(7, 10))
    bias = rng.integers(-(2**31), 2**31, size=(9, 10)) if with_bias else None
    faults = FaultSet.of(
        StuckAtFault(_site(SIGNAL_SUM, row=2, col=1), stuck_value=1),
        TransientBitFlip(_site(SIGNAL_A_REG, row=0, col=0), start_cycle=2, end_cycle=9),
    )
    tile_m, tile_k, tile_n = tiles
    counted = _CountingEngine(FunctionalSimulator(MESH, FaultInjector(faults)))
    gemm = TiledGemm(
        counted, tile_m=tile_m, tile_k=tile_k, tile_n=tile_n, reduction=reduction
    )
    result = gemm(a, b, dataflow, bias=bias)

    plan = result.plan
    reference_engine = FunctionalSimulator(MESH, FaultInjector(faults))
    expected = _reference_gemm(
        reference_engine, a, b, dataflow, plan, reduction, bias
    )
    assert np.array_equal(result.output, expected)
    assert counted.engine.cycles_elapsed == reference_engine.cycles_elapsed
    assert counted.engine.tiles_executed == reference_engine.tiles_executed
    assert counted.engine.tiles_executed == plan.num_tile_matmuls
    shapes = {(m.size, n.size) for m, n in plan.output_tiles()}
    assert counted.calls == len(shapes) * len(plan.k_tiles)


@pytest.mark.parametrize("reduction", ["mesh", "memory"])
@pytest.mark.parametrize("dataflow", list(Dataflow), ids=str)
def test_tiled_gemm_on_cycle_engine_equals_per_tile_loop(reduction, dataflow):
    rng = np.random.default_rng(9)
    a = rng.integers(-128, 128, size=(6, 5))
    b = rng.integers(-128, 128, size=(5, 7))
    faults = FaultSet.of(StuckAtFault(_site(SIGNAL_PRODUCT, row=1, col=2)))
    engine = CycleSimulator(MESH, FaultInjector(faults))
    result = TiledGemm(engine, reduction=reduction)(a, b, dataflow)
    reference_engine = CycleSimulator(MESH, FaultInjector(faults))
    expected = _reference_gemm(
        reference_engine, a, b, dataflow, result.plan, reduction, None
    )
    assert np.array_equal(result.output, expected)
    assert engine.cycles_elapsed == reference_engine.cycles_elapsed
    assert engine.tiles_executed == reference_engine.tiles_executed


def test_traced_cycle_gemm_records_one_span_per_tile():
    recorder = TraceRecorder()
    engine = CycleSimulator(MESH, recorder=recorder)
    a = np.ones((9, 6), dtype=np.int64)
    b = np.ones((6, 7), dtype=np.int64)
    result = TiledGemm(engine)(a, b, Dataflow.WEIGHT_STATIONARY)
    spans = [e for e in recorder.events() if e["name"] == "cycle.matmul"]
    assert len(spans) == result.plan.num_tile_matmuls == engine.tiles_executed
    assert np.array_equal(result.output, a @ b)
