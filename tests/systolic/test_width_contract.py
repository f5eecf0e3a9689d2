"""Runtime pins of the MAC width contract and of fault range closure.

The paper's fault patterns assume an INT8×INT8→INT32 MAC: the product of
two INT8 operands never wraps (``|a·b| <= 16384``), and only the
accumulator may. The INT8 operand space is 65,536 pairs, so the contract
is checked on every pair rather than on samples:

* :class:`~repro.systolic.mac.MacUnit` returns ``a*b`` on its fast path
  and on its driven (probed) path, and every probed value fits its
  signal's declared width;
* :meth:`FunctionalSimulator.matmul` returns the exact outer product for a
  K=1 GEMM over all INT8 values, under OS, WS and IS;
* both functional fault overlays, fed every pair, agree with a
  :class:`MacUnit` replay of the faulty MAC, and the OS overlay does so
  with all four signals of its MAC stuck in one run.

Range closure: every fault model's ``apply`` keeps a value inside the
signal dtype's range, exhaustively for INT8 and by hypothesis for INT32.
Fault models are discovered at run time; one without an entry in
:data:`FAULT_VARIANTS` fails :func:`test_every_fault_model_has_variants`,
so a new model is covered as soon as it exists.
"""

from __future__ import annotations

import importlib
import pkgutil
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.faults
from repro.faults import (
    BridgingFault,
    FaultDescriptor,
    FaultInjector,
    FaultSite,
    StuckAtFault,
    TransientBitFlip,
)
from repro.faults.sites import (
    MAC_SIGNALS,
    SIGNAL_A_REG,
    SIGNAL_B_REG,
    SIGNAL_PRODUCT,
    SIGNAL_SUM,
    signal_dtype,
)
from repro.systolic import FunctionalSimulator, MeshConfig
from repro.systolic.dataflow import Dataflow
from repro.systolic.datatypes import INT8, INT32
from repro.systolic.mac import MacUnit

INT8_VALUES = list(range(INT8.min_value, INT8.max_value + 1))
#: Every INT8 operand pair, ``a``-major, as two parallel lists.
PAIRS_A = [a for a in INT8_VALUES for _ in INT8_VALUES]
PAIRS_B = [b for _ in INT8_VALUES for b in INT8_VALUES]
PRODUCTS = [a * b for a, b in zip(PAIRS_A, PAIRS_B)]


def _assert_exact_products(got: list[int]) -> None:
    bad = [
        (a, b, g)
        for a, b, g, want in zip(PAIRS_A, PAIRS_B, got, PRODUCTS)
        if g != want
    ]
    assert not bad, f"{len(bad)} pairs differ, first (a, b, got): {bad[:3]}"


class _ValueProbe:
    """Keeps every driven value, per signal."""

    def __init__(self) -> None:
        self.values: dict[str, list[int]] = {s: [] for s in MAC_SIGNALS}

    def observe(self, event) -> None:
        self.values[event.signal].append(event.value)


class TestMacUnit:
    def test_fast_path_product_is_exact(self):
        mac = MacUnit(0, 0)
        got = [
            mac.compute(a, b, 0, cycle)
            for cycle, (a, b) in enumerate(zip(PAIRS_A, PAIRS_B))
        ]
        _assert_exact_products(got)

    def test_driven_path_product_is_exact_and_in_width(self):
        probe = _ValueProbe()
        mac = MacUnit(0, 0, probe=probe)
        got = [
            mac.compute(a, b, 0, cycle)
            for cycle, (a, b) in enumerate(zip(PAIRS_A, PAIRS_B))
        ]
        _assert_exact_products(got)
        for signal, values in probe.values.items():
            dtype = signal_dtype(signal)
            assert len(values) == len(PRODUCTS), signal
            assert dtype.contains(min(values)), (signal, min(values))
            assert dtype.contains(max(values)), (signal, max(values))


@pytest.mark.parametrize("dataflow", list(Dataflow), ids=str)
def test_functional_k1_gemm_is_the_exact_outer_product(dataflow):
    values = np.array(INT8_VALUES, dtype=np.int64)
    size = len(INT8_VALUES)
    sim = FunctionalSimulator(MeshConfig(rows=size, cols=size))
    out = sim.matmul(values.reshape(-1, 1), values.reshape(1, -1), dataflow)
    np.testing.assert_array_equal(out, np.outer(values, values))


#: One stuck-at per signal, each on a bit the values of these tests reach.
STUCK = {
    SIGNAL_A_REG: (6, 1),
    SIGNAL_B_REG: (3, 0),
    SIGNAL_PRODUCT: (13, 1),
    SIGNAL_SUM: (20, 0),
}


def _stuck_at(signal: str) -> FaultInjector:
    bit, stuck = STUCK[signal]
    return FaultInjector.single_stuck_at(FaultSite(0, 0, signal, bit), stuck)


class TestFaultOverlays:
    """Each overlay is fed every pair; its faulty MAC matches MacUnit."""

    @pytest.mark.parametrize("signal", MAC_SIGNALS)
    def test_os_overlay_matches_mac_unit(self, signal):
        # A 1x1 mesh whose one PE reduces over its pairs, one a cycle. The
        # four runs, one faulted signal each, split the 65,536 pairs.
        part = MAC_SIGNALS.index(signal)
        pairs_a = PAIRS_A[part :: len(MAC_SIGNALS)]
        pairs_b = PAIRS_B[part :: len(MAC_SIGNALS)]
        injector = _stuck_at(signal)
        sim = FunctionalSimulator(MeshConfig(rows=1, cols=1), injector)
        a = np.array(pairs_a, dtype=np.int64).reshape(1, -1)
        b = np.array(pairs_b, dtype=np.int64).reshape(-1, 1)
        out = sim.matmul(a, b, Dataflow.OUTPUT_STATIONARY)

        mac = MacUnit(0, 0, injector)
        acc = 0
        for cycle, (av, bv) in enumerate(zip(pairs_a, pairs_b)):
            acc = mac.compute(av, bv, acc, cycle)
        assert int(out[0, 0]) == acc

    def test_os_overlay_applies_all_faults_of_a_mac_in_one_pass(self):
        # Every signal of the one PE stuck at once, over all 65,536 pairs:
        # the overlay replays the MAC once with all four faults applied.
        injector = FaultInjector([
            StuckAtFault(FaultSite(0, 0, signal, bit), stuck)
            for signal, (bit, stuck) in STUCK.items()
        ])
        sim = FunctionalSimulator(MeshConfig(rows=1, cols=1), injector)
        a = np.array(PAIRS_A, dtype=np.int64).reshape(1, -1)
        b = np.array(PAIRS_B, dtype=np.int64).reshape(-1, 1)
        out = sim.matmul(a, b, Dataflow.OUTPUT_STATIONARY)

        mac = MacUnit(0, 0, injector)
        acc = 0
        for cycle, (av, bv) in enumerate(zip(PAIRS_A, PAIRS_B)):
            acc = mac.compute(av, bv, acc, cycle)
        assert int(out[0, 0]) == acc

    @pytest.mark.parametrize("signal", MAC_SIGNALS)
    def test_ws_overlay_matches_mac_unit(self, signal):
        # A 256-row column: row i holds weight INT8_VALUES[i] and output
        # row m streams activation INT8_VALUES[m] through it, so the
        # recomputed column chain covers all pairs. The fault sits on row
        # 0, whose weight -128 gives the extreme product 16384.
        size = len(INT8_VALUES)
        values = np.array(INT8_VALUES, dtype=np.int64)
        injector = _stuck_at(signal)
        sim = FunctionalSimulator(MeshConfig(rows=size, cols=1), injector)
        a = np.tile(values.reshape(-1, 1), (1, size))
        out = sim.matmul(a, values.reshape(-1, 1), Dataflow.WEIGHT_STATIONARY)

        macs = [MacUnit(i, 0, injector) for i in range(size)]
        want = []
        for m, av in enumerate(INT8_VALUES):
            psum = 0
            for i, (mac, wv) in enumerate(zip(macs, INT8_VALUES)):
                psum = mac.compute(av, wv, psum, m + i)
            want.append(psum)
        assert out[:, 0].tolist() == want


#: Constructor table: every parameter variant of each fault model at a site.
FAULT_VARIANTS = {
    StuckAtFault: lambda site: [StuckAtFault(site, stuck) for stuck in (0, 1)],
    TransientBitFlip: lambda site: [
        TransientBitFlip(site),
        TransientBitFlip(site, start_cycle=3, end_cycle=6),
    ],
    BridgingFault: lambda site: [
        BridgingFault(site, other_bit=other, mode=mode)
        for other in range(site.dtype.width)
        if other != site.bit
        for mode in ("and", "or")
    ],
}
#: Cycles that put each TransientBitFlip variant inside its window once
#: and outside it once.
CYCLES = (0, 4)
MODELS = sorted(FAULT_VARIANTS, key=lambda cls: cls.__name__)


def _fault_models() -> set[type]:
    """Every FaultDescriptor subclass defined in the ``repro`` package."""
    prefix = repro.faults.__name__ + "."
    for module in pkgutil.walk_packages(repro.faults.__path__, prefix):
        importlib.import_module(module.name)
    found: set[type] = set()
    stack = [FaultDescriptor]
    while stack:
        for sub in stack.pop().__subclasses__():
            stack.append(sub)
            # Skip test-local subclasses; they are not fault models.
            if sub.__module__.startswith("repro."):
                found.add(sub)
    return found


def test_every_fault_model_has_variants():
    missing = sorted(
        cls.__qualname__ for cls in _fault_models() - set(FAULT_VARIANTS)
    )
    assert not missing, f"fault models with no FAULT_VARIANTS entry: {missing}"


@pytest.mark.parametrize("model", MODELS, ids=lambda cls: cls.__name__)
def test_int8_apply_is_range_closed(model):
    escapes = []
    for bit in range(INT8.width):
        for fault in FAULT_VARIANTS[model](FaultSite(0, 0, SIGNAL_A_REG, bit)):
            for cycle in CYCLES:
                for value in INT8_VALUES:
                    out = fault.apply(value, INT8, cycle)
                    if not INT8.contains(out):
                        escapes.append((fault, value, cycle, out))
    assert not escapes, f"{len(escapes)} escapes, first: {escapes[:3]}"


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_int32_apply_is_range_closed(data):
    model = data.draw(st.sampled_from(MODELS))
    bit = data.draw(st.integers(0, INT32.width - 1))
    site = FaultSite(0, 0, SIGNAL_SUM, bit)
    fault = data.draw(st.sampled_from(FAULT_VARIANTS[model](site)))
    value = data.draw(st.integers(INT32.min_value, INT32.max_value))
    cycle = data.draw(st.sampled_from(CYCLES))
    assert INT32.contains(fault.apply(value, INT32, cycle))
