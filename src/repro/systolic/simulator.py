"""The cycle-level simulation engine.

:class:`CycleSimulator` is the RTL-equivalent substrate of this repo: it
executes tile matmuls on a fault-injectable
:class:`~repro.systolic.array.SystolicArray`, cycle by cycle, under either
dataflow. It is the reference against which the vectorised
:mod:`repro.systolic.functional` engine is cross-validated.

The simulator also keeps a cycle counter, which the runtime bench (paper
Section IV Discussion: 45 s/GEMM, 130 s/conv, 49 h total on FPGA) uses to
report simulated-hardware cost alongside wall-clock cost.
"""

from __future__ import annotations

import numpy as np

from repro.faults.injector import NO_FAULTS, FaultInjector
from repro.obs.trace import NULL_RECORDER
from repro.systolic.array import MeshConfig, SystolicArray
from repro.systolic.dataflow import Dataflow, as_tile_stack, make_schedule
from repro.systolic.signals import SignalProbe

__all__ = ["CycleSimulator"]


class CycleSimulator:
    """Cycle-accurate executor of tile matmuls on a systolic mesh.

    Parameters
    ----------
    config:
        Mesh configuration (size and datapath types).
    injector:
        Fault overlay; defaults to a golden (fault-free) mesh.
    probe:
        Optional signal observer attached to every MAC unit.
    recorder:
        Tracing hook (see :mod:`repro.obs.trace`); per-phase setup /
        stream / drain spans are recorded for every tile. The default
        null recorder makes the instrumentation free, and spans never
        influence computed results.

    Notes
    -----
    The simulator reuses one mesh across calls (resetting registers between
    tiles), so constructing it once per FI experiment and running many tiles
    through it is cheap.
    """

    def __init__(
        self,
        config: MeshConfig,
        injector: FaultInjector = NO_FAULTS,
        probe: SignalProbe | None = None,
        recorder=NULL_RECORDER,
    ) -> None:
        self.config = config
        self.injector = injector
        self.array = SystolicArray(config, injector=injector, probe=probe)
        self.recorder = recorder
        self.cycles_elapsed = 0
        self.tiles_executed = 0

    def matmul(
        self,
        a: np.ndarray,
        b: np.ndarray,
        dataflow: Dataflow,
        bias: np.ndarray | None = None,
    ) -> np.ndarray:
        """Compute ``A @ B (+ bias)`` under ``dataflow``, one tile or a stack.

        Operands must respect the dataflow's mesh constraints (see
        :mod:`repro.systolic.dataflow`); larger operands must be tiled by
        :mod:`repro.ops` first. A stack of ``T`` equal-shape tiles
        (operands ``(T, M, K)`` and ``(T, K, N)``, bias ``(T, M, N)``, see
        :func:`~repro.systolic.dataflow.as_tile_stack`) runs tile by tile
        in stack order, each with its own ``cycle.matmul`` span, exactly as
        ``T`` single calls would.

        Returns
        -------
        numpy.ndarray
            ``(M, N)`` (or ``(T, M, N)``) int64 array of wrapped INT32
            results — bit-exact with the hardware, including any injected
            fault effects.
        """
        a, b, bias, stacked = as_tile_stack(a, b, bias)
        outputs = [
            self._tile(a[t], b[t], dataflow, None if bias is None else bias[t])
            for t in range(a.shape[0])
        ]
        return np.stack(outputs) if stacked else outputs[0]

    def _tile(
        self,
        a: np.ndarray,
        b: np.ndarray,
        dataflow: Dataflow,
        bias: np.ndarray | None,
    ) -> np.ndarray:
        """Run one tile through the mesh, cycle by cycle."""
        recorder = self.recorder
        with recorder.span("cycle.matmul", cat="simulator"):
            with recorder.span("cycle.setup", cat="simulator"):
                schedule = make_schedule(dataflow, a, b, bias=bias)
                schedule.setup(self.array)
            with recorder.span(
                "cycle.stream", cat="simulator", cycles=schedule.total_cycles
            ):
                for cycle in range(schedule.total_cycles):
                    schedule.step(self.array, cycle)
                    schedule.harvest(self.array, cycle)
            with recorder.span("cycle.drain", cat="simulator"):
                output = schedule.result(self.array)
        self.cycles_elapsed += schedule.total_cycles
        self.tiles_executed += 1
        return output
